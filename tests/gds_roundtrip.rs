//! Integration tests for the GDSII back-end: the layouts produced by the
//! flow must be structurally sound GDSII streams that a viewer (KLayout)
//! would accept.

use superflow_suite::prelude::*;

use aqfp_layout::gds::{parse_records, RecordTag};

/// The GDS stream of `benchmark` after the fast flow.
fn gds_bytes(benchmark: Benchmark) -> Vec<u8> {
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let checked = session.run(&benchmark_circuit(benchmark)).expect("flow succeeds");
    checked.layout.to_gds_bytes()
}

#[test]
fn flow_layout_stream_is_structurally_valid() {
    let records = parse_records(&gds_bytes(Benchmark::Adder8)).expect("valid stream");

    // Stream framing.
    assert_eq!(records.first().and_then(|r| r.tag), Some(RecordTag::Header));
    assert_eq!(records.last().and_then(|r| r.tag), Some(RecordTag::EndLib));

    // Balanced structure and element brackets.
    let count = |tag: RecordTag| records.iter().filter(|r| r.tag == Some(tag)).count();
    assert_eq!(count(RecordTag::BgnStr), count(RecordTag::EndStr));
    let elements = count(RecordTag::Boundary)
        + count(RecordTag::Path)
        + count(RecordTag::Sref)
        + count(RecordTag::Text);
    assert_eq!(elements, count(RecordTag::EndEl));

    // Every SREF names a structure that exists in the library.
    let defined: std::collections::HashSet<String> = records
        .iter()
        .filter(|r| r.tag == Some(RecordTag::StrName))
        .map(|r| String::from_utf8_lossy(&r.payload).trim_end_matches('\0').to_owned())
        .collect();
    let mut expecting_sname = false;
    for record in &records {
        match record.tag {
            Some(RecordTag::Sref) => expecting_sname = true,
            Some(RecordTag::SName) if expecting_sname => {
                let name =
                    String::from_utf8_lossy(&record.payload).trim_end_matches('\0').to_owned();
                assert!(defined.contains(&name), "SREF to undefined structure `{name}`");
                expecting_sname = false;
            }
            _ => {}
        }
    }
}

#[test]
fn every_record_length_is_even_and_word_aligned() {
    let bytes = gds_bytes(Benchmark::C432);
    assert_eq!(bytes.len() % 2, 0);
    let records = parse_records(&bytes).expect("valid stream");
    for record in records {
        assert_eq!(record.payload.len() % 2, 0, "odd payload in record {:02x}", record.record_type);
    }
}
