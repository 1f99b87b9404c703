//! Serialization round-trips for the technology data structures.
//!
//! Design teams exchange technology and rule data as JSON-like documents;
//! the serde implementations must round-trip without loss so a technology
//! tweaked by an external tool can be fed back into the flow.

use aqfp_cells::{CellKind, EnergyModel, FourPhaseClock, ProcessRules, Technology};
use aqfp_timing::TimingConfig;

#[test]
fn cell_library_round_trips_through_json() {
    let technology = Technology::mit_ll_sqf5ee();
    let json = serde_json::to_string(&technology).expect("serialize");
    let back: Technology = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(technology, back);
    assert_eq!(back.cell(CellKind::Majority3).jj_count, 6);
}

#[test]
fn process_rules_round_trip_and_stay_valid() {
    for rules in [ProcessRules::mit_ll(), ProcessRules::stp2()] {
        let json = serde_json::to_string(&rules).expect("serialize");
        let back: ProcessRules = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(rules, back);
        back.validate().expect("still valid");
    }
}

#[test]
fn timing_and_energy_configs_round_trip() {
    let timing = TimingConfig::paper_default();
    let back: TimingConfig =
        serde_json::from_str(&serde_json::to_string(&timing).expect("serialize"))
            .expect("deserialize");
    assert_eq!(timing, back);

    let energy = EnergyModel::aqfp_5ghz();
    let back: EnergyModel =
        serde_json::from_str(&serde_json::to_string(&energy).expect("serialize"))
            .expect("deserialize");
    assert_eq!(energy, back);

    let clock = FourPhaseClock::new(6.5);
    let back: FourPhaseClock =
        serde_json::from_str(&serde_json::to_string(&clock).expect("serialize"))
            .expect("deserialize");
    assert_eq!(clock, back);
}
