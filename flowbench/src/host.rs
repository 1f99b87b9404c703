//! Measurements around the flow: the host-speed reference, peak resident
//! memory, and the fresh-process setup probe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use aqfp_synth::truth::MappingTable;
use superflow::{FlowConfig, FlowSession};

/// Argument that turns the benchmark binary into a setup probe.
pub const SETUP_PROBE_ARG: &str = "--setup-probe";

/// Keys sorted per reference sort (128 KiB of `u64`, cache-resident, so the
/// reference adds nothing measurable to the run's peak memory).
const REF_KEYS: usize = 1 << 14;
/// Sorts per reference block (about 25 ms on the hosts measured so far).
const REF_SORTS: usize = 64;
/// Reference seconds are wall seconds scaled to a host on which one
/// reference block takes this long.
pub const REF_NOMINAL_S: f64 = 0.025;
/// Share of the timed wall time the reference runs for.
const REF_SHARE: f64 = 0.1;

/// One step of a xorshift64 generator.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The host-speed reference: a fixed block of sorts that calls no flow
/// code, run on the benchmark's own thread between timed segments.
///
/// The host's speed drifts by up to 2× within minutes, and per CPU: a
/// reference on another CPU barely tracks it, while one interleaved on the
/// same thread does. After every timed segment the reference runs blocks
/// for [`REF_SHARE`] of the segment's wall time, so the blocks sample the
/// host in proportion to the time the workload spent on it. A run reports
/// its wall times in reference seconds, `wall × REF_NOMINAL_S / median
/// block`: a run taken while the host is slow reads like one taken while it
/// is fast.
#[derive(Debug, Default)]
pub struct HostRef {
    /// Seconds of every block run so far.
    pub blocks: Vec<f64>,
    /// Reference seconds still owed to the segments timed so far.
    owed_s: f64,
    keys: Vec<u64>,
    state: u64,
}

impl HostRef {
    /// Runs one reference block.
    fn block(&mut self) -> f64 {
        let start = Instant::now();
        let mut checksum = 0u64;
        self.state |= 1;
        for _ in 0..REF_SORTS {
            self.keys.clear();
            let state = &mut self.state;
            self.keys.extend((0..REF_KEYS).map(|_| xorshift(state)));
            self.keys.sort_unstable();
            checksum ^= self.keys[REF_KEYS / 2];
        }
        std::hint::black_box(checksum);
        let seconds = start.elapsed().as_secs_f64();
        self.blocks.push(seconds);
        seconds
    }

    /// Runs blocks for [`REF_SHARE`] of `wall_s`, the seconds of the
    /// segment just timed (at least one block per run).
    pub fn follow(&mut self, wall_s: f64) {
        self.owed_s += wall_s * REF_SHARE;
        while self.owed_s > 0.0 || self.blocks.is_empty() {
            self.owed_s -= self.block();
        }
    }
}

/// The factor that turns wall seconds measured while the reference ran
/// `blocks` into reference seconds.
pub fn factor(blocks: &[f64]) -> f64 {
    if blocks.is_empty() {
        return 1.0;
    }
    REF_NOMINAL_S / crate::stats::median(&mut blocks.to_vec())
}

/// Path of the running benchmark binary, for the probe children.
fn current_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))
}

/// Body of the setup probe process: resolves the paper-default technology,
/// opens a session and builds the synthesis mapping table, then prints
/// `ready <tech_s> <session_s> <table_s>`; after that, outside the parent's
/// timer, it runs one reference block and prints its seconds, so the probe
/// is normalized by the speed of the CPU it ran on.
pub fn setup_probe() -> Result<(), String> {
    let config = FlowConfig::paper_default().with_threads(1);
    let start = Instant::now();
    let technology = config.tech.resolve().map_err(|e| e.to_string())?;
    let tech_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let session = FlowSession::new(config).map_err(|e| e.to_string())?;
    let session_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let table = MappingTable::global();
    let table_s = start.elapsed().as_secs_f64();
    std::hint::black_box((technology, session, table.coverage()));
    println!("ready {tech_s} {session_s} {table_s}");
    let mut host = HostRef::default();
    host.follow(0.0);
    println!("{}", host.blocks[0]);
    Ok(())
}

/// One fresh-process setup measurement.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// Spawn until the probe reported ready, as the parent saw it.
    pub wall_s: f64,
    /// `TechSpec::resolve` inside the probe.
    pub tech_s: f64,
    /// `FlowSession::new` inside the probe.
    pub session_s: f64,
    /// The first `MappingTable::global()` inside the probe.
    pub table_s: f64,
    /// The reference block the probe ran after it was ready.
    pub block_s: f64,
}

/// Spawns one setup probe and times it from spawn to its ready line.
pub fn setup_sample() -> Result<SetupSample, String> {
    let exe = current_exe()?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg(SETUP_PROBE_ARG)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn the setup probe: {e}"))?;
    let mut line = String::new();
    let mut block = String::new();
    let mut wall_s = 0.0;
    let read = match child.stdout.take() {
        Some(stdout) => {
            let mut reader = BufReader::new(stdout);
            reader.read_line(&mut line).and_then(|_| {
                wall_s = start.elapsed().as_secs_f64();
                reader.read_line(&mut block)
            })
        }
        None => Ok(0),
    };
    let status = child.wait().map_err(|e| format!("setup probe did not finish: {e}"))?;
    read.map_err(|e| format!("cannot read the setup probe: {e}"))?;
    if !status.success() {
        return Err(format!("setup probe exited with {status}"));
    }
    let fields: Vec<f64> =
        line.split_whitespace().skip(1).filter_map(|field| field.parse().ok()).collect();
    match (line.starts_with("ready"), fields.as_slice(), block.trim().parse::<f64>()) {
        (true, &[tech_s, session_s, table_s], Ok(block_s)) => {
            Ok(SetupSample { wall_s, tech_s, session_s, table_s, block_s })
        }
        _ => Err(format!("setup probe printed `{}` / `{}`", line.trim(), block.trim())),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
