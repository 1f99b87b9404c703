//! `flowbench`: the repository benchmark of the SuperFlow RTL-to-GDS flow.
//!
//! ```text
//! flowbench --workload <paper9|dag-synth|batch-resume|all> --seed <n>
//!           --seconds <s> --trace <0|1>
//! flowbench --self-test --seed <n>
//! ```
//!
//! One run measures setup in fresh processes, then repeats the workload on
//! inputs made from the seed for about `--seconds` seconds — spread over
//! fresh worker processes when untraced — checking every output. It prints
//! a human-readable table and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). See `flowbench/README.md` for the metric definitions.

mod host;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::host::HostRef;
use crate::report::Outcome;
use crate::workloads::{LayerRep, Prepared, Rep, WORKLOADS};

/// Fresh-process setup probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;
/// Worker processes an untraced run splits its repetitions over; each makes
/// at least one repetition.
const WORKERS: usize = 3;
/// Argument that turns the benchmark binary into a worker process.
const WORKER_ARG: &str = "--worker";
/// Prefix of the line a worker prints its result on.
const WORKER_PREFIX: &str = "worker: ";
/// Directory (relative to the working directory) for inputs, journals and
/// trace files.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    worker: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        self_test: false,
        worker: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--self-test" => parsed.self_test = true,
            WORKER_ARG => parsed.worker = true,
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = number(flag, value()?)?,
            "--seconds" => parsed.seconds = number(flag, value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace` expects 0 or 1, got `{other}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !parsed.self_test
        && parsed.workload != "all"
        && !WORKLOADS.contains(&parsed.workload.as_str())
    {
        return Err(format!(
            "`--workload` must be one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// Parses the value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("`{flag}` expects a number, got `{value}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(host::SETUP_PROBE_ARG) => host::setup_probe(),
        _ => parse_args(&args).and_then(|args| {
            if args.self_test {
                self_test(args.seed)
            } else if args.worker {
                worker(&args)
            } else if args.workload == "all" {
                report::run_all(&args.workload_args())
            } else {
                run(&args)
            }
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("flowbench: {message}");
            ExitCode::FAILURE
        }
    }
}

impl Args {
    /// The arguments a child run of `--workload all` inherits.
    fn workload_args(&self) -> Vec<String> {
        vec![
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ]
    }
}

/// One seed regenerates byte-identical Verilog; another seed changes it.
fn self_test(seed: u64) -> Result<(), String> {
    let next = seed.wrapping_add(1);
    for workload in ["dag-synth", "batch-resume"] {
        let first = workloads::seeded_verilog(workload, seed)?;
        if first != workloads::seeded_verilog(workload, seed)? {
            return Err(format!("{workload}: seed {seed} regenerated different Verilog"));
        }
        if first == workloads::seeded_verilog(workload, next)? {
            return Err(format!("{workload}: seeds {seed} and {next} gave the same Verilog"));
        }
        println!("self-test {workload}: seed {seed} reproduces its Verilog; seed {next} differs");
    }
    println!("self-test passed");
    Ok(())
}

/// Removes a run's work directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one process measured: its repetitions (the traced ones too), its
/// host-speed blocks and its peak memory.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Measured {
    reps: Vec<Rep>,
    blocks: Vec<f64>,
    peak_rss_mb: f64,
}

/// Prepares the workload in this process and repeats it for about
/// `seconds`; traced repetitions go to `layer_reps`.
fn repeat(
    args: &Args,
    seconds: f64,
    host: &mut HostRef,
    layer_reps: &mut Vec<LayerRep>,
) -> Result<Measured, String> {
    let work =
        WorkDir(Path::new(OUT_DIR).join(format!("{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create `{}`: {e}", work.0.display()))?;
    let mut prepared = Prepared::new(&args.workload, args.seed, &work.0)?;

    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        if args.trace {
            layer_reps.push(prepared.run_traced(host)?);
        } else {
            reps.push(prepared.run_rep(host)?);
        }
        let done = (reps.len() + layer_reps.len()) as f64;
        if start.elapsed().as_secs_f64() * (done + 1.0) / done > seconds {
            break;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    prepared.complete_qor(reps.iter_mut().chain(layer_reps.iter_mut().map(|l| &mut l.untraced)))?;
    Ok(Measured { reps, blocks: host.blocks.clone(), peak_rss_mb })
}

/// Body of a worker process: one share of an untraced run's repetitions,
/// printed as one JSON line.
fn worker(args: &Args) -> Result<(), String> {
    let mut host = HostRef::default();
    let measured = repeat(args, args.seconds, &mut host, &mut Vec::new())?;
    let json = serde_json::to_string(&measured).map_err(|e| format!("worker result: {e}"))?;
    println!("{WORKER_PREFIX}{json}");
    Ok(())
}

/// Runs one worker process for `seconds` and returns what it measured.
fn spawn_worker(args: &Args, seconds: f64) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args([WORKER_ARG, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a worker: {e}"))?;
    if !output.status.success() {
        return Err(format!("worker exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|line| line.strip_prefix(WORKER_PREFIX))
        .ok_or("worker printed no result")?;
    serde_json::from_str(line).map_err(|e| format!("worker printed a bad result: {e}"))
}

/// Runs one workload for about `args.seconds` and prints its report. An
/// untraced run splits its repetitions over [`WORKERS`] fresh processes
/// run one after another, so no single process's memory placement decides
/// its figures; a traced run stays in this process.
fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let mut host = HostRef::default();
    let setups = (0..SETUP_PROBES).map(|_| host::setup_sample()).collect::<Result<Vec<_>, _>>()?;
    host.follow(setups.iter().map(|s| s.wall_s).sum());
    if workloads::seeded_verilog(&args.workload, args.seed)?
        != workloads::seeded_verilog(&args.workload, args.seed)?
    {
        return Err(format!("seed {} did not regenerate identical inputs", args.seed));
    }

    let mut layer_reps = Vec::new();
    let (reps, peak_rss_mb) = if args.trace {
        let mut measured = repeat(args, args.seconds, &mut host, &mut layer_reps)?;
        let factor = host::factor(&host.blocks);
        for rep in measured.reps.iter_mut().chain(layer_reps.iter_mut().map(|l| &mut l.untraced)) {
            rep.factor = factor;
        }
        (measured.reps, vec![measured.peak_rss_mb])
    } else {
        let mut reps = Vec::new();
        let mut peaks = Vec::new();
        for _ in 0..WORKERS {
            let measured = spawn_worker(args, args.seconds / WORKERS as f64)?;
            let factor = host::factor(&measured.blocks);
            reps.extend(measured.reps.into_iter().map(|rep| Rep { factor, ..rep }));
            peaks.push(measured.peak_rss_mb);
            host.blocks.extend(measured.blocks);
        }
        (reps, peaks)
    };

    let outcome = Outcome {
        workload: args.workload.clone(),
        seed: args.seed,
        back_end: workloads::has_back_end(&args.workload),
        factor: host::factor(&host.blocks),
        setups,
        host_blocks: host.blocks,
        reps,
        layer_reps,
        peak_rss_mb,
        wall_s: started.elapsed().as_secs_f64(),
    };
    let trace_path =
        Path::new(OUT_DIR).join(format!("trace-{}-s{}.json", args.workload, args.seed));
    outcome.print(args.trace.then_some(trace_path.as_path()))
}
