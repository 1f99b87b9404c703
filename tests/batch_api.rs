//! Integration tests for the fault-isolated batch driver: injected faults
//! (panics, zero deadlines, torn checkpoints) are classified per design
//! without stopping the rest of the batch, the degraded retry rescues
//! first-attempt failures with a fault-free run's GDS, and a killed batch
//! resumed over its journal produces byte-identical GDS.

use std::path::PathBuf;

use superflow_suite::prelude::*;

/// A fresh per-test scratch directory under the system temp dir; removed
/// first so a rerun never sees a previous run's journal.
fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("superflow_batch_api_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fast_batch() -> BatchConfig {
    BatchConfig::new(FlowConfig::fast()).with_workers(2)
}

fn status_of<'r>(report: &'r BatchReport, name: &str) -> &'r DesignReport {
    report.designs.iter().find(|d| d.name == name).unwrap_or_else(|| panic!("{name} in report"))
}

#[test]
fn injected_faults_are_isolated_per_design() {
    // One design panics, one times out instantly, one is untouched: the
    // faulty two are classified Failed at the right stage and the clean one
    // still completes.
    let faults = FaultPlan::none()
        .with(Fault::parse("panic:adder8:placement").expect("valid spec"))
        .with(Fault::parse("deadline:c432:routing").expect("valid spec"));
    let config = fast_batch().with_retry_degraded(false).with_faults(faults);
    let jobs = [
        BatchJob::from_input("adder8"),
        BatchJob::from_input("c432"),
        BatchJob::from_input("apc32"),
    ];
    let report = BatchRunner::new(config).run(&jobs).expect("batch-level setup succeeds");

    assert_eq!(report.designs.len(), 3);
    assert_eq!(report.succeeded(), 1);
    assert_eq!(report.failed(), 2);

    let adder8 = status_of(&report, "adder8");
    match &adder8.status {
        DesignStatus::Failed { error, stage, attempts } => {
            assert!(error.contains("injected fault: panic"), "{error}");
            assert_eq!(stage.as_deref(), Some("placement"));
            assert_eq!(*attempts, 1);
        }
        other => panic!("adder8 should fail at placement, got {other:?}"),
    }

    let c432 = status_of(&report, "c432");
    match &c432.status {
        DesignStatus::Failed { error, stage, .. } => {
            assert!(error.contains("deadline"), "{error}");
            assert_eq!(stage.as_deref(), Some("routing"));
        }
        other => panic!("c432 should time out at routing, got {other:?}"),
    }

    assert_eq!(status_of(&report, "apc32").status, DesignStatus::Succeeded);

    // The report survives a serde round-trip with classifications intact.
    let json = report.to_json().expect("report serializes");
    let back = BatchReport::from_json(&json).expect("report parses");
    assert_eq!(back, report);
}

#[test]
fn degraded_retry_rescues_a_first_attempt_panic() {
    // Faults fire on the first attempt only, so the degraded retry runs
    // clean and rescues the design.
    let faults = FaultPlan::none().with(Fault::parse("panic:adder8:placement").expect("valid"));
    let config = fast_batch().with_faults(faults);
    let report =
        BatchRunner::new(config).run(&[BatchJob::from_input("adder8")]).expect("batch runs");

    let adder8 = status_of(&report, "adder8");
    assert_eq!(adder8.status, DesignStatus::Degraded);
    assert_eq!(adder8.attempts, 2);
    assert_eq!(report.degraded(), 1);
    assert_eq!(report.failed(), 0);
}

#[test]
fn corrupt_checkpoints_fail_loudly_and_the_retry_recovers() {
    let journal = temp_dir("corrupt_checkpoints");

    // Seed the journal with a complete run whose newest checkpoint
    // (check.json) is torn in half after being written.
    let faults = FaultPlan::none().with(Fault::parse("truncate:adder8:check").expect("valid"));
    let seed =
        fast_batch().with_retry_degraded(false).with_journal_dir(&journal).with_faults(faults);
    let jobs = [BatchJob::from_input("adder8")];
    let seeded = BatchRunner::new(seed).run(&jobs).expect("batch runs");
    assert_eq!(seeded.succeeded(), 1, "truncation damages the journal, not the run that wrote it");

    // Resuming over the torn journal must fail that design loudly — naming
    // the file — rather than silently recomputing.
    let strict = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    let report = BatchRunner::new(strict).run(&jobs).expect("batch runs");
    let adder8 = status_of(&report, "adder8");
    match &adder8.status {
        DesignStatus::Failed { error, stage, .. } => {
            assert!(error.contains("check.json"), "{error}");
            assert_eq!(stage.as_deref(), Some("check"));
        }
        other => panic!("torn checkpoint should fail the design, got {other:?}"),
    }

    // With the retry enabled the degraded attempt starts from scratch,
    // rescues the design, and rewrites the journal intact.
    let retrying = fast_batch().with_journal_dir(&journal);
    let report = BatchRunner::new(retrying).run(&jobs).expect("batch runs");
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Degraded);

    let healed = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    let report = BatchRunner::new(healed).run(&jobs).expect("batch runs");
    let adder8 = status_of(&report, "adder8");
    assert_eq!(adder8.status, DesignStatus::Succeeded);
    assert_eq!(adder8.resumed_from.as_deref(), Some("check"), "journal is intact again");

    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn a_retried_design_writes_the_gds_of_a_fault_free_run() {
    let dir = temp_dir("retried_gds");
    let jobs = [BatchJob::from_input("adder8")];
    let gds = |out: &std::path::Path| std::fs::read(out.join("adder8.gds")).expect("GDS written");

    let cold_out = dir.join("cold");
    let report =
        BatchRunner::new(fast_batch().with_output_dir(&cold_out)).run(&jobs).expect("batch runs");
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Succeeded);
    let cold = gds(&cold_out);

    // The first attempt panics; the serial retry rescues the design with
    // the uninterrupted run's bytes.
    let rescued_out = dir.join("rescued");
    let faults = FaultPlan::none().with(Fault::parse("panic:adder8:placement").expect("valid"));
    let rescuing = fast_batch().with_faults(faults).with_output_dir(&rescued_out);
    let report = BatchRunner::new(rescuing).run(&jobs).expect("batch runs");
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Degraded);
    assert!(gds(&rescued_out) == cold, "a rescued design must write the fault-free GDS");

    // A torn check checkpoint, healed by the retry's fresh checkpoints,
    // resumes to the same bytes.
    let journal = dir.join("journal");
    let faults = FaultPlan::none().with(Fault::parse("truncate:adder8:check").expect("valid"));
    let tearing = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    BatchRunner::new(tearing.with_faults(faults)).run(&jobs).expect("batch runs");
    let healing = BatchRunner::new(fast_batch().with_journal_dir(&journal));
    let report = healing.run(&jobs).expect("batch runs");
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Degraded);
    let resumed_out = dir.join("resumed");
    let resuming = fast_batch().with_journal_dir(&journal).with_output_dir(&resumed_out);
    let report = BatchRunner::new(resuming).run(&jobs).expect("batch runs");
    let adder8 = status_of(&report, "adder8");
    assert_eq!(adder8.status, DesignStatus::Succeeded);
    assert_eq!(adder8.checkpoint_hits, 4, "every stage resumes from the healed journal");
    assert!(gds(&resumed_out) == cold, "a healed journal must resume to the fault-free GDS");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A `corrupt:…:check` fault shifts a cell reference inside the layout's
/// GDS bytes; post-stage LVS catches it, and the design fails at the
/// verify stage naming the rule.
#[test]
fn a_corrupted_layout_fails_at_the_verify_stage_with_lvs_v022() {
    let faults = FaultPlan::none().with(Fault::parse("corrupt:adder8:check").expect("valid"));
    let config = fast_batch().with_retry_degraded(false).with_faults(faults);
    let report =
        BatchRunner::new(config).run(&[BatchJob::from_input("adder8")]).expect("batch runs");
    match &status_of(&report, "adder8").status {
        DesignStatus::Failed { error, stage, .. } => {
            assert_eq!(stage.as_deref(), Some("verify"), "{error}");
            assert!(error.contains("AQFP-V022"), "{error}");
        }
        other => panic!("a corrupted layout should fail verification, got {other:?}"),
    }
}

/// Resume reads a journal checkpoint straight from its file, and a torn
/// one fails with the parse error its text gives, byte offset and all,
/// under the file's name.
#[test]
fn a_torn_journal_checkpoint_fails_with_the_parse_error_of_its_text() {
    let journal = temp_dir("torn_parse_error");
    let faults = FaultPlan::none().with(Fault::parse("truncate:adder8:check").expect("valid"));
    let seed =
        fast_batch().with_retry_degraded(false).with_journal_dir(&journal).with_faults(faults);
    let jobs = [BatchJob::from_input("adder8")];
    assert_eq!(BatchRunner::new(seed).run(&jobs).expect("batch runs").succeeded(), 1);

    let path = journal.join("adder8").join("check.json");
    let text = std::fs::read_to_string(&path).expect("the torn checkpoint reads");
    let parse_error = Checked::from_json(&text).expect_err("torn in half").to_string();

    let strict = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    let report = BatchRunner::new(strict).run(&jobs).expect("batch runs");
    match &status_of(&report, "adder8").status {
        DesignStatus::Failed { error, stage, .. } => {
            assert_eq!(stage.as_deref(), Some("check"), "{error}");
            assert_eq!(error, &format!("`{}`: {parse_error}", path.display()));
        }
        other => panic!("a torn checkpoint should fail the design, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn a_killed_batch_resumes_to_byte_identical_gds() {
    let scratch = temp_dir("kill_and_resume");
    let journal = scratch.join("journal");
    let reference_out = scratch.join("reference");
    let resumed_out = scratch.join("resumed");
    let jobs = [
        BatchJob::from_input("adder8"),
        BatchJob::from_input("c432"),
        BatchJob::from_input("apc32"),
    ];

    // Uninterrupted reference run: no journal, straight to GDS.
    let reference = BatchRunner::new(fast_batch().with_output_dir(&reference_out))
        .run(&jobs)
        .expect("batch runs");
    assert_eq!(reference.succeeded(), 3);

    // "Killed" run: each design panics at a different depth, so the journal
    // is left with 0, 2 and 3 completed stages respectively.
    let faults = FaultPlan::none()
        .with(Fault::parse("panic:adder8:synthesis").expect("valid"))
        .with(Fault::parse("panic:c432:routing").expect("valid"))
        .with(Fault::parse("panic:apc32:check").expect("valid"));
    let killed = BatchRunner::new(
        fast_batch().with_retry_degraded(false).with_journal_dir(&journal).with_faults(faults),
    )
    .run(&jobs)
    .expect("batch runs");
    assert_eq!(killed.failed(), 3, "every design dies mid-flight");

    // Resume over the same journal, fault-free: every design completes from
    // its newest checkpoint and the GDS matches the uninterrupted run byte
    // for byte.
    let resumed =
        BatchRunner::new(fast_batch().with_journal_dir(&journal).with_output_dir(&resumed_out))
            .run(&jobs)
            .expect("batch runs");
    assert_eq!(resumed.succeeded(), 3);

    let adder8 = status_of(&resumed, "adder8");
    assert_eq!(adder8.resumed_from, None, "it died before any checkpoint was written");
    assert_eq!(adder8.checkpoint_hits, 0);
    let c432 = status_of(&resumed, "c432");
    assert_eq!(c432.resumed_from.as_deref(), Some("placement"));
    assert_eq!(c432.checkpoint_hits, 2);
    let apc32 = status_of(&resumed, "apc32");
    assert_eq!(apc32.resumed_from.as_deref(), Some("routing"));
    assert_eq!(apc32.checkpoint_hits, 3);
    assert_eq!(resumed.checkpoint_hits, 5);

    for job in &jobs {
        let file = format!("{}.gds", job.name);
        let reference_gds = std::fs::read(reference_out.join(&file)).expect("reference GDS");
        let resumed_gds = std::fs::read(resumed_out.join(&file)).expect("resumed GDS");
        assert!(!reference_gds.is_empty(), "{file} is non-trivial");
        assert_eq!(resumed_gds, reference_gds, "{file} must be byte-identical after resume");
    }

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn a_fully_journaled_design_resumes_from_the_check_stage() {
    let journal = temp_dir("full_journal");
    let jobs = [BatchJob::from_input("adder8")];

    let first =
        BatchRunner::new(fast_batch().with_journal_dir(&journal)).run(&jobs).expect("batch runs");
    assert_eq!(status_of(&first, "adder8").checkpoint_hits, 0);

    let second =
        BatchRunner::new(fast_batch().with_journal_dir(&journal)).run(&jobs).expect("batch runs");
    let adder8 = status_of(&second, "adder8");
    assert_eq!(adder8.status, DesignStatus::Succeeded);
    assert_eq!(adder8.resumed_from.as_deref(), Some("check"));
    assert_eq!(adder8.checkpoint_hits, 4, "all four stages come from the journal");

    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn a_journal_from_another_technology_is_rejected() {
    let journal = temp_dir("tech_mismatch");
    let jobs = [BatchJob::from_input("adder8")];

    BatchRunner::new(fast_batch().with_journal_dir(&journal)).run(&jobs).expect("batch runs");

    // Replaying the journal under a different PDK must refuse the
    // checkpoints instead of mixing geometry from two processes.
    let other = BatchConfig::new(FlowConfig::fast().with_tech(TechSpec::builtin("aist-stp2")))
        .with_workers(1)
        .with_retry_degraded(false)
        .with_journal_dir(&journal);
    let report = BatchRunner::new(other).run(&jobs).expect("batch runs");
    match &status_of(&report, "adder8").status {
        DesignStatus::Failed { error, .. } => {
            assert!(error.contains("technology"), "{error}");
        }
        other => panic!("cross-technology resume should fail, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&journal);
}

/// A journal file must hold its own stage's checkpoint: resume reads the
/// stage from the checkpoint's first key, so a synthesis checkpoint saved
/// as `placement.json` fails the design at placement instead of resuming.
#[test]
fn a_checkpoint_under_another_stages_name_fails_at_that_stage() {
    let journal = temp_dir("misnamed_checkpoint");
    let jobs = [BatchJob::from_input("adder8")];
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let checkpoint = journal.join("adder8").join("placement.json");
    std::fs::create_dir_all(journal.join("adder8")).expect("journal dir");
    std::fs::write(&checkpoint, synthesized.to_json().expect("serializes")).expect("writes");

    let config = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");
    match &status_of(&report, "adder8").status {
        DesignStatus::Failed { error, stage, .. } => {
            assert_eq!(stage.as_deref(), Some("placement"), "{error}");
            assert!(error.contains("holds the synthesis checkpoint"), "{error}");
        }
        other => panic!("a misnamed checkpoint should fail, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn a_foreign_synthesis_checkpoint_fails_at_its_own_stage() {
    let journal = temp_dir("foreign_synthesis");
    let jobs = [BatchJob::from_input("adder8")];

    // The journal holds only a synthesis checkpoint written under another
    // technology.
    let foreign = FlowConfig::fast().with_tech(TechSpec::builtin("aist-stp2"));
    let mut session = FlowSession::new(foreign).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let checkpoint = journal.join("adder8").join("synthesis.json");
    std::fs::create_dir_all(journal.join("adder8")).expect("journal dir");
    std::fs::write(&checkpoint, synthesized.to_json().expect("serializes")).expect("writes");

    let config = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");
    match &status_of(&report, "adder8").status {
        DesignStatus::Failed { error, stage, .. } => {
            assert_eq!(stage.as_deref(), Some("synthesis"), "{error}");
            assert!(error.contains("technology mismatch"), "{error}");
            assert!(error.contains(&checkpoint.display().to_string()), "{error}");
        }
        other => panic!("a foreign synthesis checkpoint should fail, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn a_journal_checkpoint_with_a_widened_cell_fails_at_its_stage() {
    let journal = temp_dir("widened_cell");
    let jobs = [BatchJob::from_input("adder8")];

    // The journal holds only a placement checkpoint whose first cell is
    // 1e15 µm wide; resumed, it would size the routing grid by that width.
    let mut session = FlowSession::new(FlowConfig::fast()).expect("session opens");
    let synthesized =
        session.synthesize(&benchmark_circuit(Benchmark::Adder8)).expect("synthesis succeeds");
    let mut placed = session.place(synthesized).expect("placement succeeds");
    placed.placement.design.cells[0].width = 1e15;
    let checkpoint = journal.join("adder8").join("placement.json");
    std::fs::create_dir_all(journal.join("adder8")).expect("journal dir");
    std::fs::write(&checkpoint, placed.to_json().expect("serializes")).expect("writes");

    let config = fast_batch().with_retry_degraded(false).with_journal_dir(&journal);
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");
    match &status_of(&report, "adder8").status {
        DesignStatus::Failed { error, stage, .. } => {
            assert_eq!(stage.as_deref(), Some("placement"), "{error}");
            assert!(error.contains(&checkpoint.display().to_string()), "{error}");
            assert!(error.contains("µm wide"), "{error}");
        }
        other => panic!("a widened cell should fail the design, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&journal);
}

#[test]
fn bad_inputs_fail_outside_any_stage() {
    let config = fast_batch().with_retry_degraded(false);
    let jobs = [BatchJob::from_input("no_such_design.v"), BatchJob::from_input("adder8")];
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");

    match &status_of(&report, "no_such_design").status {
        DesignStatus::Failed { error, stage, .. } => {
            assert!(error.contains("no_such_design.v"), "{error}");
            assert_eq!(*stage, None, "the failure struck before any stage ran");
        }
        other => panic!("missing input should fail, got {other:?}"),
    }
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Succeeded);
}

#[test]
fn an_oversized_generated_design_fails_next_to_a_healthy_one() {
    // A `gen:` size past `LargeFamily::MAX_CELLS` is an input error of that
    // one design, not a failed allocation that aborts the whole batch.
    let oversized = "gen:random_dag:100000000000";
    let config = fast_batch().with_retry_degraded(false);
    let jobs = [BatchJob::from_input("adder8"), BatchJob::from_input(oversized)];
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");

    match &status_of(&report, oversized).status {
        DesignStatus::Failed { error, stage, .. } => {
            assert!(error.contains("generator limit of 10000000 cells"), "{error}");
            assert_eq!(*stage, None, "the failure struck before any stage ran");
        }
        other => panic!("the oversized design should fail, got {other:?}"),
    }
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Succeeded);
}

#[test]
fn lint_rejected_designs_fail_at_stage_zero_without_a_retry() {
    let config = fast_batch(); // retry_degraded stays on: lint must skip it.
    let jobs = [BatchJob::from_input("designs/lint_bad.v"), BatchJob::from_input("adder8")];
    let start = std::time::Instant::now();
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");

    match &status_of(&report, "lint_bad").status {
        DesignStatus::Failed { error, stage, attempts } => {
            assert_eq!(stage.as_deref(), Some(LINT_STAGE));
            assert_eq!(*attempts, 1, "lint rejections are deterministic; no degraded retry");
            assert!(error.contains("AQFP-E001"), "{error}");
            assert!(error.contains("AQFP-E002"), "{error}");
        }
        other => panic!("lint_bad should fail pre-flight, got {other:?}"),
    }
    // The rejection is effectively instant — the design never entered
    // synthesis (the healthy design dominates the batch wall-clock).
    assert_eq!(status_of(&report, "lint_bad").attempts, 1);
    assert!(start.elapsed().as_secs_f64() < 60.0);

    // The healthy design is unaffected, and the report calls the lint
    // rejection out distinctly from runtime stage failures.
    assert_eq!(status_of(&report, "adder8").status, DesignStatus::Succeeded);
    let rendered = report.render();
    assert!(rendered.contains("rejected by pre-flight lint"), "{rendered}");
}

#[test]
fn reports_list_designs_in_job_order_whatever_the_schedule() {
    // Prediction schedules the larger adder8 first; the report still lists
    // the designs in the order they were submitted, at one worker and two.
    let jobs = [BatchJob::from_input("designs/half_adder.v"), BatchJob::from_input("adder8")];
    for workers in [1, 2] {
        let config = fast_batch().with_workers(workers);
        let report = BatchRunner::new(config).run(&jobs).expect("batch runs");
        let names: Vec<&str> = report.designs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["half_adder", "adder8"], "{workers} worker(s)");
    }
}

#[test]
fn a_real_batch_records_predicted_and_actual_stage_costs() {
    // With prediction enabled (the default), every design that completes
    // carries both sides of the forecast ledger: the pre-flight prediction
    // and the measured stage timings. Both survive the serde round-trip.
    let jobs = [BatchJob::from_input("adder8"), BatchJob::from_input("designs/half_adder.v")];
    let report = BatchRunner::new(fast_batch()).run(&jobs).expect("batch runs");
    assert_eq!(report.succeeded(), 2);

    for design in &report.designs {
        let predicted = design
            .predicted_stage_s
            .as_ref()
            .unwrap_or_else(|| panic!("{}: prediction missing", design.name));
        let actual = design
            .actual_stage_s
            .as_ref()
            .unwrap_or_else(|| panic!("{}: measurement missing", design.name));
        assert!(predicted.total_s() > 0.0, "{}: empty forecast", design.name);
        assert!(actual.total_s() >= 0.0, "{}: negative measurement", design.name);
    }

    // The rendered report shows the predicted-vs-measured comparison, and
    // the ledger survives serialization.
    let rendered = report.render();
    assert!(rendered.contains("predicted"), "{rendered}");
    let back = BatchReport::from_json(&report.to_json().expect("serializes")).expect("parses");
    assert_eq!(back, report);

    // Disabling prediction drops the forecast but keeps the measurement.
    let config = fast_batch().with_predict(false);
    let report = BatchRunner::new(config).run(&jobs).expect("batch runs");
    for design in &report.designs {
        assert!(design.predicted_stage_s.is_none(), "{}: unexpected forecast", design.name);
        assert!(design.actual_stage_s.is_some(), "{}: measurement missing", design.name);
    }
}
