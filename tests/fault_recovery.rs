//! Robustness guarantees, end to end: fault injection may stretch the
//! simulated clock but must never change the learned model or the
//! communicated data; a run killed by a scripted crash must resume from
//! its checkpoint into a bit-identical final state; and faulted runs must
//! be exactly reproducible.

use dimboost::core::model_io::model_to_bytes;
use dimboost::core::{
    train_distributed_resilient, CheckpointOptions, FaultPlan, GbdtConfig, RobustOptions,
    TrainCheckpoint, TrainError, TrainOutput, CHECKPOINT_FILE,
};
use dimboost::data::partition::partition_rows;
use dimboost::data::synthetic::{generate, SparseGenConfig};
use dimboost::data::Dataset;
use dimboost::ps::PsConfig;
use dimboost::simnet::{CostModel, Phase};

fn shards() -> Vec<Dataset> {
    let ds = generate(&SparseGenConfig::new(1_200, 150, 8, 9));
    partition_rows(&ds, 3).unwrap()
}

fn config() -> GbdtConfig {
    GbdtConfig {
        num_trees: 5,
        max_depth: 4,
        num_candidates: 10,
        seed: 21,
        collect_trace: true,
        ..GbdtConfig::default()
    }
}

fn ps() -> PsConfig {
    PsConfig {
        num_servers: 2,
        num_partitions: 0,
        cost_model: CostModel::GIGABIT_LAN,
    }
}

fn run(robust: &RobustOptions) -> Result<TrainOutput, TrainError> {
    train_distributed_resilient(&shards(), &config(), ps(), None, robust)
}

/// The chaos plan: message loss in both directions, duplication, a
/// straggler on the histogram phase, and a server outage window.
const CHAOS: &str = "seed 77\n\
                     drop 0.15\n\
                     ack_drop 0.1\n\
                     dup 0.1\n\
                     straggler worker=1 factor=3.0 phase=build_histogram\n\
                     outage server=0 start=0.01 dur=0.05\n";

#[test]
fn faults_change_timing_but_not_the_model() {
    let clean = run(&RobustOptions::default()).unwrap();
    let faulted = run(&RobustOptions {
        fault_plan: Some(FaultPlan::parse(CHAOS).unwrap()),
        ..RobustOptions::default()
    })
    .unwrap();

    // Exactness invariant: the learned model is byte-identical.
    assert_eq!(
        model_to_bytes(&clean.model),
        model_to_bytes(&faulted.model),
        "fault injection changed the learned model"
    );
    // The useful communication is identical too: retries re-send the same
    // logical payloads, which the ledger counts once.
    assert_eq!(clean.breakdown.comm.bytes, faulted.breakdown.comm.bytes);
    assert_eq!(
        clean.breakdown.comm.packages,
        faulted.breakdown.comm.packages
    );
    for phase in Phase::ALL {
        let (c, f) = (clean.report.phase(phase), faulted.report.phase(phase));
        match (c, f) {
            (Some(c), Some(f)) => {
                assert_eq!(c.comm.bytes, f.comm.bytes, "{phase:?} bytes diverged");
                assert_eq!(
                    c.comm.packages, f.comm.packages,
                    "{phase:?} packages diverged"
                );
            }
            (None, None) => {}
            _ => panic!("{phase:?} present in only one report"),
        }
    }
    // Only the clock moved, and it moved forward.
    assert!(
        faulted.breakdown.comm.sim_time >= clean.breakdown.comm.sim_time,
        "faults should not speed the run up"
    );

    // The faults actually happened and were accounted.
    let summary = faulted.report.faults.expect("faulted run reports faults");
    assert!(summary.request_drops > 0, "plan produced no request drops");
    assert!(summary.retries > 0, "drops without retries");
    // Every redundant arrival (a duplicate, or a resend after a lost ack)
    // is absorbed by dedup — this identity is what keeps merges exact.
    assert_eq!(summary.dedup_hits, summary.ack_drops + summary.duplicates);
    assert!(clean.report.faults.is_none(), "clean run reported faults");

    // The effects are visible on the fault trace track.
    let trace = faulted.trace.as_ref().unwrap();
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.track == dimboost::simnet::trace::Track::Fault),
        "no fault events on the timeline"
    );
}

#[test]
fn faulted_runs_are_exactly_reproducible() {
    let robust = RobustOptions {
        fault_plan: Some(FaultPlan::parse(CHAOS).unwrap()),
        ..RobustOptions::default()
    };
    let a = run(&robust).unwrap();
    let b = run(&robust).unwrap();
    assert_eq!(a.report.canonical_json(), b.report.canonical_json());
    assert_eq!(
        a.trace.as_ref().unwrap().canonical_chrome_json(),
        b.trace.as_ref().unwrap().canonical_chrome_json()
    );
    let (sa, sb) = (a.report.faults.unwrap(), b.report.faults.unwrap());
    assert_eq!(sa.request_drops, sb.request_drops);
    assert_eq!(sa.retries, sb.retries);
    assert_eq!(sa.backoff_secs, sb.backoff_secs);
}

#[test]
fn checkpoint_resume_is_bit_exact() {
    let dir = std::env::temp_dir().join("dimboost_fault_recovery_ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    let reference = run(&RobustOptions::default()).unwrap();

    // Crash at round 2, checkpointing every round, under the chaos plan.
    let plan = format!("{CHAOS}crash round=2\n");
    let crashing = RobustOptions {
        fault_plan: Some(FaultPlan::parse(&plan).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    };
    let err = run(&crashing).unwrap_err();
    let TrainError::Crashed { round, checkpoint } = err else {
        panic!("expected a simulated crash, got {err}");
    };
    assert_eq!(round, 2);
    assert!(checkpoint.is_some(), "crash should leave a checkpoint");

    // Resume from the checkpoint under the same plan.
    let resumed = run(&RobustOptions {
        resume: true,
        ..crashing
    })
    .unwrap();
    assert_eq!(resumed.report.resumed_from_round, Some(2));

    // Final model and ledger phase totals are bit-identical to the
    // uninterrupted run.
    assert_eq!(
        model_to_bytes(&reference.model),
        model_to_bytes(&resumed.model),
        "resume diverged from the uninterrupted run"
    );
    assert_eq!(reference.breakdown.comm.bytes, resumed.breakdown.comm.bytes);
    assert_eq!(
        reference.breakdown.comm.packages,
        resumed.breakdown.comm.packages
    );
    for phase in Phase::ALL {
        if let (Some(r), Some(s)) = (reference.report.phase(phase), resumed.report.phase(phase)) {
            assert_eq!(r.comm.bytes, s.comm.bytes, "{phase:?} bytes diverged");
            assert_eq!(
                r.comm.packages, s.comm.packages,
                "{phase:?} packages diverged"
            );
        }
    }
    // Per-round telemetry (losses, gains, histogram bytes) also lines up
    // across the splice; only wall-clock compute differs by construction.
    let strip_wall = |rounds: &[dimboost::core::RoundRecord]| {
        rounds
            .iter()
            .map(|r| dimboost::core::RoundRecord {
                compute_secs: 0.0,
                quantize_wall_secs: 0.0,
                ..r.clone()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip_wall(&reference.report.rounds),
        strip_wall(&resumed.report.rounds)
    );
    // The loss curve agrees on every value; elapsed time differs because
    // the faulted legs ran on a stretched simulated clock.
    let losses = |out: &TrainOutput| -> Vec<(usize, f64)> {
        out.loss_curve
            .iter()
            .map(|p| (p.tree, p.train_loss))
            .collect()
    };
    assert_eq!(losses(&reference), losses(&resumed));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abort_loss_is_typed_and_resumes_bit_exact_from_the_last_checkpoint() {
    let dir = std::env::temp_dir().join("dimboost_fault_recovery_abort");
    let _ = std::fs::remove_dir_all(&dir);

    let reference = run(&RobustOptions::default()).unwrap();

    // A permanent worker loss under `policy=abort` at round 3, checkpointing
    // every round, with the chaos faults still running underneath.
    let fatal = format!("{CHAOS}lose worker=1 round=3 policy=abort\n");
    let aborting = RobustOptions {
        fault_plan: Some(FaultPlan::parse(&fatal).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    };
    let err = run(&aborting).unwrap_err();
    let TrainError::WorkerLost { worker, round } = err else {
        panic!("expected a typed worker-loss abort, got {err}");
    };
    assert_eq!((worker, round), (1, 3));

    // The abort fires at the round-3 boundary, after the rolling checkpoint
    // for the three completed rounds was written.
    let ck = TrainCheckpoint::load_from_dir(&dir).expect("abort left no usable checkpoint");
    assert_eq!(ck.next_round, 3);

    // The operator removes the fatal `lose` line and resumes. The membership
    // digest deliberately excludes `lose` directives, so the edited plan
    // still matches the checkpoint fingerprint.
    let resumed = run(&RobustOptions {
        fault_plan: Some(FaultPlan::parse(CHAOS).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: true,
    })
    .unwrap();
    assert_eq!(resumed.report.resumed_from_round, Some(3));

    // Final state is bit-identical to the uninterrupted clean run.
    assert_eq!(
        model_to_bytes(&reference.model),
        model_to_bytes(&resumed.model),
        "resume after an aborted worker loss diverged from the uninterrupted run"
    );
    assert_eq!(reference.breakdown.comm.bytes, resumed.breakdown.comm.bytes);
    let losses = |out: &TrainOutput| -> Vec<(usize, f64)> {
        out.loss_curve
            .iter()
            .map(|p| (p.tree, p.train_loss))
            .collect()
    };
    assert_eq!(losses(&reference), losses(&resumed));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_checkpoint_tmp_file_is_overwritten() {
    // A crash between `fs::write(tmp)` and `fs::rename` leaves a stale (and
    // possibly garbage) temp file behind. The next rolling write must
    // overwrite it, not fail — and the renamed checkpoint must be the fresh
    // bytes, not the garbage.
    let dir = std::env::temp_dir().join("dimboost_fault_recovery_stale_tmp");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    std::fs::write(&tmp, b"garbage left by a previous crash").unwrap();

    let plan = format!("{CHAOS}crash round=2\n");
    let err = run(&RobustOptions {
        fault_plan: Some(FaultPlan::parse(&plan).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    })
    .unwrap_err();
    assert!(
        matches!(err, TrainError::Crashed { round: 2, .. }),
        "expected the scripted crash, got {err}"
    );

    // The stale temp was consumed by the rename and the rolling checkpoint
    // decodes cleanly.
    assert!(!tmp.exists(), "stale temp file survived the rolling write");
    let ck = TrainCheckpoint::load_from_dir(&dir).expect("checkpoint must decode");
    assert_eq!(ck.next_round, 2);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_checkpoint_resume_is_a_clean_error() {
    // A checkpoint cut short by a full disk or a crash mid-write must be
    // rejected with a typed `TrainError::Checkpoint` on resume — never a
    // panic or an out-of-bounds read.
    let dir = std::env::temp_dir().join("dimboost_fault_recovery_truncated");
    let _ = std::fs::remove_dir_all(&dir);

    let plan = format!("{CHAOS}crash round=2\n");
    let crashing = RobustOptions {
        fault_plan: Some(FaultPlan::parse(&plan).unwrap()),
        checkpoint: Some(CheckpointOptions::new(&dir)),
        resume: false,
    };
    run(&crashing).unwrap_err();

    let path = dir.join(CHECKPOINT_FILE);
    let full = std::fs::read(&path).unwrap();
    for keep in [full.len() / 2, 16, 0] {
        std::fs::write(&path, &full[..keep]).unwrap();
        let err = run(&RobustOptions {
            resume: true,
            ..crashing.clone()
        })
        .unwrap_err();
        assert!(
            matches!(err, TrainError::Checkpoint(_)),
            "truncation to {keep} bytes gave {err} instead of a checkpoint error"
        );
    }

    // Restoring the full bytes resumes normally again.
    std::fs::write(&path, &full).unwrap();
    let resumed = run(&RobustOptions {
        resume: true,
        ..crashing
    })
    .unwrap();
    assert_eq!(resumed.report.resumed_from_round, Some(2));

    std::fs::remove_dir_all(&dir).ok();
}
