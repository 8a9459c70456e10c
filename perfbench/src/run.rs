//! One benchmark run: generate a workload from a seed, set it up, train,
//! score, check every output, and collect metrics.
//!
//! An untraced run measures the end-to-end metrics. A traced run trains
//! once for the program's own report, then replays tree 0 with and without
//! spans (see [`crate::replay`]) and times compile and scoring, giving the
//! per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use dimboost_core::metrics::{auc, log_loss};
use dimboost_core::report::sum_phase_comm;
use dimboost_core::{model_io, train_distributed, GbdtModel, Node, TrainOutput, Tree};
use dimboost_data::libsvm::{read_libsvm, write_libsvm, LibsvmOptions};
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{generate, SparseGenConfig};
use dimboost_data::Dataset;
use dimboost_predict::{score_transformed, CompiledModel, EngineConfig};
use dimboost_simnet::Phase;

use crate::replay::{replay_tree0, same_bits, SKETCH_SPANS};
use crate::spans::Tracer;
use crate::workload::{Workload, TEST_FRACTION, THREADS, WORKERS};

/// Set-up, training and scoring iterations per untraced run, at least
/// (model bytes are compared between the training runs).
const MIN_ITERATIONS: usize = 3;
/// Scoring time per iteration, as a share of that iteration's training.
const SCORE_SHARE: f64 = 0.2;
/// Scoring passes per iteration, at least.
const MIN_SCORE_PASSES: usize = 2;
/// Replays per traced run, at least, of each kind (with and without spans).
const MIN_REPLAYS: usize = 1;
/// Replays per traced run, at most, of each kind.
const MAX_REPLAYS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (`None`: not written).
    pub spans_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Every sample the value summarizes (one for counts and single
    /// readings).
    pub samples: Vec<f64>,
}

/// Everything a run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Training, scoring and replay calls made.
    pub attempted: u64,
    /// Calls that errored or failed an output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Adds a single reading.
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push_median(name, &[value], unit);
    }

    /// Adds the median of `samples`.
    fn push_median(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: median(samples),
            unit,
            samples: samples.to_vec(),
        });
    }

    /// Counts one attempted operation and its check result.
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The workload's data as libsvm text, generated from `seed`.
fn libsvm_text(w: &Workload, seed: u64) -> Vec<u8> {
    let ds = generate(&SparseGenConfig::new(w.rows, w.features, w.nnz, seed));
    let mut text = Vec::new();
    write_libsvm(&mut text, &ds).expect("writing to memory cannot fail");
    text
}

/// Parsed, split and partitioned workload data.
struct Setup {
    /// Every parsed row.
    full: Dataset,
    /// Training rows, one shard per worker.
    shards: Vec<Dataset>,
    /// Held-out rows.
    test: Dataset,
}

/// Parses `text`, holds out the test set and partitions the rest into
/// `WORKERS` shards: what a user does before training.
fn setup(text: &[u8], w: &Workload, seed: u64, t: &mut Tracer) -> Result<Setup, String> {
    let opts = LibsvmOptions {
        num_features: Some(w.features),
        ..LibsvmOptions::default()
    };
    let full = t
        .time("data.parse", || read_libsvm(text, opts))
        .map_err(|e| format!("parse: {e}"))?;
    let (shards, test) = t
        .time("data.partition", || {
            let (train, test) = train_test_split(&full, TEST_FRACTION, seed)?;
            Ok((partition_rows(&train, WORKERS)?, test))
        })
        .map_err(|e: dimboost_data::DataError| format!("partition: {e}"))?;
    Ok(Setup { full, shards, test })
}

fn finite_tree(tree: &Tree) -> bool {
    tree.nodes().iter().all(|n| match *n {
        Node::Unused => true,
        Node::Leaf { weight } => weight.is_finite(),
        Node::Internal {
            threshold, gain, ..
        } => threshold.is_finite() && gain.is_finite(),
    })
}

/// Output checks on one training run.
fn check_training(out: &TrainOutput, w: &Workload) -> Result<(), String> {
    let model = &out.model;
    model.check_consistency()?;
    if !model.trees().iter().all(finite_tree) {
        return Err("model has a non-finite threshold, gain or weight".into());
    }
    if model.num_trees() != w.trees {
        return Err(format!(
            "trained {} trees, wanted {}",
            model.num_trees(),
            w.trees
        ));
    }
    if out.report.rounds.len() != w.trees {
        return Err(format!(
            "report has {} rounds for {} trees",
            out.report.rounds.len(),
            w.trees
        ));
    }
    let (sum, total) = (sum_phase_comm(&out.report), out.report.comm);
    if sum.bytes != total.bytes
        || sum.packages != total.packages
        || sum.sim_time.seconds().to_bits() != total.sim_time.seconds().to_bits()
    {
        return Err(format!("per-phase comm {sum:?} does not sum to {total:?}"));
    }
    Ok(())
}

fn model_bytes(model: &GbdtModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    model_io::save_model(model, &mut bytes).expect("writing to memory cannot fail");
    bytes
}

/// Scores `test` with the compiled engine at `THREADS` threads.
fn score(compiled: &CompiledModel, test: &Dataset) -> Vec<f32> {
    let engine = EngineConfig {
        threads: THREADS,
        ..EngineConfig::default()
    };
    score_transformed(compiled, test, &engine)
}

fn same_scores(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs the benchmark once. Errors that leave no metric to report (bad
/// data, no successful training) are returned as `Err`.
pub fn run(opts: &RunOptions) -> Result<Outcome, String> {
    let w = &opts.workload;
    let text = libsvm_text(w, opts.seed);
    if opts.trace {
        traced(opts, &text)
    } else {
        untraced(opts, &text)
    }
}

fn untraced(opts: &RunOptions, text: &[u8]) -> Result<Outcome, String> {
    let w = &opts.workload;
    let mut out = Outcome::default();
    // ---- Closed loop: set up, train, score; one iteration at a time. -------
    // Each iteration sets the data up afresh, as a user's training process
    // does, and scores after training, so set-up and scoring are sampled
    // across the whole run: on a shared host, speed drifts within seconds.
    // Throughput is timed over every generated row: on a small held-out set
    // (2k rows pass in a fraction of a millisecond) the engine's per-call
    // thread wake-up dominates the timing.
    let config = w.config(opts.seed);
    let (mut setup_secs, mut walls, mut modelled) = (Vec::new(), Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let mut reference: Option<(Vec<u8>, GbdtModel)> = None;
    let mut scorer: Option<(CompiledModel, Vec<f32>)> = None;
    let mut data = None;
    let clock = Instant::now();
    while setup_secs.len() < MIN_ITERATIONS || clock.elapsed().as_secs_f64() < opts.seconds {
        drop(data.take());
        let start = Instant::now();
        let d = data.insert(setup(text, w, opts.seed, &mut Tracer::off())?);
        setup_secs.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let result = train_distributed(&d.shards, &config, w.ps_config());
        let wall = start.elapsed().as_secs_f64();
        out.record(result.and_then(|t| {
            check_training(&t, w)?;
            let bytes = model_bytes(&t.model);
            if let Some((first, _)) = &reference {
                if *first != bytes {
                    return Err("two training runs gave different model bytes".into());
                }
            }
            walls.push(wall);
            modelled.push(t.report.compute_secs + t.report.comm.sim_time.seconds());
            reference.get_or_insert((bytes, t.model));
            Ok(())
        }));
        let Some((_, model)) = &reference else {
            continue;
        };
        let (compiled, expected) = scorer.get_or_insert_with(|| {
            (
                CompiledModel::compile(model),
                model.predict_dataset(&d.full),
            )
        });
        let rows = d.full.num_rows() as f64;
        let burst = Instant::now();
        let mut passes = 0;
        while passes < MIN_SCORE_PASSES || burst.elapsed().as_secs_f64() < wall * SCORE_SHARE {
            passes += 1;
            let start = Instant::now();
            let probs = score(compiled, &d.full);
            rates.push(rows / start.elapsed().as_secs_f64());
            out.record(if same_scores(&probs, expected) {
                Ok(())
            } else {
                Err("compiled scores differ from the model's own predictions".to_string())
            });
        }
    }
    let (data, (_, model)) = match (data, reference) {
        (Some(data), Some(reference)) => (data, reference),
        _ => {
            return Err(format!(
                "no training run succeeded: {}",
                out.failures.join("; ")
            ))
        }
    };
    let (compiled, _) = scorer.expect("scoring follows the first successful training");

    // ---- Held-out quality. --------------------------------------------------
    let probs = score(&compiled, &data.test);
    let labels = data.test.labels();
    let (logloss, test_auc) = (log_loss(&probs, labels), auc(&probs, labels));
    out.record(
        if !same_scores(&probs, &model.predict_dataset(&data.test)) {
            Err("compiled scores differ from the model's own predictions".to_string())
        } else if logloss.is_finite() && test_auc > w.auc_floor {
            Ok(())
        } else {
            Err(format!(
                "held-out logloss {logloss} / AUC {test_auc} misses the AUC floor {}",
                w.auc_floor
            ))
        },
    );

    out.push_median("setup_s", &setup_secs, "s");
    out.push_median("train_wall_s", &walls, "s");
    out.push_median("modelled_s", &modelled, "s");
    out.push_median("predict_rows_per_s", &rates, "rows/s");
    out.push("test_logloss", logloss, "nats");
    out.push("test_auc", test_auc, "ratio");
    out.push("peak_rss_mb", peak_rss_mib()?, "MiB");
    let ok = (out.attempted - out.failed) as f64 / out.attempted as f64;
    out.push("success_rate", ok, "ratio");
    Ok(out)
}

/// Phases whose worker compute the program times, as named in the report.
const TIMED_PHASES: [(Phase, &str); 5] = [
    (Phase::CreateSketch, "create_sketch"),
    (Phase::NewTree, "new_tree"),
    (Phase::BuildHistogram, "build_histogram"),
    (Phase::SplitTree, "split_tree"),
    (Phase::Finish, "finish"),
];

fn traced(opts: &RunOptions, text: &[u8]) -> Result<Outcome, String> {
    let w = &opts.workload;
    let mut out = Outcome::default();
    let mut t = Tracer::on();
    let open = t.begin("setup");
    let data = setup(text, w, opts.seed, &mut t)?;
    t.end(open);
    t.count("data.nnz", data.full.nnz() as u64);

    // ---- The program's own account of one real run (untraced). --------------
    let config = w.config(opts.seed);
    let start = Instant::now();
    let real = train_distributed(&data.shards, &config, w.ps_config());
    let train_wall = start.elapsed().as_secs_f64();
    let real = match real.and_then(|r| check_training(&r, w).map(|()| r)) {
        Ok(r) => {
            out.record(Ok(()));
            r
        }
        Err(e) => return Err(format!("training failed: {e}")),
    };
    let tree0 = real.model.trees()[0].clone();

    // ---- Tree-0 replays, alternating untraced and traced. -------------------
    let (mut off_secs, mut on_secs) = (Vec::new(), Vec::new());
    let mut kept: Option<Tracer> = None;
    let mut mismatches = 0;
    let clock = Instant::now();
    while on_secs.len() < MIN_REPLAYS
        || (on_secs.len() < MAX_REPLAYS && clock.elapsed().as_secs_f64() < opts.seconds)
    {
        for traced in [false, true] {
            let mut rt = if traced { Tracer::on() } else { Tracer::off() };
            let start = Instant::now();
            let tree = replay_tree0(&data.shards, &config, w.ps_config(), &mut rt);
            let secs = start.elapsed().as_secs_f64();
            let matched = tree.and_then(|tree| {
                if same_bits(&tree, &tree0) {
                    Ok(())
                } else {
                    Err("replayed tree 0 differs from the trained tree 0".into())
                }
            });
            mismatches += usize::from(matched.is_err());
            out.record(matched);
            if traced {
                on_secs.push(secs);
                kept.get_or_insert(rt);
            } else {
                off_secs.push(secs);
            }
        }
    }
    let replay = kept.expect("at least one traced replay ran");

    // ---- Compile and score, traced. -----------------------------------------
    let open = t.begin("predict");
    let compiled = t.time("predict.compile", || CompiledModel::compile(&real.model));
    let probs = t.time("predict.score", || score(&compiled, &data.full));
    t.end(open);
    out.record(
        if same_scores(&probs, &real.model.predict_dataset(&data.full)) {
            Ok(())
        } else {
            Err("compiled scores differ from the model's own predictions".into())
        },
    );
    t.append(replay);
    if let Some(path) = &opts.spans_out {
        t.write_jsonl(path)
            .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
    }

    // ---- Per-layer metrics. -------------------------------------------------
    let secs = |name: &str| t.total(name);
    out.push("data.parse_s", secs("data.parse"), "s");
    out.push("data.partition_s", secs("data.partition"), "s");
    out.push("data.nnz", t.counter("data.nnz") as f64, "count");
    out.push("sketch.build_s", secs("sketch.build"), "s");
    out.push("sketch.merge_s", secs("sketch.merge"), "s");
    out.push("sketch.candidates_s", secs("sketch.candidates"), "s");
    out.push("core.grad_s", secs("core.grad"), "s");
    out.push("core.bin_s", secs("core.bin"), "s");
    out.push("core.hist_build_s", secs("core.hist_build"), "s");
    out.push(
        "core.hist_entries",
        t.counter("core.hist_entries") as f64,
        "count",
    );
    out.push("core.node_index_s", secs("core.node_index"), "s");
    out.push("core.score_update_s", secs("core.score_update"), "s");
    let report = &real.report;
    out.push("core.report_compute_s", report.compute_secs, "s");
    out.push("core.unattributed_s", train_wall - report.compute_secs, "s");
    for (phase, name) in TIMED_PHASES {
        let max = report.phase(phase).map_or(0.0, |p| p.compute_max_secs);
        out.push(format!("core.phase.{name}.compute_max_s"), max, "s");
    }
    let elems = t.counter("ps.quantize_elems");
    out.push("ps.quantize_s", secs("ps.quantize"), "s");
    out.push("ps.quantize_elems", elems as f64, "count");
    let nonzero = t.counter("ps.quantize_nonzero") as f64 / elems.max(1) as f64;
    out.push("ps.quantize_nonzero_ratio", nonzero, "ratio");
    out.push("ps.push_s", secs("ps.push"), "s");
    out.push("ps.push_calls", t.counter("ps.push_calls") as f64, "count");
    out.push("ps.pull_split_s", secs("ps.pull_split"), "s");
    out.push("ps.derive_sibling_s", secs("ps.derive_sibling"), "s");
    out.push("ps.control_s", secs("ps.control"), "s");
    let comm = report.comm;
    out.push("simnet.comm_bytes", comm.bytes as f64, "bytes");
    out.push("simnet.comm_packages", comm.packages as f64, "count");
    out.push("simnet.sim_comm_s", comm.sim_time.seconds(), "s");
    let raw: u64 = report.rounds.iter().map(|r| r.hist_bytes_raw).sum();
    let wire: u64 = report.rounds.iter().map(|r| r.hist_bytes_wire).sum();
    out.push("simnet.hist_bytes_raw", raw as f64, "bytes");
    out.push("simnet.hist_bytes_wire", wire as f64, "bytes");
    out.push("predict.compile_s", secs("predict.compile"), "s");
    out.push("predict.score_s", secs("predict.score"), "s");

    // Coverage: how much of one real run the replay's layer spans (the
    // dotted names; `replay`, `tree` and `layer` only group them) explain.
    // The sketch phases run once per run, every other span once per tree.
    let own = t.self_times();
    let (mut once, mut per_tree) = (0.0, 0.0);
    for (id, s) in t.spans().iter().enumerate() {
        if s.name.contains('.') && t.is_under(id, "replay") {
            if SKETCH_SPANS.contains(&s.name) {
                once += own[id];
            } else {
                per_tree += own[id];
            }
        }
    }
    let coverage = (once + per_tree * w.trees as f64) / train_wall;
    out.push("replay.coverage_ratio", coverage, "ratio");
    let replays = on_secs.len() + off_secs.len();
    let matched = (replays - mismatches) as f64 / replays as f64;
    out.push("replay.tree0_match_ratio", matched, "ratio");
    let overhead = median(&on_secs) - median(&off_secs);
    out.push("trace.overhead_s", overhead, "s");
    Ok(out)
}
