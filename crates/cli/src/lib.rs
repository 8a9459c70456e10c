//! Command-line interface for the DimBoost reproduction.
//!
//! Subcommands:
//!
//! * `train` — train a model on a LibSVM file (optionally on a simulated
//!   multi-worker cluster) and save it.
//! * `predict` — score a LibSVM/CSV file with a saved model through the
//!   compiled inference engine (`dimboost-predict`).
//! * `bench` — serving throughput benchmark: repeated scoring runs plus a
//!   JSON serving report gateable by `report_diff`.
//! * `serve-sim` — open-loop traffic simulation over one or more saved
//!   models (`dimboost-serving`): seeded arrivals, SLO batching, load
//!   shedding, hot-swap, and a canonical `serving_sim` report.
//! * `analyze` — profile a recorded trace (train events-text or serve-sim)
//!   into a canonical `trace_profile` report: critical-path decomposition,
//!   utilization/wait split, SLO breakdown, folded flamegraph stacks.
//! * `evaluate` — report error / log-loss / AUC of a model on a file.
//! * `gen` — write a synthetic dataset in LibSVM format.
//!
//! Argument parsing is hand-rolled (`--flag value` pairs) to stay within the
//! workspace's dependency allowlist; [`parse_args`] is a pure function so
//! the whole surface is unit-testable.

use std::path::PathBuf;

use dimboost_core::metrics::{
    auc, classification_error, log_loss, multiclass_error, multiclass_log_loss, rmse,
};
use dimboost_core::{
    load_model_file, save_model_file, CheckpointOptions, FaultPlan, GbdtConfig, LossKind,
    RobustOptions, TrainCheckpoint, TrainError,
};
use dimboost_data::csv::{read_csv_file, CsvOptions};
use dimboost_data::libsvm::{read_libsvm_file, write_libsvm, LibsvmOptions};
use dimboost_data::partition::{partition_rows, train_test_split};
use dimboost_data::synthetic::{generate, SparseGenConfig};
use dimboost_data::Dataset;
use dimboost_predict::{score_raw, score_transformed, BenchOptions, CompiledModel, EngineConfig};
use dimboost_ps::PsConfig;
use dimboost_serving::{
    analyze_serve_trace, is_serve_trace, poisson_arrivals, run_serve_sim, ModelSwap,
    ServeSimConfig, TenantSpec,
};
use dimboost_simnet::{analyze_trace, CostModel, Trace};

/// A fully-parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Train a model from a LibSVM file (boxed: much larger than the rest).
    Train(Box<TrainArgs>),
    /// Score a LibSVM/CSV file with a saved model.
    Predict(PredictArgs),
    /// Serving throughput benchmark over a saved model.
    Bench(BenchArgs),
    /// Open-loop traffic simulation over saved models.
    ServeSim(ServeSimArgs),
    /// Profile a recorded trace into a canonical trace_profile report.
    Analyze(AnalyzeArgs),
    /// Evaluate a saved model on a LibSVM file.
    Evaluate(EvalArgs),
    /// Generate a synthetic LibSVM dataset.
    Gen(GenArgs),
    /// Print a saved model's structure and feature importance.
    Inspect(InspectArgs),
    /// Print usage.
    Help,
}

/// Arguments for `train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Input LibSVM file.
    pub data: PathBuf,
    /// Output model path.
    pub model: PathBuf,
    /// Simulated worker count.
    pub workers: usize,
    /// Parameter-server count (0 = same as workers).
    pub servers: usize,
    /// Fraction held out for a test report after training.
    pub test_fraction: f64,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Stop after this many rounds without held-out improvement.
    pub early_stop: Option<usize>,
    /// Write the JSON run report (per-phase compute/comm, per-round
    /// telemetry) here after training.
    pub report: Option<PathBuf>,
    /// Write the canonical (timing-free, rerun-stable) run report here.
    pub report_canonical: Option<PathBuf>,
    /// Write a Chrome-trace-event JSON of the run (load in Perfetto or
    /// `chrome://tracing`) and print the plain-text timeline summary.
    pub trace: Option<PathBuf>,
    /// Write the canonical trace: pure simulated clock, no wall-clock
    /// annotations, byte-identical across reruns.
    pub trace_canonical: Option<PathBuf>,
    /// Write the events-text trace: the exact event stream with
    /// shortest-round-trip f64s, parseable back bit-exactly by `analyze`.
    pub trace_events: Option<PathBuf>,
    /// Profile the run's trace in-process and write the canonical
    /// `trace_profile` JSON here (same bytes `analyze` produces offline).
    pub profile: Option<PathBuf>,
    /// Deterministic fault plan file injected into the simulated cluster.
    pub fault_plan: Option<PathBuf>,
    /// Directory for the rolling training checkpoint.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in boosting rounds (requires `--checkpoint-dir`).
    pub checkpoint_every: usize,
    /// Resume from the checkpoint in `--checkpoint-dir`.
    pub resume: bool,
    /// Hyper-parameters.
    pub config: GbdtConfig,
}

/// Arguments for `predict`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictArgs {
    /// Input LibSVM (or, with `csv`, CSV) file.
    pub data: PathBuf,
    /// Saved model path.
    pub model: PathBuf,
    /// Where to write predictions (stdout when `None`).
    pub output: Option<PathBuf>,
    /// Emit raw additive scores instead of transformed predictions
    /// (multiclass models emit `K` space-separated scores per row).
    pub raw: bool,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Parse the input as CSV (label in column 0) instead of LibSVM.
    pub csv: bool,
    /// Scoring threads.
    pub threads: usize,
    /// Rows per scoring batch.
    pub batch_size: usize,
}

/// Arguments for `bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Input LibSVM (or, with `csv`, CSV) file.
    pub data: PathBuf,
    /// Saved model path.
    pub model: PathBuf,
    /// Scoring threads.
    pub threads: usize,
    /// Rows per scoring batch.
    pub batch_size: usize,
    /// Timed full-dataset scoring repeats.
    pub repeats: usize,
    /// Emit raw per-class scores instead of transformed predictions.
    pub raw: bool,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Parse the input as CSV (label in column 0) instead of LibSVM.
    pub csv: bool,
    /// Where to write the scores of the final repeat.
    pub scores: Option<PathBuf>,
    /// Write the timed JSON serving report here.
    pub report: Option<PathBuf>,
    /// Write the canonical (timing-free, rerun-stable) serving report here.
    pub report_canonical: Option<PathBuf>,
}

/// Arguments for `serve-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSimArgs {
    /// Input LibSVM (or, with `csv`, CSV) file whose rows the simulated
    /// requests score.
    pub data: PathBuf,
    /// Saved model paths, one per tenant (repeat `--model`).
    pub models: Vec<PathBuf>,
    /// Requests in the arrival schedule.
    pub requests: usize,
    /// Mean arrival rate, requests per simulated second (all tenants).
    pub rate: f64,
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Per-tenant queue capacity (arrivals beyond it are shed).
    pub queue_cap: usize,
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Latency SLO in simulated seconds.
    pub slo: f64,
    /// Fixed service cost per batch, simulated seconds.
    pub service_fixed: f64,
    /// Incremental service cost per batched request, simulated seconds.
    pub service_per_row: f64,
    /// Stop the simulation at this simulated time (default: drain).
    pub horizon: Option<f64>,
    /// Simulated time of the scripted model swap.
    pub swap_at: Option<f64>,
    /// Tenant index whose model the swap replaces.
    pub swap_tenant: usize,
    /// Replacement model file for the swap.
    pub swap_model: Option<PathBuf>,
    /// Checkpoint directory to load the replacement model from (the
    /// checkpointed model swaps in mid-stream).
    pub swap_checkpoint: Option<PathBuf>,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
    /// Parse the input as CSV (label in column 0) instead of LibSVM.
    pub csv: bool,
    /// Write the timed JSON serving-sim report here.
    pub report: Option<PathBuf>,
    /// Write the canonical (timing-free, rerun-stable) report here.
    pub report_canonical: Option<PathBuf>,
    /// Write the deterministic plain-text event trace here.
    pub trace: Option<PathBuf>,
    /// Profile the run's trace in-process and write the canonical
    /// `trace_profile` JSON here (same bytes `analyze` produces offline).
    pub profile: Option<PathBuf>,
}

/// Arguments for `analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Trace file to profile: a train events-text trace
    /// (`train --trace-events`) or a serve-sim trace (`serve-sim --trace`),
    /// distinguished by their header lines.
    pub trace: PathBuf,
    /// Write the canonical `trace_profile` JSON here.
    pub out: Option<PathBuf>,
    /// Write folded flamegraph stacks here.
    pub folded: Option<PathBuf>,
    /// Rows in the printed summary table.
    pub top: usize,
}

/// Arguments for `evaluate`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalArgs {
    /// Input LibSVM file.
    pub data: PathBuf,
    /// Saved model path.
    pub model: PathBuf,
    /// Feature indices in the file start at 0 instead of 1.
    pub zero_based: bool,
}

/// Arguments for `inspect`.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectArgs {
    /// Saved model path.
    pub model: PathBuf,
    /// How many top features to list.
    pub top: usize,
    /// Dump the full structure of tree `i`.
    pub dump_tree: Option<usize>,
}

/// Arguments for `gen`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenArgs {
    /// Output LibSVM path.
    pub out: PathBuf,
    /// Rows to generate.
    pub rows: usize,
    /// Feature count.
    pub features: usize,
    /// Average nonzeros per row.
    pub nnz: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Usage text.
pub const USAGE: &str = "\
dimboost — DimBoost (SIGMOD'18) GBDT trainer

USAGE:
  dimboost train --data <libsvm> --model <out> [--trees N] [--depth D]
                 [--lr F] [--workers W] [--servers P] [--candidates K]
                 [--feature-sample F] [--row-sample F] [--bits N]
                 [--loss logistic|square|softmax --classes K] [--seed N] [--test-fraction F]
                 [--zero-based] [--default-direction] [--pre-binning]
                 [--hist-subtraction] [--fused-layer] [--sparse-wire]
                 [--quantized-hist] [--quant-hist-bits N]
                 [--early-stop R] [--report <json>]
                 [--report-canonical <json>] [--trace <json>]
                 [--trace-canonical <json>] [--trace-events <path>]
                 [--profile <json>] [--fault-plan <file>]
                 [--checkpoint-dir <dir>] [--checkpoint-every N] [--resume]
                 [--threads Q] [--batch-size B]
  dimboost predict --data <libsvm|csv> --model <file> [--output <path>] [--raw]
                 [--zero-based] [--csv] [--threads Q] [--batch-size B]
  dimboost bench --data <libsvm|csv> --model <file> [--threads Q]
                 [--batch-size B] [--repeats R] [--raw] [--zero-based] [--csv]
                 [--scores <path>] [--report <json>] [--report-canonical <json>]
  dimboost serve-sim --data <libsvm|csv> --model <file> [--model <file> ...]
                 [--requests N] [--rate RPS] [--seed N] [--queue-cap N]
                 [--max-batch N] [--slo SECS] [--service-fixed SECS]
                 [--service-per-row SECS] [--horizon SECS]
                 [--swap-at SECS (--swap-model <file> | --swap-checkpoint <dir>)]
                 [--swap-tenant I] [--zero-based] [--csv] [--report <json>]
                 [--report-canonical <json>] [--trace <path>]
                 [--profile <json>]
  dimboost analyze --trace <path> [--out <json>] [--folded <path>] [--top N]
  dimboost evaluate --data <libsvm> --model <file> [--zero-based]
  dimboost gen --out <path> --rows N --features M --nnz Z [--seed N]
  dimboost inspect --model <file> [--top N] [--dump-tree I]
  dimboost help

`predict` and `bench` score through the compiled inference engine
(struct-of-arrays trees, statically striped batches): output bytes are
bit-identical across reruns for any `--threads`/`--batch-size`, and equal
to the interpreted evaluation path. `--threads`/`--batch-size` on `train`
control the batched histogram builder the same way. `--fused-layer`
builds all of a layer's node histograms in one pass over the pre-binned
shard (implies the binned representation); reruns stay bit-identical for
fixed `--threads`/`--batch-size`. `--quantized-hist` accumulates
histograms as packed fixed-point integers (`--quant-hist-bits` codes,
default 12): integer addition is associative, so the learned model bytes
are bit-identical across **any** `--threads`/`--batch-size` — and across
the per-node vs `--fused-layer` paths — not just across reruns of one
configuration. `--sparse-wire` ships histogram pushes
as density-adaptive sparse frames (dense / bitmap / runs, smallest per
message; composes with `--bits` low precision): the learned model is
bit-identical to the dense exchange while `hist_bytes_wire` and the
BUILD_HISTOGRAM exchange charge track the true frame bytes, reported in
the `sparsity` section.

`serve-sim` replays an open-loop Poisson arrival stream (seeded, pure in
`--seed`) against one tenant per `--model` on the simulated clock: bounded
queues shed at admission, batches dispatch when full or when the oldest
request's SLO slack expires, and `--swap-at` hot-swaps a tenant's model
(from a file or a training checkpoint) atomically between batches. The
canonical report and event trace are byte-identical across reruns.

`analyze` profiles a recorded trace — a train events-text trace
(`train --trace-events`) or a serve-sim trace (`serve-sim --trace`),
told apart by their headers — into a canonical `trace_profile` report:
critical-path decomposition attributed per (track, phase) with the
`critical_path_total == final sim time` identity checked bit-exactly,
busy/idle/blocked utilization, PS queue-wait vs service split, fault
stretch, and per-tenant SLO breakdown for serving traces. `--folded`
writes flamegraph-ready folded stacks. `--profile` on `train` and
`serve-sim` emits the same bytes in-process.

A `--fault-plan` file scripts deterministic faults (stragglers, message
drops, duplicates, server outages, a crash, permanent worker losses) into
the simulated cluster; faults change timing only, never the learned model.
A run that crashes under the plan exits with status 3 after writing its
checkpoint; rerun with `--resume` to continue it bit-exactly.

The same file scripts elastic membership: `join worker=N round=R` adds a
machine at a round boundary, `leave worker=N round=R policy=handoff|
redistribute` retires one (handoff charges a warm stripe transfer,
redistribute a 2x cold re-shard), `speed worker=N factor=F` makes a
machine chronically slow, and `speculate threshold=F` launches a backup
copy of the slowest machine's work whenever a round runs more than F
times the median, keeping the faster finisher. Logical data stripes are
fixed for the whole run and re-sharded deterministically, so any
membership schedule yields byte-identical model, ledger, and loss curve
to the fixed-membership run — only simulated time stretches, reported
under `membership` in the report and on the membership trace track.
";

fn take_value<'a>(flag: &str, iter: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    iter.next()
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing value for {flag}"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// Parses a raw argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "train" => parse_train(rest).map(|args| Command::Train(Box::new(args))),
        "predict" => parse_predict(rest).map(Command::Predict),
        "bench" => parse_bench(rest).map(Command::Bench),
        "serve-sim" => parse_serve_sim(rest).map(Command::ServeSim),
        "analyze" => parse_analyze(rest).map(Command::Analyze),
        "evaluate" => parse_evaluate(rest).map(Command::Evaluate),
        "gen" => parse_gen(rest).map(Command::Gen),
        "inspect" => parse_inspect(rest).map(Command::Inspect),
        other => Err(format!(
            "unknown subcommand {other:?} (try `dimboost help`)"
        )),
    }
}

fn parse_train(args: &[String]) -> Result<TrainArgs, String> {
    let mut data = None;
    let mut model = None;
    let mut workers = 1usize;
    let mut servers = 0usize;
    let mut test_fraction = 0.0f64;
    let mut zero_based = false;
    let mut early_stop: Option<usize> = None;
    let mut report: Option<PathBuf> = None;
    let mut report_canonical: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut trace_canonical: Option<PathBuf> = None;
    let mut trace_events: Option<PathBuf> = None;
    let mut profile: Option<PathBuf> = None;
    let mut fault_plan: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every = 1usize;
    let mut resume = false;
    let mut config = GbdtConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--model" => model = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--trees" => config.num_trees = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--depth" => config.max_depth = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--lr" => config.learning_rate = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--workers" => workers = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--servers" => servers = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--candidates" => {
                config.num_candidates = parse_num(flag, take_value(flag, &mut iter)?)?
            }
            "--feature-sample" => {
                config.feature_sample_ratio = parse_num(flag, take_value(flag, &mut iter)?)?
            }
            "--row-sample" => {
                config.instance_sample_ratio = parse_num(flag, take_value(flag, &mut iter)?)?
            }
            "--bits" => config.compress_bits = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--loss" => {
                config.loss = match take_value(flag, &mut iter)? {
                    "logistic" => LossKind::Logistic,
                    "square" => LossKind::Square,
                    "softmax" => LossKind::Softmax { classes: 0 },
                    other => return Err(format!("unknown loss {other:?}")),
                }
            }
            "--classes" => {
                let classes: u32 = parse_num(flag, take_value(flag, &mut iter)?)?;
                config.loss = LossKind::Softmax { classes };
            }
            "--seed" => config.seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--test-fraction" => test_fraction = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--zero-based" => zero_based = true,
            "--default-direction" => config.learn_default_direction = true,
            "--pre-binning" => config.opts.pre_binning = true,
            "--hist-subtraction" => config.opts.hist_subtraction = true,
            "--fused-layer" => config.opts.fused_layer = true,
            "--sparse-wire" => config.opts.sparse_wire = true,
            "--quantized-hist" => config.opts.quantized_hist = true,
            "--quant-hist-bits" => {
                config.quant_hist_bits = parse_num(flag, take_value(flag, &mut iter)?)?
            }
            "--early-stop" => early_stop = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            "--report" => report = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--report-canonical" => {
                report_canonical = Some(PathBuf::from(take_value(flag, &mut iter)?))
            }
            "--trace" => trace = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--trace-canonical" => {
                trace_canonical = Some(PathBuf::from(take_value(flag, &mut iter)?))
            }
            "--trace-events" => trace_events = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--profile" => profile = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--fault-plan" => fault_plan = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--checkpoint-dir" => {
                checkpoint_dir = Some(PathBuf::from(take_value(flag, &mut iter)?))
            }
            "--checkpoint-every" => {
                checkpoint_every = parse_num(flag, take_value(flag, &mut iter)?)?
            }
            "--resume" => resume = true,
            "--threads" => config.num_threads = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--batch-size" => config.batch_size = parse_num(flag, take_value(flag, &mut iter)?)?,
            other => return Err(format!("unknown flag {other:?} for train")),
        }
    }
    config.collect_trace =
        trace.is_some() || trace_canonical.is_some() || trace_events.is_some() || profile.is_some();
    if matches!(config.loss, LossKind::Softmax { classes: 0 }) {
        return Err("--loss softmax requires --classes K".into());
    }
    if early_stop.is_some() && test_fraction <= 0.0 {
        return Err("--early-stop requires --test-fraction > 0".into());
    }
    if checkpoint_dir.is_none() && (resume || checkpoint_every != 1) {
        return Err("--resume and --checkpoint-every require --checkpoint-dir".into());
    }
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    // Catch `--threads 0` / `--batch-size 0` here, at parse time, like
    // `predict` and `bench` do — not as a downstream config error.
    if config.num_threads == 0 || config.batch_size == 0 {
        return Err("--threads and --batch-size must be positive".into());
    }
    Ok(TrainArgs {
        data: data.ok_or("train requires --data")?,
        model: model.ok_or("train requires --model")?,
        workers: workers.max(1),
        servers,
        test_fraction,
        zero_based,
        early_stop,
        report,
        report_canonical,
        trace,
        trace_canonical,
        trace_events,
        profile,
        fault_plan,
        checkpoint_dir,
        checkpoint_every,
        resume,
        config,
    })
}

fn parse_predict(args: &[String]) -> Result<PredictArgs, String> {
    let mut data = None;
    let mut model = None;
    let mut output = None;
    let mut raw = false;
    let mut zero_based = false;
    let mut csv = false;
    let engine = EngineConfig::default();
    let mut threads = engine.threads;
    let mut batch_size = engine.batch_size;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--model" => model = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--output" => output = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--raw" => raw = true,
            "--zero-based" => zero_based = true,
            "--csv" => csv = true,
            "--threads" => threads = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--batch-size" => batch_size = parse_num(flag, take_value(flag, &mut iter)?)?,
            other => return Err(format!("unknown flag {other:?} for predict")),
        }
    }
    if threads == 0 || batch_size == 0 {
        return Err("--threads and --batch-size must be positive".into());
    }
    Ok(PredictArgs {
        data: data.ok_or("predict requires --data")?,
        model: model.ok_or("predict requires --model")?,
        output,
        raw,
        zero_based,
        csv,
        threads,
        batch_size,
    })
}

fn parse_bench(args: &[String]) -> Result<BenchArgs, String> {
    let mut data = None;
    let mut model = None;
    let mut raw = false;
    let mut zero_based = false;
    let mut csv = false;
    let engine = EngineConfig::default();
    let mut threads = engine.threads;
    let mut batch_size = engine.batch_size;
    let mut repeats = 3usize;
    let mut scores = None;
    let mut report = None;
    let mut report_canonical = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--model" => model = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--threads" => threads = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--batch-size" => batch_size = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--repeats" => repeats = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--raw" => raw = true,
            "--zero-based" => zero_based = true,
            "--csv" => csv = true,
            "--scores" => scores = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--report" => report = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--report-canonical" => {
                report_canonical = Some(PathBuf::from(take_value(flag, &mut iter)?))
            }
            other => return Err(format!("unknown flag {other:?} for bench")),
        }
    }
    if threads == 0 || batch_size == 0 || repeats == 0 {
        return Err("--threads, --batch-size, and --repeats must be positive".into());
    }
    Ok(BenchArgs {
        data: data.ok_or("bench requires --data")?,
        model: model.ok_or("bench requires --model")?,
        threads,
        batch_size,
        repeats,
        raw,
        zero_based,
        csv,
        scores,
        report,
        report_canonical,
    })
}

fn parse_serve_sim(args: &[String]) -> Result<ServeSimArgs, String> {
    let mut data = None;
    let mut models: Vec<PathBuf> = Vec::new();
    let mut requests = 1_000usize;
    let mut rate = 500.0f64;
    let mut seed = 42u64;
    let mut queue_cap = 256usize;
    let mut max_batch = 16usize;
    let mut slo = 0.05f64;
    let mut service_fixed = 1e-4f64;
    let mut service_per_row = 1e-5f64;
    let mut horizon: Option<f64> = None;
    let mut swap_at: Option<f64> = None;
    let mut swap_tenant = 0usize;
    let mut swap_model: Option<PathBuf> = None;
    let mut swap_checkpoint: Option<PathBuf> = None;
    let mut zero_based = false;
    let mut csv = false;
    let mut report = None;
    let mut report_canonical = None;
    let mut trace = None;
    let mut profile = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--model" => models.push(PathBuf::from(take_value(flag, &mut iter)?)),
            "--requests" => requests = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--rate" => rate = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--queue-cap" => queue_cap = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--max-batch" => max_batch = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--slo" => slo = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--service-fixed" => service_fixed = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--service-per-row" => service_per_row = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--horizon" => horizon = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            "--swap-at" => swap_at = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            "--swap-tenant" => swap_tenant = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--swap-model" => swap_model = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--swap-checkpoint" => {
                swap_checkpoint = Some(PathBuf::from(take_value(flag, &mut iter)?))
            }
            "--zero-based" => zero_based = true,
            "--csv" => csv = true,
            "--report" => report = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--report-canonical" => {
                report_canonical = Some(PathBuf::from(take_value(flag, &mut iter)?))
            }
            "--trace" => trace = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--profile" => profile = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            other => return Err(format!("unknown flag {other:?} for serve-sim")),
        }
    }
    // Degenerate knobs are caught here, at parse time, with the flag named
    // in the message — never as a downstream simulation assert.
    if models.is_empty() {
        return Err("serve-sim requires at least one --model".into());
    }
    if requests == 0 {
        return Err("--requests must be positive".into());
    }
    if rate <= 0.0 || !rate.is_finite() {
        return Err("--rate must be positive".into());
    }
    if queue_cap == 0 || max_batch == 0 {
        return Err("--queue-cap and --max-batch must be positive".into());
    }
    if slo <= 0.0 || !slo.is_finite() {
        return Err("--slo must be positive".into());
    }
    if service_fixed < 0.0 || service_per_row < 0.0 {
        return Err("--service-fixed and --service-per-row must not be negative".into());
    }
    if let Some(h) = horizon {
        if h.is_nan() || h <= 0.0 {
            return Err("--horizon must be positive".into());
        }
    }
    let swap_sources = usize::from(swap_model.is_some()) + usize::from(swap_checkpoint.is_some());
    match (swap_at, swap_sources) {
        (Some(_), 1) | (None, 0) => {}
        (Some(_), _) => {
            return Err(
                "--swap-at requires exactly one of --swap-model or --swap-checkpoint".into(),
            )
        }
        (None, _) => {
            return Err("--swap-model/--swap-checkpoint requires --swap-at".into());
        }
    }
    if swap_at.is_some() && swap_tenant >= models.len() {
        return Err(format!(
            "--swap-tenant {swap_tenant} out of range for {} model(s)",
            models.len()
        ));
    }
    Ok(ServeSimArgs {
        data: data.ok_or("serve-sim requires --data")?,
        models,
        requests,
        rate,
        seed,
        queue_cap,
        max_batch,
        slo,
        service_fixed,
        service_per_row,
        horizon,
        swap_at,
        swap_tenant,
        swap_model,
        swap_checkpoint,
        zero_based,
        csv,
        report,
        report_canonical,
        trace,
        profile,
    })
}

fn parse_analyze(args: &[String]) -> Result<AnalyzeArgs, String> {
    let mut trace = None;
    let mut out = None;
    let mut folded = None;
    let mut top = 10usize;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--trace" => trace = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--out" => out = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--folded" => folded = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--top" => top = parse_num(flag, take_value(flag, &mut iter)?)?,
            other => return Err(format!("unknown flag {other:?} for analyze")),
        }
    }
    if top == 0 {
        return Err("--top must be positive".into());
    }
    Ok(AnalyzeArgs {
        trace: trace.ok_or("analyze requires --trace")?,
        out,
        folded,
        top,
    })
}

fn parse_evaluate(args: &[String]) -> Result<EvalArgs, String> {
    let mut data = None;
    let mut model = None;
    let mut zero_based = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--data" => data = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--model" => model = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--zero-based" => zero_based = true,
            other => return Err(format!("unknown flag {other:?} for evaluate")),
        }
    }
    Ok(EvalArgs {
        data: data.ok_or("evaluate requires --data")?,
        model: model.ok_or("evaluate requires --model")?,
        zero_based,
    })
}

fn parse_gen(args: &[String]) -> Result<GenArgs, String> {
    let mut out = None;
    let mut rows = 1_000usize;
    let mut features = 100usize;
    let mut nnz = 10usize;
    let mut seed = 42u64;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--rows" => rows = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--features" => features = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--nnz" => nnz = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--seed" => seed = parse_num(flag, take_value(flag, &mut iter)?)?,
            other => return Err(format!("unknown flag {other:?} for gen")),
        }
    }
    Ok(GenArgs {
        out: out.ok_or("gen requires --out")?,
        rows,
        features,
        nnz,
        seed,
    })
}

fn parse_inspect(args: &[String]) -> Result<InspectArgs, String> {
    let mut model = None;
    let mut top = 10usize;
    let mut dump_tree = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--model" => model = Some(PathBuf::from(take_value(flag, &mut iter)?)),
            "--top" => top = parse_num(flag, take_value(flag, &mut iter)?)?,
            "--dump-tree" => dump_tree = Some(parse_num(flag, take_value(flag, &mut iter)?)?),
            other => return Err(format!("unknown flag {other:?} for inspect")),
        }
    }
    Ok(InspectArgs {
        model: model.ok_or("inspect requires --model")?,
        top,
        dump_tree,
    })
}

fn libsvm_opts(zero_based: bool, num_features: Option<usize>) -> LibsvmOptions {
    LibsvmOptions {
        one_based: !zero_based,
        num_features,
        binarize_labels: true,
    }
}

/// Loads a scoring input (LibSVM by default, CSV with `csv`). Labels are
/// kept as-is — scoring ignores them.
fn read_scoring_data(
    path: &std::path::Path,
    csv: bool,
    zero_based: bool,
    num_features: usize,
) -> Result<Dataset, String> {
    if csv {
        let opts = CsvOptions {
            binarize_labels: false,
            ..CsvOptions::default()
        };
        read_csv_file(path, opts).map_err(|e| e.to_string())
    } else {
        let mut opts = libsvm_opts(zero_based, Some(num_features));
        opts.binarize_labels = false;
        read_libsvm_file(path, opts).map_err(|e| e.to_string())
    }
}

/// Renders scores one row per line; rows wider than one score (raw
/// multiclass) are space-separated. `f32` Display is shortest-round-trip,
/// so the text is a faithful, deterministic encoding of the score bits.
fn scores_text(scores: &[f32], width: usize) -> String {
    let mut text = String::with_capacity(scores.len() * 10);
    for row in scores.chunks(width.max(1)) {
        for (i, s) in row.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(&format!("{s}"));
        }
        text.push('\n');
    }
    text
}

/// A runtime failure, carrying the process exit status to report.
///
/// Most failures exit with status 1; a *simulated* worker crash injected by
/// a fault plan exits with status 3 so scripts can tell "the run died as
/// scripted — resume it" apart from a genuine error.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Human-readable message (printed to stderr by the binary).
    pub message: String,
    /// Process exit status (1 = error, 3 = simulated crash).
    pub exit_code: i32,
}

impl CliError {
    /// Substring test on the message, mirroring `str::contains` so error
    /// assertions read the same as they did when `run` returned `String`.
    pub fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            exit_code: 1,
        }
    }
}

/// Executes a parsed command, writing human-readable output to stdout.
pub fn run(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Inspect(args) => {
            let model = load_model_file(&args.model).map_err(|e| e.to_string())?;
            println!(
                "model: {} trees (depth <= {}), {} features, {} classes, lr {}, loss {:?}",
                model.num_trees(),
                model
                    .trees()
                    .iter()
                    .map(|t| t.max_depth())
                    .max()
                    .unwrap_or(0),
                model.num_features(),
                model.num_classes(),
                model.learning_rate(),
                model.loss()
            );
            let leaves: usize = model.trees().iter().map(|t| t.num_leaves()).sum();
            let splits: usize = model.trees().iter().map(|t| t.num_internal()).sum();
            println!("totals: {splits} splits, {leaves} leaves");
            println!("top features by gain:");
            for (f, g) in model.top_features(args.top) {
                println!("  f{f:<8} gain {g:.4}");
            }
            if let Some(i) = args.dump_tree {
                let tree = model
                    .trees()
                    .get(i)
                    .ok_or_else(|| format!("tree {i} out of {}", model.num_trees()))?;
                println!(
                    "
tree {i}:
{}",
                    tree.dump()
                );
            }
            Ok(())
        }
        Command::Gen(args) => {
            let ds = generate(&SparseGenConfig::new(
                args.rows,
                args.features,
                args.nnz,
                args.seed,
            ));
            let file =
                std::fs::File::create(&args.out).map_err(|e| format!("create output: {e}"))?;
            write_libsvm(file, &ds).map_err(|e| e.to_string())?;
            println!(
                "wrote {} rows x {} features ({} nonzeros) to {}",
                ds.num_rows(),
                ds.num_features(),
                ds.nnz(),
                args.out.display()
            );
            Ok(())
        }
        Command::Train(args) => {
            let mut opts = libsvm_opts(args.zero_based, None);
            if !matches!(args.config.loss, LossKind::Logistic) {
                // Square keeps raw targets; softmax keeps class indices.
                opts.binarize_labels = false;
            }
            let full = read_libsvm_file(&args.data, opts).map_err(|e| e.to_string())?;
            println!(
                "loaded {} rows x {} features from {}",
                full.num_rows(),
                full.num_features(),
                args.data.display()
            );
            let (train, test) = if args.test_fraction > 0.0 {
                let (tr, te) = train_test_split(&full, args.test_fraction, args.config.seed)
                    .map_err(|e| e.to_string())?;
                (tr, Some(te))
            } else {
                (full, None)
            };
            let shards = partition_rows(&train, args.workers).map_err(|e| e.to_string())?;
            let servers = if args.servers == 0 {
                args.workers
            } else {
                args.servers
            };
            let ps = PsConfig {
                num_servers: servers,
                num_partitions: 0,
                cost_model: CostModel::GIGABIT_LAN,
            };
            let fault_plan = match &args.fault_plan {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("read fault plan {}: {e}", path.display()))?;
                    Some(
                        FaultPlan::parse(&text)
                            .map_err(|e| format!("fault plan {}: {e}", path.display()))?,
                    )
                }
                None => None,
            };
            let checkpoint = args.checkpoint_dir.as_ref().map(|dir| {
                let mut ck = CheckpointOptions::new(dir.clone());
                ck.every = args.checkpoint_every;
                ck
            });
            let robust = RobustOptions {
                fault_plan,
                checkpoint,
                resume: args.resume,
            };
            let ev = match (&test, args.early_stop) {
                (Some(test), Some(rounds)) => Some(dimboost_core::EvalOptions {
                    dataset: test,
                    early_stopping_rounds: Some(rounds),
                }),
                _ => None,
            };
            let out =
                dimboost_core::train_distributed_resilient(&shards, &args.config, ps, ev, &robust)
                    .map_err(|e| CliError {
                        message: e.to_string(),
                        exit_code: match e {
                            TrainError::Crashed { .. } => 3,
                            _ => 1,
                        },
                    })?;
            if let Some(round) = out.report.resumed_from_round {
                println!("resumed from checkpoint at round {round}");
            }
            if let Some(best) = out.best_iteration {
                println!(
                    "early stopping: best round {best}, kept {} trees",
                    out.model.num_trees()
                );
            }
            println!(
                "trained {} trees; compute {:.2}s, wire quantize {:.2}s host, \
                 simulated comm {:.2}s ({} bytes)",
                out.model.num_trees(),
                out.breakdown.compute_secs,
                out.report.quantize_wall_secs,
                out.breakdown.comm.sim_time.seconds(),
                out.breakdown.comm.bytes
            );
            print!("{}", out.report.summary());
            if let Some(f) = &out.report.faults {
                println!(
                    "faults (plan seed {}): {} retries, {} request drops, {} ack drops, \
                     {} duplicates ({} deduplicated), {} forced deliveries",
                    f.plan_seed,
                    f.retries,
                    f.request_drops,
                    f.ack_drops,
                    f.duplicates,
                    f.dedup_hits,
                    f.forced_deliveries
                );
            }
            if let Some(m) = &out.report.membership {
                println!(
                    "membership: {} joins, {} leaves, {} stripes moved (epoch {}); \
                     handoff {:.2}s, re-shard {:.2}s, dilation {:.2}s; \
                     {} backups ({} wins, {:.2}s saved), {} stale pushes rejected",
                    m.joins,
                    m.leaves,
                    m.stripes_moved,
                    m.epoch,
                    m.handoff_secs,
                    m.reshard_secs,
                    m.elastic_secs,
                    m.speculative_backups,
                    m.backup_wins,
                    m.speculation_saved_secs,
                    m.stale_rejects
                );
            }
            // Save the model before the (optional) report: an unwritable
            // report path must not discard the training run's primary
            // artifact.
            save_model_file(&out.model, &args.model).map_err(|e| e.to_string())?;
            println!("model saved to {}", args.model.display());
            if let Some(path) = &args.report {
                std::fs::write(path, out.report.json())
                    .map_err(|e| format!("write report: {e}"))?;
                println!("run report written to {}", path.display());
            }
            if let Some(path) = &args.report_canonical {
                std::fs::write(path, out.report.canonical_json())
                    .map_err(|e| format!("write canonical report: {e}"))?;
                println!("canonical report written to {}", path.display());
            }
            if let Some(trace) = &out.trace {
                print!("{}", trace.timeline());
                if let Some(path) = &args.trace {
                    std::fs::write(path, trace.chrome_json())
                        .map_err(|e| format!("write trace: {e}"))?;
                    println!("trace written to {} (load in Perfetto)", path.display());
                }
                if let Some(path) = &args.trace_canonical {
                    std::fs::write(path, trace.canonical_chrome_json())
                        .map_err(|e| format!("write canonical trace: {e}"))?;
                    println!("canonical trace written to {}", path.display());
                }
                if let Some(path) = &args.trace_events {
                    std::fs::write(path, trace.events_text())
                        .map_err(|e| format!("write events trace: {e}"))?;
                    println!("events trace written to {}", path.display());
                }
                if let Some(path) = &args.profile {
                    // Same analyzer `analyze` runs offline, so the two
                    // paths produce byte-identical profiles.
                    let profile =
                        analyze_trace(trace).map_err(|e| format!("profile trace: {e}"))?;
                    std::fs::write(path, profile.canonical_json())
                        .map_err(|e| format!("write profile: {e}"))?;
                    println!("trace profile written to {}", path.display());
                }
            }
            if let Some(last) = out.loss_curve.last() {
                println!("final train loss: {:.5}", last.train_loss);
            }
            if let Some(test) = test {
                let probs = out.model.predict_dataset(&test);
                match args.config.loss {
                    LossKind::Logistic => println!(
                        "held-out: error {:.4}, logloss {:.4}, auc {:.4}",
                        classification_error(&probs, test.labels()),
                        log_loss(&probs, test.labels()),
                        auc(&probs, test.labels())
                    ),
                    LossKind::Square => {
                        println!("held-out rmse: {:.4}", rmse(&probs, test.labels()))
                    }
                    LossKind::Softmax { .. } => {
                        let probas = out.model.predict_proba_dataset(&test);
                        println!(
                            "held-out: error {:.4}, mlogloss {:.4}",
                            multiclass_error(&probs, test.labels()),
                            multiclass_log_loss(&probas, test.labels())
                        );
                    }
                }
            }
            Ok(())
        }
        Command::Predict(args) => {
            let model = load_model_file(&args.model).map_err(|e| e.to_string())?;
            let ds =
                read_scoring_data(&args.data, args.csv, args.zero_based, model.num_features())?;
            // Compiled-engine scores are bit-equal to the interpreted path,
            // so swapping the predict implementation changes no output byte.
            let compiled = CompiledModel::compile(&model);
            let engine = EngineConfig {
                threads: args.threads,
                batch_size: args.batch_size,
            };
            let (preds, width) = if args.raw {
                let k = compiled.num_classes();
                (score_raw(&compiled, &ds, &engine), k)
            } else {
                (score_transformed(&compiled, &ds, &engine), 1)
            };
            let text = scores_text(&preds, width);
            match args.output {
                Some(path) => {
                    std::fs::write(&path, text).map_err(|e| format!("write output: {e}"))?;
                    println!(
                        "wrote {} predictions to {}",
                        preds.len() / width,
                        path.display()
                    );
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        Command::Bench(args) => {
            let model = load_model_file(&args.model).map_err(|e| e.to_string())?;
            let ds =
                read_scoring_data(&args.data, args.csv, args.zero_based, model.num_features())?;
            let compiled = CompiledModel::compile(&model);
            let opts = BenchOptions {
                engine: EngineConfig {
                    threads: args.threads,
                    batch_size: args.batch_size,
                },
                repeats: args.repeats,
                raw: args.raw,
            };
            let (scores, report) = dimboost_predict::run_serving_bench(&compiled, &ds, &opts);
            println!("{}", report.summary());
            if let Some(path) = &args.scores {
                let width = if args.raw { compiled.num_classes() } else { 1 };
                std::fs::write(path, scores_text(&scores, width))
                    .map_err(|e| format!("write scores: {e}"))?;
                println!("scores written to {}", path.display());
            }
            if let Some(path) = &args.report {
                std::fs::write(path, report.json(true))
                    .map_err(|e| format!("write serving report: {e}"))?;
                println!("serving report written to {}", path.display());
            }
            if let Some(path) = &args.report_canonical {
                std::fs::write(path, report.canonical_json())
                    .map_err(|e| format!("write canonical serving report: {e}"))?;
                println!("canonical serving report written to {}", path.display());
            }
            Ok(())
        }
        Command::ServeSim(args) => {
            let mut compiled: Vec<CompiledModel> = Vec::new();
            for path in &args.models {
                let model = load_model_file(path).map_err(|e| e.to_string())?;
                compiled.push(CompiledModel::compile(&model));
            }
            let swap_replacement = match (&args.swap_model, &args.swap_checkpoint) {
                (Some(path), None) => {
                    let model = load_model_file(path).map_err(|e| e.to_string())?;
                    Some((CompiledModel::compile(&model), path.display().to_string()))
                }
                (None, Some(dir)) => {
                    // The hot-swap source can be a live training checkpoint:
                    // the checkpointed model loads and swaps in mid-stream.
                    let ck = TrainCheckpoint::load_from_dir(dir)
                        .map_err(|e| format!("load swap checkpoint: {e}"))?;
                    Some((
                        CompiledModel::compile(&ck.model),
                        format!("checkpoint:{}@round{}", dir.display(), ck.next_round),
                    ))
                }
                _ => None,
            };
            let num_features = compiled
                .iter()
                .chain(swap_replacement.iter().map(|(m, _)| m))
                .map(|m| m.num_features())
                .max()
                .unwrap_or(0);
            let ds = read_scoring_data(&args.data, args.csv, args.zero_based, num_features)?;
            if ds.num_rows() == 0 {
                return Err(format!("{} has no rows to serve", args.data.display()).into());
            }
            let tenants: Vec<TenantSpec> = compiled
                .into_iter()
                .enumerate()
                .map(|(i, model)| TenantSpec {
                    name: format!("tenant{i}"),
                    model,
                })
                .collect();
            let swaps: Vec<ModelSwap> = match (args.swap_at, swap_replacement) {
                (Some(at_secs), Some((model, label))) => vec![ModelSwap {
                    at_secs,
                    tenant: args.swap_tenant,
                    label,
                    model,
                }],
                _ => Vec::new(),
            };
            let config = ServeSimConfig {
                seed: args.seed,
                queue_capacity: args.queue_cap,
                max_batch: args.max_batch,
                slo_secs: args.slo,
                service_fixed_secs: args.service_fixed,
                service_per_row_secs: args.service_per_row,
                horizon_secs: args.horizon,
            };
            let arrivals = poisson_arrivals(
                args.seed,
                args.requests,
                args.rate,
                tenants.len(),
                ds.num_rows(),
            );
            let result = run_serve_sim(&tenants, &swaps, &ds, &arrivals, &config);
            println!("{}", result.report.summary());
            if let Some(path) = &args.report {
                std::fs::write(path, result.report.json(true))
                    .map_err(|e| format!("write serve-sim report: {e}"))?;
                println!("serve-sim report written to {}", path.display());
            }
            if let Some(path) = &args.report_canonical {
                std::fs::write(path, result.report.canonical_json())
                    .map_err(|e| format!("write canonical serve-sim report: {e}"))?;
                println!("canonical serve-sim report written to {}", path.display());
            }
            if let Some(path) = &args.trace {
                std::fs::write(path, &result.trace)
                    .map_err(|e| format!("write serve-sim trace: {e}"))?;
                println!("serve-sim trace written to {}", path.display());
            }
            if let Some(path) = &args.profile {
                // Profile the run's own trace text — the same analyzer
                // `analyze` runs offline, so the bytes match exactly.
                let profile = analyze_serve_trace(&result.trace)
                    .map_err(|e| format!("profile serve-sim trace: {e}"))?;
                std::fs::write(path, profile.canonical_json())
                    .map_err(|e| format!("write serve-sim profile: {e}"))?;
                println!("serve-sim profile written to {}", path.display());
            }
            Ok(())
        }
        Command::Analyze(args) => {
            let text = std::fs::read_to_string(&args.trace)
                .map_err(|e| format!("read trace {}: {e}", args.trace.display()))?;
            // The header line says which analyzer owns the trace.
            let (json, stacks, summary) = if is_serve_trace(&text) {
                let p = analyze_serve_trace(&text).map_err(|e| e.to_string())?;
                (p.canonical_json(), p.folded_stacks(), p.summary(args.top))
            } else {
                let trace = Trace::parse_events_text(&text)
                    .map_err(|e| format!("{}: {e}", args.trace.display()))?;
                let p = analyze_trace(&trace).map_err(|e| e.to_string())?;
                (p.canonical_json(), p.folded_stacks(), p.summary(args.top))
            };
            if let Some(path) = &args.out {
                std::fs::write(path, &json).map_err(|e| format!("write profile: {e}"))?;
                println!("trace profile written to {}", path.display());
            }
            if let Some(path) = &args.folded {
                std::fs::write(path, &stacks).map_err(|e| format!("write folded stacks: {e}"))?;
                println!("folded stacks written to {}", path.display());
            }
            print!("{summary}");
            Ok(())
        }
        Command::Evaluate(args) => {
            let model = load_model_file(&args.model).map_err(|e| e.to_string())?;
            let mut opts = libsvm_opts(args.zero_based, Some(model.num_features()));
            if !matches!(model.loss(), LossKind::Logistic) {
                opts.binarize_labels = false;
            }
            let ds = read_libsvm_file(&args.data, opts).map_err(|e| e.to_string())?;
            let probs = model.predict_dataset(&ds);
            match model.loss() {
                LossKind::Logistic => {
                    println!("error:   {:.4}", classification_error(&probs, ds.labels()));
                    println!("logloss: {:.4}", log_loss(&probs, ds.labels()));
                    println!("auc:     {:.4}", auc(&probs, ds.labels()));
                }
                LossKind::Square => {
                    println!("rmse: {:.4}", rmse(&probs, ds.labels()));
                }
                LossKind::Softmax { .. } => {
                    let probas = model.predict_proba_dataset(&ds);
                    println!("error:    {:.4}", multiclass_error(&probs, ds.labels()));
                    println!("mlogloss: {:.4}", multiclass_log_loss(&probas, ds.labels()));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&strs(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn rejects_unknown_subcommand_and_flags() {
        assert!(parse_args(&strs(&["explode"])).is_err());
        assert!(parse_args(&strs(&["train", "--data", "x", "--model", "y", "--what"])).is_err());
        assert!(parse_args(&strs(&["predict", "--data", "x"])).is_err());
    }

    #[test]
    fn parses_full_train_invocation() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d.libsvm",
            "--model",
            "m.bin",
            "--trees",
            "7",
            "--depth",
            "3",
            "--lr",
            "0.2",
            "--workers",
            "4",
            "--servers",
            "2",
            "--candidates",
            "15",
            "--feature-sample",
            "0.8",
            "--row-sample",
            "0.5",
            "--bits",
            "4",
            "--loss",
            "square",
            "--seed",
            "9",
            "--test-fraction",
            "0.1",
            "--zero-based",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else {
            panic!("expected train")
        };
        assert_eq!(args.data, PathBuf::from("d.libsvm"));
        assert_eq!(args.config.num_trees, 7);
        assert_eq!(args.config.max_depth, 3);
        assert_eq!(args.config.learning_rate, 0.2);
        assert_eq!(args.workers, 4);
        assert_eq!(args.servers, 2);
        assert_eq!(args.config.num_candidates, 15);
        assert_eq!(args.config.feature_sample_ratio, 0.8);
        assert_eq!(args.config.instance_sample_ratio, 0.5);
        assert_eq!(args.config.compress_bits, 4);
        assert_eq!(args.config.loss, LossKind::Square);
        assert_eq!(args.config.seed, 9);
        assert_eq!(args.test_fraction, 0.1);
        assert!(args.zero_based);
    }

    #[test]
    fn train_requires_data_and_model() {
        assert!(parse_args(&strs(&["train", "--model", "m"])).is_err());
        assert!(parse_args(&strs(&["train", "--data", "d"])).is_err());
        assert!(parse_args(&strs(&["train", "--data"])).is_err()); // missing value
    }

    #[test]
    fn rejects_bad_numbers_and_loss() {
        assert!(parse_args(&strs(&[
            "train", "--data", "d", "--model", "m", "--trees", "x"
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "train", "--data", "d", "--model", "m", "--loss", "hinge"
        ]))
        .is_err());
    }

    #[test]
    fn end_to_end_gen_train_predict_evaluate() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_test.libsvm");
        let model = dir.join("dimboost_cli_test.model");
        let preds = dir.join("dimboost_cli_test.preds");
        let report = dir.join("dimboost_cli_test.report.json");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "600",
            "--features",
            "80",
            "--nnz",
            "8",
            "--seed",
            "5",
        ]))
        .unwrap())
        .unwrap();

        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "4",
            "--depth",
            "3",
            "--lr",
            "0.3",
            "--workers",
            "2",
            "--test-fraction",
            "0.2",
            "--report",
            report.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.starts_with("{\"workers\":2,"), "{json}");
        assert!(json.contains("\"phase\":\"build_histogram\""));
        assert!(json.contains("\"rounds\":[{\"round\":0,"));

        run(parse_args(&strs(&[
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--output",
            preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let lines = std::fs::read_to_string(&preds).unwrap();
        assert_eq!(lines.lines().count(), 600);
        assert!(lines.lines().all(|l| {
            let p: f32 = l.parse().unwrap();
            (0.0..=1.0).contains(&p)
        }));

        run(parse_args(&strs(&[
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();

        for f in [&data, &model, &preds, &report] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn train_writes_trace_artifacts() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_trace.libsvm");
        let model = dir.join("dimboost_cli_trace.model");
        let trace = dir.join("dimboost_cli_trace.trace.json");
        let canon = dir.join("dimboost_cli_trace.canonical.json");
        let report_canon = dir.join("dimboost_cli_trace.report.json");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "400",
            "--features",
            "50",
            "--nnz",
            "6",
        ]))
        .unwrap())
        .unwrap();

        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "2",
            "--depth",
            "3",
            "--workers",
            "3",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-canonical",
            canon.to_str().unwrap(),
            "--report-canonical",
            report_canon.to_str().unwrap(),
        ]))
        .unwrap();
        let Command::Train(args) = &cmd else { panic!() };
        assert!(args.config.collect_trace);
        run(cmd.clone()).unwrap();

        let full = std::fs::read_to_string(&trace).unwrap();
        assert!(full.starts_with('['), "{full}");
        assert!(full.contains("\"thread_name\""));
        assert!(full.contains("\"wall_ms\""));
        let canonical = std::fs::read_to_string(&canon).unwrap();
        assert!(!canonical.contains("wall_ms"));
        // Canonical artifacts are rerun-stable: train again, compare bytes.
        run(cmd).unwrap();
        assert_eq!(canonical, std::fs::read_to_string(&canon).unwrap());
        let report = std::fs::read_to_string(&report_canon).unwrap();
        assert!(report.contains("\"percentiles\":["), "{report}");

        for f in [&data, &model, &trace, &canon, &report_canon] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parses_analyze() {
        let cmd = parse_args(&strs(&[
            "analyze", "--trace", "t.events", "--out", "p.json", "--folded", "s.folded", "--top",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Analyze(AnalyzeArgs {
                trace: "t.events".into(),
                out: Some("p.json".into()),
                folded: Some("s.folded".into()),
                top: 5,
            })
        );
        // Missing/malformed trace path and degenerate --top are parse-time
        // usage errors (exit 2 through the binary).
        assert!(parse_args(&strs(&["analyze"])).is_err());
        assert!(parse_args(&strs(&["analyze", "--trace"])).is_err());
        assert!(parse_args(&strs(&["analyze", "--trace", "t", "--top", "0"])).is_err());
        assert!(parse_args(&strs(&["analyze", "--trace", "t", "--what"])).is_err());
    }

    #[test]
    fn analyze_matches_in_process_profiles_for_train_and_serve() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_analyze.libsvm");
        let model = dir.join("dimboost_cli_analyze.model");
        let events = dir.join("dimboost_cli_analyze.events");
        let profile = dir.join("dimboost_cli_analyze.profile.json");
        let offline = dir.join("dimboost_cli_analyze.offline.json");
        let folded = dir.join("dimboost_cli_analyze.folded");
        let strace = dir.join("dimboost_cli_analyze.serve.trace");
        let sprofile = dir.join("dimboost_cli_analyze.serve.profile.json");
        let soffline = dir.join("dimboost_cli_analyze.serve.offline.json");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "400",
            "--features",
            "50",
            "--nnz",
            "6",
        ]))
        .unwrap())
        .unwrap();

        // Train with both the events-text trace and the in-process profile.
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "2",
            "--depth",
            "3",
            "--workers",
            "3",
            "--servers",
            "2",
            "--trace-events",
            events.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
        ]))
        .unwrap();
        let Command::Train(args) = &cmd else { panic!() };
        assert!(args.config.collect_trace, "--profile must imply the trace");
        run(cmd).unwrap();

        // Offline analysis of the events trace must produce the same bytes
        // as the in-process profile.
        run(parse_args(&strs(&[
            "analyze",
            "--trace",
            events.to_str().unwrap(),
            "--out",
            offline.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let in_process = std::fs::read_to_string(&profile).unwrap();
        assert!(in_process.starts_with("{\n  \"kind\": \"trace_profile\""));
        assert!(in_process.contains("\"source\": \"train\""));
        assert_eq!(in_process, std::fs::read_to_string(&offline).unwrap());
        let stacks = std::fs::read_to_string(&folded).unwrap();
        assert!(stacks.contains("net;build_histogram;"), "{stacks}");

        // Same contract for serve-sim traces.
        run(parse_args(&strs(&[
            "serve-sim",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--requests",
            "200",
            "--rate",
            "4000",
            "--trace",
            strace.to_str().unwrap(),
            "--profile",
            sprofile.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "analyze",
            "--trace",
            strace.to_str().unwrap(),
            "--out",
            soffline.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let in_process = std::fs::read_to_string(&sprofile).unwrap();
        assert!(in_process.contains("\"source\": \"serve_sim\""));
        assert_eq!(in_process, std::fs::read_to_string(&soffline).unwrap());

        // A missing trace file is a runtime error, not a panic.
        let err = run(Command::Analyze(AnalyzeArgs {
            trace: dir.join("dimboost_cli_analyze.nope"),
            out: None,
            folded: None,
            top: 10,
        }))
        .unwrap_err();
        assert!(err.contains("read trace"), "{err}");

        for f in [
            &data, &model, &events, &profile, &offline, &folded, &strace, &sprofile, &soffline,
        ] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parses_inspect() {
        let cmd = parse_args(&strs(&[
            "inspect",
            "--model",
            "m.bin",
            "--top",
            "3",
            "--dump-tree",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Inspect(InspectArgs {
                model: "m.bin".into(),
                top: 3,
                dump_tree: Some(1)
            })
        );
        assert!(parse_args(&strs(&["inspect"])).is_err());
    }

    #[test]
    fn inspect_runs_on_trained_model() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_inspect.libsvm");
        let model = dir.join("dimboost_cli_inspect.model");
        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "300",
            "--features",
            "40",
            "--nnz",
            "6",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "2",
            "--depth",
            "3",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "inspect",
            "--model",
            model.to_str().unwrap(),
            "--top",
            "5",
            "--dump-tree",
            "0",
        ]))
        .unwrap())
        .unwrap();
        // Out-of-range tree index is a clean error.
        let err = run(Command::Inspect(InspectArgs {
            model: model.clone(),
            top: 3,
            dump_tree: Some(99),
        }))
        .unwrap_err();
        assert!(err.contains("out of"), "{err}");
        for f in [&data, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parses_extension_flags() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--pre-binning",
            "--hist-subtraction",
            "--fused-layer",
            "--sparse-wire",
            "--quantized-hist",
            "--quant-hist-bits",
            "10",
            "--default-direction",
            "--early-stop",
            "3",
            "--test-fraction",
            "0.1",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert!(args.config.opts.pre_binning);
        assert!(args.config.opts.hist_subtraction);
        assert!(args.config.opts.fused_layer);
        assert!(args.config.opts.sparse_wire);
        assert!(args.config.opts.quantized_hist);
        assert_eq!(args.config.quant_hist_bits, 10);
        assert!(args.config.learn_default_direction);
        assert_eq!(args.early_stop, Some(3));
        // Early stopping without a held-out fraction is rejected.
        assert!(parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--early-stop",
            "3",
        ]))
        .is_err());
    }

    #[test]
    fn parses_softmax_and_requires_classes() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--loss",
            "softmax",
            "--classes",
            "4",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.config.loss, LossKind::Softmax { classes: 4 });
        // --classes alone also selects softmax.
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--classes",
            "3",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.config.loss, LossKind::Softmax { classes: 3 });
        // softmax without classes is an error.
        assert!(parse_args(&strs(&[
            "train", "--data", "d", "--model", "m", "--loss", "softmax"
        ]))
        .is_err());
    }

    #[test]
    fn predict_with_missing_model_fails_cleanly() {
        let err = run(Command::Predict(PredictArgs {
            data: "nonexistent.libsvm".into(),
            model: "nonexistent.model".into(),
            output: None,
            raw: false,
            zero_based: false,
            csv: false,
            threads: 2,
            batch_size: 64,
        }))
        .unwrap_err();
        assert!(err.contains("I/O error"), "{err}");
        assert_eq!(err.exit_code, 1);
    }

    #[test]
    fn parses_predict_and_bench_flags() {
        let cmd = parse_args(&strs(&[
            "predict",
            "--data",
            "d.csv",
            "--model",
            "m.bin",
            "--csv",
            "--raw",
            "--threads",
            "8",
            "--batch-size",
            "256",
        ]))
        .unwrap();
        let Command::Predict(args) = cmd else {
            panic!()
        };
        assert!(args.csv && args.raw);
        assert_eq!((args.threads, args.batch_size), (8, 256));

        let cmd = parse_args(&strs(&[
            "bench",
            "--data",
            "d.libsvm",
            "--model",
            "m.bin",
            "--threads",
            "4",
            "--batch-size",
            "128",
            "--repeats",
            "5",
            "--scores",
            "s.txt",
            "--report",
            "r.json",
            "--report-canonical",
            "rc.json",
        ]))
        .unwrap();
        let Command::Bench(args) = cmd else { panic!() };
        assert_eq!((args.threads, args.batch_size, args.repeats), (4, 128, 5));
        assert_eq!(args.scores, Some(PathBuf::from("s.txt")));
        assert_eq!(args.report, Some(PathBuf::from("r.json")));
        assert_eq!(args.report_canonical, Some(PathBuf::from("rc.json")));

        // Degenerate values are rejected at parse time.
        assert!(parse_args(&strs(&[
            "predict",
            "--data",
            "d",
            "--model",
            "m",
            "--threads",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "bench",
            "--data",
            "d",
            "--model",
            "m",
            "--repeats",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strs(&["bench", "--data", "d"])).is_err());
    }

    #[test]
    fn parses_serve_sim_flags_and_validates_knobs() {
        let cmd = parse_args(&strs(&[
            "serve-sim",
            "--data",
            "d.libsvm",
            "--model",
            "a.json",
            "--model",
            "b.json",
            "--requests",
            "200",
            "--rate",
            "800",
            "--seed",
            "7",
            "--queue-cap",
            "32",
            "--max-batch",
            "8",
            "--slo",
            "0.02",
            "--service-fixed",
            "0.001",
            "--service-per-row",
            "0.0001",
            "--horizon",
            "1.5",
            "--swap-at",
            "0.5",
            "--swap-tenant",
            "1",
            "--swap-model",
            "c.json",
            "--report-canonical",
            "rc.json",
            "--trace",
            "t.txt",
        ]))
        .unwrap();
        let Command::ServeSim(args) = cmd else {
            panic!()
        };
        assert_eq!(args.models.len(), 2);
        assert_eq!((args.requests, args.seed), (200, 7));
        assert_eq!((args.queue_cap, args.max_batch), (32, 8));
        assert_eq!(args.rate, 800.0);
        assert_eq!(args.slo, 0.02);
        assert_eq!(args.horizon, Some(1.5));
        assert_eq!(args.swap_at, Some(0.5));
        assert_eq!(args.swap_tenant, 1);
        assert_eq!(args.swap_model, Some(PathBuf::from("c.json")));
        assert_eq!(args.report_canonical, Some(PathBuf::from("rc.json")));
        assert_eq!(args.trace, Some(PathBuf::from("t.txt")));

        let base = ["serve-sim", "--data", "d", "--model", "m"];
        let with = |extra: &[&str]| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            parse_args(&strs(&argv))
        };
        assert!(with(&[]).is_ok());
        assert!(with(&["--requests", "0"]).is_err());
        assert!(with(&["--rate", "0"]).is_err());
        assert!(with(&["--rate", "inf"]).is_err());
        assert!(with(&["--queue-cap", "0"]).is_err());
        assert!(with(&["--max-batch", "0"]).is_err());
        assert!(with(&["--slo", "0"]).is_err());
        assert!(with(&["--service-per-row", "-1"]).is_err());
        assert!(with(&["--horizon", "0"]).is_err());
        // Swap flags must come as a consistent set.
        assert!(with(&["--swap-at", "0.5"]).is_err());
        assert!(with(&["--swap-model", "b.json"]).is_err());
        assert!(with(&["--swap-checkpoint", "ck"]).is_err());
        assert!(with(&[
            "--swap-at",
            "0.5",
            "--swap-model",
            "b",
            "--swap-checkpoint",
            "ck"
        ])
        .is_err());
        // Swap tenant must name a loaded model.
        assert!(with(&[
            "--swap-at",
            "0.5",
            "--swap-model",
            "b",
            "--swap-tenant",
            "1"
        ])
        .is_err());
        assert!(parse_args(&strs(&["serve-sim", "--data", "d"])).is_err());
        assert!(parse_args(&strs(&["serve-sim", "--model", "m"])).is_err());
    }

    #[test]
    fn serve_sim_end_to_end_is_rerun_stable_and_swaps_from_checkpoint() {
        let dir = std::env::temp_dir().join("dimboost_cli_serve_sim");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.libsvm");
        let model_a = dir.join("a.model");
        let ckpts = dir.join("ckpts");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "300",
            "--features",
            "40",
            "--nnz",
            "6",
            "--seed",
            "3",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model_a.to_str().unwrap(),
            "--trees",
            "3",
            "--depth",
            "3",
        ]))
        .unwrap())
        .unwrap();
        // A second, different model left behind as a *checkpoint* — the
        // swap source exercises the load-a-checkpoint-mid-stream path.
        let plan = dir.join("plan.txt");
        std::fs::write(&plan, "seed 1\ncrash round=2\n").unwrap();
        let err = run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            dir.join("b.model").to_str().unwrap(),
            "--trees",
            "5",
            "--depth",
            "2",
            "--seed",
            "99",
            "--fault-plan",
            plan.to_str().unwrap(),
            "--checkpoint-dir",
            ckpts.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.exit_code, 3, "{err}");

        let serve = |tag: &str| {
            let canon = dir.join(format!("canon_{tag}.json"));
            let trace = dir.join(format!("trace_{tag}.txt"));
            run(parse_args(&strs(&[
                "serve-sim",
                "--data",
                data.to_str().unwrap(),
                "--model",
                model_a.to_str().unwrap(),
                "--requests",
                "300",
                "--rate",
                "4000",
                "--seed",
                "21",
                "--queue-cap",
                "64",
                "--max-batch",
                "8",
                "--slo",
                "0.01",
                "--swap-at",
                "0.03",
                "--swap-checkpoint",
                ckpts.to_str().unwrap(),
                "--report",
                dir.join(format!("timed_{tag}.json")).to_str().unwrap(),
                "--report-canonical",
                canon.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ]))
            .unwrap())
            .unwrap();
            (
                std::fs::read_to_string(canon).unwrap(),
                std::fs::read_to_string(trace).unwrap(),
            )
        };
        let (canon_a, trace_a) = serve("a");
        let (canon_b, trace_b) = serve("b");
        assert_eq!(canon_a, canon_b, "canonical serve-sim reports must match");
        assert_eq!(trace_a, trace_b, "serve-sim traces must match");
        assert!(
            canon_a.starts_with("{\"kind\":\"serving_sim\""),
            "{canon_a}"
        );
        assert!(canon_a.contains("\"swaps\":1"), "{canon_a}");
        assert!(!canon_a.contains("wall"), "{canon_a}");
        assert!(trace_a.contains("swap t="), "{trace_a}");
        let timed = std::fs::read_to_string(dir.join("timed_a.json")).unwrap();
        assert!(timed.contains("\"wall_secs\":"), "{timed}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_parses_threading_flags() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--threads",
            "6",
            "--batch-size",
            "500",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.config.num_threads, 6);
        assert_eq!(args.config.batch_size, 500);
    }

    #[test]
    fn bench_end_to_end_is_rerun_stable() {
        let dir = std::env::temp_dir().join("dimboost_cli_bench");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.libsvm");
        let model = dir.join("model.bin");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "500",
            "--features",
            "60",
            "--nnz",
            "8",
            "--seed",
            "13",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "3",
            "--depth",
            "3",
        ]))
        .unwrap())
        .unwrap();

        let bench = |tag: &str| {
            let scores = dir.join(format!("scores_{tag}.txt"));
            let canon = dir.join(format!("report_{tag}.json"));
            run(parse_args(&strs(&[
                "bench",
                "--data",
                data.to_str().unwrap(),
                "--model",
                model.to_str().unwrap(),
                "--threads",
                "4",
                "--batch-size",
                "64",
                "--repeats",
                "2",
                "--scores",
                scores.to_str().unwrap(),
                "--report",
                dir.join(format!("timed_{tag}.json")).to_str().unwrap(),
                "--report-canonical",
                canon.to_str().unwrap(),
            ]))
            .unwrap())
            .unwrap();
            (
                std::fs::read_to_string(scores).unwrap(),
                std::fs::read_to_string(canon).unwrap(),
            )
        };
        let (scores_a, canon_a) = bench("a");
        let (scores_b, canon_b) = bench("b");
        // The repo-wide serving determinism gate, in-process form: score
        // bytes and canonical serving reports are rerun-identical.
        assert_eq!(scores_a, scores_b);
        assert_eq!(canon_a, canon_b);
        assert_eq!(scores_a.lines().count(), 500);
        assert!(canon_a.contains("\"kind\":\"serving\""), "{canon_a}");
        assert!(canon_a.contains("\"score_checksum\":"), "{canon_a}");
        assert!(!canon_a.contains("compute_secs"), "{canon_a}");
        // Scores match the predict subcommand (same engine, same bits).
        let preds = dir.join("preds.txt");
        run(parse_args(&strs(&[
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--threads",
            "2",
            "--batch-size",
            "100",
            "--output",
            preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(std::fs::read_to_string(&preds).unwrap(), scores_a);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_raw_multiclass_emits_k_scores_per_row() {
        let dir = std::env::temp_dir().join("dimboost_cli_multiclass");
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.bin");
        // Small three-class LibSVM data (+0.01 keeps every value nonzero so
        // the sparse encoding stores all three features).
        let libsvm = dir.join("data.libsvm");
        let mut text = String::new();
        for i in 0..90 {
            text.push_str(&format!(
                "{} 1:{} 2:{} 3:{}\n",
                i % 3,
                (i % 7) as f32 * 0.5 + 0.01,
                ((i + 2) % 5) as f32 * 0.25 + 0.01,
                (i % 2) as f32 + 0.01
            ));
        }
        std::fs::write(&libsvm, text).unwrap();
        run(parse_args(&strs(&[
            "train",
            "--data",
            libsvm.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--trees",
            "6",
            "--depth",
            "2",
            "--classes",
            "3",
        ]))
        .unwrap())
        .unwrap();
        let preds = dir.join("raw.txt");
        run(parse_args(&strs(&[
            "predict",
            "--data",
            libsvm.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--raw",
            "--output",
            preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        let text = std::fs::read_to_string(&preds).unwrap();
        assert_eq!(text.lines().count(), 90);
        // The old interpreter path panicked on multiclass --raw; the
        // compiled engine emits K space-separated scores per row.
        assert!(text.lines().all(|l| l.split(' ').count() == 3), "{text}");

        // The same rows as CSV (label column first) score identically.
        let csv = dir.join("data.csv");
        let mut csv_text = String::from("label,f0,f1,f2\n");
        for i in 0..90 {
            csv_text.push_str(&format!(
                "{},{},{},{}\n",
                i % 3,
                (i % 7) as f32 * 0.5 + 0.01,
                ((i + 2) % 5) as f32 * 0.25 + 0.01,
                (i % 2) as f32 + 0.01
            ));
        }
        std::fs::write(&csv, csv_text).unwrap();
        let csv_preds = dir.join("raw_csv.txt");
        run(parse_args(&strs(&[
            "predict",
            "--data",
            csv.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--raw",
            "--csv",
            "--output",
            csv_preds.to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap();
        assert_eq!(std::fs::read_to_string(&csv_preds).unwrap(), text);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_robustness_flags() {
        let cmd = parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--fault-plan",
            "plan.txt",
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint-every",
            "2",
            "--resume",
        ]))
        .unwrap();
        let Command::Train(args) = cmd else { panic!() };
        assert_eq!(args.fault_plan, Some(PathBuf::from("plan.txt")));
        assert_eq!(args.checkpoint_dir, Some(PathBuf::from("ckpts")));
        assert_eq!(args.checkpoint_every, 2);
        assert!(args.resume);
        // --resume / --checkpoint-every need somewhere to put checkpoints.
        for extra in [&["--resume"][..], &["--checkpoint-every", "2"][..]] {
            let mut argv = vec!["train", "--data", "d", "--model", "m"];
            argv.extend_from_slice(extra);
            let err = parse_args(&strs(&argv)).unwrap_err();
            assert!(err.contains("--checkpoint-dir"), "{err}");
        }
        assert!(parse_args(&strs(&[
            "train",
            "--data",
            "d",
            "--model",
            "m",
            "--checkpoint-dir",
            "c",
            "--checkpoint-every",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn train_with_missing_fault_plan_fails_cleanly() {
        let dir = std::env::temp_dir();
        let data = dir.join("dimboost_cli_badplan.libsvm");
        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "100",
            "--features",
            "20",
            "--nnz",
            "4",
        ]))
        .unwrap())
        .unwrap();
        let err = run(parse_args(&strs(&[
            "train",
            "--data",
            data.to_str().unwrap(),
            "--model",
            dir.join("dimboost_cli_badplan.model").to_str().unwrap(),
            "--fault-plan",
            dir.join("dimboost_cli_no_such_plan.txt").to_str().unwrap(),
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("read fault plan"), "{err}");
        assert_eq!(err.exit_code, 1);
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn end_to_end_crash_and_resume_matches_clean_run() {
        let dir = std::env::temp_dir().join("dimboost_cli_crash_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.libsvm");
        let clean_model = dir.join("clean.model");
        let faulted_model = dir.join("faulted.model");
        let plan = dir.join("plan.txt");
        let ckpts = dir.join("ckpts");

        run(parse_args(&strs(&[
            "gen",
            "--out",
            data.to_str().unwrap(),
            "--rows",
            "400",
            "--features",
            "60",
            "--nnz",
            "6",
            "--seed",
            "11",
        ]))
        .unwrap())
        .unwrap();

        let train_argv = |model: &std::path::Path, extra: &[&str]| {
            let mut argv = vec![
                "train".to_string(),
                "--data".into(),
                data.to_str().unwrap().into(),
                "--model".into(),
                model.to_str().unwrap().into(),
                "--trees".into(),
                "5".into(),
                "--depth".into(),
                "3".into(),
                "--workers".into(),
                "2".into(),
                "--seed".into(),
                "7".into(),
            ];
            argv.extend(extra.iter().map(|s| s.to_string()));
            parse_args(&argv).unwrap()
        };

        // Reference: uninterrupted run, no faults.
        run(train_argv(&clean_model, &[])).unwrap();

        // Faulted run: drops + a straggler + a scripted crash at round 3.
        std::fs::write(
            &plan,
            "seed 42\ndrop 0.2\nack_drop 0.1\ndup 0.1\n\
             straggler worker=1 factor=2.5 phase=build_histogram\n\
             crash round=3\n",
        )
        .unwrap();
        let plan_s = plan.to_str().unwrap();
        let ckpt_s = ckpts.to_str().unwrap();
        let err = run(train_argv(
            &faulted_model,
            &["--fault-plan", plan_s, "--checkpoint-dir", ckpt_s],
        ))
        .unwrap_err();
        assert_eq!(err.exit_code, 3, "{err}");
        assert!(err.contains("simulated worker crash at round 3"), "{err}");

        // Resume from the crash-time checkpoint under the same fault plan.
        run(train_argv(
            &faulted_model,
            &[
                "--fault-plan",
                plan_s,
                "--checkpoint-dir",
                ckpt_s,
                "--resume",
            ],
        ))
        .unwrap();

        // Exactness invariant: faults + crash + resume change timing only,
        // never the learned model.
        let clean = std::fs::read(&clean_model).unwrap();
        let faulted = std::fs::read(&faulted_model).unwrap();
        assert_eq!(clean, faulted, "faulted model diverged from clean run");

        std::fs::remove_dir_all(&dir).ok();
    }
}
