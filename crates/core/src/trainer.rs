//! The DimBoost distributed trainer: the seven-phase worker execution plan
//! of Figure 7 (CREATE_SKETCH → PULL_SKETCH → NEW_TREE → BUILD_HISTOGRAM →
//! FIND_SPLIT → SPLIT_TREE → FINISH) over the parameter server.
//!
//! Workers are simulated in-process: computation phases run real code and
//! are timed in wall-clock per worker (the distributed wall time of a phase
//! is the *max* across workers, since real workers run concurrently on
//! separate machines); communication is charged to the simulated network via
//! the Table 1 cost formulas. Every optimization of Sections 5–6 is a
//! config toggle so the Table 3 ablation can enable them one at a time.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dimboost_data::Dataset;
use dimboost_ps::quantize::{quantize_row, QuantizedRow};
use dimboost_ps::split::{best_split_in_range, FinalSplit, PullSplitResult, SplitDecision};
use dimboost_ps::{HistogramLayout, ParameterServer, PsConfig};
use dimboost_simnet::fault::{LeavePolicy, LossPolicy, StripeMove};
use dimboost_simnet::{CommStats, FaultPlan, FaultSession, Phase, SimTime, Trace, TraceBus};
use dimboost_sketch::{propose_candidates, GkSketch, SplitCandidates};

use crate::checkpoint::{
    CheckpointError, CheckpointFingerprint, CheckpointOptions, TrainCheckpoint,
};
use crate::config::{GbdtConfig, LossKind};
use crate::hist_build::build_row;
use crate::loss::{loss_for, softmax_grads, softmax_loss, GradPair, Loss};
use crate::meta::FeatureMeta;
use crate::model::GbdtModel;
use crate::model_io;
use crate::node_index::NodeIndex;
use crate::parallel::{build_row_batched, BatchConfig};
use crate::report::{NodeInstances, RoundRecord, RunReport, SpanTimer};
use crate::scheduler::RoundRobinScheduler;
use crate::tree::Tree;

/// Errors from the resilient training entry points.
///
/// The legacy `Result<_, String>` entry points flatten this through
/// [`std::fmt::Display`]; [`TrainError::Invalid`] displays as just its
/// message so those callers see the exact strings they always did.
#[derive(Debug)]
pub enum TrainError {
    /// Invalid configuration or input data.
    Invalid(String),
    /// The fault plan's simulated crash fired. When the run was
    /// checkpointing, `checkpoint` names the directory-resident snapshot a
    /// `--resume` run can continue from.
    Crashed {
        /// Boosting round at which the crash fired (no work from this
        /// round is in the checkpoint).
        round: usize,
        /// Path of the checkpoint written at crash time, if any.
        checkpoint: Option<PathBuf>,
    },
    /// A worker was permanently lost under [`LossPolicy::Abort`].
    WorkerLost {
        /// The lost worker's shard id.
        worker: u32,
        /// Round at which the loss fired.
        round: usize,
    },
    /// Checkpoint I/O, decoding, or fingerprint validation failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Invalid(msg) => write!(f, "{msg}"),
            TrainError::Crashed { round, checkpoint } => {
                write!(f, "simulated worker crash at round {round}")?;
                match checkpoint {
                    Some(path) => write!(f, " (checkpoint at {})", path.display()),
                    None => write!(f, " (no checkpoint was configured)"),
                }
            }
            TrainError::WorkerLost { worker, round } => {
                write!(
                    f,
                    "worker {worker} permanently lost at round {round} (policy: abort)"
                )
            }
            TrainError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<String> for TrainError {
    fn from(msg: String) -> Self {
        TrainError::Invalid(msg)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

fn invalid(msg: impl Into<String>) -> TrainError {
    TrainError::Invalid(msg.into())
}

/// Robustness configuration for [`train_distributed_resilient`]: an
/// optional deterministic fault plan plus checkpoint/resume settings.
#[derive(Debug, Clone, Default)]
pub struct RobustOptions {
    /// Deterministic fault plan injected into the run (stragglers, message
    /// drops/duplicates, outages, a scripted crash, permanent worker
    /// losses). `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Where and how often to write rolling checkpoints. `None` disables
    /// checkpointing (and makes `resume` invalid).
    pub checkpoint: Option<CheckpointOptions>,
    /// Resume from the rolling checkpoint in `checkpoint.dir` instead of
    /// starting from round 0. The checkpoint's fingerprint must match the
    /// run exactly.
    pub resume: bool,
}

/// Where a training run spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBreakdown {
    /// Wall-clock computation seconds: per phase, the maximum across
    /// workers (workers run concurrently on separate machines), summed over
    /// phases.
    pub compute_secs: f64,
    /// Simulated communication ledger (bytes, packages, simulated seconds).
    pub comm: CommStats,
}

impl RunBreakdown {
    /// Total modelled run time: computation plus simulated communication.
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.comm.sim_time.seconds()
    }
}

/// One point of the convergence curve (Figure 12's right-hand plots),
/// recorded once per boosting round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Trees in the ensemble when the point was recorded.
    pub tree: usize,
    /// Mean training loss after this tree.
    pub train_loss: f64,
    /// Modelled elapsed seconds (compute + simulated communication).
    pub elapsed_secs: f64,
}

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// The trained ensemble (truncated to the best iteration when early
    /// stopping fired).
    pub model: GbdtModel,
    /// Time breakdown.
    pub breakdown: RunBreakdown,
    /// Training-loss curve, one point per tree actually trained.
    pub loss_curve: Vec<LossPoint>,
    /// Validation-loss curve (empty when no eval set was supplied).
    pub eval_curve: Vec<LossPoint>,
    /// Zero-based index of the best tree on the eval set, when evaluating.
    pub best_iteration: Option<usize>,
    /// Structured per-phase / per-round run report (see [`crate::report`]).
    /// Its aggregate communication always equals `breakdown.comm`.
    pub report: RunReport,
    /// Event-level trace of the run on the simulated clock, recorded when
    /// [`GbdtConfig::collect_trace`] is set (`None` otherwise). The trace's
    /// communication events fold back to `report.comm` bit-exactly.
    pub trace: Option<Trace>,
}

/// Validation configuration for [`train_distributed_with_eval`].
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions<'a> {
    /// Held-out dataset evaluated after every boosting round.
    pub dataset: &'a Dataset,
    /// Stop after this many rounds without eval-loss improvement and
    /// truncate the model to the best round. `None` evaluates without
    /// stopping.
    pub early_stopping_rounds: Option<usize>,
}

/// Per-worker training state (one per simulated machine).
struct Worker {
    shard_id: usize,
    /// Raw scores, `num_classes` per instance (class-major within a row).
    preds: Vec<f32>,
    /// Current tree's per-instance gradients (one class's column).
    grads: Vec<GradPair>,
    /// Round gradients for all classes (`num_classes` per instance).
    grads_all: Vec<GradPair>,
    index: NodeIndex,
    /// Pre-binned shard (when `Optimizations::pre_binning` is on).
    binned: Option<crate::binned::BinnedShard>,
    /// Packed-pair offset view of `binned` (when
    /// `Optimizations::quantized_hist` is on); rebuilt with it.
    qbinned: Option<crate::hist_build::QuantBinned>,
    /// Current tree's fixed-point gradient codes (`quantized_hist`),
    /// re-quantized each NEW_TREE after the gradient pass.
    qgrads: Option<crate::hist_build::QuantizedGrads>,
    /// Row-subsampling membership for the current tree (`None` = all rows).
    sample_mask: Option<Vec<bool>>,
    rng: StdRng,
}

/// One worker's histogram rows for a layer: `(node, row, instances)`.
type LocalRows = Vec<(u32, Vec<f32>, u64)>;

/// One locally built histogram row as it goes on the wire.
enum WireRow {
    /// Full precision.
    F32(Vec<f32>),
    /// The §6.1 low-precision encoding.
    Quantized(QuantizedRow),
}

/// Quantizes one wave of workers' `(node, row, instances)` lists
/// concurrently, one pool stripe per worker. Each stripe draws from its own
/// worker's RNG (`rngs[i]`, cloned in, written back) in node order, so codes
/// and RNG states equal those of quantizing the workers one after another.
/// Each f32 row is dropped as soon as it is encoded.
fn quantize_wave(
    rngs: Vec<&mut StdRng>,
    rows: Vec<LocalRows>,
    layout: &HistogramLayout,
    bits: u8,
) -> Vec<Vec<(u32, WireRow, u64)>> {
    let inputs: Vec<Mutex<Option<(StdRng, LocalRows)>>> = rngs
        .iter()
        .zip(rows)
        .map(|(rng, rows)| Mutex::new(Some(((*rng).clone(), rows))))
        .collect();
    let outputs = crate::pool::global().run(inputs.len(), |stripe| {
        let (mut rng, rows) = inputs[stripe]
            .lock()
            .expect("wave input poisoned")
            .take()
            .expect("each stripe runs once");
        let encoded: Vec<_> = rows
            .into_iter()
            .map(|(node, row, count)| {
                let q = quantize_row(&row, layout, bits, &mut rng);
                (node, WireRow::Quantized(q), count)
            })
            .collect();
        (rng, encoded)
    });
    rngs.into_iter()
        .zip(outputs)
        .map(|(rng, (state, encoded))| {
            *rng = state;
            encoded
        })
        .collect()
}

/// Routes every local instance through the partially-built tree to find the
/// ones currently sitting at `node` — the full-shard scan the
/// node-to-instance index replaces (Table 3's "Node-to-instance Index" row).
fn scan_instances(shard: &Dataset, tree: &Tree, node: u32, mask: Option<&[bool]>) -> Vec<u32> {
    (0..shard.num_rows() as u32)
        .filter(|&i| mask.is_none_or(|m| m[i as usize]))
        .filter(|&i| tree.route(&shard.row(i as usize), 0) == node)
        .collect()
}

/// Builds one worker's per-feature quantile sketches over its shard.
fn build_local_sketches(shard: &Dataset, num_features: usize, eps: f64) -> Vec<GkSketch> {
    let mut sketches: Vec<GkSketch> = (0..num_features).map(|_| GkSketch::new(eps)).collect();
    for (row, _) in shard.iter_rows() {
        for (f, v) in row.iter() {
            sketches[f as usize].insert(v);
        }
    }
    for s in &mut sketches {
        s.flush();
    }
    sketches
}

/// Trains a GBDT model across `shards` (one per worker) with the DimBoost
/// execution plan on a parameter server configured by `ps_config`.
///
/// Returns the model, a compute/communication breakdown, and the per-tree
/// training-loss curve. Deterministic in `(config.seed, shards, ps_config)`.
pub fn train_distributed(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
) -> Result<TrainOutput, String> {
    train_distributed_with_eval(shards, config, ps_config, None)
}

/// [`train_distributed`] with an optional held-out evaluation set and early
/// stopping.
pub fn train_distributed_with_eval(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    eval: Option<EvalOptions<'_>>,
) -> Result<TrainOutput, String> {
    train_impl(shards, config, ps_config, eval, None, None).map_err(|e| e.to_string())
}

/// [`train_distributed_with_eval`] under a robustness harness: deterministic
/// fault injection, rolling checkpoints, and checkpoint-resume.
///
/// The exactness invariant (tested): a fault plan changes only *timing* —
/// the learned model, the logical communication ledger (bytes/packages per
/// phase), and the loss curves are bit-identical to the fault-free run with
/// the same seed. Likewise a run resumed from a checkpoint finishes with a
/// model bit-identical to the uninterrupted run.
pub fn train_distributed_resilient(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    eval: Option<EvalOptions<'_>>,
    robust: &RobustOptions,
) -> Result<TrainOutput, TrainError> {
    train_impl(shards, config, ps_config, eval, None, Some(robust))
}

/// Warm start: continues boosting on top of an existing model, appending
/// `config.num_trees` further rounds. The initial model must match the
/// configured loss, learning rate, and dimensionality (the combined
/// ensemble has a single shrinkage factor).
pub fn train_distributed_continue(
    init: &GbdtModel,
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    eval: Option<EvalOptions<'_>>,
) -> Result<TrainOutput, String> {
    if init.loss() != config.loss {
        return Err(format!(
            "warm start loss mismatch: model {:?} vs config {:?}",
            init.loss(),
            config.loss
        ));
    }
    if init.learning_rate() != config.learning_rate {
        return Err(format!(
            "warm start learning-rate mismatch: model {} vs config {}",
            init.learning_rate(),
            config.learning_rate
        ));
    }
    if !shards.is_empty() && init.num_features() != shards[0].num_features() {
        return Err(format!(
            "warm start dimensionality mismatch: model {} vs data {}",
            init.num_features(),
            shards[0].num_features()
        ));
    }
    init.check_consistency()?;
    train_impl(shards, config, ps_config, eval, Some(init), None).map_err(|e| e.to_string())
}

/// Builds the fingerprint identifying this run for checkpoint validation.
/// `membership_digest` covers the fault plan's elastic schedule (0 without
/// one) so a resume under a different membership history fails loudly.
fn fingerprint_for(
    config: &GbdtConfig,
    shards: &[Dataset],
    membership_digest: u64,
) -> CheckpointFingerprint {
    let (loss_tag, loss_classes) = model_io::loss_tag(config.loss);
    CheckpointFingerprint {
        seed: config.seed,
        num_trees: config.num_trees as u64,
        loss_tag,
        loss_classes,
        learning_rate_bits: config.learning_rate.to_bits(),
        num_features: shards.first().map_or(0, |s| s.num_features()) as u64,
        workers: shards.len() as u32,
        shard_rows: shards.iter().map(|s| s.num_rows() as u64).collect(),
        membership_digest,
    }
}

/// Reconstructs the membership overlay a run had reached after rounds
/// `0..start` by replaying the plan's schedule (used when a resume has no
/// checkpointed snapshot to restore). The rebalance is a pure function of
/// the event sequence, so replay and live application agree exactly. The
/// per-round order mirrors the live path: joins, then leaves, then
/// redistribute-losses.
fn replay_membership_to(session: &FaultSession, start: usize) -> Result<(), TrainError> {
    for round in 0..start {
        let plan = session.plan();
        for spec in plan.joins.iter().filter(|j| j.round == round) {
            session.apply_join(spec.worker).map_err(invalid)?;
        }
        for spec in plan.leaves.iter().filter(|l| l.round == round) {
            session.apply_leave(spec.worker).map_err(invalid)?;
        }
        for spec in plan.losses.iter().filter(|l| l.round == round) {
            if matches!(spec.policy, LossPolicy::Redistribute) {
                session.apply_leave(spec.worker).map_err(invalid)?;
            }
        }
    }
    Ok(())
}

/// Snapshots the run into a resumable checkpoint after round `next_round − 1`.
#[allow(clippy::too_many_arguments)]
fn snapshot_checkpoint(
    fingerprint: &CheckpointFingerprint,
    next_round: usize,
    trees: &[Tree],
    config: &GbdtConfig,
    num_features: usize,
    workers: &[Worker],
    ledger: dimboost_simnet::CommLedger,
    candidates: &[SplitCandidates],
    loss_curve: &[LossPoint],
    rounds: &[RoundRecord],
    eval_curve: &[LossPoint],
    best_eval_loss: f64,
    best_iteration: Option<usize>,
    membership: Option<(Vec<u32>, Vec<u32>, u64)>,
) -> TrainCheckpoint {
    TrainCheckpoint {
        fingerprint: fingerprint.clone(),
        next_round,
        model: GbdtModel::new(
            trees.to_vec(),
            config.learning_rate,
            config.loss,
            num_features,
        ),
        rng_states: workers.iter().map(|wk| wk.rng.state()).collect(),
        ledger,
        candidates: candidates.to_vec(),
        loss_curve: loss_curve.to_vec(),
        rounds: rounds.to_vec(),
        eval_curve: eval_curve.to_vec(),
        best_eval_loss,
        best_iteration,
        membership,
    }
}

fn train_impl(
    shards: &[Dataset],
    config: &GbdtConfig,
    ps_config: PsConfig,
    eval: Option<EvalOptions<'_>>,
    init: Option<&GbdtModel>,
    robust: Option<&RobustOptions>,
) -> Result<TrainOutput, TrainError> {
    config.validate()?;
    if shards.is_empty() {
        return Err(invalid("need at least one worker shard"));
    }
    let num_features = shards[0].num_features();
    if shards.iter().any(|s| s.num_features() != num_features) {
        return Err(invalid("all shards must share the same dimensionality"));
    }
    let total_instances: usize = shards.iter().map(|s| s.num_rows()).sum();
    if total_instances == 0 {
        return Err(invalid("cannot train on zero instances"));
    }

    // ---- Robustness harness: fault session, checkpointing, resume. -------
    let fault_session: Option<Arc<FaultSession>> = robust
        .and_then(|r| r.fault_plan.as_ref())
        .map(|plan| FaultSession::new(plan.clone()));
    let membership_digest = robust
        .and_then(|r| r.fault_plan.as_ref())
        .map_or(0, |p| p.membership_digest());
    let checkpoint_opts = robust.and_then(|r| r.checkpoint.as_ref());
    let resume_ck: Option<TrainCheckpoint> = match robust {
        Some(r) if r.resume => {
            let opts = r
                .checkpoint
                .as_ref()
                .ok_or_else(|| invalid("resume requires a checkpoint directory"))?;
            if init.is_some() {
                return Err(invalid("resume cannot be combined with warm start"));
            }
            let ck = TrainCheckpoint::load_from_dir(&opts.dir)?;
            ck.fingerprint
                .ensure_matches(&fingerprint_for(config, shards, membership_digest))?;
            if ck.rng_states.len() != shards.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "checkpoint has {} RNG states for {} workers",
                    ck.rng_states.len(),
                    shards.len()
                ))
                .into());
            }
            if ck.next_round > config.num_trees {
                return Err(invalid(format!(
                    "checkpoint is ahead of the run: next round {} of {}",
                    ck.next_round, config.num_trees
                )));
            }
            Some(ck)
        }
        _ => None,
    };
    let resumed_from: Option<usize> = resume_ck.as_ref().map(|ck| ck.next_round);
    let start_round = resumed_from.unwrap_or(0);
    // A warm model to recompute per-instance scores from: either an explicit
    // warm start or the partial model inside the checkpoint. Recomputation
    // is bit-exact because `predict_scores` sums the same trees in the same
    // per-class order as the incremental updates did.
    let warm: Option<&GbdtModel> = init.or(resume_ck.as_ref().map(|ck| &ck.model));
    if let (Some(session), Some(start)) = (&fault_session, resumed_from) {
        // Workers redistributed before the crash stay lost in the resumed run.
        for spec in &session.plan().losses {
            if spec.round < start && matches!(spec.policy, LossPolicy::Redistribute) {
                session.mark_lost(spec.worker);
            }
        }
    }

    let w = shards.len();
    // Trees per boosting round: 1 for scalar losses, `classes` for softmax
    // (`num_trees` counts *rounds*, so a softmax run grows `num_trees · k`
    // trees, round-major).
    let k = config.loss.trees_per_round();
    let scalar_loss: Option<&dyn Loss> = match config.loss {
        LossKind::Softmax { .. } => None,
        kind => Some(loss_for(kind)),
    };
    if let LossKind::Softmax { classes } = config.loss {
        let check = |labels: &[f32], what: &str| -> Result<(), String> {
            for &y in labels {
                if y < 0.0 || y.fract() != 0.0 || y as u32 >= classes {
                    return Err(format!(
                        "softmax {what} labels must be class indices in 0..{classes}, got {y}"
                    ));
                }
            }
            Ok(())
        };
        for shard in shards {
            check(shard.labels(), "training")?;
        }
        if let Some(ev) = &eval {
            check(ev.dataset.labels(), "eval")?;
        }
    }
    let ps = ParameterServer::new(num_features, ps_config);
    let cost = ps_config.cost_model;
    let p = ps_config.partitions();
    let params = config.split_params();
    // The trace bus rides along on every PS interaction (through the shared
    // StatsRecorder) and on every timed compute phase. With collect_trace
    // off it still aggregates metrics percentiles, just no event log.
    let bus = TraceBus::new(w, ps_config.num_servers, cost, config.collect_trace);
    ps.attach_trace(bus.clone());
    if let Some(session) = &fault_session {
        ps.attach_faults(session.clone());
    }
    if let Some(ck) = &resume_ck {
        // The resumed report accounts for the whole logical run: absorb the
        // pre-crash ledger before any new charges land.
        ps.recorder().preload(&ck.ledger);
    }
    // ---- Elastic membership overlay. ---------------------------------------
    // Scripted joins/leaves/speed skew change only *placement* and simulated
    // timing. The logical stripes are the initial shard set, immutable for
    // the run: per-stripe worker state (gradients, histograms, RNG streams)
    // and push order never change, so the model stays bit-identical to a
    // fixed-membership run (f32 histogram merging is grouping-sensitive —
    // re-grouping rows would change the bytes).
    let membership_on = fault_session
        .as_ref()
        .is_some_and(|s| s.plan().has_membership_events());
    if membership_on {
        let session = fault_session.as_ref().expect("membership implies a plan");
        session.init_membership(w);
        match resume_ck.as_ref().and_then(|ck| ck.membership.clone()) {
            // The checkpointed snapshot reproduces the exact placement and
            // epoch numbering the interrupted run had reached.
            Some((assignment, live, epoch)) => {
                session.restore_membership(assignment, live, epoch);
            }
            // No snapshot (fresh run, or a pre-elastic checkpoint): replay
            // the schedule up to the start round.
            None => replay_membership_to(session, start_round)?,
        }
        ps.set_epoch(session.membership_epoch());
    }
    // Tags PS interactions with the issuing worker on both the trace bus
    // and the fault session (per-worker message sequence numbers).
    let set_worker = |worker: Option<u32>| {
        bus.set_worker(worker);
        if let Some(session) = &fault_session {
            session.set_worker(worker);
        }
    };
    // Charges a phase-tagged communication time, dilated by any live
    // stragglers (and by permanent worker losses under the redistribute
    // policy: survivors carry the lost shard's traffic on their links).
    // Dilation adds simulated *time* only — bytes and packages stay
    // identical to the fault-free run, preserving the exactness invariant.
    let charge = |phase: Phase, time: SimTime| {
        ps.charge(phase, time);
        let Some(session) = &fault_session else {
            return;
        };
        if membership_on {
            // Elastic schedule: a phase finishes when the slowest live
            // machine drains its stripes (rate × load, see
            // `FaultSession::membership_dilation`); speculation can cap a
            // chronic straggler by replaying its stripes on a backup.
            let d = session.membership_dilation(phase);
            if let Some(b) = d.backup {
                let won = b.effective_factor < b.raw_factor;
                let saved = time.seconds() * (b.raw_factor - b.effective_factor);
                session.on_backup(won, saved);
                ps.recorder()
                    .membership_event(phase, "speculative_backup", SimTime::ZERO, 0, 1);
                if won {
                    // The win's saved seconds are a *reduction*, not
                    // schedule stretch — recorded with zero duration so the
                    // trace profile attributes only real stretch.
                    ps.recorder()
                        .membership_event(phase, "backup_win", SimTime::ZERO, 0, 1);
                }
            }
            if d.factor > 1.0 {
                let extra = time.seconds() * (d.factor - 1.0);
                session.add_elastic_secs(extra);
                ps.recorder()
                    .membership_event(phase, "elastic_dilation", SimTime(extra), 0, 1);
                ps.charge(phase, SimTime(extra));
            }
        } else {
            let dilation = session.dilation(phase);
            if dilation > 1.0 {
                let extra = time.seconds() * (dilation - 1.0);
                session.add_straggler_secs(extra);
                ps.recorder()
                    .fault_event(phase, "straggler_dilation", SimTime(extra), 0, 1);
                ps.charge(phase, SimTime(extra));
            }
        }
    };
    // Transfer cost of re-homing one stripe at a membership event: a
    // graceful handoff streams the resident partition (α + bytes·β); a cold
    // re-shard (redistribute, or a lost machine that cannot hand off)
    // re-reads and re-bins it on the receiver, modelled at twice the
    // streaming cost. Pure simulated time — bytes appear only on the
    // membership trace lane, never in the communication ledger.
    let stripe_bytes: Vec<u64> = shards
        .iter()
        .map(|s| (8 * s.nnz() + 8 * s.num_rows()) as u64)
        .collect();
    let charge_moves = |moves: &[StripeMove], graceful: bool| {
        let Some(session) = &fault_session else {
            return;
        };
        for mv in moves {
            let bytes = stripe_bytes[mv.stripe as usize];
            let base = cost.alpha + bytes as f64 * cost.beta;
            let (name, secs) = if graceful {
                ("stripe_handoff", base)
            } else {
                ("stripe_reshard", 2.0 * base)
            };
            if graceful {
                session.add_handoff_secs(secs);
            } else {
                session.add_reshard_secs(secs);
            }
            ps.recorder()
                .membership_event(Phase::NewTree, name, SimTime(secs), bytes, 1);
            ps.charge(Phase::NewTree, SimTime(secs));
        }
    };
    let mut timer = SpanTimer::new(w);
    timer.attach_trace(bus.clone());
    let mut rounds: Vec<RoundRecord> = match &resume_ck {
        Some(ck) => ck.rounds.clone(),
        None => Vec::with_capacity(config.num_trees),
    };

    let mut workers: Vec<Worker> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| Worker {
            shard_id: i,
            preds: match warm {
                Some(model) => {
                    let mut preds = Vec::with_capacity(s.num_rows() * k);
                    for (row, _) in s.iter_rows() {
                        preds.extend(model.predict_scores(&row));
                    }
                    preds
                }
                None => vec![0.0; s.num_rows() * k],
            },
            grads: vec![GradPair::default(); s.num_rows()],
            grads_all: vec![GradPair::default(); s.num_rows() * k],
            index: NodeIndex::new(s.num_rows(), 0),
            binned: None,
            qbinned: None,
            qgrads: None,
            sample_mask: None,
            rng: match &resume_ck {
                // Feature subsampling and stochastic rounding continue the
                // exact streams the checkpointed run was drawing from.
                Some(ck) => StdRng::from_state(ck.rng_states[i]),
                None => StdRng::seed_from_u64(config.seed ^ ((i as u64 + 1) << 32)),
            },
        })
        .collect();

    let candidates: Vec<SplitCandidates> = match &resume_ck {
        // The sketch phases already ran before the crash — their traffic is
        // in the preloaded ledger. Reusing the checkpointed candidates keeps
        // candidate proposal (and so every split) exactly reproducible.
        Some(ck) => ck.candidates.clone(),
        None => {
            // ---- CREATE_SKETCH: local sketches pushed to the PS. ---------
            // Budget the rank error for the PS-side balanced merge of w
            // sketches.
            let worker_eps = config.sketch_eps / ((w as f64).log2() + 2.0).max(2.0);
            let locals = timer.phase(Phase::CreateSketch, &mut workers, |wk| {
                build_local_sketches(&shards[wk.shard_id], num_features, worker_eps)
            });
            let mut sketch_bytes = 0usize;
            for (wi, mut local) in locals.into_iter().enumerate() {
                set_worker(Some(wi as u32));
                sketch_bytes += local.iter_mut().map(|s| s.wire_bytes()).sum::<usize>();
                ps.push_sketches(local);
            }
            set_worker(None);
            if w > 1 {
                charge(
                    Phase::CreateSketch,
                    cost.t_ps_exchange_p(sketch_bytes / w.max(1), w, ps_config.num_servers),
                );
            }

            // ---- PULL_SKETCH: merged sketches -> candidates per feature. -
            let mut merged = ps.pull_sketches();
            if w > 1 {
                let merged_bytes: usize = merged.iter_mut().map(|s| s.wire_bytes()).sum();
                // All workers pull in parallel over their own links.
                charge(
                    Phase::PullSketch,
                    SimTime(cost.alpha + merged_bytes as f64 * cost.beta),
                );
            }
            merged
                .iter_mut()
                .map(|s| propose_candidates(s, config.num_candidates))
                .collect()
        }
    };

    let mut trees: Vec<Tree> = match warm {
        Some(model) => model.trees().to_vec(),
        None => Vec::with_capacity(config.num_trees),
    };
    // Early-stopping truncation keeps `init_trees` plus whole rounds. A
    // resumed run's trees all belong to the run itself, so the cursor stays
    // at zero there (only an explicit warm start offsets it).
    let init_trees = match init {
        Some(model) => model.num_trees(),
        None => 0,
    };
    let mut loss_curve = match &resume_ck {
        Some(ck) => ck.loss_curve.clone(),
        None => Vec::with_capacity(config.num_trees),
    };
    let mut eval_curve = match &resume_ck {
        Some(ck) => ck.eval_curve.clone(),
        None => Vec::new(),
    };
    let mut eval_preds: Vec<f32> = match &eval {
        Some(ev) => {
            if ev.dataset.num_features() != num_features {
                return Err(invalid(
                    "eval set dimensionality does not match training data",
                ));
            }
            match warm {
                Some(model) => {
                    let mut preds = Vec::with_capacity(ev.dataset.num_rows() * k);
                    for (row, _) in ev.dataset.iter_rows() {
                        preds.extend(model.predict_scores(&row));
                    }
                    preds
                }
                None => vec![0.0; ev.dataset.num_rows() * k],
            }
        }
        None => Vec::new(),
    };
    let mut best_eval_loss = match &resume_ck {
        Some(ck) => ck.best_eval_loss,
        None => f64::INFINITY,
    };
    let mut best_iteration: Option<usize> = match &resume_ck {
        Some(ck) => ck.best_iteration,
        None => None,
    };

    let fingerprint = fingerprint_for(config, shards, membership_digest);
    for round in start_round..config.num_trees {
        // ---- Scripted faults that fire at round boundaries. ---------------
        if let Some(session) = &fault_session {
            // The crash fires only on a fresh (non-resumed) run: the resumed
            // run is the recovery from exactly this crash.
            if resumed_from.is_none() && session.plan().crash_round == Some(round) {
                session.on_crash();
                ps.recorder()
                    .fault_event(Phase::NewTree, "crash", SimTime::ZERO, 0, 1);
                let checkpoint = match checkpoint_opts {
                    Some(opts) => {
                        // Force a crash-time checkpoint regardless of the
                        // cadence, so recovery loses no completed round.
                        let ck = snapshot_checkpoint(
                            &fingerprint,
                            round,
                            &trees,
                            config,
                            num_features,
                            &workers,
                            ps.comm_ledger(),
                            &candidates,
                            &loss_curve,
                            &rounds,
                            &eval_curve,
                            best_eval_loss,
                            best_iteration,
                            session.membership_snapshot(),
                        );
                        Some(ck.save_to_dir(&opts.dir)?)
                    }
                    None => None,
                };
                return Err(TrainError::Crashed { round, checkpoint });
            }
            // Scripted membership events for this round: joins first, then
            // graceful leaves (the same order `replay_membership_to` uses).
            // Each event bumps the epoch; the PS is retagged so any late
            // retry from the old placement is rejected, not merged.
            if membership_on {
                for spec in session.plan().joins.iter().filter(|j| j.round == round) {
                    let moves = session.apply_join(spec.worker).map_err(invalid)?;
                    ps.recorder()
                        .membership_event(Phase::NewTree, "join", SimTime::ZERO, 0, 1);
                    charge_moves(&moves, true);
                    ps.set_epoch(session.membership_epoch());
                }
                for spec in session.plan().leaves.iter().filter(|l| l.round == round) {
                    let moves = session.apply_leave(spec.worker).map_err(invalid)?;
                    ps.recorder()
                        .membership_event(Phase::NewTree, "leave", SimTime::ZERO, 0, 1);
                    charge_moves(&moves, matches!(spec.policy, LeavePolicy::Handoff));
                    ps.set_epoch(session.membership_epoch());
                }
            }
            for spec in &session.plan().losses {
                if spec.round == round && !session.is_lost(spec.worker) {
                    match spec.policy {
                        LossPolicy::Abort => {
                            return Err(TrainError::WorkerLost {
                                worker: spec.worker,
                                round,
                            })
                        }
                        LossPolicy::Redistribute => {
                            // The lost shard is re-read by the survivors; the
                            // logical computation (and so the model) is
                            // unchanged, but every communication phase
                            // dilates — see `FaultSession::dilation`.
                            session.mark_lost(spec.worker);
                            ps.recorder().fault_event(
                                Phase::NewTree,
                                "worker_lost",
                                SimTime::ZERO,
                                0,
                                1,
                            );
                            // Under the elastic overlay a dead machine also
                            // leaves the membership: its stripes cold
                            // re-shard onto the survivors (no handoff — the
                            // machine is gone).
                            if membership_on {
                                let moves = session.apply_leave(spec.worker).map_err(invalid)?;
                                ps.recorder().membership_event(
                                    Phase::NewTree,
                                    "leave",
                                    SimTime::ZERO,
                                    0,
                                    1,
                                );
                                charge_moves(&moves, false);
                                ps.set_epoch(session.membership_epoch());
                            }
                        }
                    }
                }
            }
        }
        timer.begin_round(round);
        let mut record = RoundRecord::new(round);
        // ---- Round gradients for every class (softmax computes each
        // instance's probability vector once per round). ----------------------
        timer.phase(Phase::NewTree, &mut workers, |wk| {
            let shard = &shards[wk.shard_id];
            match scalar_loss {
                Some(loss) => {
                    for i in 0..shard.num_rows() {
                        wk.grads_all[i] = loss.grad(wk.preds[i], shard.label(i));
                    }
                }
                None => {
                    for i in 0..shard.num_rows() {
                        softmax_grads(
                            &wk.preds[i * k..(i + 1) * k],
                            shard.label(i) as usize,
                            &mut wk.grads_all[i * k..(i + 1) * k],
                        );
                    }
                }
            }
        });

        for class in 0..k {
            let t = round * k + class;
            // ---- NEW_TREE ------------------------------------------------------
            let sampled = FeatureMeta::sample_features(
                num_features,
                config.feature_sample_ratio,
                config.seed,
                t,
            );
            ps.publish_sampled(sampled.clone());
            let meta = FeatureMeta::new(ps.pull_sampled(), &candidates);
            ps.init_tree(meta.layout().clone());
            let mut tree = Tree::new(config.max_depth);
            let capacity = tree.capacity();

            let subsample = config.instance_sample_ratio < 1.0;
            timer.phase(Phase::NewTree, &mut workers, |wk| {
                let shard = &shards[wk.shard_id];
                for i in 0..shard.num_rows() {
                    wk.grads[i] = wk.grads_all[i * k + class];
                }
                if config.opts.pre_binning || config.opts.fused_layer || config.opts.quantized_hist
                {
                    // With sigma = 1 the sampled set (and so the binning) is the
                    // same for every tree; rebuild only when sampling changes it.
                    // The fused layer kernel runs over the binned CSR, so
                    // `fused_layer` implies the binned representation — as does
                    // `quantized_hist`, whose pair view derives from it.
                    if wk.binned.is_none() || config.feature_sample_ratio < 1.0 {
                        wk.binned = Some(crate::binned::BinnedShard::build(shard, &meta));
                        wk.qbinned = None;
                    }
                } else {
                    wk.binned = None;
                    wk.qbinned = None;
                }
                if config.opts.quantized_hist {
                    if wk.qbinned.is_none() {
                        wk.qbinned = Some(crate::hist_build::QuantBinned::build(
                            wk.binned
                                .as_ref()
                                .expect("quantized_hist builds the binned shard above"),
                            &meta,
                        ));
                    }
                    // Re-quantize this tree's gradients: the codes are fixed for
                    // the whole tree, so one deterministic rounding pass here
                    // serves every layer. Bits are demoted per shard so a
                    // 32-bit accumulator lane can never wrap (DESIGN.md §15).
                    let bits = crate::hist_build::effective_quant_bits(
                        config.quant_hist_bits,
                        shard.num_rows(),
                    );
                    wk.qgrads = Some(crate::hist_build::QuantizedGrads::quantize(&wk.grads, bits));
                } else {
                    wk.qgrads = None;
                }
                if subsample {
                    // Stochastic gradient boosting: each tree sees a Bernoulli
                    // subsample of the rows; unsampled rows still receive the
                    // tree's predictions afterwards.
                    let mask: Vec<bool> = (0..shard.num_rows())
                        .map(|_| wk.rng.random::<f64>() < config.instance_sample_ratio)
                        .collect();
                    let sampled: Vec<u32> = (0..shard.num_rows() as u32)
                        .filter(|&i| mask[i as usize])
                        .collect();
                    wk.index = NodeIndex::from_instances(sampled, capacity);
                    wk.sample_mask = Some(mask);
                } else {
                    wk.index = NodeIndex::new(shard.num_rows(), capacity);
                    wk.sample_mask = None;
                }
            });

            let mut active: Vec<u32> = vec![0];
            let row_len = meta.layout().row_len();
            let scheduler = if config.opts.task_scheduler {
                RoundRobinScheduler::new(w)
            } else {
                RoundRobinScheduler::single_agent(w)
            };

            // Sibling-subtraction bookkeeping: `(parent, small, big)` triples for
            // the current layer (extension, see `Optimizations::hist_subtraction`).
            let mut pairs: Vec<(u32, u32, u32)> = Vec::new();

            for depth in 0..config.max_depth {
                if active.is_empty() {
                    break;
                }

                // With subtraction on, only the smaller child of each pair is
                // built; its sibling is derived on the servers afterwards.
                let use_subtraction = config.opts.hist_subtraction && !pairs.is_empty();
                let build_nodes: Vec<u32> = if use_subtraction {
                    pairs.iter().map(|&(_, small, _)| small).collect()
                } else {
                    active.clone()
                };

                // ---- BUILD_HISTOGRAM -------------------------------------------
                // Fused layer kernel: one pass over the binned CSR builds every
                // build node at once, unless the per-thread blocks would blow
                // the memory budget — then fall back to per-node builds (still
                // on the binned shard, which `fused_layer` guarantees exists).
                // The quantized kernel is exempt from the budget: its node
                // tiling caps each stripe's working set at
                // `fused::QUANT_TILE_BUDGET_BYTES` regardless of layer width
                // (and the fallback would be bit-identical anyway — integer
                // accumulation makes fused ≡ per-node).
                let use_fused = config.opts.fused_layer
                    && (config.opts.quantized_hist
                        || build_nodes
                            .len()
                            .saturating_mul(row_len)
                            .saturating_mul(4)
                            .saturating_mul(config.num_threads.max(1))
                            <= config.fused_block_budget);
                let local_rows: Vec<LocalRows> =
                    timer.phase(Phase::BuildHistogram, &mut workers, |wk| {
                        let shard = &shards[wk.shard_id];
                        if use_fused {
                            let binned = wk
                                .binned
                                .as_ref()
                                .expect("fused_layer builds the binned shard in NEW_TREE");
                            let positions = if config.opts.node_index {
                                crate::fused::positions_from_index(
                                    &wk.index,
                                    &build_nodes,
                                    shard.num_rows(),
                                )
                            } else {
                                crate::fused::positions_from_scan(
                                    shard,
                                    &tree,
                                    &build_nodes,
                                    wk.sample_mask.as_deref(),
                                )
                            };
                            let block = if config.opts.quantized_hist {
                                let (block, _stats) = crate::fused::build_layer_quantized(
                                    binned,
                                    wk.qbinned
                                        .as_ref()
                                        .expect("quantized_hist builds the pair view in NEW_TREE"),
                                    &positions,
                                    wk.qgrads
                                        .as_ref()
                                        .expect("quantized_hist quantizes grads in NEW_TREE"),
                                    &meta,
                                    config.batch_size,
                                    config.num_threads,
                                );
                                block
                            } else {
                                crate::fused::build_layer(
                                    binned,
                                    &positions,
                                    &wk.grads,
                                    &meta,
                                    config.batch_size,
                                    config.num_threads,
                                )
                            };
                            return build_nodes
                                .iter()
                                .enumerate()
                                .map(|(slot, &node)| {
                                    let row = block[slot * row_len..(slot + 1) * row_len].to_vec();
                                    (node, row, positions.counts[slot])
                                })
                                .collect();
                        }
                        build_nodes
                            .iter()
                            .map(|&node| {
                                let owned;
                                let instances: &[u32] = if config.opts.node_index {
                                    wk.index.instances(node)
                                } else {
                                    owned = scan_instances(
                                        shard,
                                        &tree,
                                        node,
                                        wk.sample_mask.as_deref(),
                                    );
                                    &owned
                                };
                                let count = instances.len() as u64;
                                let row = if config.opts.quantized_hist {
                                    let binned = wk
                                        .binned
                                        .as_ref()
                                        .expect("quantized_hist builds the binned shard");
                                    let qg = wk
                                        .qgrads
                                        .as_ref()
                                        .expect("quantized_hist quantizes grads in NEW_TREE");
                                    // Narrow/wide is chosen per node from its own
                                    // row count; either mode decodes the same
                                    // exact integer sums, so the choice can never
                                    // change the output (pinned by tests).
                                    let mode =
                                        crate::hist_build::acc_mode_for(count, qg.max_code());
                                    crate::hist_build::build_quantized(
                                        binned,
                                        wk.qbinned.as_ref().expect("pair view built in NEW_TREE"),
                                        instances,
                                        qg,
                                        &meta,
                                        mode,
                                    )
                                } else if let Some(binned) = &wk.binned {
                                    if config.opts.parallel_batch {
                                        binned.build_row_batched(
                                            instances,
                                            &wk.grads,
                                            &meta,
                                            config.batch_size,
                                            config.num_threads,
                                        )
                                    } else {
                                        let mut out = crate::hist_build::new_row(&meta);
                                        binned.build_into(instances, &wk.grads, &mut out);
                                        out
                                    }
                                } else if config.opts.parallel_batch {
                                    let bc = BatchConfig {
                                        batch_size: config.batch_size,
                                        threads: config.num_threads,
                                        sparse: config.opts.sparse_hist,
                                    };
                                    build_row_batched(shard, instances, &wk.grads, &meta, &bc)
                                } else {
                                    build_row(
                                        shard,
                                        instances,
                                        &wk.grads,
                                        &meta,
                                        config.opts.sparse_hist,
                                    )
                                };
                                (node, row, count)
                            })
                            .collect()
                    });

                // ---- FIND_SPLIT: push local histograms. -------------------------
                let mut pushed_bytes_per_worker = 0usize;
                // Sparse wire: the t_ps_exchange charge uses the *true*
                // per-worker frame bytes of the layer (max across workers —
                // they push concurrently), not the dense row size.
                let mut sparse_layer_bytes_max = 0u64;
                let mut node_counts = vec![0u64; build_nodes.len()];
                // Under low precision the workers are quantized in waves of
                // `num_threads`, each wave concurrently, then pushed one
                // after another in worker order: the push order (ledger,
                // trace, PS accumulation) is that of a serial loop.
                let mut local_rows = local_rows.into_iter();
                for wave in workers.chunks_mut(config.num_threads.max(1)) {
                    let rows: Vec<_> = local_rows.by_ref().take(wave.len()).collect();
                    let wire_rows = if config.opts.low_precision {
                        let start = Instant::now();
                        let rngs = wave.iter_mut().map(|wk| &mut wk.rng).collect();
                        let quantized =
                            quantize_wave(rngs, rows, meta.layout(), config.compress_bits);
                        record.quantize_wall_secs += start.elapsed().as_secs_f64();
                        quantized
                    } else {
                        rows.into_iter()
                            .map(|worker_rows| {
                                worker_rows
                                    .into_iter()
                                    .map(|(node, row, count)| (node, WireRow::F32(row), count))
                                    .collect()
                            })
                            .collect()
                    };
                    for (wk, rows) in wave.iter().zip(wire_rows) {
                        set_worker(Some(wk.shard_id as u32));
                        let mut worker_frame_bytes = 0u64;
                        for (pos, (node, row, count)) in rows.into_iter().enumerate() {
                            node_counts[pos] += count;
                            record.hist_bytes_raw += 4 * row_len as u64;
                            if let WireRow::Quantized(q) = &row {
                                record.max_quant_scale = record.max_quant_scale.max(q.max_scale());
                            }
                            if config.opts.sparse_wire {
                                // The worker's stripe id keys the server-side
                                // block staging (ascending-stripe fold).
                                let stripe = wk.shard_id as u32;
                                let stats = match &row {
                                    WireRow::Quantized(q) => {
                                        ps.push_histogram_quantized_sparse(stripe, node, q)
                                    }
                                    WireRow::F32(row) => {
                                        ps.push_histogram_sparse(stripe, node, row)
                                    }
                                };
                                worker_frame_bytes += stats.total_bytes();
                                record.hist_bytes_wire += stats.total_bytes();
                                record
                                    .sparse_frames
                                    .get_or_insert_with(Default::default)
                                    .merge(&stats);
                                continue;
                            }
                            let bytes = match &row {
                                WireRow::Quantized(q) => {
                                    ps.push_histogram_quantized(node, q);
                                    q.wire_bytes()
                                }
                                WireRow::F32(row) => {
                                    ps.push_histogram(node, row);
                                    4 * row.len()
                                }
                            };
                            pushed_bytes_per_worker = pushed_bytes_per_worker.max(bytes);
                            record.hist_bytes_wire += bytes as u64;
                        }
                        sparse_layer_bytes_max = sparse_layer_bytes_max.max(worker_frame_bytes);
                    }
                }
                set_worker(None);
                for (pos, &node) in build_nodes.iter().enumerate() {
                    record.node_instances.push(NodeInstances {
                        node,
                        instances: node_counts[pos],
                    });
                }
                if config.opts.quantized_hist {
                    // Telemetry only — every field is a pure function of
                    // (config, shard sizes, layer width), so the record is
                    // identical across thread counts and batch sizes.
                    let bits = shards
                        .iter()
                        .map(|s| {
                            crate::hist_build::effective_quant_bits(
                                config.quant_hist_bits,
                                s.num_rows(),
                            )
                        })
                        .min()
                        .unwrap_or(config.quant_hist_bits);
                    let tile =
                        crate::fused::quant_tile_nodes(row_len / 2, build_nodes.len()) as u64;
                    let q = record
                        .quant_hist
                        .get_or_insert(crate::report::QuantHistRecord {
                            bits,
                            tile_nodes: 0,
                        });
                    q.tile_nodes = q.tile_nodes.max(tile);
                }
                if w > 1 {
                    let layer_push_bytes = if config.opts.sparse_wire {
                        sparse_layer_bytes_max as usize
                    } else {
                        pushed_bytes_per_worker * build_nodes.len()
                    };
                    charge(
                        Phase::BuildHistogram,
                        cost.t_ps_exchange_p(layer_push_bytes, w, ps_config.num_servers),
                    );
                }
                if use_subtraction {
                    // Server-local: parent − built child = sibling; no traffic.
                    for &(parent, small, big) in &pairs {
                        ps.derive_sibling(parent, small, big);
                        ps.clear_node(parent);
                    }
                }

                // ---- FIND_SPLIT: scheduled workers pull splits & publish. -------
                for (pos, &node) in active.iter().enumerate() {
                    set_worker(Some(scheduler.worker_for(pos) as u32));
                    let result: PullSplitResult = if config.opts.two_phase_split {
                        ps.pull_split(node, &params)
                    } else {
                        let row = ps.pull_histogram(node);
                        best_split_in_range(
                            &row,
                            meta.layout(),
                            0..meta.num_sampled(),
                            None,
                            &params,
                        )
                    };
                    let split = result.best.map(|s| FinalSplit {
                        feature: meta.global_id(s.feature as usize),
                        threshold: meta.threshold(s.feature as usize, s.bucket as usize),
                        gain: s.gain,
                        left_g: s.left_g,
                        left_h: s.left_h,
                        default_left: s.default_left,
                    });
                    ps.publish_decision(SplitDecision {
                        node,
                        split,
                        total_g: result.total_g,
                        total_h: result.total_h,
                    });
                }
                set_worker(None);
                if w > 1 {
                    let per_node_pull = if config.opts.two_phase_split {
                        // p O(1)-sized replies fetched in one batch.
                        SimTime(cost.alpha + (p * 48) as f64 * cost.beta)
                    } else {
                        // The whole merged row crosses the wire and is scanned.
                        SimTime(
                            cost.alpha * p as f64 + (4 * row_len) as f64 * (cost.beta + cost.gamma),
                        )
                    };
                    let pulls = scheduler.max_load(active.len()) as f64;
                    charge(Phase::FindSplit, SimTime(pulls * per_node_pull.seconds()));
                    // Publishing decisions: tiny messages, serialized per worker.
                    charge(
                        Phase::FindSplit,
                        SimTime(pulls * (cost.alpha + 64.0 * cost.beta)),
                    );
                }

                // ---- SPLIT_TREE --------------------------------------------------
                let decisions = ps.pull_decisions(&active);
                if w > 1 {
                    charge(
                        Phase::SplitTree,
                        SimTime(cost.alpha + (64 * active.len()) as f64 * cost.beta),
                    );
                }
                let mut next_active = Vec::new();
                let mut next_pairs = Vec::new();
                for decision in &decisions {
                    let node = decision.node;
                    // Parents feeding next layer's sibling subtraction must keep
                    // their merged rows on the servers until the derive step.
                    let mut keep_row = false;
                    match decision.split {
                        Some(split) => {
                            record.split_gains.push(split.gain as f32);
                            tree.set_internal_full(
                                node,
                                split.feature,
                                split.threshold,
                                split.gain as f32,
                                split.default_left,
                            );
                            let (lc, rc) = (Tree::left_child(node), Tree::right_child(node));
                            if config.opts.node_index {
                                timer.phase(Phase::SplitTree, &mut workers, |wk| {
                                    let shard = &shards[wk.shard_id];
                                    wk.index.split(node, lc, rc, |i| {
                                        split.goes_left(shard.row(i as usize).get(split.feature))
                                    });
                                });
                            }
                            if depth + 1 < config.max_depth {
                                next_active.push(lc);
                                next_active.push(rc);
                                if config.opts.hist_subtraction {
                                    let right_h = decision.total_h - split.left_h;
                                    let (small, big) = if split.left_h <= right_h {
                                        (lc, rc)
                                    } else {
                                        (rc, lc)
                                    };
                                    next_pairs.push((node, small, big));
                                    keep_row = true;
                                }
                            } else {
                                // Children at maximal depth become leaves using
                                // the split's child statistics.
                                let (gl, hl) = (split.left_g, split.left_h);
                                let (gr, hr) = (decision.total_g - gl, decision.total_h - hl);
                                tree.set_leaf(lc, params.leaf_weight(gl, hl) as f32);
                                tree.set_leaf(rc, params.leaf_weight(gr, hr) as f32);
                            }
                        }
                        None => {
                            tree.set_leaf(
                                node,
                                params.leaf_weight(decision.total_g, decision.total_h) as f32,
                            );
                        }
                    }
                    if !keep_row {
                        ps.clear_node(node);
                    }
                }
                ps.clear_decisions();
                active = next_active;
                pairs = next_pairs;
            }

            debug_assert!(
                tree.check_consistency().is_ok(),
                "tree inconsistent after build"
            );

            // ---- Update this class's score column. -------------------------------
            let eta = config.learning_rate;
            timer.phase(Phase::Finish, &mut workers, |wk| {
                let shard = &shards[wk.shard_id];
                // With row subsampling the index only covers sampled rows, so
                // everything routes through the tree instead.
                if config.opts.node_index && !subsample {
                    // Leaves have contiguous instance ranges in the index.
                    for leaf in 0..tree.capacity() as u32 {
                        if let crate::tree::Node::Leaf { weight } = tree.node(leaf) {
                            for &i in wk.index.instances(leaf) {
                                wk.preds[i as usize * k + class] += eta * weight;
                            }
                        }
                    }
                } else {
                    for i in 0..shard.num_rows() {
                        wk.preds[i * k + class] += eta * tree.predict(&shard.row(i));
                    }
                }
            });
            trees.push(tree);
        } // per-class trees of this round

        // ---- Round training loss. --------------------------------------------
        let eta = config.learning_rate;
        let worker_losses = timer.phase(Phase::Finish, &mut workers, |wk| {
            let shard = &shards[wk.shard_id];
            (0..shard.num_rows())
                .map(|i| match scalar_loss {
                    Some(loss) => loss.loss(wk.preds[i], shard.label(i)),
                    None => softmax_loss(&wk.preds[i * k..(i + 1) * k], shard.label(i) as usize),
                })
                .sum::<f64>()
        });
        let train_loss = worker_losses.iter().sum::<f64>() / total_instances as f64;
        if w > 1 {
            // Loss aggregation: w tiny messages.
            charge(
                Phase::Finish,
                SimTime(cost.alpha + 8.0 * w as f64 * cost.beta),
            );
        }

        let comm_now = ps.comm_stats();
        let elapsed = timer.total_secs() + comm_now.sim_time.seconds();
        loss_curve.push(LossPoint {
            tree: trees.len(),
            train_loss,
            elapsed_secs: elapsed,
        });

        record.trees = trees.len();
        record.train_loss = train_loss;
        record.compute_secs = timer.round_secs(round);
        rounds.push(record);

        // ---- Evaluation & early stopping (per round). -------------------------
        if let Some(ev) = &eval {
            let round_trees = &trees[trees.len() - k..];
            for (i, (row, _)) in ev.dataset.iter_rows().enumerate() {
                for (c, tree) in round_trees.iter().enumerate() {
                    eval_preds[i * k + c] += eta * tree.predict(&row);
                }
            }
            let eval_loss = (0..ev.dataset.num_rows())
                .map(|i| match scalar_loss {
                    Some(loss) => loss.loss(eval_preds[i], ev.dataset.label(i)),
                    None => softmax_loss(
                        &eval_preds[i * k..(i + 1) * k],
                        ev.dataset.label(i) as usize,
                    ),
                })
                .sum::<f64>()
                / ev.dataset.num_rows().max(1) as f64;
            eval_curve.push(LossPoint {
                tree: trees.len(),
                train_loss: eval_loss,
                elapsed_secs: elapsed,
            });
            if eval_loss < best_eval_loss - 1e-12 {
                best_eval_loss = eval_loss;
                best_iteration = Some(round);
            }
            if let (Some(rounds), Some(best)) = (ev.early_stopping_rounds, best_iteration) {
                if round - best >= rounds {
                    trees.truncate(init_trees + (best + 1) * k);
                    break;
                }
            }
        }

        // ---- Rolling checkpoint (atomic tmp + rename). ---------------------
        if let Some(opts) = checkpoint_opts {
            if (round + 1) % opts.every.max(1) == 0 {
                let ck = snapshot_checkpoint(
                    &fingerprint,
                    round + 1,
                    &trees,
                    config,
                    num_features,
                    &workers,
                    ps.comm_ledger(),
                    &candidates,
                    &loss_curve,
                    &rounds,
                    &eval_curve,
                    best_eval_loss,
                    best_iteration,
                    fault_session.as_ref().and_then(|s| s.membership_snapshot()),
                );
                ck.save_to_dir(&opts.dir)?;
            }
        }
    }

    // ---- FINISH -------------------------------------------------------------
    let model = GbdtModel::new(trees, config.learning_rate, config.loss, num_features);
    model.check_consistency()?;
    let ledger = ps.comm_ledger();
    // Every PS interaction in the plan above is phase-tagged; nothing may
    // fall through to the legacy `Other` bucket.
    debug_assert!(
        ledger.phase(Phase::Other).is_empty(),
        "trainer left comm in the legacy Other bucket: {:?}",
        ledger.phase(Phase::Other)
    );
    let breakdown = RunBreakdown {
        compute_secs: timer.total_secs(),
        comm: ledger.total(),
    };
    let mut report = RunReport::assemble_with_metrics(
        w,
        ps_config.num_servers,
        &timer,
        &ledger,
        rounds,
        bus.export_metrics(),
    );
    report.faults = fault_session.as_ref().map(|s| s.summary());
    report.membership = fault_session.as_ref().and_then(|s| s.membership_summary());
    report.resumed_from_round = resumed_from;
    let trace = config.collect_trace.then(|| bus.finish());
    Ok(TrainOutput {
        model,
        breakdown,
        loss_curve,
        eval_curve,
        best_iteration,
        report,
        trace,
    })
}

/// Convenience wrapper: trains on a single machine (one worker, one server,
/// free network) and returns just the model.
pub fn train_single_machine(dataset: &Dataset, config: &GbdtConfig) -> Result<GbdtModel, String> {
    let ps_config = PsConfig {
        num_servers: 1,
        num_partitions: 0,
        cost_model: dimboost_simnet::CostModel::FREE,
    };
    Ok(train_distributed(std::slice::from_ref(dataset), config, ps_config)?.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LossKind, Optimizations};
    use crate::metrics::{classification_error, log_loss, rmse};
    use dimboost_data::partition::{partition_rows, train_test_split};
    use dimboost_data::synthetic::{generate, LabelKind, SparseGenConfig};
    use dimboost_simnet::CostModel;

    fn small_config() -> GbdtConfig {
        GbdtConfig {
            num_trees: 5,
            max_depth: 4,
            num_candidates: 10,
            learning_rate: 0.3,
            num_threads: 2,
            ..GbdtConfig::default()
        }
    }

    fn classification_data() -> (Dataset, Dataset) {
        let ds = generate(&SparseGenConfig::new(3_000, 200, 15, 42));
        train_test_split(&ds, 0.2, 42).unwrap()
    }

    #[test]
    fn single_machine_learns_signal() {
        let (train, test) = classification_data();
        let model = train_single_machine(&train, &small_config()).unwrap();
        assert_eq!(model.num_trees(), 5);
        let probs = model.predict_dataset(&test);
        let err = classification_error(&probs, test.labels());
        // Majority class baseline is ~0.5 on this balanced generator.
        assert!(err < 0.40, "test error {err} did not beat baseline");
    }

    #[test]
    fn training_loss_decreases_monotonically() {
        let (train, _) = classification_data();
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let out = train_distributed(&[train], &small_config(), ps).unwrap();
        let losses: Vec<f64> = out.loss_curve.iter().map(|p| p.train_loss).collect();
        assert_eq!(losses.len(), 5);
        for w in losses.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "loss increased: {losses:?}");
        }
        assert!(
            losses[4] < std::f64::consts::LN_2,
            "final loss {} not below ln 2",
            losses[4]
        );
    }

    #[test]
    fn distributed_matches_single_machine_accuracy() {
        let (train, test) = classification_data();
        let config = small_config();

        let single = train_single_machine(&train, &config).unwrap();
        let err_single = classification_error(&single.predict_dataset(&test), test.labels());

        let shards = partition_rows(&train, 4).unwrap();
        let ps = PsConfig {
            num_servers: 4,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();
        let err_dist = classification_error(&out.model.predict_dataset(&test), test.labels());

        assert!(
            (err_single - err_dist).abs() < 0.05,
            "single {err_single} vs distributed {err_dist}"
        );
        // Distributed run actually used the network.
        assert!(out.breakdown.comm.bytes > 0);
        assert!(out.breakdown.comm.sim_time.seconds() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let config = small_config();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let a = train_distributed(&shards, &config, ps).unwrap();
        let b = train_distributed(&shards, &config, ps).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.breakdown.comm.bytes, b.breakdown.comm.bytes);
        // The timing-free run report is bit-identical across reruns.
        assert_eq!(a.report.canonical_json(), b.report.canonical_json());
    }

    #[test]
    fn report_phase_comm_sums_to_aggregate() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &small_config(), ps).unwrap();
        assert_eq!(out.report.workers, 3);
        assert_eq!(out.report.servers, 3);
        // Per-phase communication entries reproduce the aggregate exactly.
        assert_eq!(
            crate::report::sum_phase_comm(&out.report),
            out.breakdown.comm
        );
        assert_eq!(out.report.comm, out.breakdown.comm);
        // The trainer tags every event — the legacy bucket stays empty.
        assert!(out.report.phases.iter().all(|p| p.phase != Phase::Other));
        // Histogram pushes dominate the traffic (the paper's premise).
        let hist = out
            .report
            .phases
            .iter()
            .find(|p| p.phase == Phase::BuildHistogram)
            .expect("histogram phase present");
        assert!(
            hist.comm.bytes * 2 > out.breakdown.comm.bytes,
            "histogram bytes {} of {}",
            hist.comm.bytes,
            out.breakdown.comm.bytes
        );
        // Compute was measured, with a sane skew.
        for p in &out.report.phases {
            assert!(p.compute_max_secs >= 0.0);
            assert!(p.compute_skew_secs >= 0.0 && p.compute_skew_secs <= p.compute_max_secs);
        }
        assert!(out.report.compute_secs > 0.0);
    }

    #[test]
    fn report_rounds_capture_quantization_and_splits() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };

        let mut lp = small_config();
        lp.opts.low_precision = true;
        lp.compress_bits = 8;
        let out = train_distributed(&shards, &lp, ps).unwrap();
        assert_eq!(out.report.rounds.len(), 5);
        for (i, r) in out.report.rounds.iter().enumerate() {
            assert_eq!(r.round, i);
            assert_eq!(r.trees, i + 1);
            // Quantization compresses the wire format and records its scale.
            assert!(
                r.hist_bytes_wire < r.hist_bytes_raw,
                "round {i}: wire {} !< raw {}",
                r.hist_bytes_wire,
                r.hist_bytes_raw
            );
            assert!(r.max_quant_scale > 0.0);
            assert!(!r.split_gains.is_empty());
            assert!(r.split_gains.iter().all(|g| g.is_finite() && *g >= 0.0));
            // The first histogram of each round is the root over all rows.
            assert_eq!(r.node_instances[0].node, 0);
            assert_eq!(r.node_instances[0].instances, train.num_rows() as u64);
        }
        // Round records agree with the loss curve.
        for (r, pt) in out.report.rounds.iter().zip(&out.loss_curve) {
            assert_eq!(r.train_loss, pt.train_loss);
            assert_eq!(r.trees, pt.tree);
        }

        // Full precision: the wire format is the raw rows, no scales.
        let mut full = small_config();
        full.opts.low_precision = false;
        let out = train_distributed(&shards, &full, ps).unwrap();
        for r in &out.report.rounds {
            assert_eq!(r.hist_bytes_wire, r.hist_bytes_raw);
            assert_eq!(r.max_quant_scale, 0.0);
        }
    }

    #[test]
    fn all_optimizations_off_still_learns() {
        let (train, test) = classification_data();
        let mut config = small_config();
        config.num_trees = 3;
        config.opts = Optimizations::NONE;
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();
        let err = classification_error(&out.model.predict_dataset(&test), test.labels());
        assert!(err < 0.45, "unoptimized trainer error {err}");
    }

    #[test]
    fn each_optimization_alone_matches_baseline_quality() {
        // Every optimization is a performance change, not a quality change
        // (low precision excepted, which is approximate): models trained
        // with each single toggle must reach similar loss.
        let ds = generate(&SparseGenConfig::new(1_200, 100, 10, 7));
        let shards = partition_rows(&ds, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };

        let mut base_cfg = small_config();
        base_cfg.num_trees = 3;
        base_cfg.opts = Optimizations::NONE;
        let base = train_distributed(&shards, &base_cfg, ps).unwrap();
        let base_loss = base.loss_curve.last().unwrap().train_loss;

        type Toggle = (&'static str, Box<dyn Fn(&mut Optimizations)>);
        let toggles: Vec<Toggle> = vec![
            (
                "sparse_hist",
                Box::new(|o: &mut Optimizations| o.sparse_hist = true),
            ),
            (
                "parallel_batch",
                Box::new(|o: &mut Optimizations| o.parallel_batch = true),
            ),
            (
                "node_index",
                Box::new(|o: &mut Optimizations| o.node_index = true),
            ),
            (
                "task_scheduler",
                Box::new(|o: &mut Optimizations| o.task_scheduler = true),
            ),
            (
                "two_phase_split",
                Box::new(|o: &mut Optimizations| o.two_phase_split = true),
            ),
        ];
        for (name, toggle) in toggles {
            let mut cfg = base_cfg.clone();
            toggle(&mut cfg.opts);
            let out = train_distributed(&shards, &cfg, ps).unwrap();
            let loss = out.loss_curve.last().unwrap().train_loss;
            assert!(
                (loss - base_loss).abs() < 1e-3,
                "{name}: loss {loss} deviates from baseline {base_loss}"
            );
        }
    }

    #[test]
    fn low_precision_close_to_full_precision() {
        let ds = generate(&SparseGenConfig::new(2_000, 150, 12, 21));
        let (train, test) = train_test_split(&ds, 0.2, 21).unwrap();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };

        let mut full_cfg = small_config();
        full_cfg.opts.low_precision = false;
        let full = train_distributed(&shards, &full_cfg, ps).unwrap();

        let mut lp_cfg = small_config();
        lp_cfg.opts.low_precision = true;
        lp_cfg.compress_bits = 8;
        let lp = train_distributed(&shards, &lp_cfg, ps).unwrap();

        let err_full = classification_error(&full.model.predict_dataset(&test), test.labels());
        let err_lp = classification_error(&lp.model.predict_dataset(&test), test.labels());
        // Mirrors the paper's 0.2509 vs 0.2514 observation: tiny gap.
        assert!(
            (err_full - err_lp).abs() < 0.05,
            "full {err_full} vs lp {err_lp}"
        );
        // And the compressed run moved substantially fewer bytes. (The
        // per-feature scale/zero metadata plus non-histogram traffic —
        // sketches, split replies — dilute the ideal 32/d ratio.)
        assert!(
            lp.breakdown.comm.bytes * 3 < full.breakdown.comm.bytes * 2,
            "lp {} vs full {}",
            lp.breakdown.comm.bytes,
            full.breakdown.comm.bytes
        );
    }

    #[test]
    fn hist_subtraction_matches_direct_construction() {
        // The subtraction extension must not change the learned model when
        // pushes are exact (full precision): parent − child is exact modulo
        // f32 cancellation, which the split scan tolerates.
        let ds = generate(&SparseGenConfig::new(2_000, 150, 12, 19));
        let (train, test) = train_test_split(&ds, 0.2, 19).unwrap();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };

        let mut plain_cfg = small_config();
        plain_cfg.opts.low_precision = false;
        let plain = train_distributed(&shards, &plain_cfg, ps).unwrap();

        let mut sub_cfg = plain_cfg.clone();
        sub_cfg.opts.hist_subtraction = true;
        let sub = train_distributed(&shards, &sub_cfg, ps).unwrap();

        let err_plain = classification_error(&plain.model.predict_dataset(&test), test.labels());
        let err_sub = classification_error(&sub.model.predict_dataset(&test), test.labels());
        assert!(
            (err_plain - err_sub).abs() < 0.03,
            "plain {err_plain} vs subtraction {err_sub}"
        );
        // Subtraction pushes roughly half the histogram bytes per deep layer.
        assert!(
            sub.breakdown.comm.bytes < plain.breakdown.comm.bytes,
            "subtraction {} should move fewer bytes than {}",
            sub.breakdown.comm.bytes,
            plain.breakdown.comm.bytes
        );
    }

    #[test]
    fn hist_subtraction_with_low_precision_still_learns() {
        let ds = generate(&SparseGenConfig::new(1_500, 100, 10, 23));
        let shards = partition_rows(&ds, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut cfg = small_config();
        cfg.opts.hist_subtraction = true;
        cfg.opts.low_precision = true;
        let out = train_distributed(&shards, &cfg, ps).unwrap();
        let losses: Vec<f64> = out.loss_curve.iter().map(|p| p.train_loss).collect();
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not improve: {losses:?}"
        );
    }

    #[test]
    fn regression_with_square_loss() {
        let cfg_data =
            SparseGenConfig::new(2_000, 100, 10, 33).with_label_kind(LabelKind::Regression);
        let ds = generate(&cfg_data);
        let (train, test) = train_test_split(&ds, 0.2, 33).unwrap();
        let mut config = small_config();
        config.loss = LossKind::Square;
        config.num_trees = 10;
        let model = train_single_machine(&train, &config).unwrap();
        let preds = model.predict_dataset(&test);
        let model_rmse = rmse(&preds, test.labels());
        // Baseline: predicting the mean (≈0 for the standardized generator).
        let base_rmse = rmse(&vec![0.0; test.num_rows()], test.labels());
        assert!(
            model_rmse < 0.9 * base_rmse,
            "rmse {model_rmse} vs baseline {base_rmse}"
        );
    }

    #[test]
    fn feature_sampling_trains_and_uses_subset() {
        let ds = generate(&SparseGenConfig::new(1_000, 100, 10, 3));
        let mut config = small_config();
        config.feature_sample_ratio = 0.5;
        config.num_trees = 3;
        let model = train_single_machine(&ds, &config).unwrap();
        assert_eq!(model.num_trees(), 3);
        assert!(model.check_consistency().is_ok());
        let probs = model.predict_dataset(&ds);
        assert!(log_loss(&probs, ds.labels()).is_finite());
    }

    #[test]
    fn row_subsampling_learns_and_stays_deterministic() {
        let (train, test) = classification_data();
        let mut config = small_config();
        config.instance_sample_ratio = 0.5;
        config.num_trees = 8;
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let a = train_distributed(&shards, &config, ps).unwrap();
        let b = train_distributed(&shards, &config, ps).unwrap();
        assert_eq!(a.model, b.model);
        let err = classification_error(&a.model.predict_dataset(&test), test.labels());
        assert!(err < 0.42, "subsampled error {err}");
        // Subsampling must change the model vs full rows.
        let mut full = config.clone();
        full.instance_sample_ratio = 1.0;
        let f = train_distributed(&shards, &full, ps).unwrap();
        assert_ne!(a.model, f.model);
    }

    #[test]
    fn eval_curve_and_early_stopping() {
        use crate::trainer::EvalOptions;
        let (train, test) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut config = small_config();
        config.num_trees = 10;

        // Plain eval: curve recorded, same length as trees.
        let ev = EvalOptions {
            dataset: &test,
            early_stopping_rounds: None,
        };
        let out = train_distributed_with_eval(&shards, &config, ps, Some(ev)).unwrap();
        assert_eq!(out.eval_curve.len(), 10);
        assert!(out.best_iteration.is_some());
        assert!(out.eval_curve.iter().all(|p| p.train_loss.is_finite()));

        // Aggressive early stopping on an anti-learnable eval set: labels
        // flipped, so eval loss *rises* as training progresses and stopping
        // fires almost immediately.
        let flipped_labels: Vec<f32> = test.labels().iter().map(|&y| 1.0 - y).collect();
        let mut flipped = dimboost_data::DatasetBuilder::new(test.num_features());
        for (i, (row, _)) in test.iter_rows().enumerate() {
            flipped
                .push_raw(row.indices(), row.values(), flipped_labels[i])
                .unwrap();
        }
        let flipped = flipped.finish().unwrap();
        let ev = EvalOptions {
            dataset: &flipped,
            early_stopping_rounds: Some(2),
        };
        let out = train_distributed_with_eval(&shards, &config, ps, Some(ev)).unwrap();
        assert!(
            out.model.num_trees() < 10,
            "early stopping should truncate: kept {}",
            out.model.num_trees()
        );
        assert_eq!(out.model.num_trees(), out.best_iteration.unwrap() + 1);
    }

    #[test]
    fn eval_set_dimension_mismatch_rejected() {
        use crate::trainer::EvalOptions;
        let (train, _) = classification_data();
        let other = generate(&SparseGenConfig::new(50, 7, 2, 1));
        let ev = EvalOptions {
            dataset: &other,
            early_stopping_rounds: None,
        };
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        assert!(train_distributed_with_eval(&[train], &small_config(), ps, Some(ev)).is_err());
    }

    #[test]
    fn l1_alpha_shrinks_leaf_weights() {
        let (train, _) = classification_data();
        let mut plain = small_config();
        plain.opts.low_precision = false;
        let mut l1 = plain.clone();
        l1.alpha = 5.0;
        let a = train_single_machine(&train, &plain).unwrap();
        let b = train_single_machine(&train, &l1).unwrap();
        let sum_abs = |m: &crate::GbdtModel| -> f64 {
            m.trees()
                .iter()
                .flat_map(|t| t.nodes())
                .filter_map(|n| match n {
                    crate::tree::Node::Leaf { weight } => Some(weight.abs() as f64),
                    _ => None,
                })
                .sum()
        };
        assert!(
            sum_abs(&b) < sum_abs(&a),
            "alpha must shrink total |leaf weight|: {} vs {}",
            sum_abs(&b),
            sum_abs(&a)
        );
        // Extreme alpha zeroes everything.
        let mut huge = plain.clone();
        huge.alpha = 1e12;
        let c = train_single_machine(&train, &huge).unwrap();
        assert_eq!(sum_abs(&c), 0.0);
    }

    #[test]
    fn extreme_regularization_yields_single_leaf() {
        // A huge gamma makes every split's regularized gain negative, so
        // each tree collapses to its root leaf; with balanced labels the
        // root leaf weight is ~0 and predictions stay ~0.5.
        let (train, _) = classification_data();
        let mut config = small_config();
        config.gamma = 1e12;
        let model = train_single_machine(&train, &config).unwrap();
        for tree in model.trees() {
            assert_eq!(tree.num_internal(), 0, "gamma must suppress all splits");
            assert_eq!(tree.num_leaves(), 1);
        }
        let probs = model.predict_dataset(&train);
        assert!(probs.iter().all(|&p| (p - 0.5).abs() < 0.2));
    }

    #[test]
    fn huge_min_child_weight_also_suppresses_splits() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.min_child_weight = 1e12;
        let model = train_single_machine(&train, &config).unwrap();
        assert!(model.trees().iter().all(|t| t.num_internal() == 0));
    }

    #[test]
    fn depth_one_trees_are_stumps() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.max_depth = 1;
        let model = train_single_machine(&train, &config).unwrap();
        for tree in model.trees() {
            assert!(tree.num_internal() <= 1);
            assert!(tree.num_leaves() <= 2);
            assert!(tree.check_consistency().is_ok());
        }
    }

    #[test]
    fn single_candidate_still_trains() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.num_candidates = 1;
        let out = train_single_machine(&train, &config);
        assert!(out.is_ok());
    }

    #[test]
    fn warm_start_continues_exactly() {
        // With deterministic settings (no quantization, no subsampling,
        // sigma = 1), training T1 rounds and continuing with T2 must equal
        // one T1+T2 run bit-for-bit.
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut cfg = small_config();
        cfg.opts.low_precision = false;

        let mut long_cfg = cfg.clone();
        long_cfg.num_trees = 6;
        let long = train_distributed(&shards, &long_cfg, ps).unwrap();

        let mut first_cfg = cfg.clone();
        first_cfg.num_trees = 4;
        let first = train_distributed(&shards, &first_cfg, ps).unwrap();
        let mut cont_cfg = cfg.clone();
        cont_cfg.num_trees = 2;
        let cont = train_distributed_continue(&first.model, &shards, &cont_cfg, ps, None).unwrap();

        assert_eq!(cont.model.num_trees(), 6);
        assert_eq!(
            cont.model, long.model,
            "continuation must match the long run"
        );
        // Loss after the continuation matches the long run's final loss.
        let a = cont.loss_curve.last().unwrap().train_loss;
        let b = long.loss_curve.last().unwrap().train_loss;
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn warm_start_validates_compatibility() {
        let (train, _) = classification_data();
        let cfg = small_config();
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let base = train_distributed(std::slice::from_ref(&train), &cfg, ps).unwrap();

        let mut bad_lr = cfg.clone();
        bad_lr.learning_rate = 0.999;
        assert!(train_distributed_continue(
            &base.model,
            std::slice::from_ref(&train),
            &bad_lr,
            ps,
            None
        )
        .unwrap_err()
        .contains("learning-rate"));

        let mut bad_loss = cfg.clone();
        bad_loss.loss = LossKind::Square;
        assert!(train_distributed_continue(
            &base.model,
            std::slice::from_ref(&train),
            &bad_loss,
            ps,
            None
        )
        .unwrap_err()
        .contains("loss"));

        let other = generate(&SparseGenConfig::new(50, 7, 2, 1));
        assert!(
            train_distributed_continue(&base.model, &[other], &cfg, ps, None)
                .unwrap_err()
                .contains("dimensionality")
        );
    }

    #[test]
    fn pre_binning_produces_identical_models() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut plain = small_config();
        plain.opts.low_precision = false;
        let mut binned = plain.clone();
        binned.opts.pre_binning = true;
        let a = train_distributed(&shards, &plain, ps).unwrap();
        let b = train_distributed(&shards, &binned, ps).unwrap();
        assert_eq!(
            a.model, b.model,
            "pre-binning must be a pure performance change"
        );

        // Also identical under feature sampling (per-tree rebinning path).
        plain.feature_sample_ratio = 0.6;
        let mut binned = plain.clone();
        binned.opts.pre_binning = true;
        let a = train_distributed(&shards, &plain, ps).unwrap();
        let b = train_distributed(&shards, &binned, ps).unwrap();
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn quantized_hist_model_independent_of_path_threads_and_batch() {
        // The quantized accumulator's integer sums are exact and order-free,
        // so the model must be bit-identical across per-node vs fused,
        // any thread count, any batch size — and the timing-free report
        // (incl. the quant_hist telemetry) must match too.
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let mut base = small_config();
        base.opts.low_precision = false;
        base.opts.quantized_hist = true;
        base.num_threads = 1;
        let reference = train_distributed(&shards, &base, ps).unwrap();
        assert!(reference.report.rounds[0].quant_hist.is_some());

        for (threads, batch, fused, subtraction) in [
            (2usize, 25usize, false, false),
            (4, 10_000, false, false),
            (2, 25, true, false),
            (8, 40, true, false),
            (4, 25, true, true),
        ] {
            let mut cfg = base.clone();
            cfg.num_threads = threads;
            cfg.batch_size = batch;
            cfg.opts.fused_layer = fused;
            cfg.opts.hist_subtraction = subtraction;
            let out = train_distributed(&shards, &cfg, ps).unwrap();
            if subtraction {
                // Subtraction builds different nodes (different telemetry);
                // model equality is a float-tolerance property of the f32
                // derive — not asserted here (covered by tests/fused.rs for
                // the f32 path). Just require training to succeed and stay
                // quantized.
                assert!(out.report.rounds[0].quant_hist.is_some());
                continue;
            }
            assert_eq!(
                out.model, reference.model,
                "threads={threads} batch={batch} fused={fused}"
            );
            assert_eq!(
                out.report.canonical_json(),
                reference.report.canonical_json(),
                "canonical report drifted at threads={threads} batch={batch} fused={fused}"
            );
        }
    }

    #[test]
    fn quantized_hist_composes_with_sparse_wire_and_low_precision() {
        // The dequantized rows feed the existing push paths unchanged, so
        // dense vs sparse-wire stays bit-identical with quantized
        // accumulation, at full and at 8-bit push precision.
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        for low_precision in [false, true] {
            let mut dense = small_config();
            dense.opts.low_precision = low_precision;
            dense.opts.quantized_hist = true;
            let mut sparse = dense.clone();
            sparse.opts.sparse_wire = true;
            let a = train_distributed(&shards, &dense, ps).unwrap();
            let b = train_distributed(&shards, &sparse, ps).unwrap();
            assert_eq!(
                a.model, b.model,
                "sparse wire must stay bit-identical under quantized_hist \
                 (low_precision={low_precision})"
            );
        }
    }

    #[test]
    fn sparse_wire_produces_identical_models_and_fewer_bytes() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 3).unwrap();
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        for low_precision in [false, true] {
            let mut dense = small_config();
            dense.opts.low_precision = low_precision;
            let mut sparse = dense.clone();
            sparse.opts.sparse_wire = true;
            let a = train_distributed(&shards, &dense, ps).unwrap();
            let b = train_distributed(&shards, &sparse, ps).unwrap();
            assert_eq!(
                a.model, b.model,
                "sparse wire must be bit-identical (low_precision={low_precision})"
            );
            // Per-round training telemetry matches except the wire fields.
            for (ra, rb) in a.report.rounds.iter().zip(&b.report.rounds) {
                assert_eq!(ra.train_loss, rb.train_loss);
                assert_eq!(ra.split_gains, rb.split_gains);
                assert_eq!(ra.node_instances, rb.node_instances);
                assert_eq!(ra.hist_bytes_raw, rb.hist_bytes_raw);
                assert!(ra.sparse_frames.is_none());
                let frames = rb.sparse_frames.as_ref().expect("sparse rounds tally");
                assert_eq!(frames.total_bytes(), rb.hist_bytes_wire);
            }
            // The run-level rollup exists only on the sparse run and its
            // bytes beat the dense f32 exchange.
            assert!(a.report.sparsity.is_none());
            let s = b.report.sparsity.as_ref().expect("sparsity section");
            assert_eq!(s.wire_bytes, s.frames.total_bytes());
            assert!(
                s.wire_bytes < s.raw_bytes,
                "wire {} >= raw {} (low_precision={low_precision})",
                s.wire_bytes,
                s.raw_bytes
            );
        }
    }

    #[test]
    fn learned_default_direction_improves_sparse_splits() {
        use dimboost_data::SparseInstance;
        // Feature 0 pattern: absent and 2.0 are class 1; 0.5 and 1.0 are
        // class 0. No single threshold separates the classes (zeros are
        // glued to the left end of the value axis), but "threshold 1.5 with
        // zeros right" does.
        let mut instances = Vec::new();
        let mut labels = Vec::new();
        for i in 0..400u32 {
            let (value, label) = match i % 4 {
                0 => (None, 1.0),
                1 => (Some(0.5), 0.0),
                2 => (Some(1.0), 0.0),
                _ => (Some(2.0), 1.0),
            };
            let inst = match value {
                Some(v) => SparseInstance::new(vec![0], vec![v]).unwrap(),
                None => SparseInstance::empty(),
            };
            instances.push(inst);
            labels.push(label);
        }
        let ds = Dataset::from_instances(&instances, labels, 1).unwrap();

        let mut config = small_config();
        config.num_trees = 1;
        config.max_depth = 1;
        config.num_candidates = 8;
        config.min_child_weight = 0.0;
        config.learning_rate = 1.0;
        config.opts.low_precision = false;

        let natural = train_single_machine(&ds, &config).unwrap();
        let err_natural = classification_error(&natural.predict_dataset(&ds), ds.labels());

        config.learn_default_direction = true;
        let learned = train_single_machine(&ds, &config).unwrap();
        let err_learned = classification_error(&learned.predict_dataset(&ds), ds.labels());

        assert!(
            err_natural >= 0.24,
            "without default learning one depth-1 split cannot separate: {err_natural}"
        );
        assert_eq!(
            err_learned, 0.0,
            "learned default direction separates exactly"
        );
        // The learned tree routes zeros right.
        match learned.trees()[0].node(0) {
            crate::tree::Node::Internal { default_left, .. } => assert!(!default_left),
            other => panic!("expected a split, got {other:?}"),
        }
    }

    #[test]
    fn multiclass_softmax_learns() {
        use crate::metrics::{multiclass_error, multiclass_log_loss};
        let cfg_data = SparseGenConfig::new(4_000, 200, 15, 77)
            .with_label_kind(LabelKind::Multiclass { classes: 3 });
        let ds = generate(&cfg_data);
        let (train, test) = train_test_split(&ds, 0.2, 77).unwrap();
        let shards = partition_rows(&train, 3).unwrap();
        let mut config = small_config();
        config.loss = LossKind::Softmax { classes: 3 };
        config.num_trees = 8; // rounds: 24 trees total
        let ps = PsConfig {
            num_servers: 3,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();

        assert_eq!(out.model.num_trees(), 24);
        assert_eq!(out.model.num_classes(), 3);
        assert!(out.model.check_consistency().is_ok());

        let preds = out.model.predict_dataset(&test);
        let err = multiclass_error(&preds, test.labels());
        // Majority baseline is ~2/3 on balanced 3-class data.
        assert!(err < 0.5, "multiclass error {err}");

        let probas = out.model.predict_proba_dataset(&test);
        assert!(probas
            .iter()
            .all(|p| (p.iter().sum::<f32>() - 1.0).abs() < 1e-4));
        let mll = multiclass_log_loss(&probas, test.labels());
        assert!(
            mll < 3.0f64.ln(),
            "mlogloss {mll} not below uniform baseline"
        );

        // Training loss decreases per round.
        let losses: Vec<f64> = out.loss_curve.iter().map(|p| p.train_loss).collect();
        assert_eq!(losses.len(), 8);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn multiclass_rejects_bad_labels() {
        let ds = generate(&SparseGenConfig::new(100, 20, 5, 1)); // binary labels 0/1 are valid class ids
        let mut config = small_config();
        config.loss = LossKind::Softmax { classes: 3 };
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        assert!(train_distributed(&[ds], &config, ps).is_ok());

        // Labels outside 0..classes must be rejected.
        let cfg_data = SparseGenConfig::new(100, 20, 5, 2)
            .with_label_kind(LabelKind::Multiclass { classes: 5 });
        let bad = generate(&cfg_data);
        assert!(train_distributed(&[bad], &config, ps)
            .unwrap_err()
            .contains("class indices"),);
    }

    #[test]
    fn multiclass_early_stopping_truncates_whole_rounds() {
        use crate::trainer::EvalOptions;
        let cfg_data = SparseGenConfig::new(1_000, 60, 8, 9)
            .with_label_kind(LabelKind::Multiclass { classes: 3 });
        let ds = generate(&cfg_data);
        let (train, test) = train_test_split(&ds, 0.3, 9).unwrap();
        let mut config = small_config();
        config.loss = LossKind::Softmax { classes: 3 };
        config.num_trees = 6;
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let ev = EvalOptions {
            dataset: &test,
            early_stopping_rounds: Some(1),
        };
        let out = train_distributed_with_eval(&[train], &config, ps, Some(ev)).unwrap();
        assert_eq!(
            out.model.num_trees() % 3,
            0,
            "truncation must keep whole rounds"
        );
        assert!(out.model.check_consistency().is_ok());
    }

    #[test]
    fn rejects_invalid_inputs() {
        let ds = generate(&SparseGenConfig::new(10, 5, 2, 1));
        assert!(train_distributed(&[], &small_config(), PsConfig::default()).is_err());

        let empty = Dataset::empty(5);
        assert!(train_distributed(&[empty], &small_config(), PsConfig::default()).is_err());

        let mismatched = vec![ds.clone(), Dataset::empty(7)];
        assert!(train_distributed(&mismatched, &small_config(), PsConfig::default()).is_err());

        let mut bad = small_config();
        bad.num_trees = 0;
        assert!(train_distributed(&[ds], &bad, PsConfig::default()).is_err());
    }

    #[test]
    fn handles_workers_with_empty_shards() {
        let ds = generate(&SparseGenConfig::new(50, 20, 5, 2));
        // 8 workers, 50 rows: every worker has rows; now force empties by
        // using more workers than rows on a tiny set.
        let tiny = generate(&SparseGenConfig::new(3, 20, 5, 2));
        let shards = partition_rows(&tiny, 5).unwrap();
        let mut config = small_config();
        config.num_trees = 2;
        config.min_child_weight = 0.0;
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let out = train_distributed(&shards, &config, ps).unwrap();
        assert_eq!(out.model.num_trees(), 2);
        // Sanity on the larger set too.
        let shards = partition_rows(&ds, 3).unwrap();
        assert!(train_distributed(&shards, &config, ps).is_ok());
    }

    #[test]
    fn more_trees_do_not_hurt_training_loss() {
        let (train, _) = classification_data();
        let mut config = small_config();
        config.num_trees = 12;
        let ps = PsConfig {
            num_servers: 1,
            num_partitions: 0,
            cost_model: CostModel::FREE,
        };
        let out = train_distributed(&[train], &config, ps).unwrap();
        let first = out.loss_curve.first().unwrap().train_loss;
        let last = out.loss_curve.last().unwrap().train_loss;
        assert!(last < first, "12 trees: {first} -> {last}");
    }

    #[test]
    fn breakdown_accumulates() {
        let (train, _) = classification_data();
        let shards = partition_rows(&train, 2).unwrap();
        let ps = PsConfig {
            num_servers: 2,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        };
        let out = train_distributed(&shards, &small_config(), ps).unwrap();
        assert!(out.breakdown.compute_secs > 0.0);
        assert!(out.breakdown.comm.packages > 0);
        assert!(out.breakdown.total_secs() >= out.breakdown.compute_secs);
        // Curve elapsed times are nondecreasing.
        let times: Vec<f64> = out.loss_curve.iter().map(|pt| pt.elapsed_secs).collect();
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
    }

    /// The wave stage against a plain serial `quantize_row` loop over the
    /// same workers, for two successive layers: codes and every worker's
    /// RNG state written back after each layer must be equal.
    #[test]
    fn quantize_wave_matches_the_serial_loop_and_writes_back_rng_states() {
        let layout = HistogramLayout::with_zero_buckets(vec![5, 3, 6, 1], vec![2, 0, 5, 0]);
        let row_len = layout.row_len();
        let workers = 3;
        let mut rng_wave: Vec<StdRng> = (0..workers)
            .map(|w| StdRng::seed_from_u64(11 + w as u64))
            .collect();
        let mut rng_serial = rng_wave.clone();
        let mut data = StdRng::seed_from_u64(5);
        for (layer, nodes) in [(0u32, 1u32), (1, 2)] {
            let rows: Vec<LocalRows> = (0..workers)
                .map(|_| {
                    (0..nodes)
                        .map(|n| {
                            let row: Vec<f32> = (0..row_len)
                                .map(|_| data.random::<f32>() * 4.0 - 2.0)
                                .collect();
                            ((1 << layer) - 1 + n, row, 7)
                        })
                        .collect()
                })
                .collect();
            let serial: Vec<Vec<QuantizedRow>> = rows
                .iter()
                .zip(&mut rng_serial)
                .map(|(worker_rows, rng)| {
                    worker_rows
                        .iter()
                        .map(|(_, row, _)| quantize_row(row, &layout, 8, rng))
                        .collect()
                })
                .collect();
            let wave = quantize_wave(rng_wave.iter_mut().collect(), rows.clone(), &layout, 8);
            for (w, (encoded, expected)) in wave.into_iter().zip(&serial).enumerate() {
                assert_eq!(encoded.len(), expected.len(), "layer {layer}, worker {w}");
                for ((node, wire, count), (q, (want_node, _, want_count))) in
                    encoded.into_iter().zip(expected.iter().zip(&rows[w]))
                {
                    assert_eq!((node, count), (*want_node, *want_count));
                    match wire {
                        WireRow::Quantized(got) => {
                            assert_eq!(&got, q, "layer {layer}, worker {w}, node {node}")
                        }
                        WireRow::F32(_) => panic!("the wave left a row unquantized"),
                    }
                }
            }
            for (w, (a, b)) in rng_wave.iter().zip(&rng_serial).enumerate() {
                assert_eq!(a.state(), b.state(), "layer {layer}, worker {w}: RNG state");
            }
        }
    }
}
