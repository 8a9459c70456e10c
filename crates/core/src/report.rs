//! Structured observability for training runs.
//!
//! Three layers, all plain structs filled in by the trainer:
//!
//! * [`SpanTimer`] — wall-clock spans per execution-plan phase *per worker*.
//!   The distributed wall time of a phase is the max across workers (they
//!   run concurrently on separate machines); keeping every worker's time
//!   also exposes the *skew* (max − min), the straggler signal the paper's
//!   load-balancing sections care about.
//! * [`RoundRecord`] — per-boosting-round training telemetry: histogram
//!   bytes before/after quantization, quantization scales, chosen split
//!   gains, and instance counts per built node.
//! * [`RunReport`] — the assembled per-phase / per-round report attached to
//!   `TrainOutput`, serializable to JSON with a stable field order.
//!
//! Wall-clock fields vary run to run; [`RunReport::canonical_json`] omits
//! them so that two runs with the same config and seed produce *identical*
//! documents (the determinism tests diff exactly that form).

use std::time::Instant;

use dimboost_simnet::json::{num, push_field, push_percentiles};
use dimboost_simnet::registry::MetricExport;
use dimboost_simnet::wire::SparseWireStats;
use dimboost_simnet::{
    CommLedger, CommStats, FaultSummary, FixedHistogram, MembershipSummary, Phase, TraceBus,
};

/// Accumulates per-phase, per-worker wall-clock seconds.
///
/// The running `total_secs` sums, per timed span, the maximum across
/// workers — the same quantity the old aggregate breakdown reported — while
/// the per-worker table feeds the per-phase max/skew in the run report.
#[derive(Debug, Clone)]
pub struct SpanTimer {
    num_workers: usize,
    total_secs: f64,
    /// `[phase][worker]` accumulated seconds.
    per_phase_worker: Vec<Vec<f64>>,
    /// Max-across-workers seconds accumulated per boosting round.
    round_secs: Vec<f64>,
    current_round: Option<usize>,
    /// Optional trace bus: every worker slice is mirrored as a Compute
    /// event (wall seconds annotated, zero simulated duration).
    trace: Option<TraceBus>,
}

impl SpanTimer {
    /// A timer for `num_workers` simulated workers.
    pub fn new(num_workers: usize) -> Self {
        Self {
            num_workers,
            total_secs: 0.0,
            per_phase_worker: vec![vec![0.0; num_workers]; Phase::COUNT],
            round_secs: Vec::new(),
            current_round: None,
            trace: None,
        }
    }

    /// Mirrors every subsequent timed span onto `bus` as Compute events and
    /// into its `wall/phase_secs/*` histograms.
    pub fn attach_trace(&mut self, bus: TraceBus) {
        self.trace = Some(bus);
    }

    /// Marks the start of boosting round `round`; subsequent spans also
    /// accrue to that round's compute total.
    pub fn begin_round(&mut self, round: usize) {
        self.current_round = Some(round);
        if self.round_secs.len() <= round {
            self.round_secs.resize(round + 1, 0.0);
        }
    }

    /// Times `f` once per worker slot under `phase`, recording each
    /// worker's wall time, and adds the maximum to the run total (workers
    /// run concurrently on separate machines in the real deployment).
    pub fn phase<W, T>(
        &mut self,
        phase: Phase,
        workers: &mut [W],
        mut f: impl FnMut(&mut W) -> T,
    ) -> Vec<T> {
        debug_assert_eq!(workers.len(), self.num_workers);
        let mut max = 0.0f64;
        let mut outs = Vec::with_capacity(workers.len());
        for (slot, w) in workers.iter_mut().enumerate() {
            let start = Instant::now();
            outs.push(f(w));
            let secs = start.elapsed().as_secs_f64();
            self.per_phase_worker[phase.index()][slot] += secs;
            if let Some(bus) = &self.trace {
                bus.on_compute(slot as u32, phase, secs);
            }
            max = max.max(secs);
        }
        self.total_secs += max;
        if let Some(round) = self.current_round {
            self.round_secs[round] += max;
        }
        outs
    }

    /// Total compute seconds (per span, the max across workers, summed).
    pub fn total_secs(&self) -> f64 {
        self.total_secs
    }

    /// Compute seconds accrued to round `round` (0.0 if never timed).
    pub fn round_secs(&self, round: usize) -> f64 {
        self.round_secs.get(round).copied().unwrap_or(0.0)
    }

    /// Per-worker accumulated seconds for one phase.
    pub fn worker_secs(&self, phase: Phase) -> &[f64] {
        &self.per_phase_worker[phase.index()]
    }

    /// `(max, skew)` across workers for one phase, where skew is max − min.
    pub fn phase_compute(&self, phase: Phase) -> (f64, f64) {
        let secs = self.worker_secs(phase);
        if secs.is_empty() {
            return (0.0, 0.0);
        }
        let max = secs.iter().cloned().fold(f64::MIN, f64::max);
        let min = secs.iter().cloned().fold(f64::MAX, f64::min);
        (max, max - min)
    }
}

/// Instance count of one tree node when its histogram was built, summed
/// across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInstances {
    /// Node id within its tree (heap order).
    pub node: u32,
    /// Instances that reached the node, across all shards.
    pub instances: u64,
}

/// Telemetry for one boosting round (all of the round's trees, so `k`
/// trees under softmax).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Zero-based boosting round.
    pub round: usize,
    /// Trees in the ensemble after this round.
    pub trees: usize,
    /// Mean training loss after this round.
    pub train_loss: f64,
    /// Wall-clock compute seconds accrued to this round (max across
    /// workers per span). Varies run to run; omitted from canonical JSON.
    pub compute_secs: f64,
    /// Host wall seconds this round spent in the §6.1 wire quantizer (the
    /// FIND_SPLIT quantize stage, all workers). Outside every span, so not
    /// part of `compute_secs`; omitted from canonical JSON. 0 when low
    /// precision is off, and for rounds restored from a checkpoint.
    pub quantize_wall_secs: f64,
    /// Histogram row bytes as full-precision `f32` (what an uncompressed
    /// push would have moved), summed over workers, nodes, and layers.
    pub hist_bytes_raw: u64,
    /// Histogram row bytes actually pushed (equals `hist_bytes_raw` at
    /// full precision; the quantized wire size under low precision).
    pub hist_bytes_wire: u64,
    /// Largest per-block quantization scale (max-abs `c`) observed this
    /// round; 0 when quantization is off.
    pub max_quant_scale: f32,
    /// Gain of every accepted split, in decision order.
    pub split_gains: Vec<f32>,
    /// Instance counts of the nodes whose histograms were built, in build
    /// order.
    pub node_instances: Vec<NodeInstances>,
    /// Per-encoding frame/byte tallies of the sparse histogram exchange
    /// (`hist_bytes_wire` split by the dense / bitmap / runs layout each
    /// message chose); `None` (and omitted from JSON) when the run used the
    /// dense exchange.
    pub sparse_frames: Option<SparseWireStats>,
    /// Quantized-accumulator telemetry (`Optimizations::quantized_hist`);
    /// `None` (and omitted from JSON) for f32-accumulator runs. Every field
    /// is a pure function of `(config, shards, layer widths)` — never of
    /// threads or batch size — so it survives the cross-thread-count
    /// `report_diff` gate.
    pub quant_hist: Option<QuantHistRecord>,
}

/// Telemetry of the quantized histogram accumulator for one round
/// (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantHistRecord {
    /// Effective fixed-point bit width (the configured `quant_hist_bits`
    /// after the per-shard overflow demotion; min across shards).
    pub bits: u8,
    /// Largest cache-tile size (in node slots) any layer of the round used
    /// (see `fused::quant_tile_nodes`).
    pub tile_nodes: u64,
}

impl RoundRecord {
    /// An empty record for `round`.
    pub fn new(round: usize) -> Self {
        Self {
            round,
            trees: 0,
            train_loss: 0.0,
            compute_secs: 0.0,
            quantize_wall_secs: 0.0,
            hist_bytes_raw: 0,
            hist_bytes_wire: 0,
            max_quant_scale: 0.0,
            split_gains: Vec::new(),
            node_instances: Vec::new(),
            sparse_frames: None,
            quant_hist: None,
        }
    }
}

/// One phase's line in the run report: compute max/skew across workers and
/// the phase's slice of the communication ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Which phase.
    pub phase: Phase,
    /// Accumulated wall seconds of the slowest worker in this phase.
    pub compute_max_secs: f64,
    /// Median per-worker wall seconds (interpolated from a fixed-bucket
    /// histogram over the worker times).
    pub compute_p50_secs: f64,
    /// 99th-percentile per-worker wall seconds (≈ the straggler).
    pub compute_p99_secs: f64,
    /// Straggler skew: slowest minus fastest worker, in seconds.
    pub compute_skew_secs: f64,
    /// Communication attributed to this phase.
    pub comm: CommStats,
}

/// Run-level rollup of the sparse histogram exchange: what the dense
/// exchange would have moved, what the adaptive frames actually moved, and
/// how the messages split across the three layouts. Deterministic in
/// `(config, seed, shards)` — every field counts simulated wire bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsitySummary {
    /// Full-precision `f32` bytes the dense exchange would have pushed.
    pub raw_bytes: u64,
    /// Bytes the adaptive sparse frames actually pushed.
    pub wire_bytes: u64,
    /// `raw_bytes / wire_bytes` (0 when nothing was pushed).
    pub reduction_x: f64,
    /// Frame/byte tallies per encoding, summed over all rounds.
    pub frames: SparseWireStats,
}

impl SparsitySummary {
    /// Rolls up the per-round tallies; `None` if no round recorded sparse
    /// frames (the run used the dense exchange).
    pub fn from_rounds(rounds: &[RoundRecord]) -> Option<Self> {
        let mut frames = SparseWireStats::default();
        let mut raw_bytes = 0u64;
        let mut any = false;
        for r in rounds {
            if let Some(s) = &r.sparse_frames {
                frames.merge(s);
                raw_bytes += r.hist_bytes_raw;
                any = true;
            }
        }
        if !any {
            return None;
        }
        let wire_bytes = frames.total_bytes();
        Some(Self {
            raw_bytes,
            wire_bytes,
            reduction_x: if wire_bytes == 0 {
                0.0
            } else {
                raw_bytes as f64 / wire_bytes as f64
            },
            frames,
        })
    }
}

/// The structured result of a training run: per-phase compute and
/// communication plus per-round training telemetry.
///
/// Invariant (tested): the per-phase `comm` entries sum to exactly the
/// aggregate `CommStats` the breakdown reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Simulated worker count.
    pub workers: usize,
    /// Parameter-server count.
    pub servers: usize,
    /// Total compute seconds (max across workers per span, summed).
    pub compute_secs: f64,
    /// Host wall seconds spent in the wire quantizer, summed over rounds
    /// (see [`RoundRecord::quantize_wall_secs`]); timed JSON only.
    pub quantize_wall_secs: f64,
    /// Aggregate communication over all phases.
    pub comm: CommStats,
    /// Per-phase breakdown, in execution-plan order; phases with no
    /// activity are omitted.
    pub phases: Vec<PhaseReport>,
    /// Per-round telemetry, one entry per boosting round trained.
    pub rounds: Vec<RoundRecord>,
    /// Flat metric exports (counters, gauges, histogram percentiles) from
    /// the run's metrics registry, sorted by name. Deterministic `sim/`
    /// metrics appear in the canonical document; wall-clock `wall/` metrics
    /// only in the full one.
    pub percentiles: Vec<MetricExport>,
    /// Fault-injection summary when the run executed under a
    /// [`dimboost_simnet::FaultPlan`]; `None` (and omitted from JSON) for
    /// clean runs. All fields land on the simulated clock, so the section
    /// is deterministic across reruns of the same plan.
    pub faults: Option<FaultSummary>,
    /// Elastic-membership summary when the run's fault plan scripted
    /// join/leave/speed/speculate events; `None` (and omitted from JSON)
    /// for fixed-membership runs. All fields land on the simulated clock,
    /// so the section is deterministic across reruns of the same plan.
    pub membership: Option<MembershipSummary>,
    /// The boosting round this run resumed from when it was restored from
    /// a checkpoint; `None` (omitted from JSON) for uninterrupted runs.
    pub resumed_from_round: Option<usize>,
    /// Sparse-exchange rollup when the run trained with `--sparse-wire`;
    /// `None` (and omitted from JSON) for dense-exchange runs. All fields
    /// count simulated wire bytes, so the section is deterministic.
    pub sparsity: Option<SparsitySummary>,
}

impl RunReport {
    /// Assembles a report from the trainer's span timer, the parameter
    /// server's ledger, and the collected round records.
    pub fn assemble(
        workers: usize,
        servers: usize,
        timer: &SpanTimer,
        ledger: &CommLedger,
        rounds: Vec<RoundRecord>,
    ) -> Self {
        Self::assemble_with_metrics(workers, servers, timer, ledger, rounds, Vec::new())
    }

    /// [`RunReport::assemble`] plus the run's flat metric exports (the
    /// `percentiles` section).
    pub fn assemble_with_metrics(
        workers: usize,
        servers: usize,
        timer: &SpanTimer,
        ledger: &CommLedger,
        rounds: Vec<RoundRecord>,
        percentiles: Vec<MetricExport>,
    ) -> Self {
        let phases = Phase::ALL
            .into_iter()
            .filter_map(|phase| {
                let (max, skew) = timer.phase_compute(phase);
                let comm = *ledger.phase(phase);
                if max == 0.0 && comm.is_empty() {
                    return None;
                }
                let (p50, p99) = worker_percentiles(timer.worker_secs(phase));
                Some(PhaseReport {
                    phase,
                    compute_max_secs: max,
                    compute_p50_secs: p50,
                    compute_p99_secs: p99,
                    compute_skew_secs: skew,
                    comm,
                })
            })
            .collect();
        let sparsity = SparsitySummary::from_rounds(&rounds);
        Self {
            workers,
            servers,
            compute_secs: timer.total_secs(),
            quantize_wall_secs: rounds.iter().map(|r| r.quantize_wall_secs).sum(),
            comm: ledger.total(),
            phases,
            rounds,
            percentiles,
            faults: None,
            membership: None,
            resumed_from_round: None,
            sparsity,
        }
    }

    /// This phase's report line, if the phase saw any activity.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Full JSON document, wall-clock timings included.
    pub fn json(&self) -> String {
        self.to_json(true)
    }

    /// JSON with the wall-clock compute fields omitted: byte counts,
    /// packages, simulated time, scales, gains, and instance counts are all
    /// deterministic in `(config, seed, shards)`, so two identical runs
    /// produce byte-identical canonical documents.
    pub fn canonical_json(&self) -> String {
        self.to_json(false)
    }

    fn to_json(&self, timings: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        push_field(&mut out, "workers", &self.workers.to_string(), true);
        push_field(&mut out, "servers", &self.servers.to_string(), false);
        if timings {
            push_field(&mut out, "compute_secs", &num(self.compute_secs), false);
            push_field(
                &mut out,
                "quantize_wall_secs",
                &num(self.quantize_wall_secs),
                false,
            );
        }
        out.push_str(",\"comm\":");
        push_comm(&mut out, &self.comm);
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_field(&mut out, "phase", &format!("\"{}\"", p.phase.name()), true);
            if timings {
                push_field(
                    &mut out,
                    "compute_max_secs",
                    &num(p.compute_max_secs),
                    false,
                );
                push_field(
                    &mut out,
                    "compute_p50_secs",
                    &num(p.compute_p50_secs),
                    false,
                );
                push_field(
                    &mut out,
                    "compute_p99_secs",
                    &num(p.compute_p99_secs),
                    false,
                );
                push_field(
                    &mut out,
                    "compute_skew_secs",
                    &num(p.compute_skew_secs),
                    false,
                );
            }
            out.push_str(",\"comm\":");
            push_comm(&mut out, &p.comm);
            out.push('}');
        }
        out.push_str("],\"rounds\":[");
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_field(&mut out, "round", &r.round.to_string(), true);
            push_field(&mut out, "trees", &r.trees.to_string(), false);
            push_field(&mut out, "train_loss", &num(r.train_loss), false);
            if timings {
                push_field(&mut out, "compute_secs", &num(r.compute_secs), false);
                push_field(
                    &mut out,
                    "quantize_wall_secs",
                    &num(r.quantize_wall_secs),
                    false,
                );
            }
            push_field(
                &mut out,
                "hist_bytes_raw",
                &r.hist_bytes_raw.to_string(),
                false,
            );
            push_field(
                &mut out,
                "hist_bytes_wire",
                &r.hist_bytes_wire.to_string(),
                false,
            );
            push_field(&mut out, "max_quant_scale", &num(r.max_quant_scale), false);
            out.push_str(",\"split_gains\":[");
            for (j, g) in r.split_gains.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&num(*g));
            }
            out.push_str("],\"node_instances\":[");
            for (j, n) in r.node_instances.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"node\":{},\"instances\":{}}}",
                    n.node, n.instances
                ));
            }
            out.push(']');
            if let Some(s) = &r.sparse_frames {
                out.push_str(",\"sparse_frames\":");
                push_sparse_frames(&mut out, s);
            }
            if let Some(q) = &r.quant_hist {
                // Deterministic in (config, shards, layer widths): safe for
                // canonical JSON and for cross-thread-count report diffs.
                out.push_str(&format!(
                    ",\"quant_hist\":{{\"bits\":{},\"tile_nodes\":{}}}",
                    q.bits, q.tile_nodes
                ));
            }
            out.push('}');
        }
        out.push(']');
        push_percentiles(&mut out, &self.percentiles, timings);
        if let Some(f) = &self.faults {
            out.push_str(",\"faults\":{");
            push_field(&mut out, "plan_seed", &f.plan_seed.to_string(), true);
            push_field(
                &mut out,
                "request_drops",
                &f.request_drops.to_string(),
                false,
            );
            push_field(&mut out, "ack_drops", &f.ack_drops.to_string(), false);
            push_field(&mut out, "duplicates", &f.duplicates.to_string(), false);
            push_field(&mut out, "dedup_hits", &f.dedup_hits.to_string(), false);
            push_field(&mut out, "retries", &f.retries.to_string(), false);
            push_field(
                &mut out,
                "forced_deliveries",
                &f.forced_deliveries.to_string(),
                false,
            );
            push_field(&mut out, "backoff_secs", &num(f.backoff_secs), false);
            push_field(&mut out, "straggler_secs", &num(f.straggler_secs), false);
            push_field(
                &mut out,
                "outage_wait_secs",
                &num(f.outage_wait_secs),
                false,
            );
            push_field(&mut out, "crashes", &f.crashes.to_string(), false);
            push_field(&mut out, "workers_lost", &f.workers_lost.to_string(), false);
            out.push('}');
        }
        if let Some(m) = &self.membership {
            out.push_str(",\"membership\":{");
            push_field(&mut out, "joins", &m.joins.to_string(), true);
            push_field(&mut out, "leaves", &m.leaves.to_string(), false);
            push_field(
                &mut out,
                "stripes_moved",
                &m.stripes_moved.to_string(),
                false,
            );
            push_field(&mut out, "epoch", &m.epoch.to_string(), false);
            push_field(
                &mut out,
                "speculative_backups",
                &m.speculative_backups.to_string(),
                false,
            );
            push_field(&mut out, "backup_wins", &m.backup_wins.to_string(), false);
            push_field(
                &mut out,
                "stale_rejects",
                &m.stale_rejects.to_string(),
                false,
            );
            push_field(&mut out, "handoff_secs", &num(m.handoff_secs), false);
            push_field(&mut out, "reshard_secs", &num(m.reshard_secs), false);
            push_field(&mut out, "elastic_secs", &num(m.elastic_secs), false);
            push_field(
                &mut out,
                "speculation_saved_secs",
                &num(m.speculation_saved_secs),
                false,
            );
            out.push('}');
        }
        if let Some(s) = &self.sparsity {
            out.push_str(",\"sparsity\":{");
            push_field(&mut out, "raw_bytes", &s.raw_bytes.to_string(), true);
            push_field(&mut out, "wire_bytes", &s.wire_bytes.to_string(), false);
            push_field(&mut out, "reduction_x", &num(s.reduction_x), false);
            out.push_str(",\"frames\":");
            push_sparse_frames(&mut out, &s.frames);
            out.push('}');
        }
        if let Some(round) = self.resumed_from_round {
            push_field(&mut out, "resumed_from_round", &round.to_string(), false);
        }
        out.push('}');
        out
    }

    /// Multi-line human-readable summary (per-phase table), for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run report: {} worker(s), {} server(s), compute {:.3}s, comm {} bytes / {} pkgs / {:.3}s simulated\n",
            self.workers,
            self.servers,
            self.compute_secs,
            self.comm.bytes,
            self.comm.packages,
            self.comm.sim_time.seconds(),
        ));
        out.push_str(
            "phase            compute-max  p50        p99        skew       comm-bytes  pkgs    sim-secs\n",
        );
        for p in &self.phases {
            out.push_str(&format!(
                "{:<16} {:>10.4}s {:>8.4}s {:>8.4}s {:>8.4}s {:>11} {:>6} {:>9.4}\n",
                p.phase.name(),
                p.compute_max_secs,
                p.compute_p50_secs,
                p.compute_p99_secs,
                p.compute_skew_secs,
                p.comm.bytes,
                p.comm.packages,
                p.comm.sim_time.seconds(),
            ));
        }
        if let Some(s) = &self.sparsity {
            out.push_str(&format!(
                "sparse exchange: {} raw -> {} wire bytes ({:.1}x smaller); frames dense/bitmap/runs = {}/{}/{}\n",
                s.raw_bytes,
                s.wire_bytes,
                s.reduction_x,
                s.frames.frames[0],
                s.frames.frames[1],
                s.frames.frames[2],
            ));
        }
        out
    }
}

/// `{"dense":…,"dense_bytes":…,"bitmap":…,…}` — one flat object per
/// [`SparseWireStats`], shared by the per-round and run-level sections.
fn push_sparse_frames(out: &mut String, s: &SparseWireStats) {
    out.push('{');
    push_field(out, "dense", &s.frames[0].to_string(), true);
    push_field(out, "dense_bytes", &s.bytes[0].to_string(), false);
    push_field(out, "bitmap", &s.frames[1].to_string(), false);
    push_field(out, "bitmap_bytes", &s.bytes[1].to_string(), false);
    push_field(out, "runs", &s.frames[2].to_string(), false);
    push_field(out, "runs_bytes", &s.bytes[2].to_string(), false);
    out.push('}');
}

/// Sum of the per-phase communication entries (should equal `comm`).
pub fn sum_phase_comm(report: &RunReport) -> CommStats {
    let mut total = CommStats::new();
    for p in &report.phases {
        total.absorb(&p.comm);
    }
    total
}

/// `(p50, p99)` of the per-worker wall seconds for one phase, estimated
/// through the same fixed-bucket histogram the metrics registry uses.
fn worker_percentiles(secs: &[f64]) -> (f64, f64) {
    let mut hist = FixedHistogram::log_spaced(1e-9, 1e4, 3);
    for &s in secs {
        // Zero (untimed slot) still counts: a worker that did no work in a
        // phase is the far end of the straggler distribution.
        hist.observe(s.max(0.0));
    }
    (hist.quantile(0.50), hist.quantile(0.99))
}

fn push_comm(out: &mut String, c: &CommStats) {
    out.push_str(&format!(
        "{{\"bytes\":{},\"packages\":{},\"sim_time_secs\":{}}}",
        c.bytes,
        c.packages,
        num(c.sim_time.seconds())
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimboost_simnet::SimTime;

    fn sample_report() -> RunReport {
        let mut timer = SpanTimer::new(2);
        timer.begin_round(0);
        timer.phase(Phase::BuildHistogram, &mut [0u8, 1], |w| {
            // Unequal busy-wait so worker times differ measurably.
            let spin = 1_000 * (*w as u64 + 1);
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        let mut ledger = CommLedger::new();
        ledger.record(Phase::BuildHistogram, 1000, 4, SimTime(0.25));
        ledger.record(Phase::FindSplit, 96, 2, SimTime(0.01));
        let mut round = RoundRecord::new(0);
        round.trees = 1;
        round.train_loss = 0.5;
        round.compute_secs = timer.round_secs(0);
        round.quantize_wall_secs = 0.125;
        round.hist_bytes_raw = 4000;
        round.hist_bytes_wire = 1000;
        round.max_quant_scale = 1.5;
        round.split_gains = vec![2.25, 0.5];
        round.node_instances = vec![NodeInstances {
            node: 0,
            instances: 100,
        }];
        RunReport::assemble(2, 2, &timer, &ledger, vec![round])
    }

    #[test]
    fn span_timer_tracks_max_and_skew() {
        let mut timer = SpanTimer::new(3);
        timer.phase(Phase::NewTree, &mut [0u32; 3], |_| {});
        let (max, skew) = timer.phase_compute(Phase::NewTree);
        assert!(max >= 0.0 && skew >= 0.0 && skew <= max);
        assert!(timer.total_secs() >= max);
        // Untimed phases are zero.
        assert_eq!(timer.phase_compute(Phase::Finish), (0.0, 0.0));
    }

    #[test]
    fn span_timer_accrues_rounds() {
        let mut timer = SpanTimer::new(1);
        timer.phase(Phase::CreateSketch, &mut [0u8], |_| {}); // pre-round
        timer.begin_round(0);
        timer.phase(Phase::NewTree, &mut [0u8], |_| {});
        timer.begin_round(1);
        timer.phase(Phase::NewTree, &mut [0u8], |_| {});
        assert!(timer.round_secs(0) >= 0.0);
        assert!(timer.round_secs(1) >= 0.0);
        assert!((timer.round_secs(0) + timer.round_secs(1)) <= timer.total_secs() + 1e-9);
        assert_eq!(timer.round_secs(7), 0.0);
    }

    #[test]
    fn report_phases_sum_to_total_comm() {
        let report = sample_report();
        assert_eq!(sum_phase_comm(&report), report.comm);
    }

    #[test]
    fn json_has_stable_shape() {
        let report = sample_report();
        let json = report.json();
        assert!(json.starts_with("{\"workers\":2,\"servers\":2,\"compute_secs\":"));
        assert!(json.contains("\"phase\":\"build_histogram\""));
        assert!(json.contains("\"hist_bytes_raw\":4000"));
        // The quantize stage's host time: per round and as the run total.
        assert_eq!(json.matches("\"quantize_wall_secs\":0.125").count(), 2);
        assert!(json.contains("\"split_gains\":[2.25,0.5]"));
        assert!(json.contains("{\"node\":0,\"instances\":100}"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn canonical_json_omits_wall_clock() {
        let report = sample_report();
        let canonical = report.canonical_json();
        assert!(!canonical.contains("compute_secs"));
        assert!(!canonical.contains("compute_max_secs"));
        assert!(!canonical.contains("quantize_wall_secs"));
        // But keeps all deterministic fields.
        assert!(canonical.contains("\"sim_time_secs\":0.25"));
        assert!(canonical.contains("\"train_loss\":0.5"));

        // Same data with different wall-clock values → same canonical form.
        let mut other = report.clone();
        other.compute_secs += 1.0;
        other.quantize_wall_secs += 1.0;
        for p in &mut other.phases {
            p.compute_max_secs *= 2.0;
            p.compute_skew_secs += 0.1;
        }
        for r in &mut other.rounds {
            r.compute_secs += 3.0;
            r.quantize_wall_secs += 3.0;
        }
        assert_eq!(other.canonical_json(), canonical);
        assert_ne!(other.json(), report.json());
    }

    #[test]
    fn quant_hist_section_only_when_present() {
        let plain = sample_report();
        assert!(!plain.json().contains("quant_hist"));
        assert!(!plain.canonical_json().contains("quant_hist"));

        let mut quantized = plain.clone();
        quantized.rounds[0].quant_hist = Some(QuantHistRecord {
            bits: 12,
            tile_nodes: 16,
        });
        let expect = "\"quant_hist\":{\"bits\":12,\"tile_nodes\":16}";
        // Deterministic telemetry → present in both timed and canonical JSON.
        assert!(quantized.json().contains(expect));
        assert!(quantized.canonical_json().contains(expect));
        for (open, close) in [('{', '}'), ('[', ']')] {
            let json = quantized.json();
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn summary_lists_active_phases() {
        let report = sample_report();
        let text = report.summary();
        assert!(text.contains("build_histogram"));
        assert!(text.contains("find_split"));
        assert!(!text.contains("pull_sketch"));
        assert!(text.contains("p50"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn phase_percentiles_bracket_max() {
        let report = sample_report();
        let p = report.phase(Phase::BuildHistogram).unwrap();
        assert!(p.compute_p50_secs <= p.compute_p99_secs + 1e-12);
        assert!(p.compute_p99_secs <= p.compute_max_secs + 1e-12);
        let json = report.json();
        assert!(json.contains("compute_p50_secs"));
        assert!(json.contains("compute_p99_secs"));
    }

    #[test]
    fn faults_section_appears_only_when_present() {
        let clean = sample_report();
        assert!(!clean.json().contains("\"faults\""));
        assert!(!clean.canonical_json().contains("resumed_from_round"));

        let mut faulted = clean.clone();
        faulted.faults = Some(FaultSummary {
            plan_seed: 42,
            request_drops: 3,
            retries: 4,
            backoff_secs: 0.125,
            ..FaultSummary::default()
        });
        faulted.resumed_from_round = Some(2);
        for json in [faulted.json(), faulted.canonical_json()] {
            assert!(json.contains("\"faults\":{\"plan_seed\":42,"), "{json}");
            assert!(json.contains("\"request_drops\":3"));
            assert!(json.contains("\"backoff_secs\":0.125"));
            assert!(json.contains("\"resumed_from_round\":2"));
            assert!(json.ends_with('}'));
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(json.matches(open).count(), json.matches(close).count());
            }
        }
    }

    #[test]
    fn membership_section_appears_only_when_present() {
        let clean = sample_report();
        assert!(!clean.json().contains("\"membership\""));

        let mut elastic = clean.clone();
        elastic.membership = Some(MembershipSummary {
            joins: 1,
            leaves: 2,
            stripes_moved: 3,
            epoch: 3,
            speculative_backups: 4,
            backup_wins: 2,
            stale_rejects: 1,
            handoff_secs: 0.5,
            reshard_secs: 1.0,
            elastic_secs: 0.25,
            speculation_saved_secs: 0.125,
        });
        for json in [elastic.json(), elastic.canonical_json()] {
            assert!(json.contains("\"membership\":{\"joins\":1,"), "{json}");
            assert!(json.contains("\"stripes_moved\":3"));
            assert!(json.contains("\"backup_wins\":2"));
            assert!(json.contains("\"speculation_saved_secs\":0.125"));
            for (open, close) in [('{', '}'), ('[', ']')] {
                assert_eq!(json.matches(open).count(), json.matches(close).count());
            }
        }
        // The elastic section is simulated-clock data: it survives into the
        // canonical document identically.
        assert!(elastic.canonical_json().contains("\"elastic_secs\":0.25"));
    }

    #[test]
    fn percentiles_section_filters_wall_metrics_from_canonical() {
        use dimboost_simnet::MetricsRegistry;

        let base = sample_report();
        let mut registry = MetricsRegistry::new();
        registry.counter_add("sim/ps_requests", 7);
        registry.observe("sim/ps_service_secs", 0.002);
        registry.observe("wall/phase_secs/build_histogram", 0.1);
        let mut report = base.clone();
        report.percentiles = registry.export();

        let full = report.json();
        assert!(full.contains("\"name\":\"sim/ps_requests\""));
        assert!(full.contains("\"name\":\"wall/phase_secs/build_histogram\""));
        assert!(full.contains("\"kind\":\"histogram\""));

        let canonical = report.canonical_json();
        assert!(canonical.contains("\"name\":\"sim/ps_requests\""));
        assert!(canonical.contains("\"p95\":"));
        assert!(!canonical.contains("wall/"));

        // Differing wall metrics do not perturb the canonical form.
        let mut other = report.clone();
        let mut reg2 = MetricsRegistry::new();
        reg2.counter_add("sim/ps_requests", 7);
        reg2.observe("sim/ps_service_secs", 0.002);
        reg2.observe("wall/phase_secs/build_histogram", 99.0);
        other.percentiles = reg2.export();
        assert_eq!(other.canonical_json(), canonical);
        assert_ne!(other.json(), full);
    }
}
