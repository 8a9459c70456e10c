//! The benchmark's workloads: a data shape, a training configuration, and
//! the output-quality floor each run must clear.

use dimboost_core::{GbdtConfig, Optimizations};
use dimboost_ps::PsConfig;
use dimboost_simnet::CostModel;

/// Simulated workers (row shards) per training run.
pub const WORKERS: usize = 4;
/// Simulated parameter servers per training run.
pub const SERVERS: usize = 2;
/// Host threads every kernel and the scoring engine may use.
pub const THREADS: usize = 2;
/// Share of the generated rows held out for scoring.
pub const TEST_FRACTION: f64 = 0.1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generated rows (train + test).
    pub rows: usize,
    /// Dimensionality `M`.
    pub features: usize,
    /// Average nonzeros the generator draws per row (duplicates collapse,
    /// so the parsed average is a little lower).
    pub nnz: usize,
    /// Boosting rounds.
    pub trees: usize,
    /// Maximum tree depth.
    pub depth: usize,
    /// Trainer flags.
    pub opts: Optimizations,
    /// Held-out AUC every trained model must exceed.
    pub auc_floor: f64,
}

const PAPER: Optimizations = Optimizations::ALL;

/// The paper's defaults on the ROADMAP re-anchor shape: the dense 8-bit
/// push and the f32 sparsity-aware batched kernel share host time.
const WIDE_PAPER: Workload = Workload {
    name: "wide-paper",
    rows: 80_000,
    features: 2_000,
    nnz: 40,
    trees: 5,
    depth: 6,
    opts: PAPER,
    auc_floor: 0.65,
};

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    WIDE_PAPER,
    // The low-dimensional regime (Fig. 14): rows dominate, so the quantized
    // fused kernel, node index and scoring do the work; PS payloads are tiny.
    Workload {
        name: "tall-ext",
        rows: 200_000,
        features: 50,
        nnz: 30,
        trees: 10,
        depth: 8,
        opts: Optimizations {
            pre_binning: true,
            hist_subtraction: true,
            fused_layer: true,
            quantized_hist: true,
            ..PAPER
        },
        auc_floor: 0.7,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Training configuration; `seed` seeds the trainer's own streams.
    pub fn config(&self, seed: u64) -> GbdtConfig {
        GbdtConfig {
            num_trees: self.trees,
            max_depth: self.depth,
            num_threads: THREADS,
            seed,
            opts: self.opts,
            ..GbdtConfig::default()
        }
    }

    /// Parameter-server deployment: `SERVERS` servers on gigabit LAN.
    pub fn ps_config(&self) -> PsConfig {
        PsConfig {
            num_servers: SERVERS,
            num_partitions: 0,
            cost_model: CostModel::GIGABIT_LAN,
        }
    }
}
