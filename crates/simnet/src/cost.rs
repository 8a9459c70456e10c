use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Simulated time in seconds. A newtype so simulated durations cannot be
/// confused with wall-clock measurements in the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Seconds as a plain `f64`.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The larger of two durations (synchronization point of parallel work).
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

/// The communication cost model of Section 3 (after Thakur et al.):
/// sending or receiving a package of `n` bytes costs `α + n·β`, and merging
/// `n` bytes of histogram costs `n·γ`.
///
/// ```
/// use dimboost_simnet::CostModel;
///
/// let m = CostModel::GIGABIT_LAN;
/// let h = 32 << 20; // a 32 MiB histogram
/// // Table 1's headline: for large messages the PS exchange beats the
/// // binomial-tree AllReduce and all-to-one reduce.
/// assert!(m.t_ps_exchange(h, 32) < m.t_allreduce_binomial(h, 32));
/// assert!(m.t_allreduce_binomial(h, 32) < m.t_reduce_to_one(h, 32));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Latency per package, in seconds.
    pub alpha: f64,
    /// Transfer time per byte, in seconds.
    pub beta: f64,
    /// Merge (computation) time per byte, in seconds.
    pub gamma: f64,
}

impl CostModel {
    /// A 1 Gb Ethernet profile matching the paper's clusters: 1 ms package
    /// latency, 8 ns/byte transfer (1 Gbit/s), 1 ns/byte merge.
    pub const GIGABIT_LAN: CostModel = CostModel {
        alpha: 1e-3,
        beta: 8e-9,
        gamma: 1e-9,
    };

    /// A 10 Gb datacenter profile (for sensitivity sweeps).
    pub const TEN_GIGABIT_LAN: CostModel = CostModel {
        alpha: 1e-4,
        beta: 8e-10,
        gamma: 1e-9,
    };

    /// A model that charges nothing — disables communication accounting.
    pub const FREE: CostModel = CostModel {
        alpha: 0.0,
        beta: 0.0,
        gamma: 0.0,
    };

    /// Time to move one package of `bytes` over a link.
    pub fn send(&self, bytes: usize) -> SimTime {
        SimTime(self.alpha + bytes as f64 * self.beta)
    }

    /// Time to merge `bytes` of received histogram into a local buffer.
    pub fn merge(&self, bytes: usize) -> SimTime {
        SimTime(bytes as f64 * self.gamma)
    }

    // ---- Table 1 closed forms -------------------------------------------
    //
    // `h` is the histogram size in bytes, `w` the number of workers. These
    // are the exact expressions of Table 1; the collective implementations
    // charge these times while executing the real data path.

    /// MLlib (MapReduce all-to-one): `h·β·w + α + h·γ`.
    pub fn t_reduce_to_one(&self, h: usize, w: usize) -> SimTime {
        SimTime(h as f64 * self.beta * w as f64 + self.alpha + h as f64 * self.gamma)
    }

    /// XGBoost (binomial-tree AllReduce): `(h·β + α + h·γ)·⌈log₂ w⌉`.
    pub fn t_allreduce_binomial(&self, h: usize, w: usize) -> SimTime {
        let steps = (w.max(1) as f64).log2().ceil();
        SimTime((h as f64 * self.beta + self.alpha + h as f64 * self.gamma) * steps)
    }

    /// LightGBM (recursive-halving ReduceScatter):
    /// `(w−1)/w·h·β + (α + h·γ)·⌈log₂ w⌉`, doubled when `w` is not a power
    /// of two (Section 3, "Remarks").
    pub fn t_reduce_scatter(&self, h: usize, w: usize) -> SimTime {
        let w_f = w.max(1) as f64;
        let steps = w_f.log2().ceil();
        let base =
            (w_f - 1.0) / w_f * h as f64 * self.beta + (self.alpha + h as f64 * self.gamma) * steps;
        if w.is_power_of_two() {
            SimTime(base)
        } else {
            SimTime(2.0 * base)
        }
    }

    /// DimBoost (parameter-server batch exchange):
    /// `(w−1)/w·h·β + (w−1)·α + h·γ`.
    pub fn t_ps_exchange(&self, h: usize, w: usize) -> SimTime {
        let w_f = w.max(1) as f64;
        SimTime(
            (w_f - 1.0) / w_f * h as f64 * self.beta
                + (w_f - 1.0) * self.alpha
                + h as f64 * self.gamma,
        )
    }

    /// Parameter-server batch exchange with `p` servers that may be fewer
    /// than the `w` workers (Table 4 sweeps `p`). Each server's inbound link
    /// serializes `w·h/p` bytes and merges them; servers work in parallel,
    /// so bandwidth and merge scale with `w/p`. With `p = w` this reduces to
    /// [`CostModel::t_ps_exchange`] (up to the co-location term `(w−1)/w`).
    pub fn t_ps_exchange_p(&self, h: usize, w: usize, p: usize) -> SimTime {
        let w_f = w.max(1) as f64;
        let p_f = p.max(1) as f64;
        if p >= w {
            return self.t_ps_exchange(h, w);
        }
        SimTime(
            w_f * h as f64 * self.beta / p_f
                + (w_f - 1.0) * self.alpha
                + w_f * h as f64 * self.gamma / p_f,
        )
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::GIGABIT_LAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: usize = 32 << 20; // 32 MiB histogram
    const M: CostModel = CostModel::GIGABIT_LAN;

    #[test]
    fn send_and_merge_match_model() {
        let t = M.send(1_000_000);
        assert!((t.seconds() - (1e-3 + 1_000_000.0 * 8e-9)).abs() < 1e-12);
        let m = M.merge(1_000_000);
        assert!((m.seconds() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn table1_large_message_ordering() {
        // With a large histogram and many workers, Table 1 predicts
        // DimBoost ≈ LightGBM (power of two) < XGBoost < MLlib.
        let w = 32;
        let mllib = M.t_reduce_to_one(H, w).seconds();
        let xgb = M.t_allreduce_binomial(H, w).seconds();
        let lgbm = M.t_reduce_scatter(H, w).seconds();
        let dim = M.t_ps_exchange(H, w).seconds();
        assert!(dim <= lgbm, "dim={dim} lgbm={lgbm}");
        assert!(lgbm < xgb, "lgbm={lgbm} xgb={xgb}");
        assert!(xgb < mllib, "xgb={xgb} mllib={mllib}");
        // "Comparable time" (Section 3 Remarks) holds in the
        // bandwidth-dominated regime: with merge cost out of the picture the
        // two differ only by latency terms.
        let nm = CostModel { gamma: 0.0, ..M };
        let big = 256 << 20;
        let lgbm_bw = nm.t_reduce_scatter(big, w).seconds();
        let dim_bw = nm.t_ps_exchange(big, w).seconds();
        assert!(
            (dim_bw - lgbm_bw).abs() / lgbm_bw < 0.05,
            "dim={dim_bw} lgbm={lgbm_bw}"
        );
    }

    #[test]
    fn reduce_scatter_doubles_off_power_of_two() {
        let t32 = M.t_reduce_scatter(H, 32).seconds();
        let t33 = M.t_reduce_scatter(H, 33).seconds();
        // w=33 pays the ~2x penalty (the formula also gains a step).
        assert!(t33 > 1.9 * t32, "t33={t33} t32={t32}");
        // DimBoost at w=33 stays close to w=32.
        let d32 = M.t_ps_exchange(H, 32).seconds();
        let d33 = M.t_ps_exchange(H, 33).seconds();
        assert!((d33 - d32) / d32 < 0.05);
    }

    #[test]
    fn small_message_latency_dominates_ps() {
        // For tiny messages the (w-1)·α term makes the PS exchange the
        // slowest — the regime where binomial AllReduce wins, matching the
        // paper's observation that existing implementations are fine for
        // small messages.
        let h = 256;
        let w = 50;
        assert!(M.t_ps_exchange(h, w).seconds() > M.t_allreduce_binomial(h, w).seconds());
    }

    #[test]
    fn more_servers_is_faster() {
        // Table 4's shape: the exchange speeds up as p grows toward w.
        let w = 50;
        let t5 = M.t_ps_exchange_p(H, w, 5).seconds();
        let t20 = M.t_ps_exchange_p(H, w, 20).seconds();
        let t50 = M.t_ps_exchange_p(H, w, 50).seconds();
        assert!(t5 > t20 && t20 > t50, "t5={t5} t20={t20} t50={t50}");
        // p >= w degenerates to the co-located formula.
        assert_eq!(M.t_ps_exchange_p(H, w, 50), M.t_ps_exchange(H, 50));
        assert_eq!(M.t_ps_exchange_p(H, w, 99), M.t_ps_exchange(H, 50));
    }

    #[test]
    fn sim_time_arithmetic() {
        let a = SimTime(1.0);
        let b = SimTime(2.5);
        assert_eq!((a + b).seconds(), 3.5);
        assert_eq!(a.max(b), b);
        let total: SimTime = [a, b, SimTime(0.5)].into_iter().sum();
        assert_eq!(total.seconds(), 4.0);
        let mut c = a;
        c += b;
        assert_eq!(c.seconds(), 3.5);
    }
}
