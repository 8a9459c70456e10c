//! Server-side split finding — the pull user-defined function of the
//! two-phase split (Section 6.3).
//!
//! Instead of shipping a whole histogram shard to the requesting worker, the
//! server runs Algorithm 1's split scan (lines 10–17) over its shard and
//! returns a single [`NodeSplit`]: "one integer and two floating-point
//! numbers" in the paper's words (here a few more for the child statistics,
//! still O(1) per partition). The worker's second phase is a max over the
//! `p` per-partition winners, which is exact because the set of local optima
//! contains the global optimum.

use crate::HistogramLayout;

/// Regularization and stopping parameters of the split objective
/// (Section 2.2): `λ` is the leaf-weight L2 penalty, `γ` the per-leaf
/// complexity cost subtracted from every gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitParams {
    /// L2 regularization on leaf weights (λ).
    pub lambda: f64,
    /// L1 regularization on leaf weights (α): gradient sums are
    /// soft-thresholded by α before entering the objective and the leaf
    /// weight, shrinking small-signal leaves to exactly zero (XGBoost's
    /// `reg_alpha`; the paper's objective is the α = 0 case).
    pub alpha: f64,
    /// Complexity cost per leaf (γ), subtracted from the raw gain.
    pub gamma: f64,
    /// Minimum sum of Hessians required on *each* side of a split
    /// (XGBoost-style `min_child_weight`).
    pub min_child_weight: f64,
    /// **Extension (not in the paper):** learn a default direction for zero
    /// (absent) feature values — XGBoost's sparsity-aware split finding.
    /// For every candidate threshold the scan evaluates the zero bucket's
    /// mass on both sides and keeps the better placement. Off, zeros simply
    /// follow the threshold comparison (`0 <= threshold`), which is what
    /// Algorithm 1 does.
    pub learn_default_direction: bool,
}

impl Default for SplitParams {
    fn default() -> Self {
        Self {
            lambda: 1.0,
            alpha: 0.0,
            gamma: 0.0,
            min_child_weight: 1e-3,
            learn_default_direction: false,
        }
    }
}

impl SplitParams {
    /// Soft-thresholds a gradient sum by α: `max(0, |G| − α)·sign(G)`.
    #[inline]
    fn shrink(&self, g: f64) -> f64 {
        if self.alpha == 0.0 {
            g
        } else if g > self.alpha {
            g - self.alpha
        } else if g < -self.alpha {
            g + self.alpha
        } else {
            0.0
        }
    }

    /// The optimal leaf objective `T_α(G)² / (H + λ)` for a node with
    /// gradient sums `(g, h)` (`T_α` is the α soft-threshold; identity when
    /// α = 0, the paper's setting).
    pub fn leaf_objective(&self, g: f64, h: f64) -> f64 {
        let g = self.shrink(g);
        g * g / (h + self.lambda)
    }

    /// The optimal leaf weight `−T_α(G) / (H + λ)`.
    pub fn leaf_weight(&self, g: f64, h: f64) -> f64 {
        -self.shrink(g) / (h + self.lambda)
    }

    /// Split gain: `½·(G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)) − γ`.
    pub fn gain(&self, gl: f64, hl: f64, gr: f64, hr: f64) -> f64 {
        0.5 * (self.leaf_objective(gl, hl) + self.leaf_objective(gr, hr)
            - self.leaf_objective(gl + gr, hl + hr))
            - self.gamma
    }
}

/// A candidate split produced by the server-side scan. `feature` indexes the
/// histogram layout (the *sampled* feature space); the worker maps it back
/// to a global feature id and a threshold value using its candidate tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSplit {
    /// Feature index within the layout.
    pub feature: u32,
    /// Split after this bucket: the left child receives buckets `0..=bucket`.
    pub bucket: u32,
    /// Objective gain of the split.
    pub gain: f64,
    /// Sum of first-order gradients in the left child (including the zero
    /// bucket's mass when `default_left`).
    pub left_g: f64,
    /// Sum of second-order gradients in the left child.
    pub left_h: f64,
    /// Where zero (absent) values go. Without default-direction learning
    /// this is simply `0 <= threshold` — the natural placement.
    pub default_left: bool,
}

impl NodeSplit {
    /// Picks the better of two optional candidates (worker-side phase two).
    /// Ties break toward the lower feature index for determinism.
    pub fn better(a: Option<NodeSplit>, b: Option<NodeSplit>) -> Option<NodeSplit> {
        match (a, b) {
            (None, x) => x,
            (x, None) => x,
            (Some(x), Some(y)) => {
                if (y.gain, std::cmp::Reverse((y.feature, y.bucket)))
                    > (x.gain, std::cmp::Reverse((x.feature, x.bucket)))
                {
                    Some(y)
                } else {
                    Some(x)
                }
            }
        }
    }
}

/// Result of a `pull_split` query: the best split found (if any split beats
/// the γ-regularized gain threshold) plus the node's total gradient sums,
/// which the caller needs for leaf weights even when no split survives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PullSplitResult {
    /// Best split across the queried shard(s), `None` if nothing beats zero
    /// gain.
    pub best: Option<NodeSplit>,
    /// Total first-order gradient sum of the node.
    pub total_g: f64,
    /// Total second-order gradient sum of the node.
    pub total_h: f64,
}

/// The final, published decision for one tree node (the `SpFeat`/`SpVal`/
/// `SpGain` parameters of Figure 6, bundled). Pushed by the worker the task
/// scheduler assigned to the node; pulled by everyone in SPLIT_TREE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitDecision {
    /// Tree-node id this decision belongs to.
    pub node: u32,
    /// The split, or `None` when the node becomes a leaf.
    pub split: Option<FinalSplit>,
    /// Node total first-order gradient sum (for the leaf weight).
    pub total_g: f64,
    /// Node total second-order gradient sum.
    pub total_h: f64,
}

/// A fully-resolved split: global feature id and real-valued threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinalSplit {
    /// Global feature index.
    pub feature: u32,
    /// Instances with nonzero `value <= threshold` go left; zeros follow
    /// `default_left`.
    pub threshold: f32,
    /// Objective gain.
    pub gain: f64,
    /// Left-child gradient sums (the right child is derived by subtraction).
    pub left_g: f64,
    /// Left-child Hessian sum.
    pub left_h: f64,
    /// Where zero (absent) values go.
    pub default_left: bool,
}

impl FinalSplit {
    /// Routing predicate: does an instance with `value` on this feature go
    /// to the left child?
    #[inline]
    pub fn goes_left(&self, value: f32) -> bool {
        if value == 0.0 {
            self.default_left
        } else {
            value <= self.threshold
        }
    }
}

/// Scans a histogram shard for the best split (Algorithm 1, lines 10–17).
///
/// * `shard` — the elements of one histogram row covering the contiguous
///   feature range `features`, i.e. `row[layout.elem_range(features)]`.
/// * `totals` — the node's total `(G, H)`. Pass `None` to derive them from
///   the first feature in the shard (every instance lands in exactly one
///   bucket per feature, so any feature's bucket sums add up to the node
///   totals — no extra communication needed).
///
/// Splits at the last bucket are skipped (an empty right child is not a
/// split), and candidates violating `min_child_weight` on either side are
/// rejected. Returns the totals alongside the best split.
pub fn best_split_in_range(
    shard: &[f32],
    layout: &HistogramLayout,
    features: std::ops::Range<usize>,
    totals: Option<(f64, f64)>,
    params: &SplitParams,
) -> PullSplitResult {
    let base = layout.elem_range(features.clone()).start;
    debug_assert_eq!(shard.len(), layout.elem_range(features.clone()).len());

    let (total_g, total_h) = totals.unwrap_or_else(|| {
        let mut g = 0.0f64;
        let mut h = 0.0f64;
        if let Some(f) = features.clone().next() {
            for k in 0..layout.num_buckets(f) {
                g += shard[layout.g_index(f, k) - base] as f64;
                h += shard[layout.h_index(f, k) - base] as f64;
            }
        }
        (g, h)
    });

    let parent_obj = params.leaf_objective(total_g, total_h);
    let mut best: Option<NodeSplit> = None;

    for f in features {
        let nb = layout.num_buckets(f);
        let g_off = layout.g_index(f, 0) - base;
        let h_off = layout.h_index(f, 0) - base;
        let zb = layout.zero_bucket(f);
        let (zero_g, zero_h) = (shard[g_off + zb] as f64, shard[h_off + zb] as f64);
        // Left sums *excluding* the zero bucket, so both placements of the
        // zero mass can be evaluated per candidate.
        let mut gl_excl = 0.0f64;
        let mut hl_excl = 0.0f64;
        // Last bucket excluded: everything on the left is not a split.
        for k in 0..nb.saturating_sub(1) {
            if k != zb {
                gl_excl += shard[g_off + k] as f64;
                hl_excl += shard[h_off + k] as f64;
            }
            // The natural placement follows the threshold comparison
            // (`0 <= splits[k]` exactly when the zero bucket is in the
            // prefix); evaluate it first so ties prefer it.
            let natural_left = zb <= k;
            let placements: &[bool] = if params.learn_default_direction {
                if natural_left {
                    &[true, false]
                } else {
                    &[false, true]
                }
            } else if natural_left {
                &[true]
            } else {
                &[false]
            };
            for &default_left in placements {
                let (gl, hl) = if default_left {
                    (gl_excl + zero_g, hl_excl + zero_h)
                } else {
                    (gl_excl, hl_excl)
                };
                let gr = total_g - gl;
                let hr = total_h - hl;
                if hl < params.min_child_weight || hr < params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (params.leaf_objective(gl, hl) + params.leaf_objective(gr, hr) - parent_obj)
                    - params.gamma;
                if gain > 0.0 {
                    let cand = NodeSplit {
                        feature: f as u32,
                        bucket: k as u32,
                        gain,
                        left_g: gl,
                        left_h: hl,
                        default_left,
                    };
                    best = NodeSplit::better(best, Some(cand));
                }
            }
        }
    }

    PullSplitResult {
        best,
        total_g,
        total_h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a row for a layout with two features of 3 buckets each.
    fn layout2x3() -> HistogramLayout {
        HistogramLayout::new(vec![3, 3])
    }

    #[test]
    fn finds_obvious_split() {
        let layout = layout2x3();
        // Feature 0: G = [-10, 10, 0], H = [5, 5, 1] -> splitting after
        // bucket 0 separates negative from positive gradients.
        // Feature 1: flat, no gain.
        let row = vec![
            -10.0, 10.0, 0.0, 5.0, 5.0, 1.0, // feature 0
            0.0, 0.0, 0.0, 11.0, 0.0, 0.0, // feature 1 (all in bucket 0)
        ];
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = best_split_in_range(&row, &layout, 0..2, None, &params);
        assert!((res.total_g - 0.0).abs() < 1e-9);
        assert!((res.total_h - 11.0).abs() < 1e-9);
        let best = res.best.expect("should find a split");
        assert_eq!(best.feature, 0);
        assert_eq!(best.bucket, 0);
        assert!((best.left_g + 10.0).abs() < 1e-9);
        assert!((best.left_h - 5.0).abs() < 1e-9);
        // gain = 0.5*(100/6 + 100/7 - 0/12)
        let expected = 0.5 * (100.0 / 6.0 + 100.0 / 7.0);
        assert!((best.gain - expected).abs() < 1e-9, "gain={}", best.gain);
    }

    #[test]
    fn no_split_on_flat_histogram() {
        let layout = layout2x3();
        let row = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let res = best_split_in_range(&row, &layout, 0..2, None, &SplitParams::default());
        assert!(res.best.is_none());
    }

    #[test]
    fn gamma_suppresses_weak_splits() {
        let layout = HistogramLayout::new(vec![2]);
        let row = vec![-1.0, 1.0, 5.0, 5.0];
        let weak = SplitParams {
            lambda: 1.0,
            gamma: 10.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = best_split_in_range(&row, &layout, 0..1, None, &weak);
        assert!(res.best.is_none());
        let strong = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        assert!(best_split_in_range(&row, &layout, 0..1, None, &strong)
            .best
            .is_some());
    }

    #[test]
    fn min_child_weight_rejects_thin_children() {
        let layout = HistogramLayout::new(vec![2]);
        // Left child would have H = 0.1.
        let row = vec![-5.0, 5.0, 0.1, 10.0];
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            ..SplitParams::default()
        };
        let res = best_split_in_range(&row, &layout, 0..1, None, &params);
        assert!(res.best.is_none());
    }

    #[test]
    fn totals_derived_from_first_feature_match_supplied() {
        let layout = layout2x3();
        let row = vec![
            -3.0, 1.0, 2.0, 2.0, 2.0, 2.0, // feature 0: G sums to 0, H to 6
            -3.0, 3.0, 0.0, 3.0, 3.0, 0.0, // feature 1: same totals
        ];
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let derived = best_split_in_range(&row, &layout, 0..2, None, &params);
        let supplied = best_split_in_range(&row, &layout, 0..2, Some((0.0, 6.0)), &params);
        assert_eq!(derived, supplied);
    }

    #[test]
    fn sharded_scan_equals_full_scan() {
        // Two-phase correctness: max over per-shard winners == full winner.
        let layout = HistogramLayout::new(vec![3, 2, 4, 3]);
        let row: Vec<f32> = (0..layout.row_len())
            .map(|i| ((i * 29 % 11) as f32 - 5.0) * if i % 2 == 0 { 1.0 } else { 0.3 })
            .map(|v| v.abs().max(0.1) * if (v as i32) % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        // Make H entries positive: overwrite H blocks with |values| + 0.5.
        let mut row = row;
        for f in 0..4 {
            for k in 0..layout.num_buckets(f) {
                let idx = layout.h_index(f, k);
                row[idx] = row[idx].abs() + 0.5;
            }
        }
        let params = SplitParams {
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let full = best_split_in_range(&row, &layout, 0..4, None, &params);

        // Shard into feature ranges [0..2) and [2..4).
        let totals = Some((full.total_g, full.total_h));
        let s1 = best_split_in_range(
            &row[layout.elem_range(0..2)],
            &layout,
            0..2,
            totals,
            &params,
        );
        let s2 = best_split_in_range(
            &row[layout.elem_range(2..4)],
            &layout,
            2..4,
            totals,
            &params,
        );
        let combined = NodeSplit::better(s1.best, s2.best);
        assert_eq!(combined, full.best);
    }

    #[test]
    fn default_direction_finds_otherwise_unreachable_split() {
        // One feature, boundaries [0, 0.75, 1.5, 3] -> 5 buckets with the
        // zero bucket at index 0. Instance layout (g, h = 1 each):
        //   v = 0.0  -> bucket 0, g = -1   (class 1)
        //   v = 0.5  -> bucket 1, g = +1   (class 0)
        //   v = 1.0  -> bucket 2, g = +1   (class 0)
        //   v = 2.0  -> bucket 3, g = -1   (class 1)
        // No threshold separates {0, 2} from {0.5, 1}: zeros are glued to
        // the left end. Sending zeros right at threshold 1.5 does.
        let layout = HistogramLayout::with_zero_buckets(vec![5], vec![0]);
        let row = vec![
            -1.0, 1.0, 1.0, -1.0, 0.0, // G
            1.0, 1.0, 1.0, 1.0, 0.0, // H
        ];
        let natural = SplitParams {
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = best_split_in_range(&row, &layout, 0..1, None, &natural);
        let best_natural = res.best.expect("natural scan finds some split");
        assert!(
            (best_natural.gain - 0.375).abs() < 1e-9,
            "natural gain {}",
            best_natural.gain
        );

        let learned = SplitParams {
            min_child_weight: 0.0,
            learn_default_direction: true,
            ..SplitParams::default()
        };
        let res = best_split_in_range(&row, &layout, 0..1, None, &learned);
        let best = res.best.expect("learned scan finds the strong split");
        assert_eq!(best.bucket, 2, "split after bucket 2 (threshold 1.5)");
        assert!(!best.default_left, "zeros must go right");
        // Left = buckets 1,2 (zeros excluded): GL = 2, HL = 2;
        // gain = ½(4/3 + 4/3 − 0) = 4/3.
        assert!((best.gain - 4.0 / 3.0).abs() < 1e-9, "gain {}", best.gain);
        assert!((best.left_g - 2.0).abs() < 1e-9);
        assert!((best.left_h - 2.0).abs() < 1e-9);
    }

    #[test]
    fn default_direction_off_keeps_natural_placement() {
        // With the flag off, zeros go left exactly when the zero bucket is
        // within the split prefix — the pre-flag behaviour.
        let layout = HistogramLayout::with_zero_buckets(vec![4, 3], vec![1, 0]);
        let mut row: Vec<f32> = (0..layout.row_len())
            .map(|i| ((i * 31 % 13) as f32 - 6.0) * 0.5)
            .collect();
        for f in 0..2 {
            for k in 0..layout.num_buckets(f) {
                let idx = layout.h_index(f, k);
                row[idx] = row[idx].abs() + 0.1;
            }
        }
        let params = SplitParams {
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let res = best_split_in_range(&row, &layout, 0..2, None, &params);
        let s = res.best.expect("some split exists on this histogram");
        let zb = layout.zero_bucket(s.feature as usize) as u32;
        assert_eq!(s.default_left, zb <= s.bucket);
    }

    #[test]
    fn goes_left_routing() {
        let split = FinalSplit {
            feature: 0,
            threshold: 1.5,
            gain: 1.0,
            left_g: 0.0,
            left_h: 1.0,
            default_left: false,
        };
        assert!(split.goes_left(1.0));
        assert!(split.goes_left(-5.0));
        assert!(!split.goes_left(2.0));
        assert!(!split.goes_left(0.0), "zeros follow default_left = false");
        let natural = FinalSplit {
            default_left: true,
            ..split
        };
        assert!(natural.goes_left(0.0));
    }

    #[test]
    fn better_breaks_ties_deterministically() {
        let a = NodeSplit {
            feature: 1,
            bucket: 0,
            gain: 5.0,
            left_g: 0.0,
            left_h: 1.0,
            default_left: true,
        };
        let b = NodeSplit {
            feature: 2,
            bucket: 0,
            gain: 5.0,
            left_g: 0.0,
            left_h: 1.0,
            default_left: true,
        };
        assert_eq!(NodeSplit::better(Some(a), Some(b)), Some(a));
        assert_eq!(NodeSplit::better(Some(b), Some(a)), Some(a));
        assert_eq!(NodeSplit::better(None, Some(b)), Some(b));
        assert_eq!(NodeSplit::better(Some(a), None), Some(a));
        assert_eq!(NodeSplit::better(None, None), None);
    }

    #[test]
    fn l1_regularization_soft_thresholds() {
        let p = SplitParams {
            alpha: 2.0,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        // |G| <= alpha: weight and objective collapse to zero.
        assert_eq!(p.leaf_weight(1.5, 4.0), 0.0);
        assert_eq!(p.leaf_objective(-2.0, 4.0), 0.0);
        // |G| > alpha: shrunk toward zero by alpha.
        assert!((p.leaf_weight(5.0, 4.0) - (-(5.0 - 2.0) / 5.0)).abs() < 1e-12);
        assert!((p.leaf_weight(-5.0, 4.0) - ((5.0 - 2.0) / 5.0)).abs() < 1e-12);
        // alpha = 0 is the paper's objective.
        let plain = SplitParams {
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        assert_eq!(plain.leaf_weight(5.0, 4.0), -1.0);
    }

    #[test]
    fn l1_suppresses_weak_splits() {
        let layout = HistogramLayout::new(vec![3]);
        // Weak signal: G buckets sum to 0 with small per-side sums.
        let row = vec![-1.0, 1.0, 0.0, 3.0, 3.0, 1.0];
        let plain = SplitParams {
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        assert!(best_split_in_range(&row, &layout, 0..1, None, &plain)
            .best
            .is_some());
        let l1 = SplitParams {
            alpha: 1.5,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        assert!(best_split_in_range(&row, &layout, 0..1, None, &l1)
            .best
            .is_none());
    }

    #[test]
    fn gain_formula_matches_paper() {
        let p = SplitParams {
            lambda: 2.0,
            gamma: 1.5,
            min_child_weight: 0.0,
            ..SplitParams::default()
        };
        let (gl, hl, gr, hr) = (3.0, 4.0, -2.0, 5.0);
        let expected = 0.5 * (9.0 / 6.0 + 4.0 / 7.0 - (1.0f64).powi(2) / 11.0) - 1.5;
        assert!((p.gain(gl, hl, gr, hr) - expected).abs() < 1e-12);
        assert!((p.leaf_weight(3.0, 4.0) + 0.5).abs() < 1e-12);
    }
}
