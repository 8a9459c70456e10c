//! Low-precision gradient histograms (Section 6.1, Appendix A.1).
//!
//! Before a worker pushes a local histogram to the parameter server, each
//! 32-bit float `q` is encoded as a `d`-bit fixed-point integer relative to
//! the histogram's max-absolute value `c`. Rounding is *stochastic*: the
//! fractional part becomes a Bernoulli coin, so the decoded value is an
//! unbiased estimator of the original (`E[q''] = q`), which is what keeps
//! the expected split gain unchanged (Appendix A.1). With `d = 8` this
//! compresses the histogram 4× with no measurable accuracy loss in the
//! paper's experiments.

use rand::Rng;

use crate::HistogramLayout;

/// A quantized histogram row: the scale `c` plus one `d`-bit code per value.
/// Codes are materialized as `u16` in memory; [`QuantizedHistogram::wire_bytes`]
/// reports the honest on-the-wire size with codes packed at `d` bits each
/// (`⌈len·d/8⌉` bytes — e.g. two codes per byte for `d = 4`, one for
/// `d = 8`), plus the 8-byte scale+length header.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedHistogram {
    bits: u8,
    scale: f32,
    codes: Vec<u16>,
}

impl QuantizedHistogram {
    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no values are encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The bit width `d`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The max-abs scale `c` shipped alongside the codes.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Raw codes (zero-point offset encoding).
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Serialized size in bytes: header (scale + length) plus codes packed
    /// at `d` bits each.
    pub fn wire_bytes(&self) -> usize {
        8 + (self.codes.len() * self.bits as usize).div_ceil(8)
    }

    /// Decodes the full row back to floats.
    pub fn dequantize(&self) -> Vec<f32> {
        self.dequantize_range(0, self.codes.len())
    }

    /// Decodes `codes[start..end]` (the parameter server decodes only the
    /// shard slice it owns).
    pub fn dequantize_range(&self, start: usize, end: usize) -> Vec<f32> {
        let levels = levels(self.bits) as f32;
        let zero = levels as u16;
        self.codes[start..end]
            .iter()
            .map(|&code| (code as i32 - zero as i32) as f32 / levels * self.scale)
            .collect()
    }

    /// Decodes `codes[start..end]` and adds the values into `acc` (the
    /// server-side push UDF: "add received local histograms to the global
    /// one").
    pub fn add_range_into(&self, start: usize, end: usize, acc: &mut [f32]) {
        let levels_f = levels(self.bits) as f32;
        let zero = levels(self.bits) as i32;
        for (a, &code) in acc.iter_mut().zip(&self.codes[start..end]) {
            *a += (code as i32 - zero) as f32 / levels_f * self.scale;
        }
    }
}

/// Number of positive quantization levels for a `d`-bit signed code:
/// `2^(d−1) − 1`.
///
/// Public because the quantized histogram *accumulator*
/// (`dimboost-core::hist_build`) reuses the exact same level count so its
/// fixed-point grid matches the wire quantizer's (DESIGN.md §15).
pub fn levels(bits: u8) -> u32 {
    (1u32 << (bits - 1)) - 1
}

/// Decodes one feature-block slice of codes and adds it into `acc`.
///
/// This is the *single* dequantize-add kernel: both the dense quantized
/// push ([`QuantizedRow::add_features_into`]) and the sparse block frames
/// (`crate::sparse`) funnel through it, so the exact f32 operation sequence
/// — `(code − zero_pt) as f32 / levels · scale`, zero buckets taken verbatim
/// — is identical on both paths. That shared kernel is what makes the
/// sparse wire format bit-identical to the dense one.
///
/// `scales`/`zero_values` are block-relative (2 entries per feature of
/// `features`, G then H); `codes` covers exactly
/// `layout.elem_range(features)`.
pub(crate) fn add_quantized_slice_into(
    bits: u8,
    scales: &[f32],
    zero_values: &[f32],
    codes: &[u16],
    layout: &HistogramLayout,
    features: std::ops::Range<usize>,
    acc: &mut [f32],
) {
    let base = layout.elem_range(features.clone()).start;
    let levels_f = levels(bits) as f32;
    let zero_pt = levels(bits) as i32;
    for f in features.clone() {
        let nb = layout.num_buckets(f);
        let zb = layout.zero_bucket(f);
        for (block, block_start) in [layout.g_index(f, 0), layout.h_index(f, 0)]
            .into_iter()
            .enumerate()
        {
            let block_id = 2 * (f - features.start) + block;
            let scale = scales[block_id];
            for k in 0..nb {
                let idx = block_start + k;
                let v = if k == zb {
                    zero_values[block_id]
                } else {
                    (codes[idx - base] as i32 - zero_pt) as f32 / levels_f * scale
                };
                acc[idx - base] += v;
            }
        }
    }
}

/// Stochastic fixed-point rounding of one value against the scale `c`:
/// `v / c · levels` rounded down, plus one when `coin` falls below the
/// fractional part (so the decoded value is unbiased), offset by the zero
/// point and clamped to `[0, 2·zero_pt]`.
///
/// `floor` is taken by truncation, `t − (t > scaled)`, which is exact for
/// every caller because `|v| ≤ c` bounds `|scaled|` by `levels < 2^15`. It
/// avoids a libm `floorf` call per element, so a loop over this helper has
/// no calls and no branches (on x86-64 the division runs 4-wide). A NaN
/// `scaled` (non-finite input, release builds) truncates to 0 and never
/// wins the coin, exactly like `NaN.floor() as i32`.
#[inline]
fn stochastic_code(v: f32, c: f32, levels_f: f32, zero_pt: i32, coin: f32) -> u16 {
    let scaled = v / c * levels_f;
    let t = scaled as i32;
    let floor = t - i32::from(t as f32 > scaled);
    let phi = i32::from(coin < scaled - floor as f32);
    (floor + phi + zero_pt).clamp(0, 2 * zero_pt) as u16
}

/// Encodes a histogram row with `bits`-bit stochastic fixed-point
/// quantization. `bits` must be in `2..=16` and every value must be finite.
///
/// # Panics
/// Panics on a bit width outside `2..=16`. Debug builds also panic on
/// non-finite input: `f32::max` skips NaN when computing the scale and
/// `NaN as i32 == 0` would otherwise map a NaN gradient silently to the
/// zero-point code (decoding as `0.0`). Release builds keep that laundering
/// behavior (NaN → zero point, `±inf` saturates the scale) for speed — a
/// non-finite gradient is a caller bug, not a data condition.
pub fn quantize<R: Rng + ?Sized>(values: &[f32], bits: u8, rng: &mut R) -> QuantizedHistogram {
    assert!(
        (2..=16).contains(&bits),
        "bit width must be in 2..=16, got {bits}"
    );
    debug_assert!(
        values.iter().all(|v| v.is_finite()),
        "quantize: non-finite histogram value"
    );
    let scale = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let levels_f = levels(bits) as f32;
    let zero = levels(bits) as i32;
    let codes = if scale == 0.0 {
        vec![zero as u16; values.len()]
    } else {
        values
            .iter()
            .map(|&v| stochastic_code(v, scale, levels_f, zero, rng.random::<f32>()))
            .collect()
    };
    QuantizedHistogram { bits, scale, codes }
}

/// A low-precision histogram **row** with sparsity-aware scaling.
///
/// The paper quantizes "each item q in a histogram" against the histogram's
/// max-abs `c` (Section 6.1). On sparse data one bucket per feature — the
/// *zero bucket* — carries almost the entire gradient mass (Algorithm 2
/// deposits the total gradient sum there), so a single shared scale would
/// round every other bucket to noise. This row encoder therefore applies the
/// paper's scheme at the granularity Algorithm 1 actually defines histograms
/// (`G_mk` and `H_mk` are per-feature arrays): one scale per feature per
/// G/H block, computed **excluding** the zero bucket, whose value ships at
/// full precision. Per feature the overhead is two scales and two zero
/// values (16 bytes), preserving a ~`32/d`-ish compression ratio while
/// keeping the small buckets' signal.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRow {
    bits: u8,
    /// Per block (2 per feature: G then H): the quantization scale.
    scales: Vec<f32>,
    /// Per block: the zero bucket's exact value.
    zero_values: Vec<f32>,
    /// One code per row element; zero-bucket positions hold the zero point.
    codes: Vec<u16>,
}

impl QuantizedRow {
    /// Number of encoded row elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the row is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The bit width `d`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Largest per-block max-abs scale `c` in the row — the quantization
    /// step is `c / (2^(d-1) − 1)`, so this bounds the row's absolute
    /// rounding error. Reported in the per-round run telemetry.
    pub fn max_scale(&self) -> f32 {
        self.scales.iter().cloned().fold(0.0, f32::max)
    }

    /// Honest on-the-wire size: codes packed at `d` bits each (zero buckets
    /// omitted) plus per-block scale + exact zero value, plus a small
    /// header.
    pub fn wire_bytes(&self) -> usize {
        let zero_slots = self.zero_values.len(); // one omitted code per block
        let packed_codes = self.codes.len() - zero_slots.min(self.codes.len());
        8 + (packed_codes * self.bits as usize).div_ceil(8)
            + 4 * (self.scales.len() + self.zero_values.len())
    }

    /// Per-block scales (2 per feature: G then H).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-block exact zero-bucket values (2 per feature: G then H).
    pub fn zero_values(&self) -> &[f32] {
        &self.zero_values
    }

    /// Raw codes (zero-point offset encoding; zero-bucket slots hold the
    /// zero point and are never decoded).
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Decodes the elements covered by the feature range `features` of
    /// `layout` and adds them into `acc` (which covers exactly that range).
    pub fn add_features_into(
        &self,
        layout: &HistogramLayout,
        features: std::ops::Range<usize>,
        acc: &mut [f32],
    ) {
        let elems = layout.elem_range(features.clone());
        add_quantized_slice_into(
            self.bits,
            &self.scales[2 * features.start..2 * features.end],
            &self.zero_values[2 * features.start..2 * features.end],
            &self.codes[elems],
            layout,
            features,
            acc,
        );
    }

    /// Decodes the full row (test/diagnostic path).
    pub fn dequantize(&self, layout: &HistogramLayout) -> Vec<f32> {
        let mut out = vec![0.0f32; layout.row_len()];
        self.add_features_into(layout, 0..layout.num_features(), &mut out);
        out
    }
}

/// Encodes a histogram row with per-feature-block stochastic quantization
/// (see [`QuantizedRow`]). `row.len()` must equal `layout.row_len()` and
/// every value must be finite.
///
/// # Panics
/// Panics on a bad bit width or length mismatch. Debug builds also panic on
/// non-finite input (same NaN-laundering hazard as [`quantize`]: in release
/// a NaN bucket silently becomes the zero-point code and decodes as `0.0`).
pub fn quantize_row<R: Rng + ?Sized>(
    row: &[f32],
    layout: &HistogramLayout,
    bits: u8,
    rng: &mut R,
) -> QuantizedRow {
    assert!(
        (2..=16).contains(&bits),
        "bit width must be in 2..=16, got {bits}"
    );
    assert_eq!(row.len(), layout.row_len(), "row/layout length mismatch");
    debug_assert!(
        row.iter().all(|v| v.is_finite()),
        "quantize_row: non-finite histogram value"
    );
    let nf = layout.num_features();
    let levels_f = levels(bits) as f32;
    let zero_pt = levels(bits) as i32;

    let mut scales = Vec::with_capacity(2 * nf);
    let mut zero_values = Vec::with_capacity(2 * nf);
    let mut codes = vec![zero_pt as u16; row.len()];
    // One block's coins, reused across blocks.
    let mut coins: Vec<f32> = Vec::new();

    for f in 0..nf {
        let zb = layout.zero_bucket(f);
        for block in [layout.g_range(f), layout.h_range(f)] {
            // The buckets below and above the zero bucket; only they are
            // scaled and coded (the zero-bucket slot keeps the zero point).
            let (lo, rest) = row[block.clone()].split_at(zb);
            let hi = rest.get(1..).unwrap_or_default();
            let c = lo.iter().chain(hi).fold(0.0f32, |m, v| m.max(v.abs()));
            scales.push(c);
            zero_values.push(row[block.start + zb]);
            if c > 0.0 {
                // Pass 1: the block's coins, drawn in layout order.
                coins.clear();
                coins.extend((0..lo.len() + hi.len()).map(|_| rng.random::<f32>()));
                // Pass 2: branch-free rounding against those coins.
                let (lo_codes, rest_codes) = codes[block].split_at_mut(zb);
                let runs = [(lo, lo_codes), (hi, &mut rest_codes[1..])];
                let mut coin_runs = coins.as_slice();
                for (values, out) in runs {
                    let (run_coins, next) = coin_runs.split_at(values.len());
                    coin_runs = next;
                    for ((code, &v), &coin) in out.iter_mut().zip(values).zip(run_coins) {
                        *code = stochastic_code(v, c, levels_f, zero_pt, coin);
                    }
                }
            }
        }
    }
    QuantizedRow {
        bits,
        scales,
        zero_values,
        codes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The original one-pass scalar `quantize_row` loop (libm `floor`, one
    /// coin per non-zero bucket drawn inline). Kept as the oracle that pins
    /// the quantizer's output *and* its RNG stream: checkpoints and the
    /// benchmark replay depend on both.
    fn reference_quantize_row(
        row: &[f32],
        layout: &HistogramLayout,
        bits: u8,
        rng: &mut StdRng,
    ) -> QuantizedRow {
        let levels_f = levels(bits) as f32;
        let zero_pt = levels(bits) as i32;
        let mut scales = Vec::new();
        let mut zero_values = Vec::new();
        let mut codes = vec![zero_pt as u16; row.len()];
        for f in 0..layout.num_features() {
            let nb = layout.num_buckets(f);
            let zb = layout.zero_bucket(f);
            for block_start in [layout.g_index(f, 0), layout.h_index(f, 0)] {
                let mut c = 0.0f32;
                for k in (0..nb).filter(|&k| k != zb) {
                    c = c.max(row[block_start + k].abs());
                }
                scales.push(c);
                zero_values.push(row[block_start + zb]);
                if c > 0.0 {
                    for k in (0..nb).filter(|&k| k != zb) {
                        let idx = block_start + k;
                        let scaled = row[idx] / c * levels_f;
                        let floor = scaled.floor();
                        let phi = i32::from(rng.random::<f32>() < scaled - floor);
                        codes[idx] = (floor as i32 + phi + zero_pt).clamp(0, 2 * zero_pt) as u16;
                    }
                }
            }
        }
        QuantizedRow {
            bits,
            scales,
            zero_values,
            codes,
        }
    }

    /// The original scalar whole-row `quantize` loop, the oracle for
    /// [`quantize`].
    fn reference_quantize(values: &[f32], bits: u8, rng: &mut StdRng) -> QuantizedHistogram {
        let scale = values.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let levels_f = levels(bits) as f32;
        let zero = levels(bits) as i32;
        let codes = if scale == 0.0 {
            vec![zero as u16; values.len()]
        } else {
            values
                .iter()
                .map(|&v| {
                    let scaled = v / scale * levels_f;
                    let floor = scaled.floor();
                    let phi = i32::from(rng.random::<f32>() < scaled - floor);
                    (floor as i32 + phi + zero).clamp(0, 2 * zero) as u16
                })
                .collect()
        };
        QuantizedHistogram { bits, scale, codes }
    }

    /// A random layout plus a row over it. `zero_picks` places each
    /// feature's zero bucket first, in the middle, last, or anywhere;
    /// `kinds` plants `-0.0`, `+0.0`, exact `±c` values, zero-bucket mass
    /// far above the block scale, and whole all-zero blocks.
    fn stream_pin_input(
        buckets: &[u32],
        zero_picks: &[u8],
        values: &[f32],
        kinds: &[u8],
    ) -> (HistogramLayout, Vec<f32>) {
        let zero_buckets = buckets
            .iter()
            .zip(zero_picks)
            .enumerate()
            .map(|(f, (&b, &pick))| match pick {
                0 => 0,
                1 => b / 2,
                2 => b - 1,
                _ => (f as u32 * 7 + b) % b,
            })
            .collect();
        let layout = HistogramLayout::with_zero_buckets(buckets.to_vec(), zero_buckets);
        let mut row: Vec<f32> = (0..layout.row_len())
            .map(|i| match kinds[i % kinds.len()] {
                0 => -0.0,
                1 => 0.0,
                2 => 2.0,
                3 => -2.0,
                4 => values[i % values.len()] * 1e6,
                _ => values[i % values.len()],
            })
            .collect();
        for f in 0..layout.num_features() {
            if kinds[f % kinds.len()] == 1 {
                row[layout.h_range(f)].fill(0.0);
            }
        }
        (layout, row)
    }

    proptest! {
        /// The two-pass `quantize_row` and the helper-based `quantize`
        /// reproduce the original scalar loops bit for bit: same codes,
        /// scale bits, zero values, and the same generator state after.
        #[test]
        fn quantizers_match_the_scalar_oracle(
            buckets in vec(1u32..12, 1..9),
            zero_picks in vec(0u8..4, 9),
            values in vec(-2.0f32..2.0, 1..64),
            kinds in vec(0u8..12, 1..40),
            bits in 2u8..=16,
            seed in any::<u64>(),
        ) {
            let (layout, row) = stream_pin_input(&buckets, &zero_picks, &values, &kinds);
            let (mut rng, mut oracle_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

            let q = quantize_row(&row, &layout, bits, &mut rng);
            let want = reference_quantize_row(&row, &layout, bits, &mut oracle_rng);
            prop_assert_eq!(q.codes(), want.codes());
            let bits_of = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits_of(q.scales()), bits_of(want.scales()));
            prop_assert_eq!(bits_of(q.zero_values()), bits_of(want.zero_values()));
            prop_assert_eq!(rng.state(), oracle_rng.state());

            let h = quantize(&row, bits, &mut rng);
            let want = reference_quantize(&row, bits, &mut oracle_rng);
            prop_assert_eq!(h.codes(), want.codes());
            prop_assert_eq!(h.scale().to_bits(), want.scale().to_bits());
            prop_assert_eq!(rng.state(), oracle_rng.state());
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_one_level() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f32> = (0..1000).map(|i| ((i * 37) % 200) as f32 - 100.0).collect();
        for bits in [2u8, 4, 8, 16] {
            let q = quantize(&values, bits, &mut rng);
            let back = q.dequantize();
            let step = q.scale() / ((1u32 << (bits - 1)) - 1) as f32;
            for (v, b) in values.iter().zip(&back) {
                assert!(
                    (v - b).abs() <= step + 1e-4,
                    "bits={bits} v={v} back={b} step={step}"
                );
            }
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        // Statistical test, but not flaky: the shim RNG pins the generator
        // family, so seed 7 replays the same 20k trials on every platform.
        // Tolerance derivation: each dequantized sample deviates from its
        // value by at most one step with Var ≤ step²/4 (Popoviciu), so the
        // standard error of the mean is ≤ (step/2)/√trials; `5·step/√trials`
        // is a ≥10σ bound. A biased rounder (e.g. round-to-nearest) misses
        // it by orders of magnitude.
        let mut rng = StdRng::seed_from_u64(7);
        let values = vec![0.37f32, -0.61, 0.94, -0.08, 0.5];
        let trials = 20_000;
        let mut sums = vec![0.0f64; values.len()];
        for _ in 0..trials {
            let q = quantize(&values, 4, &mut rng);
            for (s, b) in sums.iter_mut().zip(q.dequantize()) {
                *s += b as f64;
            }
        }
        let step = 0.94 / 7.0; // scale / levels for bits=4
        for (v, s) in values.iter().zip(&sums) {
            let mean = s / trials as f64;
            // Standard error of the mean is ~step/2/sqrt(trials); allow 5 sigma.
            let tol = 5.0 * step / (trials as f64).sqrt();
            assert!(
                (mean - *v as f64).abs() < tol,
                "value {v}: mean {mean} (tol {tol})"
            );
        }
    }

    #[test]
    fn zero_row_stays_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let q = quantize(&[0.0; 16], 8, &mut rng);
        assert_eq!(q.scale(), 0.0);
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn wire_bytes_reflect_compression() {
        let mut rng = StdRng::seed_from_u64(3);
        let values = vec![1.0f32; 1000];
        let q8 = quantize(&values, 8, &mut rng);
        let q16 = quantize(&values, 16, &mut rng);
        assert_eq!(q8.wire_bytes(), 8 + 1000);
        assert_eq!(q16.wire_bytes(), 8 + 2000);
        // ~4x smaller than f32 for d=8, matching the paper's 32/d ratio.
        assert!(q8.wire_bytes() * 3 < values.len() * 4);
    }

    #[test]
    fn wire_bytes_pack_at_d_bits() {
        // Satellite regression for the doc/impl mismatch: the formula packs
        // at `d` bits, not whole bytes — bits = 4 fits two codes per byte.
        let mut rng = StdRng::seed_from_u64(11);
        let q4 = quantize(&vec![1.0f32; 1000], 4, &mut rng);
        assert_eq!(q4.wire_bytes(), 8 + 500);
        let q4_odd = quantize(&[1.0f32; 7], 4, &mut rng);
        assert_eq!(q4_odd.wire_bytes(), 8 + 4); // ⌈7·4/8⌉ = 4
        let q2 = quantize(&vec![1.0f32; 1000], 2, &mut rng);
        assert_eq!(q2.wire_bytes(), 8 + 250);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantize_rejects_nan_in_debug() {
        let mut rng = StdRng::seed_from_u64(0);
        quantize(&[1.0, f32::NAN, 2.0], 8, &mut rng);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantize_rejects_infinity_in_debug() {
        let mut rng = StdRng::seed_from_u64(0);
        quantize(&[1.0, f32::INFINITY], 8, &mut rng);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantize_row_rejects_nan_in_debug() {
        let layout = sparse_layout();
        let mut row = vec![0.0f32; layout.row_len()];
        row[3] = f32::NAN;
        let mut rng = StdRng::seed_from_u64(0);
        quantize_row(&row, &layout, 8, &mut rng);
    }

    #[test]
    fn add_range_into_matches_dequantize() {
        let mut rng = StdRng::seed_from_u64(9);
        let values: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 8.0).collect();
        let q = quantize(&values, 8, &mut rng);
        let mut acc = vec![1.0f32; 16];
        q.add_range_into(8, 24, &mut acc);
        let expected: Vec<f32> = q.dequantize_range(8, 24).iter().map(|v| v + 1.0).collect();
        assert_eq!(acc, expected);
    }

    #[test]
    fn extremes_map_to_extreme_codes() {
        let mut rng = StdRng::seed_from_u64(4);
        let q = quantize(&[-2.0, 0.0, 2.0], 8, &mut rng);
        let back = q.dequantize();
        assert!((back[0] + 2.0).abs() < 1e-5);
        assert!(back[1].abs() < 2.0 / 127.0 + 1e-6);
        assert!((back[2] - 2.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn rejects_bad_bits() {
        let mut rng = StdRng::seed_from_u64(0);
        quantize(&[1.0], 1, &mut rng);
    }

    // ---- QuantizedRow (layout-aware, sparsity-aware scaling) -------------

    fn sparse_layout() -> HistogramLayout {
        // Two features, 4 buckets each, zero bucket at index 1.
        HistogramLayout::with_zero_buckets(vec![4, 4], vec![1, 1])
    }

    /// A row shaped like real sparse-data histograms: the zero bucket holds
    /// ~1000x the mass of the other buckets.
    fn sparse_row(layout: &HistogramLayout) -> Vec<f32> {
        let mut row = vec![0.0f32; layout.row_len()];
        for f in 0..2 {
            for k in 0..4 {
                row[layout.g_index(f, k)] = if k == 1 {
                    -800.0
                } else {
                    0.3 * (k as f32 + 1.0)
                };
                row[layout.h_index(f, k)] = if k == 1 { 2000.0 } else { 0.5 + k as f32 * 0.2 };
            }
        }
        row
    }

    #[test]
    fn row_quantizer_preserves_small_buckets_next_to_huge_zero_bucket() {
        let layout = sparse_layout();
        let row = sparse_row(&layout);
        let mut rng = StdRng::seed_from_u64(2);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let back = q.dequantize(&layout);
        for f in 0..2 {
            // Zero buckets are exact.
            assert_eq!(back[layout.g_index(f, 1)], row[layout.g_index(f, 1)]);
            assert_eq!(back[layout.h_index(f, 1)], row[layout.h_index(f, 1)]);
            // Non-zero buckets keep ~1% relative accuracy (one step of the
            // per-block scale, which excludes the huge zero bucket).
            for k in [0usize, 2, 3] {
                for idx in [layout.g_index(f, k), layout.h_index(f, k)] {
                    let step = 1.2 / 127.0; // max non-zero magnitude / levels
                    assert!(
                        (back[idx] - row[idx]).abs() <= step + 1e-5,
                        "idx {idx}: {} vs {}",
                        back[idx],
                        row[idx]
                    );
                }
            }
        }
        // The naive whole-row quantizer would have destroyed those buckets:
        let naive = quantize(&row, 8, &mut rng);
        let naive_back = naive.dequantize();
        let idx = layout.g_index(0, 2);
        let naive_err = (naive_back[idx] - row[idx]).abs();
        let row_err = (back[idx] - row[idx]).abs();
        assert!(
            naive_err > 5.0 * row_err.max(1e-4),
            "naive {naive_err} vs row {row_err}"
        );
    }

    #[test]
    fn row_quantizer_partition_decode_matches_full_decode() {
        let layout = HistogramLayout::with_zero_buckets(vec![3, 5, 2, 4], vec![0, 2, 1, 3]);
        let row: Vec<f32> = (0..layout.row_len())
            .map(|i| ((i * 13 % 7) as f32 - 3.0) * if i % 5 == 0 { 100.0 } else { 0.5 })
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let full = q.dequantize(&layout);
        // Decode features [1..3) into a shard-local buffer.
        let elems = layout.elem_range(1..3);
        let mut acc = vec![0.0f32; elems.len()];
        q.add_features_into(&layout, 1..3, &mut acc);
        assert_eq!(acc, &full[elems]);
    }

    #[test]
    fn row_quantizer_wire_bytes_compress() {
        // 100 features x 20 buckets: f32 row = 100*40*4 = 16000 bytes;
        // quantized: 100*(38 codes + 16 bytes meta) + 8 = ~5.4KB (~3x).
        let layout = HistogramLayout::new(vec![20; 100]);
        let row = vec![1.0f32; layout.row_len()];
        let mut rng = StdRng::seed_from_u64(4);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        let f32_bytes = 4 * layout.row_len();
        assert!(
            q.wire_bytes() * 2 < f32_bytes,
            "{} vs {}",
            q.wire_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn row_quantizer_zero_row() {
        let layout = sparse_layout();
        let row = vec![0.0f32; layout.row_len()];
        let mut rng = StdRng::seed_from_u64(5);
        let q = quantize_row(&row, &layout, 8, &mut rng);
        assert!(q.dequantize(&layout).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_quantizer_unbiased() {
        // Deterministic for the same reason as `stochastic_rounding_is_
        // unbiased` (pinned RNG family + fixed seed). The per-block scale
        // here is ≤ 1 after the max-abs values (100, 5) are carved into
        // their own blocks, so step = scale/7 ≤ 1/7 for bits = 4 and
        // `5/7/√trials` is again a ≥10σ standard-error bound.
        let layout = HistogramLayout::with_zero_buckets(vec![3], vec![0]);
        let row = vec![100.0, 0.37, -0.61, 5.0, 0.73, 0.29];
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 20_000;
        let mut sums = vec![0.0f64; row.len()];
        for _ in 0..trials {
            let q = quantize_row(&row, &layout, 4, &mut rng);
            for (s, v) in sums.iter_mut().zip(q.dequantize(&layout)) {
                *s += v as f64;
            }
        }
        for (v, s) in row.iter().zip(&sums) {
            let mean = s / trials as f64;
            let tol = 5.0 / 7.0 / (trials as f64).sqrt() + 1e-9;
            assert!((mean - *v as f64).abs() < tol, "value {v}: mean {mean}");
        }
    }
}
