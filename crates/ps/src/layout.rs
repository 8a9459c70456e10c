use std::ops::Range;

/// The flat layout of one `GradHist` row (Figure 6).
///
/// A histogram row concatenates, feature by feature, the first-order bucket
/// sums `G[0..k_f]` followed by the second-order sums `H[0..k_f]`, where
/// `k_f` is feature `f`'s bucket count (bucket counts vary per feature
/// because duplicate split candidates collapse). The layout maps features to
/// element offsets so the parameter server can shard rows by feature range
/// and scan shards without any side tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramLayout {
    /// `offsets[f]` is the element offset of feature `f`'s G block;
    /// `offsets[num_features]` is the total row length.
    offsets: Vec<usize>,
    /// Buckets per feature.
    buckets: Vec<u32>,
    /// Index of each feature's zero bucket (the bucket containing the value
    /// `0.0`). On sparse data this bucket carries almost all gradient mass,
    /// so the low-precision compressor ships it at full precision.
    zero_buckets: Vec<u32>,
}

impl HistogramLayout {
    /// Builds the layout from per-feature bucket counts, with all zero
    /// buckets at index 0 (correct for non-negative feature values).
    pub fn new(buckets: Vec<u32>) -> Self {
        let zero_buckets = vec![0; buckets.len()];
        Self::with_zero_buckets(buckets, zero_buckets)
    }

    /// Builds the layout with explicit zero-bucket indices per feature.
    ///
    /// # Panics
    /// Panics if the arrays disagree in length or a zero bucket is out of
    /// range for its feature.
    pub fn with_zero_buckets(buckets: Vec<u32>, zero_buckets: Vec<u32>) -> Self {
        assert_eq!(buckets.len(), zero_buckets.len(), "length mismatch");
        for (f, (&b, &z)) in buckets.iter().zip(&zero_buckets).enumerate() {
            assert!(z < b.max(1), "feature {f}: zero bucket {z} out of {b}");
        }
        let mut offsets = Vec::with_capacity(buckets.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &b in &buckets {
            acc += 2 * b as usize;
            offsets.push(acc);
        }
        Self {
            offsets,
            buckets,
            zero_buckets,
        }
    }

    /// The zero-bucket index of feature `f`.
    #[inline]
    pub fn zero_bucket(&self, f: usize) -> usize {
        self.zero_buckets[f] as usize
    }

    /// Number of features covered by this layout.
    pub fn num_features(&self) -> usize {
        self.buckets.len()
    }

    /// Total element count of one histogram row.
    pub fn row_len(&self) -> usize {
        *self
            .offsets
            .last()
            .expect("offsets always has a final entry")
    }

    /// Bucket count of feature `f`.
    pub fn num_buckets(&self, f: usize) -> usize {
        self.buckets[f] as usize
    }

    /// Element range of feature `f`'s G block.
    pub fn g_range(&self, f: usize) -> Range<usize> {
        let start = self.offsets[f];
        start..start + self.buckets[f] as usize
    }

    /// Element range of feature `f`'s H block.
    pub fn h_range(&self, f: usize) -> Range<usize> {
        let start = self.offsets[f] + self.buckets[f] as usize;
        start..start + self.buckets[f] as usize
    }

    /// Element offset of `G[bucket]` for feature `f`.
    #[inline]
    pub fn g_index(&self, f: usize, bucket: usize) -> usize {
        debug_assert!(bucket < self.buckets[f] as usize);
        self.offsets[f] + bucket
    }

    /// Element offset of `H[bucket]` for feature `f`.
    #[inline]
    pub fn h_index(&self, f: usize, bucket: usize) -> usize {
        debug_assert!(bucket < self.buckets[f] as usize);
        self.offsets[f] + self.buckets[f] as usize + bucket
    }

    /// Element range spanned by the contiguous feature range `features`
    /// (used to slice a row for one PS partition).
    pub fn elem_range(&self, features: Range<usize>) -> Range<usize> {
        self.offsets[features.start]..self.offsets[features.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_and_ranges() {
        let l = HistogramLayout::new(vec![3, 1, 4]);
        assert_eq!(l.num_features(), 3);
        assert_eq!(l.row_len(), 2 * (3 + 1 + 4));
        assert_eq!(l.g_range(0), 0..3);
        assert_eq!(l.h_range(0), 3..6);
        assert_eq!(l.g_range(1), 6..7);
        assert_eq!(l.h_range(1), 7..8);
        assert_eq!(l.g_range(2), 8..12);
        assert_eq!(l.h_range(2), 12..16);
    }

    #[test]
    fn point_indices() {
        let l = HistogramLayout::new(vec![2, 2]);
        assert_eq!(l.g_index(0, 1), 1);
        assert_eq!(l.h_index(0, 1), 3);
        assert_eq!(l.g_index(1, 0), 4);
        assert_eq!(l.h_index(1, 1), 7);
    }

    #[test]
    fn elem_range_spans_features() {
        let l = HistogramLayout::new(vec![3, 1, 4]);
        assert_eq!(l.elem_range(0..3), 0..16);
        assert_eq!(l.elem_range(1..2), 6..8);
        assert_eq!(l.elem_range(2..2), 8..8);
    }

    #[test]
    fn empty_layout() {
        let l = HistogramLayout::new(vec![]);
        assert_eq!(l.row_len(), 0);
        assert_eq!(l.num_features(), 0);
    }
}
