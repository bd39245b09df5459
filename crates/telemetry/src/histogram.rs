//! Log-linear latency histograms with exact mergeability.
//!
//! The bucket layout is HDR-style log-linear over `u64` values (by
//! convention nanoseconds): values below `SUB` (32) get one bucket each
//! (exact), and every power-of-two octave above that is split into 32
//! linear sub-buckets, so the relative bucket width never exceeds
//! 1/32 ≈ 3.1 %. With 64-bit values that is `32 + 59·32 = 1920` buckets
//! ([`BUCKETS`]) — 15 KiB of atomics per histogram, small enough to keep
//! one per latency stage.
//!
//! The crucial property is *exact mergeability*: two [`HistogramSnapshot`]s
//! over the same layout merge by bucket-wise addition, which is associative
//! and commutative (pinned by tests), and subtract the same way. A client
//! can therefore snapshot a live server before and after its run, diff the
//! two, and compute percentiles over exactly its own interval — no
//! streaming quantile sketch, no approximation beyond bucket width.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-bucket count per octave.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two octave; also the threshold below
/// which every value gets its own bucket.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`: 32 exact buckets, then 32
/// sub-buckets for each of the 59 octaves with most-significant bit 5..=63.
pub const BUCKETS: usize = (SUB as usize) + (64 - SUB_BITS as usize) * (SUB as usize);

/// The bucket index recording value `v`.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = msb - SUB_BITS;
        let sub = (v >> octave) - SUB;
        SUB as usize + (octave as usize) * SUB as usize + sub as usize
    }
}

/// The smallest value landing in bucket `i`.
pub fn bucket_low(i: usize) -> u64 {
    if i < SUB as usize {
        i as u64
    } else {
        let rel = i - SUB as usize;
        let octave = (rel / SUB as usize) as u32;
        let sub = (rel % SUB as usize) as u64;
        (SUB + sub) << octave
    }
}

/// The largest value landing in bucket `i`.
pub fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(i + 1) - 1
    }
}

/// The number of distinct values bucket `i` covers.
pub fn bucket_width(i: usize) -> u64 {
    bucket_high(i).wrapping_sub(bucket_low(i)).wrapping_add(1)
}

/// A concurrent log-linear histogram. `record` is a single relaxed
/// fetch-add on the value's bucket plus count/sum/min/max updates; `snapshot`
/// reads every bucket without stopping writers (the snapshot is internally
/// consistent up to in-flight records, which land in the next snapshot).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the full state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a histogram's buckets, mergeable and subtractable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, [`BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Rebuilds a snapshot from a sparse `(bucket, count)` list, as carried
    /// by the JSON exposition. min/max are reconstructed at bucket
    /// resolution (the low edge of the lowest and the high edge of the
    /// highest non-empty bucket, clamped by nothing else).
    pub fn from_sparse(pairs: &[(usize, u64)], count: u64, sum: u64) -> Self {
        let mut s = HistogramSnapshot::empty();
        for &(i, c) in pairs {
            if i < BUCKETS && c > 0 {
                s.buckets[i] += c;
                s.min = s.min.min(bucket_low(i));
                s.max = s.max.max(bucket_high(i));
            }
        }
        s.count = count;
        s.sum = sum;
        s
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-wise addition. Associative and commutative: merging per-shard
    /// or per-interval snapshots in any order and grouping yields the same
    /// result (pinned by tests).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = self.clone();
        for (a, b) in out.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        out.count += other.count;
        out.sum += other.sum;
        out.min = out.min.min(other.min);
        out.max = out.max.max(other.max);
        out
    }

    /// Bucket-wise subtraction: the interval delta between a later snapshot
    /// (`self`) and an earlier one of the same histogram. min/max cannot be
    /// un-merged exactly, so they are recomputed at bucket resolution from
    /// the surviving buckets.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::empty();
        for (i, ((a, b), o)) in
            self.buckets.iter().zip(&earlier.buckets).zip(out.buckets.iter_mut()).enumerate()
        {
            *o = a.saturating_sub(*b);
            if *o > 0 {
                out.min = out.min.min(bucket_low(i));
                out.max = out.max.max(bucket_high(i));
            }
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) at bucket resolution: the high edge
    /// of the bucket holding the rank-`ceil(q·count)` value, clamped to the
    /// observed `[min, max]`. Exact for values below 32 (one value per
    /// bucket); within one bucket width (≤ 3.1 % relative) above. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The non-empty buckets as `(index, count)` pairs — the sparse form the
    /// JSON exposition carries.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        // Every bucket's high edge is one below the next bucket's low edge,
        // and every value maps into the bucket whose range contains it.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_high(i) + 1, bucket_low(i + 1), "gap after bucket {i}");
        }
        assert_eq!(bucket_low(0), 0);
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        for i in (0..BUCKETS).step_by(7) {
            assert_eq!(bucket_index(bucket_low(i)), i);
            assert_eq!(bucket_index(bucket_high(i)), i);
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_width(v as usize), 1);
        }
    }

    #[test]
    fn relative_width_bounded() {
        for i in SUB as usize..BUCKETS {
            let w = bucket_width(i) as f64;
            let lo = bucket_low(i) as f64;
            assert!(w / lo <= 1.0 / SUB as f64 + 1e-12, "bucket {i} too wide");
        }
    }
}
