//! Recycled histogram payloads: the slab that ends per-label allocation.
//!
//! The routing search creates and retires one histogram per label; with a
//! value-returning distribution algebra every one of those is a fresh
//! `Vec<f64>`. This module closes the loop:
//!
//! * [`HistogramPool`] — a free list of mass vectors with retained
//!   capacity. [`HistogramPool::checkout`] hands out a cleared
//!   [`HistogramBuf`] (reusing a recycled vector when one is available,
//!   minting a fresh one otherwise); [`HistogramPool::checkin`] /
//!   [`HistogramPool::recycle`] take buffers back. [`PoolStats`] counts
//!   mints vs. reuses, so a serving layer can *prove* steady-state
//!   operation allocates nothing.
//! * [`HistogramBuf`] — a mutable histogram-shaped buffer (grid scalars
//!   plus an owned mass vector) that the `_into` operators write into.
//!   Masses held by a buf are **raw**: they carry exactly one pending
//!   normalization, which [`HistogramBuf::into_histogram`] applies — the
//!   same single `Histogram::new` normalization the value-returning
//!   operators perform, keeping pooled and allocating pipelines
//!   bit-identical.
//!
//! Retention is bounded two ways: the pool keeps at most a configured
//! number of free buffers, and a buffer whose capacity grew past the
//! retention bound is shrunk before it is parked — the fix for the old
//! thread-local convolution scratch, which kept its high-water-mark
//! allocation alive forever on every thread that ever routed.
//!
//! Neither capped convolution checks a temporary out of the pool (the
//! equal-width one runs the fused accumulate-and-cap kernel, the
//! mixed-width one the closed-form kernel — see `crate::kernels`), so the
//! pool's only customers on the hot path are the output buffers
//! themselves. That matters for retention, not just speed: buffers are
//! interchangeable, so while the mixed-width step still drew its
//! ≈424-slot projection and ≈443-slot product grid from the same free
//! list, every recycled 20-slot label payload ratcheted up to grid
//! capacity ([`HistogramPool::retained_slots`] is the diagnostic that
//! shows it).

use crate::error::DistError;
use crate::histogram::{redistribute_into, Histogram, HistogramView};

/// Default cap on free buffers a pool retains (beyond it, checked-in
/// buffers are dropped).
const DEFAULT_MAX_FREE: usize = 1024;

/// Default per-buffer capacity bound (in `f64` slots) above which a
/// checked-in buffer is shrunk before being parked. 4096 doubles = 32 KiB,
/// far above any routing label (`max_bins` defaults to 20) but small
/// enough that a one-off giant convolution cannot pin memory forever.
const DEFAULT_MAX_RETAINED_CAPACITY: usize = 4096;

/// Monotone counters describing a pool's behaviour.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Checkouts served by a fresh heap allocation (the free list was
    /// empty). Zero mints over a workload = allocation-free steady state.
    pub mints: u64,
    /// Checkouts served from the free list.
    pub reuses: u64,
    /// Buffers returned to the pool (parked or dropped).
    pub checkins: u64,
    /// Checked-in buffers dropped because the free list was full.
    pub dropped: u64,
    /// Checked-in buffers whose capacity was shrunk to the retention
    /// bound before parking.
    pub shrinks: u64,
}

/// A recycling slab of histogram mass vectors.
///
/// Not thread-safe by design: each search worker owns one pool inside its
/// scratch context, so checkout/checkin are plain field updates with no
/// synchronization on the hot path.
#[derive(Debug)]
pub struct HistogramPool {
    free: Vec<Vec<f64>>,
    max_free: usize,
    max_retained_capacity: usize,
    stats: PoolStats,
}

impl Default for HistogramPool {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramPool {
    /// A pool with the default retention bounds.
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_FREE, DEFAULT_MAX_RETAINED_CAPACITY)
    }

    /// A pool retaining at most `max_free` buffers, each shrunk to at
    /// most `max_retained_capacity` `f64` slots when checked in.
    pub fn with_limits(max_free: usize, max_retained_capacity: usize) -> Self {
        HistogramPool {
            free: Vec::new(),
            max_free,
            max_retained_capacity: max_retained_capacity.max(1),
            stats: PoolStats::default(),
        }
    }

    /// Checks out a cleared buffer, reusing recycled capacity when
    /// available.
    pub fn checkout(&mut self) -> HistogramBuf {
        HistogramBuf {
            start: 0.0,
            width: 1.0,
            probs: self.checkout_vec(),
        }
    }

    /// Checks out the underlying cleared mass vector (for callers that
    /// manage the grid themselves, e.g. [`Histogram::pooled_clone`]).
    pub fn checkout_vec(&mut self) -> Vec<f64> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                self.stats.reuses += 1;
                v
            }
            None => {
                self.stats.mints += 1;
                Vec::new()
            }
        }
    }

    /// Returns a mass vector to the pool. Oversized capacity is shrunk to
    /// the retention bound; when the free list is full the buffer is
    /// dropped instead.
    pub fn checkin(&mut self, mut v: Vec<f64>) {
        self.stats.checkins += 1;
        if self.free.len() >= self.max_free {
            self.stats.dropped += 1;
            return;
        }
        if v.capacity() > self.max_retained_capacity {
            v.truncate(0);
            v.shrink_to(self.max_retained_capacity);
            self.stats.shrinks += 1;
        }
        v.clear();
        self.free.push(v);
    }

    /// Returns a buffer to the pool (see [`HistogramPool::checkin`]).
    pub fn checkin_buf(&mut self, buf: HistogramBuf) {
        self.checkin(buf.probs);
    }

    /// Recycles a finished histogram's mass vector into the pool.
    pub fn recycle(&mut self, h: Histogram) {
        self.checkin(h.into_probs());
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently parked on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Total capacity, in `f64` slots, of the parked buffers — the memory
    /// an idle pool holds on to (diagnostic: a pool whose buffers also
    /// serve as grid-sized temporaries retains grid-sized capacity behind
    /// every payload).
    pub fn retained_slots(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }
}

/// A mutable histogram-shaped buffer: the write target of the `_into`
/// operators ([`crate::convolve_into`], [`crate::convolve_bounded_into`],
/// [`HistogramBuf::cap_bins`], …).
///
/// The masses a buf holds are **raw**: they are exactly what the old
/// value-returning pipeline held immediately before its final
/// `Histogram::new`, i.e. they carry one pending normalization.
/// [`HistogramBuf::into_histogram`] applies it (and the full validation)
/// once, which is what keeps pooled results bit-for-bit identical to the
/// value-returning twins. Multi-stage pipelines that used to materialize
/// an intermediate `Histogram` (combine **then** re-bin) get that
/// intermediate normalization from [`HistogramBuf::cap_bins`], which
/// applies it before re-binning.
#[derive(Debug)]
pub struct HistogramBuf {
    pub(crate) start: f64,
    pub(crate) width: f64,
    pub(crate) probs: Vec<f64>,
}

impl Default for HistogramBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramBuf {
    /// An empty, pool-independent buffer (capacity grows on first use).
    pub fn new() -> Self {
        HistogramBuf {
            start: 0.0,
            width: 1.0,
            probs: Vec::new(),
        }
    }

    /// Left edge of the support.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Bucket width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Number of buckets currently held.
    pub fn num_bins(&self) -> usize {
        self.probs.len()
    }

    /// Capacity of the underlying mass vector (diagnostic).
    pub fn capacity(&self) -> usize {
        self.probs.capacity()
    }

    /// Sets the grid scalars (the masses are left untouched).
    pub fn set_grid(&mut self, start: f64, width: f64) {
        self.start = start;
        self.width = width;
    }

    /// Clears the masses and exposes the vector for an operator to fill.
    pub fn reset_masses(&mut self) -> &mut Vec<f64> {
        self.probs.clear();
        &mut self.probs
    }

    /// The raw masses (pending their final normalization).
    pub fn masses(&self) -> &[f64] {
        &self.probs
    }

    /// A borrowed view over the buffer. Meaningful when the masses are
    /// normalized, as when the buf was filled with already-normalized
    /// masses such as a staged copy of a label histogram.
    pub fn as_view(&self) -> HistogramView<'_> {
        HistogramView::from_raw(self.start, self.width, &self.probs)
    }

    /// Copies `src` (translated by `offset`) into the buffer — the
    /// routing engine's expansion staging step, replacing the per-label
    /// `shift` clone. Bit-identical to `src.shift(offset)`: the masses
    /// are copied verbatim and stay normalized.
    pub fn stage(&mut self, src: &Histogram, offset: f64) {
        self.probs.clear();
        self.probs.extend_from_slice(src.probs());
        // Mirror the engine's historic branch: only touch the anchor when
        // there is a non-zero offset, so `start` stays bit-identical to
        // the pre-pooling clone path.
        self.start = if offset != 0.0 {
            src.start() + offset
        } else {
            src.start()
        };
        self.width = src.width();
    }

    /// Applies the `Histogram::new` normalization in place (sum, then
    /// divide unless the sum is exactly one). Multi-stage pipelines call
    /// this exactly where the value-returning pipeline materialized an
    /// intermediate `Histogram`, keeping every float operation in the
    /// same order.
    fn normalize(&mut self) {
        normalize_masses(&mut self.probs);
    }

    /// Re-bins the buffer onto `max_bins` equal buckets over the same
    /// support when it currently holds more — the in-place twin of the
    /// search's `with_bins(max_bins)` cap. `scratch` provides the
    /// redistribution temporary. A no-op when the buffer already fits.
    ///
    /// Normalization bookkeeping: the cap applies the pending
    /// normalization first (the value pipeline re-binned a materialized,
    /// normalized `Histogram`) and leaves the redistributed masses raw
    /// again, pending the final normalization of
    /// [`HistogramBuf::into_histogram`] — exactly the two
    /// `Histogram::new` calls of the `combine` + `with_bins` sequence.
    ///
    /// # Errors
    /// [`DistError::ZeroBins`] when `max_bins == 0`.
    pub fn cap_bins(
        &mut self,
        max_bins: usize,
        scratch: &mut HistogramPool,
    ) -> Result<(), DistError> {
        if max_bins == 0 {
            return Err(DistError::ZeroBins);
        }
        if self.probs.len() <= max_bins {
            return Ok(());
        }
        self.normalize();
        let span = (self.start + self.width * self.probs.len() as f64) - self.start;
        let new_width = span / max_bins as f64;
        let mut tmp = scratch.checkout_vec();
        redistribute_into(
            self.start,
            self.width,
            &self.probs,
            self.start,
            new_width,
            max_bins,
            &mut tmp,
        );
        std::mem::swap(&mut self.probs, &mut tmp);
        scratch.checkin(tmp);
        self.width = new_width;
        Ok(())
    }

    /// Promotes the buffer into a [`Histogram`], applying the single
    /// pending normalization (and the full construction validation). The
    /// mass vector moves — no copy, no fresh allocation.
    ///
    /// # Errors
    /// The [`Histogram::new`] conditions, for degenerate contents.
    pub fn into_histogram(self) -> Result<Histogram, DistError> {
        Histogram::new(self.start, self.width, self.probs)
    }
}

/// The `Histogram::new` normalization step, extracted so in-place
/// pipelines reproduce it bit-for-bit: sum in slice order, then divide
/// every mass unless the total is exactly `1.0`.
pub(crate) fn normalize_masses(probs: &mut [f64]) {
    let mut total = 0.0;
    for &p in probs.iter() {
        total += p;
    }
    if total != 1.0 {
        for p in probs.iter_mut() {
            *p /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_mints_then_reuses() {
        let mut pool = HistogramPool::new();
        let a = pool.checkout();
        assert_eq!(pool.stats().mints, 1);
        pool.checkin_buf(a);
        let _b = pool.checkout();
        let s = pool.stats();
        assert_eq!((s.mints, s.reuses, s.checkins), (1, 1, 1));
    }

    #[test]
    fn capacity_survives_the_round_trip() {
        let mut pool = HistogramPool::new();
        let mut buf = pool.checkout();
        buf.reset_masses().extend_from_slice(&[0.25; 64]);
        let cap = buf.capacity();
        assert!(cap >= 64);
        pool.checkin_buf(buf);
        let again = pool.checkout();
        assert_eq!(again.capacity(), cap, "recycled capacity was lost");
        assert_eq!(again.num_bins(), 0, "recycled buffers come back cleared");
    }

    #[test]
    fn oversized_buffers_are_shrunk_and_overflow_is_dropped() {
        let mut pool = HistogramPool::with_limits(1, 8);
        let mut big = pool.checkout();
        big.reset_masses().extend_from_slice(&[1.0; 100]);
        pool.checkin_buf(big);
        assert_eq!(pool.stats().shrinks, 1);
        assert_eq!(pool.free_buffers(), 1);
        let reused = pool.checkout();
        assert!(reused.capacity() <= 8, "shrink bound ignored");
        // The free list is capped: a second simultaneous buffer is
        // dropped on checkin once the list is full.
        let extra = pool.checkout();
        let filler = pool.checkout();
        pool.checkin_buf(extra);
        pool.checkin_buf(filler);
        assert_eq!(pool.free_buffers(), 1);
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn recycle_reuses_a_histograms_buffer() {
        let mut pool = HistogramPool::new();
        let h = Histogram::new(0.0, 1.0, vec![0.5, 0.5]).unwrap();
        let cap = h.probs().len();
        pool.recycle(h);
        let v = pool.checkout_vec();
        assert!(v.capacity() >= cap);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn pooled_clone_is_bit_identical() {
        let mut pool = HistogramPool::new();
        let h = Histogram::new(3.5, 0.25, vec![2.0, 1.0, 5.0]).unwrap();
        let c = h.pooled_clone(&mut pool);
        assert_eq!(c, h);
        for (a, b) in c.probs().iter().zip(h.probs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn stage_matches_shift() {
        let h = Histogram::new(10.0, 2.0, vec![0.25; 4]).unwrap();
        let mut buf = HistogramBuf::new();
        for offset in [0.0, 7.5, -3.0] {
            buf.stage(&h, offset);
            let shifted = h.shift(offset);
            assert_eq!(buf.as_view().start().to_bits(), shifted.start().to_bits());
            assert_eq!(buf.as_view().probs(), shifted.probs());
            assert_eq!(
                buf.as_view().cdf(12.0 + offset).to_bits(),
                shifted.cdf(12.0 + offset).to_bits()
            );
        }
    }

    #[test]
    fn into_histogram_applies_one_normalization() {
        let mut buf = HistogramBuf::new();
        buf.set_grid(5.0, 2.0);
        buf.reset_masses().extend_from_slice(&[2.0, 6.0]);
        let h = buf.into_histogram().unwrap();
        assert_eq!(h, Histogram::new(5.0, 2.0, vec![2.0, 6.0]).unwrap());
    }

    #[test]
    fn cap_bins_matches_materialize_then_with_bins() {
        // The contract: a buf holds *raw* masses (one normalization
        // pending), so the cap must reproduce the value pipeline
        // `Histogram::new(raw)` -> `with_bins(cap)` bit for bit.
        let raw = vec![0.1, 0.2, 0.3, 0.25, 0.1, 0.05];
        let mut pool = HistogramPool::new();
        for cap in [1usize, 2, 3, 4] {
            let mut buf = pool.checkout();
            buf.set_grid(5.0, 1.0);
            buf.reset_masses().extend_from_slice(&raw);
            buf.cap_bins(cap, &mut pool).unwrap();
            let pooled = buf.into_histogram().unwrap();
            let direct = Histogram::new(5.0, 1.0, raw.clone())
                .unwrap()
                .with_bins(cap)
                .unwrap();
            assert_eq!(pooled, direct, "cap {cap}");
            for (a, b) in pooled.probs().iter().zip(direct.probs()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cap {cap}");
            }
            pool.recycle(pooled);
        }
        assert_eq!(
            pool.checkout().cap_bins(0, &mut HistogramPool::new()),
            Err(DistError::ZeroBins)
        );
    }
}
