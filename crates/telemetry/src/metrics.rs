//! The metrics registry and its instruments.
//!
//! Instruments are null-object style: a disabled [`Counter`] / [`Gauge`] /
//! [`Histogram`] holds `None` and records nothing, so hot paths can call
//! them unconditionally. Enabled instruments share `Arc`ed atomic cells
//! with the registry, so cloning an instrument or the handle is free and
//! all clones feed the same series.
//!
//! [`LocalCounter`], [`LocalGauge`] and [`LocalHistogram`] are their
//! frame-local twins for per-pixel, per-column and per-group updates:
//! plain fields owned by one datapath, published to the shared series
//! once per frame, so threads sharing one registry do not contend on
//! its atomics.

use crate::report::{HistogramSnapshot, Report};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A counter that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when no-op).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value (or maximum) gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A gauge that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Set the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` is larger (high-water-mark semantics).
    #[inline]
    pub fn observe_max(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Add `d` to the current value (level semantics, e.g. inflight jobs).
    #[inline]
    pub fn add(&self, d: u64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Subtract `d` from the current value, saturating at zero.
    #[inline]
    pub fn sub(&self, d: u64) {
        if let Some(g) = &self.0 {
            let mut cur = g.load(Ordering::Relaxed);
            loop {
                match g.compare_exchange_weak(
                    cur,
                    cur.saturating_sub(d),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Current value (0 when no-op).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCell {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound plus a final overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A fixed-bucket histogram: each bucket's bound is an inclusive upper
/// limit; values above the last bound land in an implicit overflow bucket.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// A histogram that records nothing.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            let idx = h.bounds.partition_point(|&b| b < v);
            h.counts[idx].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Number of observations (0 when no-op).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Largest observation (0 when no-op).
    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.max.load(Ordering::Relaxed))
    }

    /// Snapshot buckets and aggregates (empty snapshot when no-op).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |h| h.snapshot())
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

/// A concurrent registry of named metrics.
///
/// Instrument creation takes a lock (call it at setup time, not per pixel);
/// the returned instruments record lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Some(c.clone())),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Gauge(g) => Gauge(Some(g.clone())),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name` with the given inclusive upper
    /// bucket bounds. If the histogram already exists it is returned as-is
    /// (its original bounds win).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind, or if
    /// `bounds` is not strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCell::new(bounds))));
        match slot {
            Slot::Histogram(h) => Histogram(Some(h.clone())),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Snapshot every metric into a [`Report`].
    pub fn snapshot(&self) -> Report {
        let slots = self.slots.lock().expect("registry lock");
        let mut report = Report::default();
        for (name, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    report
                        .counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Slot::Gauge(g) => {
                    report
                        .gauges
                        .insert(name.clone(), g.load(Ordering::Relaxed));
                }
                Slot::Histogram(h) => {
                    report.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        report
    }
}

/// A frame-local counter: increments land in a plain field owned by one
/// thread and reach the shared [`Counter`] in one atomic add per
/// [`flush`](Self::flush) (and on drop). A clone starts empty, so nothing
/// is counted twice.
#[derive(Debug, Default)]
pub struct LocalCounter {
    shared: Counter,
    pending: u64,
}

impl LocalCounter {
    /// Accumulate locally on behalf of `shared`.
    pub fn new(shared: Counter) -> Self {
        Self { shared, pending: 0 }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.pending += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending += n;
    }

    /// Publish the accumulated increments to the shared counter.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.shared.add(std::mem::take(&mut self.pending));
        }
    }
}

impl Clone for LocalCounter {
    fn clone(&self) -> Self {
        Self::new(self.shared.clone())
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A frame-local gauge. [`set`](Self::set) keeps the last value and
/// [`observe_max`](Self::observe_max) the largest; [`flush`](Self::flush)
/// (and drop) applies them to the shared [`Gauge`] with the same
/// semantics. One gauge takes one kind of update. A clone starts empty.
#[derive(Debug, Default)]
pub struct LocalGauge {
    shared: Gauge,
    last: Option<u64>,
    max: Option<u64>,
}

impl LocalGauge {
    /// Accumulate locally on behalf of `shared`.
    pub fn new(shared: Gauge) -> Self {
        Self {
            shared,
            last: None,
            max: None,
        }
    }

    /// Record `v` as the current value.
    #[inline]
    pub fn set(&mut self, v: u64) {
        self.last = Some(v);
    }

    /// Record `v` as a high-water candidate.
    #[inline]
    pub fn observe_max(&mut self, v: u64) {
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Publish the pending value and maximum to the shared gauge.
    pub fn flush(&mut self) {
        if let Some(v) = self.last.take() {
            self.shared.set(v);
        }
        if let Some(m) = self.max.take() {
            self.shared.observe_max(m);
        }
    }
}

impl Clone for LocalGauge {
    fn clone(&self) -> Self {
        Self::new(self.shared.clone())
    }
}

impl Drop for LocalGauge {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A frame-local histogram: observations bucket into plain fields and
/// merge into the shared [`Histogram`] on [`flush`](Self::flush) (and on
/// drop). A no-op histogram records nothing. A clone starts empty.
#[derive(Debug, Default)]
pub struct LocalHistogram {
    shared: Histogram,
    /// One count per shared bucket (empty when the shared one is a no-op).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LocalHistogram {
    /// Accumulate locally on behalf of `shared`.
    pub fn new(shared: Histogram) -> Self {
        let buckets = shared.0.as_ref().map_or(0, |h| h.counts.len());
        Self {
            shared,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if let Some(h) = &self.shared.0 {
            self.counts[h.bounds.partition_point(|&b| b < v)] += 1;
            self.count += 1;
            self.sum += v;
            self.max = self.max.max(v);
        }
    }

    /// Merge the pending observations into the shared histogram.
    pub fn flush(&mut self) {
        let Some(h) = &self.shared.0 else {
            return;
        };
        if self.count == 0 {
            return;
        }
        for (cell, n) in h.counts.iter().zip(&mut self.counts) {
            if *n > 0 {
                cell.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
        h.count
            .fetch_add(std::mem::take(&mut self.count), Ordering::Relaxed);
        h.sum
            .fetch_add(std::mem::take(&mut self.sum), Ordering::Relaxed);
        h.max
            .fetch_max(std::mem::take(&mut self.max), Ordering::Relaxed);
    }
}

impl Clone for LocalHistogram {
    fn clone(&self) -> Self {
        Self::new(self.shared.clone())
    }
}

impl Drop for LocalHistogram {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Exponentially spaced histogram bounds: `start, start*factor, …`
/// (`count` bounds total).
///
/// # Panics
///
/// Panics if `start == 0`, `factor < 2`, or `count == 0`.
pub fn exponential_bounds(start: u64, factor: u64, count: usize) -> Vec<u64> {
    assert!(start > 0 && factor >= 2 && count > 0, "degenerate bounds");
    let mut v = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        v.push(b);
        b = b.saturating_mul(factor);
    }
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = r.gauge("g");
        g.set(5);
        g.observe_max(3); // ignored: smaller
        g.observe_max(8);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn same_name_shares_the_cell() {
        let r = MetricsRegistry::new();
        r.counter("x").add(1);
        r.counter("x").add(2);
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn histogram_buckets_values_inclusively() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2]); // <=10, <=100, overflow
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 5000);
        assert_eq!(s.sum, 5222); // 0 + 10 + 11 + 100 + 101 + 5000
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        let r = MetricsRegistry::new();
        r.histogram("h", &[10, 10]);
    }

    #[test]
    fn exponential_bounds_grow() {
        assert_eq!(exponential_bounds(64, 4, 4), vec![64, 256, 1024, 4096]);
    }

    #[test]
    fn local_instruments_publish_on_flush_and_drop() {
        let r = MetricsRegistry::new();
        let mut c = LocalCounter::new(r.counter("c"));
        let mut g = LocalGauge::new(r.gauge("g"));
        let mut hw = LocalGauge::new(r.gauge("hw"));
        let mut h = LocalHistogram::new(r.histogram("h", &[10, 100]));
        c.add(4);
        c.inc();
        g.set(7);
        g.set(3);
        hw.observe_max(9);
        hw.observe_max(2);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(r.counter("c").get(), 0, "nothing published before a flush");
        c.flush();
        g.flush();
        hw.flush();
        h.flush();
        assert_eq!(r.counter("c").get(), 5);
        assert_eq!(r.gauge("g").get(), 3, "last value wins");
        assert_eq!(r.gauge("hw").get(), 9);
        let s = r.histogram("h", &[10, 100]).snapshot();
        assert_eq!(s.counts, vec![2, 2, 2]);
        assert_eq!((s.count, s.sum, s.max), (6, 5222, 5000));
        // A second flush publishes nothing new; a clone starts empty and
        // a dropped instrument publishes what it holds.
        c.flush();
        h.flush();
        assert_eq!(r.counter("c").get(), 5);
        assert_eq!(r.histogram("h", &[1]).count(), 6);
        c.add(2);
        let mut twin = c.clone();
        twin.flush();
        assert_eq!(r.counter("c").get(), 5);
        drop(c);
        assert_eq!(r.counter("c").get(), 7);
    }

    #[test]
    fn noop_local_instruments_record_nothing() {
        let mut h = LocalHistogram::new(Histogram::noop());
        h.observe(3);
        h.flush();
        let mut c = LocalCounter::new(Counter::noop());
        c.inc();
        c.flush();
        assert_eq!(h.shared.count(), 0);
    }

    #[test]
    fn snapshot_collects_every_kind() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.gauge("b").set(2);
        r.histogram("c", &[1]).observe(1);
        let s = r.snapshot();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms.len(), 1);
    }
}
