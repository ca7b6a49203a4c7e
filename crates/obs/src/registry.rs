//! The metrics registry: named atomic counters, gauges, and histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::snapshot::MetricsSnapshot;

/// Reserved metric names, declared once.
///
/// Most metric names are free-form (the counter-discipline lint only
/// asks that each one has a consumer), but the cache tier's `cache.*`
/// and `wb.*` families are part of the documented interface: CI smokes
/// assert on them and dashboards key on them, so a typo'd name is a
/// silent hole. Registration sites reference these constants — the
/// `counter-discipline` lint rejects a `cache.*`/`wb.*` string literal
/// at a metric sink outside this file, exactly as `span-discipline`
/// does for span names.
pub mod metric_names {
    /// Read served from a cached frame (or the write-back buffer).
    pub const CACHE_HIT: &str = "cache.hit";
    /// Read block absent (or stale) in the cache.
    pub const CACHE_MISS: &str = "cache.miss";
    /// Block filled into the cache from the inner device.
    pub const CACHE_FILL: &str = "cache.fill";
    /// Live frame evicted by the CLOCK hand to make room.
    pub const CACHE_EVICT: &str = "cache.evict";
    /// Cached block updated or dropped by a write, or a whole-cache
    /// generation bump (scrub/repair/fault).
    pub const CACHE_INVALIDATE: &str = "cache.invalidate";
    /// Write op absorbed into the write-back buffer (volatile ack).
    pub const WB_ABSORBED: &str = "wb.absorbed";
    /// Write-back drains (group-commit tick, pressure, or `flush()`).
    pub const WB_FLUSHED: &str = "wb.flushed";
    /// Coalesced write ops submitted by write-back drains.
    pub const WB_COALESCED: &str = "wb.coalesced_ops";

    /// Every reserved metric name (the lint checks literals against
    /// the `cache.`/`wb.` prefixes of this set).
    pub const ALL: &[&str] = &[
        CACHE_HIT,
        CACHE_MISS,
        CACHE_FILL,
        CACHE_EVICT,
        CACHE_INVALIDATE,
        WB_ABSORBED,
        WB_FLUSHED,
        WB_COALESCED,
    ];
}

/// A monotonically increasing counter handle. Clones share the cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways. Clones share the
/// cell.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrease).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short lock to
/// look up or create the named cell and hands back a lock-free handle;
/// hot paths register once and increment forever. [`snapshot`] walks
/// the registered names (sorted — `BTreeMap` order) and copies every
/// cell into plain data.
///
/// [`snapshot`]: MetricsRegistry::snapshot
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        cell(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        cell(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        cell(&self.histograms, name)
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The cell named `name` in `map`, created on first use. A metric that
/// exists is found by a borrowed lookup, so only its first use
/// allocates the name.
fn cell<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(cell) = map.get(name) {
        return cell.clone();
    }
    map.entry(name.to_string()).or_default().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ops");
        let b = reg.counter("ops");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("ops").get(), 3);

        let g = reg.gauge("depth");
        g.set(5);
        reg.gauge("depth").add(-2);
        assert_eq!(g.get(), 3);

        reg.histogram("lat").record(100);
        assert_eq!(reg.histogram("lat").count(), 1);

        // Two lookups of one name hand out one cell, and a repeat
        // lookup registers nothing new.
        assert!(Arc::ptr_eq(&a.0, &reg.counter("ops").0));
        assert!(Arc::ptr_eq(&g.0, &reg.gauge("depth").0));
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len() + snap.gauges.len(), 2);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("mid").set(-7);
        reg.histogram("lat").record(42);

        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 2), ("z.last".to_string(), 1)]
        );
        assert_eq!(snap.gauges, vec![("mid".to_string(), -7)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count(), 1);
    }
}
