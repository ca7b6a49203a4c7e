//! A bounded structured event journal with slow-op capture.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default slow-op threshold: 10 ms. On a local or loopback data path
/// anything slower is an outlier worth keeping.
pub const DEFAULT_SLOW_THRESHOLD_US: u64 = 10_000;

/// Events the main ring retains before wrapping.
const RING_CAP: usize = 1024;
/// Slow ops retained with full context.
const SLOW_CAP: usize = 64;

/// One structured trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the journal was created (monotonic clock).
    pub t_us: u64,
    /// Operation kind (`"read"`, `"write"`, `"batch"`, …).
    pub kind: String,
    /// Device / shard index the op targeted (0 for single-store paths).
    pub shard: u32,
    /// Bytes moved by the op.
    pub bytes: u64,
    /// Wall-clock duration of the op in microseconds.
    pub duration_us: u64,
    /// Whether the op succeeded.
    pub ok: bool,
}

/// A ring buffer of [`TraceEvent`]s plus a second ring retaining ops
/// that exceeded the slow threshold. Both rings drop their oldest entry
/// when full; recording is a short mutex hold (no allocation beyond the
/// event itself), cheap enough for per-request paths.
pub struct Journal {
    start: Instant,
    threshold_us: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    slow: Mutex<VecDeque<TraceEvent>>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// An empty journal with the default slow threshold.
    pub fn new() -> Self {
        Journal {
            start: Instant::now(),
            threshold_us: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_US),
            ring: Mutex::new(VecDeque::with_capacity(RING_CAP)),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_CAP)),
        }
    }

    /// Sets the slow-op threshold (microseconds). 0 captures everything,
    /// `u64::MAX` disables capture.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-op threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed)
    }

    /// Records one completed op.
    pub fn record(&self, kind: &str, shard: u32, bytes: u64, duration: Duration, ok: bool) {
        let mut event = TraceEvent {
            t_us: 0,
            kind: kind.to_string(),
            shard,
            bytes,
            duration_us: duration.as_micros() as u64,
            ok,
        };
        // Stamped under the lock that orders the ring: a writer that
        // stamped first and locked second could be overtaken, leaving
        // the ring out of timestamp order. The slow ring nests inside
        // (always ring → slow), so it is in stamp order too.
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        event.t_us = self.start.elapsed().as_micros() as u64;
        if event.duration_us >= self.slow_threshold_us() {
            let mut slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
            if slow.len() == SLOW_CAP {
                slow.pop_front();
            }
            slow.push_back(event.clone());
        }
        if ring.len() == RING_CAP {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The retained slow ops, oldest first.
    pub fn slow_ops(&self) -> Vec<TraceEvent> {
        self.slow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_the_newest() {
        let j = Journal::new();
        for i in 0..(RING_CAP + 10) as u64 {
            j.record("read", 0, i, Duration::from_micros(1), true);
        }
        let recent = j.recent();
        assert_eq!(recent.len(), RING_CAP);
        assert_eq!(recent.last().unwrap().bytes, (RING_CAP + 10) as u64 - 1);
        assert_eq!(recent[0].bytes, 10);
    }

    #[test]
    fn slow_ops_respect_the_threshold() {
        let j = Journal::new();
        j.set_slow_threshold_us(1000);
        j.record("read", 0, 64, Duration::from_micros(10), true);
        j.record("write", 2, 128, Duration::from_micros(5000), false);
        assert_eq!(j.recent().len(), 2);
        let slow = j.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].kind, "write");
        assert_eq!(slow[0].shard, 2);
        assert_eq!(slow[0].bytes, 128);
        assert!(!slow[0].ok);
        assert!(slow[0].duration_us >= 1000);
    }

    #[test]
    fn threshold_zero_captures_everything() {
        let j = Journal::new();
        j.set_slow_threshold_us(0);
        j.record("flush", 0, 0, Duration::ZERO, true);
        assert_eq!(j.slow_ops().len(), 1);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let j = Journal::new();
        j.record("a", 0, 0, Duration::ZERO, true);
        j.record("b", 0, 0, Duration::ZERO, true);
        let r = j.recent();
        assert!(r[0].t_us <= r[1].t_us);
    }
}
