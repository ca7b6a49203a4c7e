//! Plain-data snapshots of a registry, mergeable across layers.

use crate::hist::HistogramSnapshot;

/// A point-in-time copy of a [`MetricsRegistry`](crate::MetricsRegistry):
/// sorted `(name, value)` lists. Pure data — cloneable, comparable, and
/// encodable by whoever owns a wire format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Adds `v` to the counter named `name`, creating it if absent
    /// (insertion keeps the list sorted).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 += v,
            Err(i) => self.counters.insert(i, (name.to_string(), v)),
        }
    }

    /// Adds `v` to the gauge named `name`, creating it if absent.
    pub fn add_gauge(&mut self, name: &str, v: i64) {
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 += v,
            Err(i) => self.gauges.insert(i, (name.to_string(), v)),
        }
    }

    /// Folds `h` into the histogram named `name`, creating it if absent.
    pub fn add_histogram(&mut self, name: &str, h: &HistogramSnapshot) {
        match self
            .histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.histograms[i].1.merge(h),
            Err(i) => self.histograms.insert(i, (name.to_string(), h.clone())),
        }
    }

    /// Folds another snapshot into this one: same-named counters and
    /// gauges add, same-named histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for (name, v) in &other.gauges {
            self.add_gauge(name, *v);
        }
        for (name, h) in &other.histograms {
            self.add_histogram(name, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let h = crate::Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_keeps_sorted_order() {
        let mut a = MetricsSnapshot::default();
        a.add_counter("ops.read", 10);
        a.add_counter("bytes", 512);
        let mut b = MetricsSnapshot::default();
        b.add_counter("ops.read", 5);
        b.add_counter("ops.write", 1);
        a.merge(&b);
        assert_eq!(a.counter("ops.read"), Some(15));
        assert_eq!(a.counter("ops.write"), Some(1));
        assert_eq!(a.counter("bytes"), Some(512));
        let names: Vec<&str> = a.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["bytes", "ops.read", "ops.write"]);
        assert_eq!(a.counter("missing"), None);
    }

    #[test]
    fn merge_folds_histograms_and_gauges() {
        let mut a = MetricsSnapshot::default();
        a.add_gauge("conns", 2);
        a.add_histogram("lat", &hist(&[10, 20]));
        let mut b = MetricsSnapshot::default();
        b.add_gauge("conns", 3);
        b.add_histogram("lat", &hist(&[100_000]));
        a.merge(&b);
        assert_eq!(a.gauge("conns"), Some(5));
        let h = a.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max, 100_000);
    }
}
