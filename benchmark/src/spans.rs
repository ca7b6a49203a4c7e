//! Two span instruments for the traced run.
//!
//! * [`Ladder`] — the benchmark's own spans (name, start, end, parent,
//!   op count) around direct calls into each layer's public functions.
//!   Kept in memory, written out when the run ends.
//! * [`TraceSink`] — the program's existing spans, collected from the
//!   flight recorder while tracing is on and aggregated to self-time
//!   by span name.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use stair_obs::trace::{self, names, SpanRecord};

use crate::json::Value;

/// One benchmark-side span.
pub struct LadderSpan {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls into the layer made inside the span.
    pub ops: u64,
}

/// The benchmark's in-memory span log.
pub struct Ladder {
    epoch: Instant,
    pub spans: Vec<LadderSpan>,
}

impl Ladder {
    pub fn new() -> Self {
        Ladder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a span; close it with [`Ladder::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(LadderSpan {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
            ops: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize, ops: u64) {
        self.spans[id].end_us = self.now_us();
        self.spans[id].ops = ops;
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj()
                        .with("id", id)
                        .with("name", s.name.as_str())
                        .with("start_us", s.start_us)
                        .with("end_us", s.end_us)
                        .with(
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        )
                        .with("ops", s.ops)
                })
                .collect(),
        )
    }
}

impl Default for Ladder {
    fn default() -> Self {
        Self::new()
    }
}

/// Collects completed traces from the process-global flight recorder.
/// The recorder keeps only its most recent traces, so this is a sample
/// — unbiased by op kind, since the ring evicts by age alone.
#[derive(Default)]
pub struct TraceSink {
    seen: HashSet<(u64, u64)>,
    by_trace: HashMap<u64, Vec<SpanRecord>>,
}

/// Self-time by span name over the sampled submissions.
#[derive(Default, Debug)]
pub struct TraceSummary {
    /// Sampled traces rooted at `bench.submit`.
    pub submissions: u64,
    /// Mean `bench.submit` duration, µs.
    pub submit_us: f64,
    /// Share of `bench.submit` time no child span covers.
    pub unattributed_frac: f64,
    /// Mean self-time per submission, µs, by span name.
    pub self_us: HashMap<&'static str, f64>,
}

impl TraceSink {
    /// A sink that ignores what the recorder's ring already holds, so
    /// only traces completed from now on are collected.
    pub fn starting_now() -> Self {
        let mut sink = TraceSink::default();
        for t in trace::recorder().traces() {
            sink.seen.insert((t.trace_id, t.root_span));
        }
        sink
    }

    /// Copies every trace not seen before out of the recorder's ring.
    pub fn poll(&mut self) {
        for t in trace::recorder().traces() {
            if self.seen.insert((t.trace_id, t.root_span)) {
                self.by_trace.entry(t.trace_id).or_default().extend(t.spans);
            }
        }
    }

    /// Up to `limit` sampled spans, for the trace file.
    pub fn to_json(&self, limit: usize) -> Value {
        let mut ids: Vec<&u64> = self.by_trace.keys().collect();
        ids.sort_unstable();
        Value::Arr(
            ids.into_iter()
                .flat_map(|id| &self.by_trace[id])
                .take(limit)
                .map(|s| {
                    Value::obj()
                        .with("name", s.name)
                        .with("start_us", s.start_us)
                        .with("end_us", s.start_us + s.duration_us)
                        .with("span", format!("{:016x}", s.span_id))
                        .with("parent", format!("{:016x}", s.parent_id))
                        .with("op", format!("{:016x}", s.trace_id))
                        .with("ok", s.ok)
                })
                .collect(),
        )
    }

    pub fn summarize(&self) -> TraceSummary {
        let mut sum = TraceSummary::default();
        let (mut submit_total, mut submit_self) = (0u64, 0u64);
        for spans in self.by_trace.values() {
            if !spans.iter().any(|s| s.name == names::BENCH_SUBMIT) {
                // The server's half of a trace whose client half the
                // ring evicted (or has not finished) — no denominator.
                continue;
            }
            sum.submissions += 1;
            for s in spans {
                let self_us = self_time_us(s, spans);
                if s.name == names::BENCH_SUBMIT {
                    submit_total += s.duration_us;
                    submit_self += self_us;
                }
                *sum.self_us.entry(s.name).or_default() += self_us as f64;
            }
        }
        if sum.submissions > 0 {
            let n = sum.submissions as f64;
            sum.submit_us = submit_total as f64 / n;
            for v in sum.self_us.values_mut() {
                *v /= n;
            }
        }
        if submit_total > 0 {
            sum.unattributed_frac = submit_self as f64 / submit_total as f64;
        }
        sum
    }
}

/// A span's duration minus the part of its interval its children cover.
fn self_time_us(span: &SpanRecord, all: &[SpanRecord]) -> u64 {
    let (lo, hi) = (span.start_us, span.start_us + span.duration_us);
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent_id == span.span_id && c.span_id != span.span_id)
        .map(|c| {
            (
                c.start_us.clamp(lo, hi),
                (c.start_us + c.duration_us).clamp(lo, hi),
            )
        })
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_us - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name,
            start_us: start,
            duration_us: dur,
            ok: true,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, 0, names::BENCH_SUBMIT, 100, 100),
            // Overlapping children 110..150 and 140..170, one running
            // past the parent's end (clipped), one grandchild.
            span(2, 1, names::CLIENT_SUBMIT, 110, 40),
            span(3, 1, names::CLIENT_DECODE, 140, 30),
            span(4, 1, names::CLIENT_ENCODE, 190, 50),
            span(5, 2, names::SRV_EXEC, 115, 10),
        ];
        assert_eq!(self_time_us(&all[0], &all), 100 - 60 - 10);
        assert_eq!(self_time_us(&all[1], &all), 30);
        assert_eq!(self_time_us(&all[4], &all), 10);
    }

    #[test]
    fn summary_counts_only_bench_rooted_traces() {
        let mut sink = TraceSink::default();
        sink.by_trace.insert(
            1,
            vec![
                span(1, 0, names::BENCH_SUBMIT, 0, 100),
                span(2, 1, names::JRNL_APPEND, 20, 60),
            ],
        );
        sink.by_trace
            .insert(2, vec![span(9, 7, names::SRV_REQUEST, 0, 500)]);
        let sum = sink.summarize();
        assert_eq!(sum.submissions, 1);
        assert_eq!(sum.submit_us, 100.0);
        assert_eq!(sum.self_us[names::JRNL_APPEND], 60.0);
        assert_eq!(sum.unattributed_frac, 0.4);
        assert!(!sum.self_us.contains_key(names::SRV_REQUEST));
    }
}
