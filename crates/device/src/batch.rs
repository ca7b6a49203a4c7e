//! Scatter-gather batch I/O: many reads and writes submitted as one
//! unit through [`BlockDevice::submit`](crate::BlockDevice::submit).
//!
//! One-op-per-call `read_at`/`write_at` makes N small writes to the
//! same stripe pay N lock acquisitions, N codec passes, and (over a
//! wire) N round trips. A batch names all N ops up front, so a backend
//! can group them — per stripe for a local store (one lock, one
//! re-encode-vs-parity-delta decision), per shard for a sharded or
//! remote one (parallel execution, one request frame per shard).
//!
//! Callers build an owned [`IoBatch`]; devices and layers work on
//! borrowed views of its ops ([`OpRef`]) — the one form
//! [`BlockDevice::submit_ops`](crate::BlockDevice::submit_ops) takes —
//! so a payload is never copied on its way down the stack.
//!
//! # Semantics
//!
//! * Results come back **per op, in submission order**
//!   ([`BatchResult::results`]), plus one aggregated [`WriteOutcome`].
//! * Backends may reorder and merge **disjoint** ops freely; ops whose
//!   byte ranges conflict (a write overlapping anything) must take
//!   effect as if executed one at a time in submission order.
//!   [`OpRef::conflicts`] is the shared detector backends use to fall
//!   back to the sequential path.
//! * A batch is not atomic: the first failing op aborts the rest, and
//!   writes that already executed stay applied. Callers needing
//!   all-or-nothing run their own journal above the device.

use crate::WriteOutcome;

/// One operation in a batch: a read or a write of a byte span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// Read `len` bytes at byte `offset`.
    Read {
        /// Byte offset in the device's logical space.
        offset: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Write `data` at byte `offset`.
    Write {
        /// Byte offset in the device's logical space.
        offset: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
}

impl IoOp {
    /// The op's starting byte offset.
    pub fn offset(&self) -> u64 {
        match self {
            IoOp::Read { offset, .. } | IoOp::Write { offset, .. } => *offset,
        }
    }

    /// Bytes the op touches.
    pub fn byte_len(&self) -> usize {
        match self {
            IoOp::Read { len, .. } => *len,
            IoOp::Write { data, .. } => data.len(),
        }
    }

    /// One byte past the op's span (`offset + byte_len`).
    pub fn end(&self) -> u64 {
        self.offset() + self.byte_len() as u64
    }

    /// `true` for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, IoOp::Write { .. })
    }
}

/// An ordered list of [`IoOp`]s submitted as one unit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoBatch {
    ops: Vec<IoOp>,
}

impl IoBatch {
    /// An empty batch.
    pub fn new() -> Self {
        IoBatch::default()
    }

    /// Appends a read of `len` bytes at `offset`.
    pub fn read(&mut self, offset: u64, len: usize) -> &mut Self {
        self.ops.push(IoOp::Read { offset, len });
        self
    }

    /// Appends a write of `data` at `offset`.
    pub fn write(&mut self, offset: u64, data: Vec<u8>) -> &mut Self {
        self.ops.push(IoOp::Write { offset, data });
        self
    }

    /// The ops, in submission order.
    pub fn ops(&self) -> &[IoOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the batch holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// [`OpRef::conflicts`] over this batch's ops.
    pub fn has_conflicts(&self) -> bool {
        OpRef::conflicts(&OpRef::views(&self.ops))
    }
}

/// A borrowed view of one read or write — what every device and layer
/// works on, so a `write_at` payload is never copied into an owned
/// [`IoOp`] on its way to the stripe buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpRef<'a> {
    /// Read `len` bytes at byte `offset`.
    Read {
        /// Byte offset in the device's logical space.
        offset: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Write `data` at byte `offset`.
    Write {
        /// Byte offset in the device's logical space.
        offset: u64,
        /// Bytes to store.
        data: &'a [u8],
    },
}

impl<'a> OpRef<'a> {
    /// The op's starting byte offset.
    pub fn offset(&self) -> u64 {
        match self {
            OpRef::Read { offset, .. } | OpRef::Write { offset, .. } => *offset,
        }
    }

    /// Bytes the op touches.
    pub fn byte_len(&self) -> usize {
        match self {
            OpRef::Read { len, .. } => *len,
            OpRef::Write { data, .. } => data.len(),
        }
    }

    /// One byte past the op's span (`offset + byte_len`).
    pub fn end(&self) -> u64 {
        self.offset() + self.byte_len() as u64
    }

    /// `true` for writes.
    pub fn is_write(&self) -> bool {
        matches!(self, OpRef::Write { .. })
    }

    /// Borrowed views of owned ops, in order.
    pub fn views(ops: &'a [IoOp]) -> Vec<OpRef<'a>> {
        ops.iter().map(OpRef::from).collect()
    }

    /// The `len` bytes of this op starting `at` bytes in, re-addressed
    /// to `offset` — how a layer cuts an op at shard or frame bounds.
    pub fn piece(&self, at: usize, len: usize, offset: u64) -> OpRef<'a> {
        match *self {
            OpRef::Read { .. } => OpRef::Read { offset, len },
            OpRef::Write { data, .. } => OpRef::Write {
                offset,
                data: &data[at..at + len],
            },
        }
    }

    /// The zeroed result slot an executor fills in for this op: a
    /// buffer of the read's length, or an empty write outcome. Every
    /// executor seeds with this, so result slots and ops can never
    /// disagree on kind.
    pub fn seed(&self) -> OpResult {
        match self {
            OpRef::Read { len, .. } => OpResult::Read(vec![0u8; *len]),
            OpRef::Write { .. } => OpResult::Write(WriteOutcome::default()),
        }
    }

    /// `true` when any two of `ops` overlap and at least one of the
    /// pair is a write — the condition under which execution order is
    /// observable, so backends must fall back to submission order
    /// instead of regrouping. Overlapping reads are not conflicts.
    pub fn conflicts(ops: &[OpRef<'_>]) -> bool {
        if ops.len() < 2 {
            return false;
        }
        // Sweep the spans in start order, tracking the furthest end
        // seen over all ops and over writes alone; a later-starting op
        // conflicts exactly when it begins before the relevant frontier.
        let mut spans: Vec<(u64, u64, bool)> = ops
            .iter()
            .filter(|op| op.byte_len() > 0)
            .map(|op| (op.offset(), op.end(), op.is_write()))
            .collect();
        spans.sort_unstable();
        let (mut any_end, mut write_end) = (0u64, 0u64);
        for (start, end, is_write) in spans {
            if start < write_end || (is_write && start < any_end) {
                return true;
            }
            any_end = any_end.max(end);
            if is_write {
                write_end = write_end.max(end);
            }
        }
        false
    }
}

impl<'a> From<&'a IoOp> for OpRef<'a> {
    fn from(op: &'a IoOp) -> Self {
        match op {
            IoOp::Read { offset, len } => OpRef::Read {
                offset: *offset,
                len: *len,
            },
            IoOp::Write { offset, data } => OpRef::Write {
                offset: *offset,
                data,
            },
        }
    }
}

/// The result of one batch op, same-index as its [`IoOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The bytes a read returned.
    Read(Vec<u8>),
    /// What a write did. When several batch writes share one store
    /// pass, the pass counters (`stripes_touched`,
    /// `full_stripe_encodes`) are attributed to the first write of the
    /// pass and the rest carry zeros (plus their own `bytes` /
    /// `blocks_written`), so summing per-op outcomes yields exact
    /// totals.
    Write(WriteOutcome),
}

/// Per-op results in submission order, plus the aggregated write
/// outcome across the whole batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// One entry per submitted op, in submission order.
    pub results: Vec<OpResult>,
    /// All write outcomes folded together.
    pub write: WriteOutcome,
}

impl BatchResult {
    /// Builds the result, computing the aggregate from the per-op
    /// write outcomes.
    pub fn from_results(results: Vec<OpResult>) -> Self {
        let mut write = WriteOutcome::default();
        for r in &results {
            if let OpResult::Write(w) = r {
                write.absorb(w);
            }
        }
        BatchResult { results, write }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_keeps_submission_order() {
        let mut batch = IoBatch::new();
        batch.read(0, 4).write(8, vec![1, 2]).read(16, 1);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(
            batch.ops()[1],
            IoOp::Write {
                offset: 8,
                data: vec![1, 2]
            }
        );
        assert_eq!(batch.ops()[0].byte_len(), 4);
        assert_eq!(batch.ops()[1].end(), 10);
        assert!(batch.ops()[1].is_write());
        assert!(!batch.ops()[2].is_write());
    }

    #[test]
    fn conflict_detection() {
        // Disjoint ops: no conflict.
        let mut batch = IoBatch::new();
        batch.write(0, vec![0; 4]).read(4, 4).write(8, vec![0; 4]);
        assert!(!batch.has_conflicts());

        // Overlapping reads: no conflict.
        let mut batch = IoBatch::new();
        batch.read(0, 8).read(4, 8);
        assert!(!batch.has_conflicts());

        // Write overlapping a read, either order: conflict.
        let mut batch = IoBatch::new();
        batch.read(0, 8).write(7, vec![0; 2]);
        assert!(batch.has_conflicts());
        let mut batch = IoBatch::new();
        batch.write(7, vec![0; 2]).read(0, 8);
        assert!(batch.has_conflicts());

        // Write overlapping a write: conflict.
        let mut batch = IoBatch::new();
        batch.write(0, vec![0; 4]).write(3, vec![0; 4]);
        assert!(batch.has_conflicts());

        // Zero-length ops never conflict.
        let mut batch = IoBatch::new();
        batch.write(0, vec![0; 4]).write(2, Vec::new()).read(2, 0);
        assert!(!batch.has_conflicts());

        // Adjacent (touching, not overlapping) spans: no conflict.
        let mut batch = IoBatch::new();
        batch.write(0, vec![0; 4]).write(4, vec![0; 4]);
        assert!(!batch.has_conflicts());
    }

    #[test]
    fn conflict_sweep_matches_pairwise_reference_at_4096_ops() {
        // The sweep must agree with the obvious O(n²) pairwise check on
        // a large adversarial batch: deterministic pseudo-random spans
        // (some zero-length, some overlapping, read/write mixed) over a
        // small offset range so collisions are common.
        let overlaps = |a: &IoOp, b: &IoOp| {
            a.byte_len() > 0 && b.byte_len() > 0 && a.offset() < b.end() && b.offset() < a.end()
        };
        let pairwise = |ops: &[IoOp]| {
            for (i, a) in ops.iter().enumerate() {
                for b in &ops[i + 1..] {
                    if overlaps(a, b) && (a.is_write() || b.is_write()) {
                        return true;
                    }
                }
            }
            false
        };

        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };

        // Dense case: 4096 ops crammed into a small range — almost
        // certainly conflicting, but verify against the reference
        // rather than assuming.
        let mut dense = IoBatch::new();
        for _ in 0..4096 {
            let offset = next() % (1 << 16);
            let len = (next() % 64) as usize;
            if next() % 2 == 0 {
                dense.read(offset, len);
            } else {
                dense.write(offset, vec![0u8; len]);
            }
        }
        assert_eq!(dense.has_conflicts(), pairwise(dense.ops()));

        // Sparse case: 4096 disjoint one-byte writes in shuffled order
        // must come back clean (the sweep sorts internally).
        let mut lanes: Vec<u64> = (0..4096u64).collect();
        for i in (1..lanes.len()).rev() {
            lanes.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut sparse = IoBatch::new();
        for lane in lanes {
            sparse.write(lane * 2, vec![0u8]);
        }
        assert_eq!(sparse.len(), 4096);
        assert!(!sparse.has_conflicts());
        assert!(!pairwise(sparse.ops()));

        // Flip exactly one lane onto a neighbour: now conflicting.
        let mut bumped = sparse;
        bumped.ops[77] = IoOp::Write {
            offset: bumped.ops[78].offset(),
            data: vec![0u8],
        };
        assert!(bumped.has_conflicts());
        assert!(pairwise(bumped.ops()));
    }

    #[test]
    fn batch_result_aggregates_write_outcomes() {
        let result = BatchResult::from_results(vec![
            OpResult::Read(vec![1, 2, 3]),
            OpResult::Write(WriteOutcome {
                bytes: 10,
                blocks_written: 1,
                stripes_touched: 1,
                full_stripe_encodes: 0,
                delta_updates: 1,
            }),
            OpResult::Write(WriteOutcome {
                bytes: 20,
                blocks_written: 2,
                stripes_touched: 0,
                full_stripe_encodes: 0,
                delta_updates: 2,
            }),
        ]);
        assert_eq!(
            result.write,
            WriteOutcome {
                bytes: 30,
                blocks_written: 3,
                stripes_touched: 1,
                full_stripe_encodes: 0,
                delta_updates: 3,
            }
        );
    }
}
