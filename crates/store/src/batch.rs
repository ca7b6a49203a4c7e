//! The stripe store's one data path: every `read_at`, `write_at` and
//! `submit` is a list of borrowed op views ([`OpRef`]) run through the
//! same per-stripe planner — a lone call is simply a one-op batch.
//!
//! The ops are grouped **per stripe** first, so each touched stripe
//! costs:
//!
//! * **one** lock acquisition,
//! * **one** re-encode-vs-parity-delta decision — writes covering every
//!   byte of the stripe rebuild it in memory and encode once (no old
//!   state read at all); anything less loads + restores the stripe
//!   once and patches only the dirty cells,
//! * **one** write-back and (per plan, not per stripe) **one** journal
//!   fsync and **one** integrity persist.
//!
//! Reads ride along: a stripe that is only read serves the verified
//! fast path under the same single lock; a stripe that is also written
//! serves reads straight from the restored in-memory buffer. Ops that
//! conflict (a write overlapping anything — see
//! [`stair_device::IoBatch::has_conflicts`]) run as one-op plans in
//! submission order, where overlap semantics are trivially right.

use std::collections::BTreeSet;
use std::ops::Range;

use stair_code::{CellIdx, StripeBuf};
use stair_device::{spans_conflict, BatchResult, IoBatch, IoOp, OpResult, WriteOutcome};

use crate::{Error, StripeStore};

/// A borrowed view of one read or write — what the planner (and the
/// shard and wire layers above it) work on, so a `write_at` payload is
/// never copied into an owned [`IoOp`] on its way to the stripe buffer.
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
    /// buffer of the read's length, or an empty write outcome.
    pub fn seed(&self) -> OpResult {
        match self {
            OpRef::Read { len, .. } => OpResult::Read(vec![0u8; *len]),
            OpRef::Write { .. } => OpResult::Write(WriteOutcome::default()),
        }
    }

    /// `true` when any two of `ops` overlap and one of the pair writes
    /// ([`stair_device::IoBatch::has_conflicts`] over views).
    pub fn conflicts(ops: &[OpRef<'_>]) -> bool {
        spans_conflict(ops.iter().map(|op| (op.offset(), op.end(), op.is_write())))
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

/// A stripe's journal payload: the cells to record, and whether they
/// form a full-stripe data image (parity recomputed at replay).
type JournalRecord<'a> = (Vec<(CellIdx, &'a [u8])>, bool);

/// One op's piece of a single stripe: which op, and which global blocks.
struct Fragment {
    op: usize,
    blocks: Range<usize>,
}

/// A stripe staged in memory (encoded, results recorded) whose
/// write-back is deferred to the plan's group commit: all records are
/// journaled under one fsync, then every stripe persists in place.
struct StagedWrite {
    stripe_idx: usize,
    stripe: StripeBuf,
    /// Cells to persist — `None` persists the full stripe (a whole
    /// -stripe re-encode), `Some` only the patched set.
    touched: Option<BTreeSet<CellIdx>>,
}

impl StripeStore {
    /// Reads `len` bytes starting at logical byte `offset`, transparently
    /// reconstructing sectors lost to failed devices or latent damage.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if the span exceeds capacity;
    /// * [`Error::Unrecoverable`] if a needed stripe carries more damage
    ///   than the codec's coverage.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, Error> {
        match self.plan(&[OpRef::Read { offset, len }])?.pop() {
            Some(OpResult::Read(out)) => Ok(out),
            // check: panic-ok planner invariant: one read op yields one read result
            _ => unreachable!("one read op yields one read result"),
        }
    }

    /// Writes `data` at logical byte `offset`. Partial blocks are merged
    /// read-modify-write; each touched stripe takes either the
    /// full-re-encode or the parity-delta path.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if the span exceeds capacity;
    /// * [`Error::Unrecoverable`] when writing through a stripe whose
    ///   existing damage exceeds coverage.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<WriteOutcome, Error> {
        let results = self.plan(&[OpRef::Write { offset, data }])?;
        Ok(BatchResult::from_results(results).write)
    }

    /// Submits a scatter-gather batch, grouping ops per stripe so every
    /// touched stripe is locked once and pays a single
    /// re-encode-vs-parity-delta decision.
    ///
    /// # Errors
    ///
    /// As [`StripeStore::submit_ops`].
    pub fn submit(&self, batch: &IoBatch) -> Result<BatchResult, Error> {
        let results = self.submit_ops(&OpRef::views(batch.ops()))?;
        Ok(BatchResult::from_results(results))
    }

    /// [`StripeStore::submit`] over borrowed op views, returning the
    /// per-op results in submission order.
    ///
    /// # Errors
    ///
    /// * [`Error::OutOfRange`] if any op's span exceeds capacity — the
    ///   whole list is validated up front, before any side effects;
    /// * [`Error::Unrecoverable`] when a needed stripe carries more
    ///   damage than the codec's coverage (the first failing stripe
    ///   aborts the rest; earlier stripes stay written).
    pub fn submit_ops(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, Error> {
        if !OpRef::conflicts(ops) {
            return self.plan(ops);
        }
        // Conflicting ops take effect one at a time, in submission
        // order; that mutates op by op, so validate every span first.
        for op in ops {
            self.shared.blocks.block_span(op.offset(), op.byte_len())?;
        }
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            results.append(&mut self.plan(std::slice::from_ref(op))?);
        }
        Ok(results)
    }

    /// The planner: executes disjoint `ops` as per-stripe work.
    fn plan(&self, ops: &[OpRef<'_>]) -> Result<Vec<OpResult>, Error> {
        let per = self.blocks_per_stripe();
        let mut results: Vec<OpResult> = ops.iter().map(OpRef::seed).collect();
        // Fragments grouped per stripe, submission order kept within
        // each group. Vec-of-groups (not a map) so group order is
        // ascending stripe index — deterministic lock order. Grouping
        // is side-effect-free, so span validation happens here: a
        // doomed plan still fails before anything executes.
        let mut groups: Vec<(usize, Vec<Fragment>)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let span = self.shared.blocks.block_span(op.offset(), op.byte_len())?;
            let mut block = span.start;
            while block < span.end {
                let stripe = block / per;
                let stripe_end = ((stripe + 1) * per).min(span.end);
                let frag = Fragment {
                    op: i,
                    blocks: block..stripe_end,
                };
                match groups.binary_search_by_key(&stripe, |(s, _)| *s) {
                    Ok(at) => groups[at].1.push(frag),
                    Err(at) => groups.insert(at, (stripe, vec![frag])),
                }
                block = stripe_end;
            }
        }
        // Locks for every touched stripe are held from staging through
        // the group commit — the pool dedupes shared slots and orders
        // them, see `lock_stripes`.
        let stripes: Vec<usize> = groups.iter().map(|(s, _)| *s).collect();
        let _guards = {
            let _lock = stair_obs::trace::span(stair_obs::trace::names::STORE_LOCK);
            self.lock_stripes(&stripes)
        };
        let mut staged: Vec<StagedWrite> = Vec::new();
        for (stripe, frags) in &groups {
            if let Some(stage) = self.stage_stripe(*stripe, frags, ops, &mut results)? {
                staged.push(stage);
            }
        }
        if !staged.is_empty() {
            self.group_commit(&staged)?;
            let _persist = stair_obs::trace::span(stair_obs::trace::names::STORE_PERSIST);
            self.shared.integrity.persist()?;
        }
        Ok(results)
    }

    /// The plan's single durability point, and the store's journaled
    /// commit path: the post-image of every cell about to be written
    /// lands in the write-ahead journal under **one** fsync (group
    /// commit) **before** the first in-place sector write, and the
    /// commit guard is held until the last one — so a crash at any
    /// instant leaves either an un-started commit (old stripes intact)
    /// or replayable records, and a checkpoint can never rewind a
    /// record whose sector writes are still in flight.
    fn group_commit(&self, staged: &[StagedWrite]) -> Result<(), Error> {
        let sh = &self.shared;
        let targets: Vec<Vec<(CellIdx, &[u8])>> = staged
            .iter()
            .map(|s| self.write_back_targets(&s.stripe, s.touched.as_ref()))
            .collect();
        // Journal payloads diverge from the write-back lists for
        // full-stripe stages: those journal a data image (parity
        // recomputed at replay) while still persisting every cell.
        let records: Vec<JournalRecord> = staged
            .iter()
            .map(|s| self.journal_cells(&s.stripe, s.touched.as_ref()))
            .collect();
        let reserve: Vec<usize> = records.iter().map(|(cells, _)| cells.len()).collect();
        let guard = {
            // Covers the reservation too: when the segment is full that
            // is a checkpoint — the journal's cost, not the caller's.
            let _span = stair_obs::trace::span(stair_obs::trace::names::JRNL_APPEND);
            let mut guard = sh.journal.begin(&reserve, || {
                sh.devices.sync()?;
                sh.integrity.persist()
            })?;
            if let Some(g) = guard.as_mut() {
                for (stage, (cells, encode)) in staged.iter().zip(&records) {
                    g.append(stage.stripe_idx, cells, *encode)?;
                }
                g.sync()?;
            }
            guard
        };
        for (stage, cells) in staged.iter().zip(&targets) {
            self.apply_write_back(stage.stripe_idx, cells)?;
        }
        drop(guard);
        Ok(())
    }

    /// Executes every fragment landing in one stripe (the caller holds
    /// the stripe's lock slot for the whole plan). Reads are served
    /// immediately; a written stripe is encoded in memory and returned
    /// for the plan's group commit.
    fn stage_stripe(
        &self,
        stripe_idx: usize,
        frags: &[Fragment],
        ops: &[OpRef<'_>],
        results: &mut [OpResult],
    ) -> Result<Option<StagedWrite>, Error> {
        let sh = &self.shared;
        let sym = self.block_size();
        let per = self.blocks_per_stripe();
        let _stripe = stair_obs::trace::span(stair_obs::trace::names::STORE_STRIPE);

        let mut write_bytes = 0u64;
        let mut first_write: Option<usize> = None;
        for f in frags {
            if ops[f.op].is_write() {
                write_bytes += self.fragment_bytes(&ops[f.op], &f.blocks);
                first_write.get_or_insert(f.op);
            }
        }
        let Some(first_write) = first_write else {
            // Read-only stripe: the verified fast path per fragment,
            // all under the one lock.
            for f in frags {
                let OpResult::Read(out) = &mut results[f.op] else {
                    // check: panic-ok planner invariant: read fragments index read results
                    unreachable!("read fragment indexed a write result")
                };
                self.read_blocks_locked(stripe_idx, f.blocks.clone(), ops[f.op].offset(), out)?;
            }
            return Ok(None);
        };

        // One re-encode-vs-parity-delta decision for the whole stripe.
        // Ops are disjoint here (conflicts run as one-op plans), so the
        // write fragments cover the full stripe exactly when their byte
        // lengths sum to it — and then no read fragment can exist in
        // this stripe, and no old state is needed.
        let full_cover = write_bytes == (per * sym) as u64;
        if full_cover {
            let geom = &sh.geometry;
            let mut stripe = StripeBuf::new(geom.r, geom.n, sym)?;
            for f in frags {
                let OpRef::Write { offset, data } = ops[f.op] else {
                    // check: panic-ok full_cover arithmetic leaves no room for read fragments
                    unreachable!("full stripe cover leaves no room for reads")
                };
                for block in f.blocks.clone() {
                    let loc = sh.blocks.locate(block)?;
                    let (incoming, at) = self.incoming_for_block(block, offset, data);
                    stripe.cell_mut(loc.cell)[at..at + incoming.len()].copy_from_slice(incoming);
                }
                let w = write_slot(results, f.op);
                w.bytes += self.fragment_bytes(&ops[f.op], &f.blocks);
                w.blocks_written += f.blocks.len() as u64;
            }
            {
                let _encode = stair_obs::trace::span(stair_obs::trace::names::STORE_ENCODE);
                sh.codec.encode(&mut stripe)?;
            }
            sh.counters.count_encode();
            let w = write_slot(results, first_write);
            w.stripes_touched += 1;
            w.full_stripe_encodes += 1;
            return Ok(Some(StagedWrite {
                stripe_idx,
                stripe,
                touched: None,
            }));
        }

        // Partial: load + restore once, patch every dirty cell, serve
        // reads from the restored buffer, write back once.
        let _delta = stair_obs::trace::span(stair_obs::trace::names::STORE_DELTA);
        let (mut stripe, erased) = self.load_stripe_restored(stripe_idx)?;
        let mut touched: BTreeSet<CellIdx> = BTreeSet::new();
        for f in frags {
            match ops[f.op] {
                OpRef::Write { offset, data } => {
                    for block in f.blocks.clone() {
                        let loc = sh.blocks.locate(block)?;
                        let (incoming, at) = self.incoming_for_block(block, offset, data);
                        let mut contents = stripe.cell(loc.cell).to_vec();
                        contents[at..at + incoming.len()].copy_from_slice(incoming);
                        let patched = sh.codec.update(&mut stripe, loc.cell, &contents)?;
                        sh.counters.count_update();
                        touched.insert(loc.cell);
                        touched.extend(patched);
                        let w = write_slot(results, f.op);
                        w.blocks_written += 1;
                        w.delta_updates += 1;
                    }
                    write_slot(results, f.op).bytes += self.fragment_bytes(&ops[f.op], &f.blocks);
                }
                OpRef::Read { offset, .. } => {
                    // The restored buffer is fully verified, and reads
                    // are disjoint from the plan's writes, so patching
                    // cannot have changed the bytes a read wants.
                    let OpResult::Read(out) = &mut results[f.op] else {
                        // check: panic-ok planner invariant: read fragments index read results
                        unreachable!("read fragment indexed a write result")
                    };
                    for block in f.blocks.clone() {
                        let cell = sh.blocks.locate(block)?.cell;
                        self.copy_block(block, stripe.cell(cell), offset, out);
                    }
                }
            }
        }
        // Erased cells were reconstructed by the restore; rewriting
        // them heals latent damage on writable devices for free.
        touched.extend(erased.iter());
        write_slot(results, first_write).stripes_touched += 1;
        Ok(Some(StagedWrite {
            stripe_idx,
            stripe,
            touched: Some(touched),
        }))
    }

    /// Bytes of `op` that fall inside the fragment's block range.
    fn fragment_bytes(&self, op: &OpRef<'_>, blocks: &Range<usize>) -> u64 {
        let sym = self.block_size() as u64;
        let from = op.offset().max(blocks.start as u64 * sym);
        let to = op.end().min(blocks.end as u64 * sym);
        to - from
    }
}

fn write_slot(results: &mut [OpResult], i: usize) -> &mut WriteOutcome {
    match &mut results[i] {
        OpResult::Write(w) => w,
        // check: panic-ok planner invariant: write fragments index write results
        OpResult::Read(_) => unreachable!("write fragment indexed a read result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreOptions, StripeStore};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-batch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
            .collect()
    }

    fn small_store(tag: &str) -> (PathBuf, StripeStore, Vec<u8>) {
        let dir = tmpdir(tag);
        let store = StripeStore::create(
            &dir,
            &StoreOptions {
                code: "stair:8,4,2,1-1-2".parse().unwrap(),
                symbol: 64,
                stripes: 6,
            },
        )
        .unwrap();
        let base = pattern(store.capacity() as usize, 3);
        store.write_at(0, &base).unwrap();
        (dir, store, base)
    }

    #[test]
    fn mixed_batch_matches_the_byte_array_model_and_survives_reopen() {
        let (dir, store, base) = small_store("mixed");
        let sym = store.block_size() as u64;
        let mut batch = IoBatch::new();
        // Reads and writes spread over several stripes, including
        // unaligned spans and a cross-stripe write.
        batch
            .read(10, 100)
            .write(3 * sym, pattern(64, 50))
            .read(19 * sym + 5, 130) // crosses the stripe 0 → 1 boundary
            .write(22 * sym + 7, pattern(200, 51)) // stripe 1, unaligned
            .write(40 * sym - 30, pattern(60, 52)); // crosses stripe 1 → 2
        assert!(!batch.has_conflicts());
        let result = store.submit(&batch).unwrap();
        assert_eq!(result.results.len(), 5);

        // Expected state: base with the writes applied.
        let mut expected = base.clone();
        for op in batch.ops() {
            if let IoOp::Write { offset, data } = op {
                let at = *offset as usize;
                expected[at..at + data.len()].copy_from_slice(data);
            }
        }
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);

        // Read results hold the pre-batch bytes (reads are disjoint
        // from the batch's writes, so pre == post on those spans).
        let OpResult::Read(got) = &result.results[0] else {
            panic!("op 0 is a read")
        };
        assert_eq!(got, &expected[10..110]);
        let OpResult::Read(got) = &result.results[2] else {
            panic!("op 2 is a read")
        };
        let at = (19 * sym + 5) as usize;
        assert_eq!(got, &expected[at..at + 130]);

        // Aggregate write outcome counts every written byte exactly once.
        assert_eq!(result.write.bytes, 64 + 200 + 60);
        assert!(result.write.stripes_touched >= 3);

        // Durability: the batch's single persist survives reopen.
        drop(store);
        let store = StripeStore::open(&dir).unwrap();
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_stripe_write_batch_pays_one_lock_and_one_parity_pass() {
        // The acceptance geometry: rs:5,16,1 has (5−1)·16 = 64 data
        // blocks per stripe, so 64 single-block writes tile stripe 0.
        let dir = tmpdir("onepass");
        let store = StripeStore::create(
            &dir,
            &StoreOptions {
                code: "rs:5,16,1".parse().unwrap(),
                symbol: 16,
                stripes: 2,
            },
        )
        .unwrap();
        assert_eq!(store.blocks_per_stripe(), 64);
        let sym = store.block_size() as u64;

        let mut batch = IoBatch::new();
        let mut expected = vec![0u8; (64 * sym) as usize];
        // Submission order deliberately scrambled: grouping, not the
        // caller's ordering, must find the single-stripe structure.
        for k in 0..64u64 {
            let block = (k * 37) % 64;
            let data = pattern(sym as usize, block as u8);
            expected[(block * sym) as usize..((block + 1) * sym) as usize].copy_from_slice(&data);
            batch.write(block * sym, data);
        }

        let before = store.io_stats();
        let result = store.submit(&batch).unwrap();
        let after = store.io_stats();

        // Exactly one stripe-lock acquisition and one codec pass for
        // all 64 writes; zero per-cell delta updates.
        assert_eq!(after.stripe_locks - before.stripe_locks, 1);
        assert_eq!(after.encode_passes - before.encode_passes, 1);
        assert_eq!(after.delta_update_calls, before.delta_update_calls);

        // The pass is attributed exactly once across per-op outcomes.
        assert_eq!(result.write.full_stripe_encodes, 1);
        assert_eq!(result.write.stripes_touched, 1);
        assert_eq!(result.write.blocks_written, 64);
        assert_eq!(result.write.bytes, 64 * sym);

        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_same_stripe_batch_locks_once_and_deltas_per_block() {
        let (dir, store, base) = small_store("partial");
        let sym = store.block_size() as u64;
        // 4 of the 20 blocks of stripe 0, plus a read from the same
        // stripe: one lock, one load, four delta updates, no encode.
        let mut batch = IoBatch::new();
        for k in 0..4u64 {
            batch.write(k * 2 * sym, pattern(sym as usize, 60 + k as u8));
        }
        batch.read(9 * sym, sym as usize);
        let before = store.io_stats();
        let result = store.submit(&batch).unwrap();
        let after = store.io_stats();
        assert_eq!(after.stripe_locks - before.stripe_locks, 1);
        assert_eq!(after.encode_passes, before.encode_passes);
        assert_eq!(after.delta_update_calls - before.delta_update_calls, 4);
        assert_eq!(result.write.delta_updates, 4);
        assert_eq!(result.write.stripes_touched, 1);
        let OpResult::Read(got) = &result.results[4] else {
            panic!("op 4 is a read")
        };
        assert_eq!(got, &base[(9 * sym) as usize..(10 * sym) as usize]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn conflicting_batch_applies_in_submission_order() {
        let (dir, store, base) = small_store("conflict");
        // Two overlapping writes plus a read of the overlap region
        // *after* both: the read must see the second write's bytes.
        let a = pattern(100, 70);
        let b = pattern(100, 71);
        let mut batch = IoBatch::new();
        batch
            .write(50, a.clone())
            .write(100, b.clone())
            .read(50, 150);
        assert!(batch.has_conflicts());
        let result = store.submit(&batch).unwrap();
        let mut expected = base.clone();
        expected[50..150].copy_from_slice(&a);
        expected[100..200].copy_from_slice(&b);
        let OpResult::Read(got) = &result.results[2] else {
            panic!("op 2 is a read")
        };
        assert_eq!(got, &expected[50..200]);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_on_a_degraded_stripe_restores_heals_and_serves_reads() {
        let (dir, store, base) = small_store("degraded");
        let sym = store.block_size() as u64;
        store.fail_device(1).unwrap();
        let mut batch = IoBatch::new();
        batch
            .write(0, pattern(sym as usize, 80))
            .read(5 * sym, (2 * sym) as usize);
        let before = store.io_stats();
        let result = store.submit(&batch).unwrap();
        let after = store.io_stats();
        // One restore pass covered both the write patching and the read.
        assert_eq!(after.recover_passes - before.recover_passes, 1);
        assert_eq!(after.stripe_locks - before.stripe_locks, 1);
        let OpResult::Read(got) = &result.results[1] else {
            panic!("op 1 is a read")
        };
        assert_eq!(got, &base[(5 * sym) as usize..(7 * sym) as usize]);
        let mut expected = base.clone();
        expected[..sym as usize].copy_from_slice(&pattern(sym as usize, 80));
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_out_of_range_batches() {
        let (dir, store, _) = small_store("edge");
        let result = store.submit(&IoBatch::new()).unwrap();
        assert!(result.results.is_empty());
        assert_eq!(result.write, WriteOutcome::default());
        // One bad op poisons the whole batch before any side effects.
        let mut batch = IoBatch::new();
        batch.write(0, vec![1, 2, 3]).read(store.capacity(), 1);
        match store.submit(&batch) {
            Err(Error::OutOfRange(_)) => {}
            other => panic!("expected OutOfRange, got {other:?}"),
        }
        // The in-range write of the failed batch was not applied.
        assert_ne!(store.read_at(0, 3).unwrap(), vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
