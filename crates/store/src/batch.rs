//! The stripe store's one data path: every `read_at`, `write_at` and
//! `submit` is a list of borrowed op views ([`stair_device::OpRef`])
//! run through the same per-stripe planner — a lone call is simply a
//! one-op batch.
//!
//! The ops are grouped **per stripe** first, so each touched stripe
//! costs:
//!
//! * **one** lock acquisition,
//! * **one** re-encode-vs-parity-delta decision — writes covering every
//!   byte of the stripe rebuild it in memory and encode once (no old
//!   state read at all); anything less is a read-modify-write over its
//!   **footprint** (below),
//! * **one** write-back — a positioned write per run of consecutive
//!   rows per device (the run rule, below) — and, per plan, not per
//!   stripe, **one** journal write under **one** fsync and **one**
//!   integrity persist.
//!
//! # The footprint rule
//!
//! A partial-stripe write needs, and therefore reads, stages and holds,
//! only: for every written block its data cell and the parity cells
//! that depend on it ([`stair_code::ErasureCode::dependents`] — `1 +
//! penalty(d)` sectors, the paper's §6.3 update cost), and for every
//! read fragment in the same stripe its data cell. A parity on a
//! `Failed` device is never written, so it is left out. Each is read
//! once and checksum-verified into a small per-stripe cell map. Every
//! write of the stripe is staged there first, each changed data cell
//! accumulating its delta `old ⊕ new`; then **one** plan
//! ([`stair_code::ErasureCode::update_plan`], within the staged cells)
//! adds `c·Δ` into every staged dependent parity through the
//! [`stair_code::Patch`] lookup, and the result is journaled and written
//! back. A footprint cell that is lost — on a `Failed` or `Rebuilding`
//! device, recorded bad, or failing its checksum — is **restored**
//! (`StripeStore::restore`): the footprint's lost cells are planned, only
//! the plan's sources are read on top, and the restored cells are
//! written back with the patch, healed. Damage *outside* the footprint
//! and its plan is neither read nor paid for, and a stripe beyond
//! coverage elsewhere still takes a write its footprint can be restored
//! for.
//!
//! # The source rule
//!
//! A read fragment in a stripe that is only read needs, and therefore
//! reads: its own data cells, when none of them is known lost (a device
//! that is not `Healthy`, a recorded bad sector — decided before any
//! I/O); otherwise the **sources** of the plan that reconstructs the
//! lost ones ([`stair_code::Plan::sources`], planned against the known
//! erasures) plus its surviving cells — rows × (n − m) sectors for a
//! STAIR window clear of the bursts, not the `r·(n − m)` that survive.
//! Each is checksum-verified; consecutive rows of one device are one
//! positioned read. A sector that fails where none was known bad is
//! recorded, and the cells still wanted are planned again around it,
//! reading only the sources not read yet. Damage *outside* the sources
//! is neither read nor healed — the scrub finds it.
//!
//! # The run rule
//!
//! A commit writes runs, not sectors. A device file stores the rows of
//! a stripe contiguously, the checksum table is one flat row-major
//! array, and a plan's records sit back to back in the journal — so the
//! write-back issues one positioned write per run of consecutive rows
//! on one device (`StripeStore::write_recorded` in `device::persist`,
//! the one place that writes sectors, counterpart of the one loader), the integrity
//! persist one per run of consecutive table entries, and the group
//! commit one for all the plan's records. A healthy full-stripe write
//! is `n` device writes, one table write and one journal write — ≈ 10
//! system calls for `r·n` = 128 sectors — and a footprint's row
//! parities and global-parity rows coalesce where they abut. The bytes
//! and where they land are what sector-by-sector order produced;
//! [`IoStats`](crate::IoStats) counts `sector_writes` and `write_runs`.
//!
//! A stripe that is also written serves its reads from the cells the
//! write staged. Ops that conflict (a write overlapping anything — see
//! [`stair_device::OpRef::conflicts`]) run as one-op plans in
//! submission order, where overlap semantics are trivially right.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use stair_code::{CellIdx, CodeError, ErasureSet, Patch, StripeBuf};
use stair_device::{BatchResult, IoBatch, OpRef, OpResult, WriteOutcome};

use crate::{DeviceState, Error, StripeStore};

/// A stripe's journal payload: the cells to record, and whether they
/// form a full-stripe data image (parity recomputed at replay).
type JournalRecord<'a> = (Vec<(CellIdx, &'a [u8])>, bool);

/// One op's piece of a single stripe: which op, and which global blocks.
struct Fragment {
    op: usize,
    blocks: Range<usize>,
}

/// The cells a staged stripe holds from staging to group commit.
enum StagedCells {
    /// The whole `r × n` grid of a full-stripe re-encode.
    Grid(StripeBuf),
    /// Only the footprint of a partial write — ~`1 + penalty(d)` sectors
    /// per written block instead of the stripe — each verified or
    /// restored.
    Sparse(BTreeMap<CellIdx, Vec<u8>>),
}

impl StagedCells {
    /// The staged contents of `cell`.
    fn cell(&self, cell: CellIdx) -> &[u8] {
        match self {
            StagedCells::Grid(stripe) => stripe.cell(cell),
            #[expect(
                clippy::expect_used,
                reason = "planner invariant: only footprint cells are asked for"
            )]
            StagedCells::Sparse(cells) => cells.get(&cell).expect("cell is in the footprint"),
        }
    }
}

/// A stripe staged in memory (encoded, results recorded) whose
/// write-back is deferred to the plan's group commit: all records are
/// journaled under one fsync, then every stripe persists in place.
struct StagedWrite {
    stripe_idx: usize,
    cells: StagedCells,
    /// Cells to persist — `None` persists the full stripe (a whole
    /// -stripe re-encode), `Some` only the patched set.
    touched: Option<BTreeSet<CellIdx>>,
}

// `read_at`, `write_at` and `submit` below are the one place outside
// `stair_device::BlockDevice` that still spells a lone op as a method:
// the layer ledger (`benchmark/src/ladder.rs`) times the store through
// them with the typed `Error`. Everything else enters by `submit_ops`.
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
            #[expect(
                clippy::unreachable,
                reason = "planner invariant: one read op yields one read result"
            )]
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
            .map(|s| self.write_back_targets(s.touched.as_ref(), |c| s.cells.cell(c)))
            .collect();
        // Journal payloads diverge from the write-back lists for
        // full-stripe stages: those journal a data image (parity
        // recomputed at replay) while still persisting every cell.
        let records: Vec<JournalRecord> = staged
            .iter()
            .map(|s| self.journal_cells(s.touched.as_ref(), |c| s.cells.cell(c)))
            .collect();
        let reserve: Vec<usize> = records.iter().map(|(cells, _)| cells.len()).collect();
        let guard = {
            // Covers the reservation too: when the segment is full that
            // is a hand-off, and a wait for the checkpoint thread when
            // it is still busy — the journal's cost, not the caller's.
            let _span = stair_obs::trace::span(stair_obs::trace::names::JRNL_APPEND);
            let mut guard = sh.journal.begin(&reserve)?;
            if let Some(g) = guard.as_mut() {
                for (stage, (cells, encode)) in staged.iter().zip(&records) {
                    g.append(stage.stripe_idx, cells, *encode);
                }
                g.sync()?;
            }
            guard
        };
        let _write_back = stair_obs::trace::span(stair_obs::trace::names::STORE_WRITE_BACK);
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
            // Read-only stripe: each fragment reads what the source rule
            // names, all under the one lock.
            for f in frags {
                #[expect(
                    clippy::unreachable,
                    reason = "planner invariant: read fragments index read results"
                )]
                let OpResult::Read(out) = &mut results[f.op] else {
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
                #[expect(
                    clippy::unreachable,
                    reason = "full_cover arithmetic leaves no room for read fragments"
                )]
                let OpRef::Write { offset, data } = ops[f.op] else {
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
                cells: StagedCells::Grid(stripe),
                touched: None,
            }));
        }

        // Partial: read-modify-write over the footprint — each written
        // block's data cell and its dependent parities not on a `Failed`
        // device (never written, so never needed), each read block's
        // data cell — restored where any of it is lost. Load once, patch
        // every dirty cell, serve reads from the staged cells, write back
        // once.
        let _delta = stair_obs::trace::span(stair_obs::trace::names::STORE_DELTA);
        let devices = sh.integrity.device_states();
        let mut footprint: BTreeSet<CellIdx> = BTreeSet::new();
        for f in frags {
            for block in f.blocks.clone() {
                let cell = sh.blocks.locate(block)?.cell;
                footprint.insert(cell);
                if ops[f.op].is_write() {
                    let parities = sh.codec.dependents(cell)?.iter();
                    footprint
                        .extend(parities.filter(|&&(_, dev)| devices[dev] != DeviceState::Failed));
                }
            }
        }
        let mut cells = BTreeMap::new();
        let mut staged = |cell, data: &[u8]| drop(cells.insert(cell, data.to_vec()));
        let known = self.known_erasures(stripe_idx, &devices);
        let wanted = |_: &ErasureSet| footprint.iter().copied().collect();
        let erased = self.restore(stripe_idx, &devices, known, wanted, &mut staged)?;
        // Footprint cells the restore reconstructed are written back with
        // the patch, healing them on writable devices.
        let lost = footprint.iter().filter(|&&c| erased.contains(c));
        let mut touched: BTreeSet<CellIdx> = lost.copied().collect();
        let mut deltas = BTreeMap::new();
        for f in frags {
            match ops[f.op] {
                OpRef::Write { offset, data } => {
                    for block in f.blocks.clone() {
                        let loc = sh.blocks.locate(block)?;
                        let (incoming, at) = self.incoming_for_block(block, offset, data);
                        let old = cells.get_mut(&loc.cell).ok_or_else(|| {
                            CodeError::Internal(format!("{:?} is not staged", loc.cell))
                        })?;
                        // Two disjoint writes into one block add up to
                        // one delta `old ⊕ new`.
                        let delta = deltas.entry(loc.cell).or_insert_with(|| vec![0; old.len()]);
                        let window = delta.iter_mut().zip(old.iter_mut()).skip(at);
                        for ((d, o), &new) in window.zip(incoming) {
                            *d ^= *o ^ new;
                            *o = new;
                        }
                        sh.counters.count_update();
                        touched.insert(loc.cell);
                        let w = write_slot(results, f.op);
                        w.blocks_written += 1;
                        w.delta_updates += 1;
                    }
                    write_slot(results, f.op).bytes += self.fragment_bytes(&ops[f.op], &f.blocks);
                }
                OpRef::Read { offset, .. } => {
                    // Every staged cell is verified or restored, and
                    // reads are disjoint from the plan's writes, so
                    // staging cannot have changed the bytes a read wants.
                    #[expect(
                        clippy::unreachable,
                        reason = "planner invariant: read fragments index read results"
                    )]
                    let OpResult::Read(out) = &mut results[f.op] else {
                        unreachable!("read fragment indexed a write result")
                    };
                    for block in f.blocks.clone() {
                        let cell = sh.blocks.locate(block)?.cell;
                        let staged = cells.get(&cell).ok_or_else(|| {
                            CodeError::Internal(format!("{cell:?} is not staged"))
                        })?;
                        self.copy_block(block, staged, offset, out);
                    }
                }
            }
        }
        // One plan adds every delta into the dependent parities the
        // footprint staged: its targets are in `cells` by construction.
        let changed: Vec<CellIdx> = deltas.keys().copied().collect();
        let plan = sh
            .codec
            .update_plan(&changed, &|c| cells.contains_key(&c))?;
        let targets = plan.recovers();
        let parities = cells.iter_mut().filter(|(c, _)| targets.contains(c));
        let mut patch = Patch {
            symbol: sym,
            deltas: &deltas,
            parities: parities.map(|(&c, p)| (c, &mut p[..])).collect(),
        };
        plan.execute(sh.codec.codec_id(), &mut patch)?;
        touched.extend(targets);
        write_slot(results, first_write).stripes_touched += 1;
        Ok(Some(StagedWrite {
            stripe_idx,
            cells: StagedCells::Sparse(cells),
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
        #[expect(
            clippy::unreachable,
            reason = "planner invariant: write fragments index write results"
        )]
        OpResult::Read(_) => unreachable!("write fragment indexed a read result"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BadSector, StoreOptions, StripeStore};
    use stair_code::ErasureSet;
    use stair_device::IoOp;
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

    /// `OpRef::conflicts` works per byte, so two disjoint sub-block writes
    /// can land in one block of one batch: the block's delta is the sum
    /// of both, and the one update plan adds it once.
    #[test]
    fn disjoint_writes_into_one_block_add_up_to_one_delta() {
        let (dir, store, base) = small_store("one-block-twice");
        let sym = store.block_size();
        // Blocks 3 and 9 of stripe 0: two cells, two data devices.
        let (a, b) = (pattern(10, 90), pattern(20, 91));
        let other = pattern(sym, 92);
        let ops = [
            OpRef::Write {
                offset: (3 * sym + 4) as u64,
                data: &a,
            },
            OpRef::Write {
                offset: (9 * sym) as u64,
                data: &other,
            },
            OpRef::Write {
                offset: (3 * sym + 30) as u64,
                data: &b,
            },
        ];
        assert!(!OpRef::conflicts(&ops));
        let before = store.io_stats();
        store.submit_ops(&ops).unwrap();
        let after = store.io_stats();
        assert_eq!(after.stripe_locks - before.stripe_locks, 1);
        assert_eq!(after.delta_update_calls - before.delta_update_calls, 3);
        let mut expected = base.clone();
        expected[3 * sym + 4..3 * sym + 14].copy_from_slice(&a);
        expected[3 * sym + 30..3 * sym + 50].copy_from_slice(&b);
        expected[9 * sym..10 * sym].copy_from_slice(&other);
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        assert!(store.scrub(1).unwrap().clean());
        // Every parity on disk is the re-encode of the new bytes.
        let encoded = stripe_zero(&store, &expected);
        for (&(stripe, row, dev), sector) in &disk_image(&store) {
            if stripe == 0 {
                assert_eq!(sector, encoded.cell((row, dev)), "({row},{dev})");
            }
        }
        // With block 3's device and a parity device failed, block 3 is
        // rebuilt from the patched parity.
        let (_, dev) = store.geometry().data_cells[3];
        let parity_dev = store.geometry().n - 1;
        store.fail_device(dev).unwrap();
        store.fail_device(parity_dev).unwrap();
        let stripe_bytes = store.blocks_per_stripe() * sym;
        let before = store.io_stats();
        let got = store.read_at(0, stripe_bytes).unwrap();
        assert_eq!(got, expected[..stripe_bytes]);
        assert!(store.io_stats().recover_passes > before.recover_passes);
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
        // Block 1 lives in cell (0, 1) — on the failed device.
        let mut batch = IoBatch::new();
        batch
            .write(sym, pattern(sym as usize, 80))
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
        expected[sym as usize..2 * sym as usize].copy_from_slice(&pattern(sym as usize, 80));
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);

        // Block 0 — cell (0, 0), parities on devices 3..8 — and the same
        // read: the footprint avoids the failed device, so the degraded
        // stripe is not restored (and not paid for) at all.
        let mut batch = IoBatch::new();
        batch
            .write(0, pattern(sym as usize, 81))
            .read(5 * sym, (2 * sym) as usize);
        let before = store.io_stats();
        let result = store.submit(&batch).unwrap();
        let after = store.io_stats();
        assert_eq!(after.recover_passes, before.recover_passes);
        assert_eq!(result.write.delta_updates, 1);
        let OpResult::Read(got) = &result.results[1] else {
            panic!("op 1 is a read")
        };
        assert_eq!(got, &base[(5 * sym) as usize..(7 * sym) as usize]);
        expected[..sym as usize].copy_from_slice(&pattern(sym as usize, 81));
        assert_eq!(store.read_at(0, expected.len()).unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The three codec families on the ledger's geometry.
    const FAMILIES: [&str; 3] = ["stair:8,16,2,1-2", "sd:8,16,2,3", "rs:8,16,2"];

    /// Every sector of every device file present, keyed `(stripe, row, dev)`.
    fn disk_image(store: &StripeStore) -> BTreeMap<(usize, usize, usize), Vec<u8>> {
        let geom = store.geometry();
        let sym = store.block_size();
        let mut image = BTreeMap::new();
        for dev in 0..geom.n {
            // A failed device has no file, and so no sectors.
            let Ok(raw) = std::fs::read(store.dir().join(crate::device::device_file_name(dev)))
            else {
                continue;
            };
            for (k, sector) in raw.chunks(sym).enumerate() {
                image.insert((k / geom.r, k % geom.r, dev), sector.to_vec());
            }
        }
        image
    }

    #[test]
    fn healthy_single_block_write_touches_one_plus_penalty_sectors() {
        for spec in FAMILIES {
            let dir = tmpdir(&format!("footprint-{}", &spec[..2]));
            let opts = StoreOptions {
                code: spec.parse().unwrap(),
                symbol: 16,
                stripes: 2,
            };
            let store = StripeStore::create(&dir, &opts).unwrap();
            store
                .write_at(0, &pattern(store.capacity() as usize, 5))
                .unwrap();
            let sym = store.block_size();
            let per = store.blocks_per_stripe();
            let data_cells = store.geometry().data_cells.clone();
            let mut read_total = 0u64;
            // Stripe 1, so a stripe-index mix-up cannot hide in stripe 0.
            for (k, &cell) in data_cells.iter().enumerate() {
                let mut footprint: BTreeSet<CellIdx> = store
                    .codec()
                    .dependents(cell)
                    .unwrap()
                    .iter()
                    .copied()
                    .collect();
                footprint.insert(cell);
                let disk_before = disk_image(&store);
                let before = store.io_stats();
                // Every byte differs from the old block, so every
                // dependent parity's bytes change too (c ≠ 0, Δ ≠ 0).
                let old = store.read_at(((per + k) * sym) as u64, sym).unwrap();
                let fresh: Vec<u8> = old.iter().map(|b| b ^ (k as u8 | 0x80)).collect();
                let reads_of_old = store.io_stats().sector_reads - before.sector_reads;
                assert_eq!(reads_of_old, 1);
                let before = store.io_stats();
                store.write_at(((per + k) * sym) as u64, &fresh).unwrap();
                let after = store.io_stats();
                let read = after.sector_reads - before.sector_reads;
                assert_eq!(read, footprint.len() as u64, "{spec} cell {cell:?}");
                assert_eq!(after.recover_passes, before.recover_passes);
                read_total += read;
                // ... and writes exactly the same set.
                let disk_after = disk_image(&store);
                let written: BTreeSet<CellIdx> = disk_after
                    .iter()
                    .filter(|(key, sector)| disk_before[*key] != **sector)
                    .map(|(&(stripe, row, dev), _)| {
                        assert_eq!(stripe, 1, "{spec} cell {cell:?}");
                        (row, dev)
                    })
                    .collect();
                assert_eq!(written, footprint, "{spec} cell {cell:?}");
            }
            if spec.starts_with("stair") {
                // §6.3: 1 + the mean update penalty of stair:8,16,2,1-2.
                let mean = read_total as f64 / data_cells.len() as f64;
                assert!((mean - 9.516).abs() < 5e-4, "mean footprint {mean}");
            }
            assert!(store.scrub(1).unwrap().clean());
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// How many positioned writes `cells` of one stripe take: one per
    /// run of consecutive rows on one device.
    fn runs_of(cells: &BTreeSet<CellIdx>) -> u64 {
        let mut by_dev: Vec<(usize, usize)> = cells.iter().map(|&(row, dev)| (dev, row)).collect();
        by_dev.sort_unstable();
        by_dev.chunk_by(|a, b| *b == (a.0, a.1 + 1)).count() as u64
    }

    /// Writes `cells` of `stripe` the way the store did before the run
    /// rule: one positioned write each, in row-major order, straight
    /// into the device files.
    fn write_sector_by_sector(
        store: &StripeStore,
        stripe: usize,
        from: &StripeBuf,
        cells: &BTreeSet<CellIdx>,
    ) {
        use std::os::unix::fs::FileExt;
        let (r, sym) = (store.geometry().r, store.block_size());
        for &(row, dev) in cells {
            let path = store.dir().join(crate::device::device_file_name(dev));
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            let at = ((stripe * r + row) * sym) as u64;
            file.write_all_at(from.cell((row, dev)), at).unwrap();
        }
    }

    #[test]
    fn full_stripe_write_is_one_run_per_writable_device_and_the_same_bytes() {
        for spec in FAMILIES {
            for down in [
                None,
                Some(DeviceState::Failed),
                Some(DeviceState::Rebuilding),
            ] {
                // The write under test goes to one store, its reference —
                // sector by sector — to an identical twin.
                let (dir, store, _) = family_store("wruns", spec);
                let (twin_dir, twin, _) = family_store("wruns-twin", spec);
                let gone = 2;
                for s in [&store, &twin] {
                    if down.is_some() {
                        s.fail_device(gone).unwrap();
                    }
                    if down == Some(DeviceState::Rebuilding) {
                        rebuilding(s, gone);
                    }
                }
                let geom = store.geometry().clone();
                let (sym, per) = (store.block_size(), store.blocks_per_stripe());
                let fresh = pattern(per * sym, 91);
                let before = store.io_stats();
                store.write_at((per * sym) as u64, &fresh).unwrap();
                let after = store.io_stats();
                // A `Failed` device is not written; a `Rebuilding` one is.
                let failed = down == Some(DeviceState::Failed);
                let writable = (geom.n - usize::from(failed)) as u64;
                let tag = format!("{spec} {down:?}");
                assert_eq!(after.write_runs - before.write_runs, writable, "{tag}");
                let sectors = after.sector_writes - before.sector_writes;
                assert_eq!(sectors, geom.r as u64 * writable, "{tag}");

                let mut stripe = StripeBuf::new(geom.r, geom.n, sym).unwrap();
                for (&cell, block) in geom.data_cells.iter().zip(fresh.chunks(sym)) {
                    stripe.set_cell(cell, block);
                }
                twin.codec().encode(&mut stripe).unwrap();
                let grid = (0..geom.r).flat_map(|row| (0..geom.n).map(move |dev| (row, dev)));
                let cells = grid.filter(|&(_, dev)| !(failed && dev == gone)).collect();
                write_sector_by_sector(&twin, 1, &stripe, &cells);
                assert!(disk_image(&store) == disk_image(&twin), "{tag}");
                let got = store.read_at((per * sym) as u64, fresh.len()).unwrap();
                assert!(got == fresh, "{tag}");
                drop((store, twin));
                std::fs::remove_dir_all(&dir).unwrap();
                std::fs::remove_dir_all(&twin_dir).unwrap();
            }
        }
    }

    #[test]
    fn healthy_single_block_write_writes_its_footprint_in_runs_and_the_same_bytes() {
        for spec in FAMILIES {
            let (dir, store, base) = family_store("wfoot", spec);
            let (twin_dir, twin, _) = family_store("wfoot-twin", spec);
            let geom = store.geometry().clone();
            let (sym, per) = (store.block_size(), store.blocks_per_stripe());
            for (k, &cell) in geom.data_cells.iter().enumerate() {
                let at = (per + k) * sym;
                // Every byte differs from the old block, so every
                // dependent parity's bytes change too (c ≠ 0, Δ ≠ 0).
                let fresh: Vec<u8> = base[at..at + sym]
                    .iter()
                    .map(|b| b ^ (k as u8 | 0x80))
                    .collect();
                let mut footprint: BTreeSet<CellIdx> = store
                    .codec()
                    .dependents(cell)
                    .unwrap()
                    .iter()
                    .copied()
                    .collect();
                footprint.insert(cell);
                let before = store.io_stats();
                store.write_at(at as u64, &fresh).unwrap();
                let after = store.io_stats();
                let sectors = after.sector_writes - before.sector_writes;
                let runs = after.write_runs - before.write_runs;
                assert_eq!(sectors, footprint.len() as u64, "{spec} cell {cell:?}");
                assert_eq!(runs, runs_of(&footprint), "{spec} cell {cell:?}");
                assert!(runs <= sectors);

                // The twin: the same patch on the stripe as its files hold
                // it, written back one sector at a time.
                let mut stripe = StripeBuf::new(geom.r, geom.n, sym).unwrap();
                for ((s, row, dev), sector) in disk_image(&twin) {
                    if s == 1 {
                        stripe.set_cell((row, dev), &sector);
                    }
                }
                let patched = twin.codec().update(&mut stripe, cell, &fresh).unwrap();
                assert_eq!(patched.len() + 1, footprint.len());
                write_sector_by_sector(&twin, 1, &stripe, &footprint);
                assert!(
                    disk_image(&store) == disk_image(&twin),
                    "{spec} cell {cell:?}"
                );
            }
            assert!(store.scrub(1).unwrap().clean());
            drop((store, twin));
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&twin_dir).unwrap();
        }
    }

    #[test]
    fn sixteen_stripe_batch_reads_the_sum_of_its_footprints() {
        for spec in FAMILIES {
            let dir = tmpdir(&format!("sum-{}", &spec[..2]));
            let opts = StoreOptions {
                code: spec.parse().unwrap(),
                symbol: 16,
                stripes: 16,
            };
            let store = StripeStore::create(&dir, &opts).unwrap();
            let sym = store.block_size();
            let per = store.blocks_per_stripe();
            let data_cells = store.geometry().data_cells.clone();
            let mut batch = IoBatch::new();
            let mut expected = 0u64;
            for stripe in 0..16 {
                let k = (stripe * 37 + 11) % per;
                batch.write(
                    ((stripe * per + k) * sym) as u64,
                    pattern(sym, stripe as u8),
                );
                expected += 1 + store.codec().dependents(data_cells[k]).unwrap().len() as u64;
            }
            let before = store.io_stats();
            let result = store.submit(&batch).unwrap();
            let after = store.io_stats();
            assert_eq!(result.write.stripes_touched, 16);
            assert_eq!(after.sector_reads - before.sector_reads, expected, "{spec}");
            let geom = store.geometry();
            assert!(expected < 16 * (geom.r * geom.n) as u64 / 4);
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// xorshift64*, so the session below replays exactly.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }
    }

    /// A store next to the model of everything the restore path reacts
    /// to: the bytes, the devices that are not `Healthy`, and the
    /// corrupted sectors no write has healed yet.
    struct Modelled {
        store: StripeStore,
        bytes: Vec<u8>,
        down: BTreeSet<usize>,
        /// The devices of `down` that are `Failed`: never written, so
        /// a write's footprint leaves their parities out.
        failed: BTreeSet<usize>,
        bad: BTreeSet<(usize, usize, usize)>,
        rng: Rng,
    }

    impl Modelled {
        /// Per touched stripe, the footprint of writing `len` bytes at
        /// `offset`.
        fn footprints(&self, offset: usize, len: usize) -> BTreeMap<usize, BTreeSet<CellIdx>> {
            let (sym, per) = (self.store.block_size(), self.store.blocks_per_stripe());
            let mut by_stripe: BTreeMap<usize, BTreeSet<CellIdx>> = BTreeMap::new();
            for block in offset / sym..(offset + len).div_ceil(sym) {
                let cell = self.store.geometry().data_cells[block % per];
                let footprint = by_stripe.entry(block / per).or_default();
                footprint.insert(cell);
                let parities = self.store.codec().dependents(cell).unwrap().iter();
                footprint.extend(parities.filter(|(_, dev)| !self.failed.contains(dev)));
            }
            by_stripe
        }

        /// Sectors one restore may read: each healthy sector once.
        fn restore_bound(&self) -> u64 {
            let geom = self.store.geometry();
            (geom.r * (geom.n - self.down.len())) as u64
        }

        /// Writes, and holds the store to the rule: one restore pass
        /// per stripe whose footprint is damaged, none otherwise, and
        /// no more sectors read than its healthy ones.
        fn write(&mut self, offset: usize, len: usize) {
            let data = pattern(len, self.rng.below(251) as u8);
            let (mut damaged, mut bound) = (0u64, 0u64);
            for (stripe, footprint) in self.footprints(offset, len) {
                let hit = |&(row, dev): &CellIdx| {
                    self.down.contains(&dev) || self.bad.contains(&(stripe, row, dev))
                };
                if footprint.iter().any(hit) {
                    damaged += 1;
                    bound += self.restore_bound();
                    // The restored footprint is written back, healed.
                    let healed =
                        |&(s, row, dev): &BadSector| s == stripe && footprint.contains(&(row, dev));
                    self.bad.retain(|b| !healed(b));
                } else {
                    bound += footprint.len() as u64;
                }
            }
            let before = self.store.io_stats();
            self.store.write_at(offset as u64, &data).unwrap();
            let after = self.store.io_stats();
            let passes = after.recover_passes - before.recover_passes;
            assert_eq!(passes, damaged, "write {offset}+{len}");
            let reads = after.sector_reads - before.sector_reads;
            assert!(reads <= bound, "write {offset}+{len} read {reads}");
            self.bytes[offset..offset + len].copy_from_slice(&data);
        }

        /// A partial write of up to three blocks, off alignment.
        fn random_write(&mut self) {
            let sym = self.store.block_size();
            let len = 1 + self.rng.below(3 * sym);
            let offset = self.rng.below(self.bytes.len() - len);
            self.write(offset, len);
        }

        /// Reads, and holds the store to the rule: the store's bytes
        /// are the array's, and a stripe costs one recovery pass exactly
        /// when a block wanted from it is lost — damage elsewhere in the
        /// stripe is not this read's business — and reads no more than
        /// its wanted sectors and, when it restores, its healthy ones.
        fn read(&mut self, offset: usize, len: usize) {
            let (sym, per) = (self.store.block_size(), self.store.blocks_per_stripe());
            let blocks = offset / sym..(offset + len).div_ceil(sym);
            let mut lossy: BTreeSet<usize> = BTreeSet::new();
            for block in blocks.clone() {
                let (row, dev) = self.store.geometry().data_cells[block % per];
                if self.down.contains(&dev) || self.bad.contains(&(block / per, row, dev)) {
                    lossy.insert(block / per);
                }
            }
            let before = self.store.io_stats();
            let got = self.store.read_at(offset as u64, len).unwrap();
            let after = self.store.io_stats();
            let passes = after.recover_passes - before.recover_passes;
            assert!(
                got == self.bytes[offset..offset + len],
                "read {offset}+{len}"
            );
            assert_eq!(passes, lossy.len() as u64, "read {offset}+{len}");
            let reads = after.sector_reads - before.sector_reads;
            let bound = blocks.len() as u64 + lossy.len() as u64 * self.restore_bound();
            assert!(reads <= bound, "read {offset}+{len} read {reads}");
        }

        /// A read of up to twelve blocks, off alignment.
        fn random_read(&mut self) {
            let sym = self.store.block_size();
            let len = 1 + self.rng.below(12 * sym);
            let offset = self.rng.below(self.bytes.len() - len);
            self.read(offset, len);
        }

        /// Flips one sector nobody has a record of; `None` if the draw
        /// would take its stripe past one bad sector (what every codec
        /// here survives next to a lost device).
        fn corrupt_somewhere(&mut self) -> Option<BadSector> {
            let geom = self.store.geometry();
            let stripe = self.rng.below(self.store.stripe_count());
            let (row, dev) = (self.rng.below(geom.r), self.rng.below(geom.n));
            if self.down.contains(&dev) || self.bad.iter().any(|&(s, _, _)| s == stripe) {
                return None;
            }
            self.store.corrupt_sectors(dev, stripe, row, 1).unwrap();
            self.bad.insert((stripe, row, dev));
            Some((stripe, row, dev))
        }

        fn assert_bytes(&self) {
            let got = self.store.read_at(0, self.bytes.len()).unwrap();
            assert!(got == self.bytes, "store diverged from the byte array");
        }
    }

    #[test]
    fn damaged_footprints_fall_back_and_stay_a_byte_array() {
        for spec in ["stair:8,4,2,1-1-2", "sd:8,4,2,2", "rs:8,4,2"] {
            let dir = tmpdir(&format!("fallback-{}", &spec[..2]));
            let opts = StoreOptions {
                code: spec.parse().unwrap(),
                symbol: 64,
                stripes: 6,
            };
            let store = StripeStore::create(&dir, &opts).unwrap();
            let base = pattern(store.capacity() as usize, 9);
            store.write_at(0, &base).unwrap();
            let (sym, per) = (store.block_size(), store.blocks_per_stripe());
            let mut m = Modelled {
                store,
                bytes: base,
                down: BTreeSet::new(),
                failed: BTreeSet::new(),
                bad: BTreeSet::new(),
                rng: Rng(0x5EED ^ spec.len() as u64),
            };
            for _ in 0..12 {
                m.random_write();
            }
            // Corrupt one sector inside the next write's footprint —
            // the data cell, then a parity — one stripe at a time (RS
            // rows tolerate no more).
            for stripe in 0..4 {
                let block = stripe * per + m.rng.below(per);
                let footprint = m.footprints(block * sym, sym).remove(&stripe).unwrap();
                let pick = if stripe % 2 == 0 {
                    0
                } else {
                    m.rng.below(footprint.len())
                };
                let (row, dev) = *footprint.iter().nth(pick).unwrap();
                m.store.corrupt_sectors(dev, stripe, row, 1).unwrap();
                m.bad.insert((stripe, row, dev));
                // A neighbour stripe's write neither sees nor pays.
                m.write(((stripe + 1) * per) * sym + 3, sym);
                m.write(block * sym, sym);
                assert!(m.bad.is_empty());
            }
            // Fail the device holding one parity of the next write: the
            // write leaves that parity out and restores nothing.
            let block = 4 * per + m.rng.below(per);
            let cell = m.store.geometry().data_cells[block % per];
            let (_, parity_dev) = *m.store.codec().dependents(cell).unwrap().last().unwrap();
            m.store.fail_device(parity_dev).unwrap();
            m.down.insert(parity_dev);
            m.failed.insert(parity_dev);
            m.write(block * sym, sym);
            for _ in 0..12 {
                m.random_write();
            }
            m.assert_bytes();
            // An interrupted repair: the replacement is attached and
            // `Rebuilding`, no stripe rebuilt yet. Writes go on — through
            // the restore path exactly when they touch it.
            rebuilding(&m.store, parity_dev);
            m.failed.remove(&parity_dev);
            for _ in 0..12 {
                m.random_write();
            }
            m.assert_bytes();
            assert!(m.store.repair(2).unwrap().complete());
            let scrub = m.store.scrub(2).unwrap();
            assert!(scrub.clean(), "{spec}: {scrub:?}");
            m.assert_bytes();
            let Modelled { store, .. } = m;
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A ledger-geometry store, filled, plus its contents.
    fn family_store(tag: &str, spec: &str) -> (PathBuf, StripeStore, Vec<u8>) {
        let dir = tmpdir(&format!("{tag}-{}", &spec[..2]));
        let opts = StoreOptions {
            code: spec.parse().unwrap(),
            symbol: 16,
            stripes: 3,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let base = pattern(store.capacity() as usize, 7);
        store.write_at(0, &base).unwrap();
        (dir, store, base)
    }

    /// What a read of `blocks` (all in `stripe`) must load when `erased`
    /// is everything known lost there: the sources of the plan for its
    /// lost cells, and its surviving cells.
    fn planned_need(
        store: &StripeStore,
        erased: &ErasureSet,
        blocks: Range<usize>,
    ) -> BTreeSet<CellIdx> {
        let per = store.blocks_per_stripe();
        let cells = blocks.map(|b| store.geometry().data_cells[b % per]);
        let (lost, surviving): (Vec<CellIdx>, Vec<CellIdx>) =
            cells.partition(|&c| erased.contains(c));
        let plan = store.codec().plan_recover(erased, &lost).unwrap();
        assert!(plan.sources().iter().all(|&c| !erased.contains(c)));
        plan.sources().iter().copied().chain(surviving).collect()
    }

    /// Reads `blocks`, checks the bytes, and returns the (sectors read,
    /// recovery passes) it cost.
    fn read_cost(store: &StripeStore, base: &[u8], blocks: Range<usize>) -> (u64, u64) {
        let sym = store.block_size();
        let (from, to) = (blocks.start * sym, blocks.end * sym);
        let before = store.io_stats();
        assert!(store.read_at(from as u64, to - from).unwrap() == base[from..to]);
        let after = store.io_stats();
        (
            after.sector_reads - before.sector_reads,
            after.recover_passes - before.recover_passes,
        )
    }

    fn rebuilding(store: &StripeStore, dev: usize) {
        store.shared.devices.replace(dev).unwrap();
        let state = |h: &mut crate::Health| h.devices[dev] = DeviceState::Rebuilding;
        store.shared.integrity.update_health(state);
    }

    #[test]
    fn degraded_window_reads_its_plans_sources_not_the_stripe() {
        for spec in FAMILIES {
            let (dir, store, base) = family_store("sources", spec);
            let geom = store.geometry().clone();
            let per = store.blocks_per_stripe();
            store.fail_device(0).unwrap();
            store.fail_device(1).unwrap();
            let erased = ErasureSet::devices(&[0, 1], geom.r);
            // Sixteen blocks of stripe 1, rows 3 to 5: five or six of
            // them sit on the failed devices.
            let window = per + 18..per + 34;
            let need = planned_need(&store, &erased, window.clone());
            if spec.starts_with("stair") {
                // Row-local: every touched row reads its n − m survivors.
                assert_eq!(need.len(), 3 * (geom.n - geom.m));
                assert!(need.len() < geom.r * (geom.n - geom.m) / 3);
            }
            let cost = read_cost(&store, &base, window.clone());
            assert_eq!(cost, (need.len() as u64, 1), "{spec}");
            // A window with nothing lost: the fast path, its own sectors.
            assert_eq!(read_cost(&store, &base, per + 20..per + 24), (4, 0));

            // A replacement being rebuilt is as lost as a failed device,
            // and as unread: its zeros would not verify.
            rebuilding(&store, 1);
            let cost = read_cost(&store, &base, window);
            assert_eq!(cost, (need.len() as u64, 1), "{spec} rebuilding");
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn recorded_damage_is_planned_around_and_unrecorded_damage_is_replanned_once() {
        for spec in FAMILIES {
            let (dir, store, base) = family_store("burst", spec);
            let geom = store.geometry().clone();
            let per = store.blocks_per_stripe();
            // RS rows survive m = 2 losses in all: one device, and the
            // sector damage below.
            let failed: &[usize] = if spec.starts_with("rs") {
                &[0]
            } else {
                &[0, 1]
            };
            for &dev in failed {
                store.fail_device(dev).unwrap();
            }
            let mut erased = ErasureSet::devices(failed, geom.r);

            // A burst in stripe 1, found and recorded by a scrub. A
            // window over its rows then reads exactly what its plan —
            // made around the burst — names.
            let burst: &[CellIdx] = if spec.starts_with("rs") {
                &[(4, 3)]
            } else {
                &[(4, 3), (5, 3), (9, 2)]
            };
            for &(row, dev) in burst {
                store.corrupt_sectors(dev, 1, row, 1).unwrap();
            }
            assert_eq!(store.scrub(1).unwrap().mismatches.len(), burst.len());
            erased = erased.iter().chain(burst.iter().copied()).collect();
            let window = per + 18..per + 34;
            let need = planned_need(&store, &erased, window.clone());
            let cost = read_cost(&store, &base, window.clone());
            assert_eq!(cost, (need.len() as u64, 1), "{spec} recorded burst");
            assert_eq!(store.status().known_bad_sectors, burst.len());

            // Stripe 2: one source of the same window is corrupt and
            // nobody knows. The planned load meets it, the sector goes on
            // record, and the plan made around it reads only the sources
            // the first load did not — the bytes are right ...
            let window = 2 * per + 18..2 * per + 34;
            let erased = ErasureSet::devices(failed, geom.r);
            let first = planned_need(&store, &erased, window.clone());
            let wanted: Vec<CellIdx> = window.clone().map(|b| geom.data_cells[b % per]).collect();
            let (row, dev) = *first.iter().find(|c| !wanted.contains(c)).unwrap();
            store.corrupt_sectors(dev, 2, row, 1).unwrap();
            let erased: ErasureSet = erased.iter().chain([(row, dev)]).collect();
            let need = planned_need(&store, &erased, window.clone());
            let cost = read_cost(&store, &base, window.clone());
            let replanned = first.len() + need.difference(&first).count();
            assert_eq!(cost, (replanned as u64, 1), "{spec} unrecorded source");
            assert!(store
                .shared
                .integrity
                .recorded_bad_in(2)
                .contains(&(row, dev)));
            // ... and the next read of the window plans around it.
            let cost = read_cost(&store, &base, window);
            assert_eq!(cost, (need.len() as u64, 1), "{spec} after the replan");

            // Stripe 0: the unknown damage is one of four wanted sectors,
            // none on a failed device. The fast path serves the three
            // that verify, records the fourth, and reads only that one's
            // sources on top — not the three again, not the stripe.
            let mut erased = ErasureSet::devices(failed, geom.r);
            store.corrupt_sectors(3, 0, 3, 1).unwrap();
            erased = erased.iter().chain([(3, 3)]).collect();
            let plan = store.codec().plan_recover(&erased, &[(3, 3)]).unwrap();
            let cost = read_cost(&store, &base, 20..24);
            assert_eq!(
                cost,
                (4 + plan.sources().len() as u64, 1),
                "{spec} in-window"
            );
            assert!(store.shared.integrity.recorded_bad_in(0).contains(&(3, 3)));
            let need = planned_need(&store, &erased, 20..24);
            assert_eq!(read_cost(&store, &base, 20..24), (need.len() as u64, 1));
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Repairs `store`, checks it against its never-damaged `twin` byte
    /// for byte, and returns the sectors read and rewritten per stripe.
    fn repair_cost(store: &StripeStore, twin: &StripeStore) -> (u64, usize) {
        let stripes = store.stripe_count();
        let before = store.io_stats();
        let report = store.repair(1).unwrap();
        let reads = store.io_stats().sector_reads - before.sector_reads;
        assert!(report.complete());
        assert!(disk_image(store) == disk_image(twin));
        assert!(store.scrub(1).unwrap().clean());
        assert_eq!(store.status().known_bad_sectors, 0);
        let (reads, rewritten) = (reads as usize, report.sectors_rewritten);
        assert_eq!((reads % stripes, rewritten % stripes), (0, 0));
        ((reads / stripes) as u64, rewritten / stripes)
    }

    #[test]
    fn repair_reads_its_plans_sources_not_the_stripe() {
        // One failed device: a row-local plan reads n − m survivors per
        // row; SD's plan is dense and reads them all.
        for (spec, reads) in FAMILIES.into_iter().zip([96, 112, 96]) {
            let (dir, store, _) = family_store("repair-dev", spec);
            let (twin_dir, twin, _) = family_store("repair-dev-twin", spec);
            store.fail_device(0).unwrap();
            assert_eq!(repair_cost(&store, &twin), (reads, 16), "{spec}");
            drop((store, twin));
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&twin_dir).unwrap();
        }

        let spec = FAMILIES[0];
        let bursts = [(5, 2), (9, 3), (10, 3)];
        let (dir, store, _) = family_store("repair-burst", spec);
        let (twin_dir, twin, _) = family_store("repair-burst-twin", spec);
        // Recorded bursts only: each lost sector's row, not the stripe.
        for stripe in 0..store.stripe_count() {
            for (row, dev) in bursts {
                store.corrupt_sectors(dev, stripe, row, 1).unwrap();
            }
        }
        store.scrub(1).unwrap();
        assert_eq!(repair_cost(&store, &twin), (18, 3), "{spec} bursts");

        // The ledger's worst case: devices 0 and 1 rebuilt, the bursts
        // unrecorded. The rebuild reads every survivor, finds the bursts
        // and rebuilds them too, from the sectors it already read.
        for stripe in 0..store.stripe_count() {
            for (row, dev) in bursts {
                store.corrupt_sectors(dev, stripe, row, 1).unwrap();
            }
        }
        store.fail_device(0).unwrap();
        store.fail_device(1).unwrap();
        assert_eq!(store.status().known_bad_sectors, 0);
        assert_eq!(repair_cost(&store, &twin), (96, 35), "{spec} worst case");
        drop((store, twin));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&twin_dir).unwrap();
    }

    /// A write needs only the lost sectors of its footprint back, as a
    /// read needs only its own: a stripe with damage beyond coverage
    /// elsewhere takes both.
    #[test]
    fn a_write_is_as_available_as_a_read() {
        let dir = tmpdir("available");
        let opts = StoreOptions {
            code: "rs:8,4,2".parse().unwrap(),
            symbol: 64,
            stripes: 2,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let base = pattern(store.capacity() as usize, 6);
        store.write_at(0, &base).unwrap();
        // Row 0 loses three sectors, one more than RS rows survive; row 2
        // loses one.
        for (row, dev) in [(0, 0), (0, 1), (0, 2), (2, 0)] {
            store.corrupt_sectors(dev, 0, row, 1).unwrap();
        }
        assert_eq!(store.scrub(1).unwrap().mismatches.len(), 4);
        let erased = ErasureSet::new([(0, 0), (0, 1), (0, 2), (2, 0)]);
        assert!(store.codec().plan(&erased).is_err());
        assert!(store.codec().plan_recover(&erased, &[(2, 0)]).is_ok());

        let sym = store.block_size();
        let k = store
            .geometry()
            .data_cells
            .iter()
            .position(|&c| c == (2, 0))
            .unwrap();
        let block = k * sym..(k + 1) * sym;
        assert!(store.read_at(block.start as u64, sym).unwrap() == base[block.clone()]);
        let fresh = pattern(sym, 99);
        store.write_at(block.start as u64, &fresh).unwrap();
        assert!(store.read_at(block.start as u64, sym).unwrap() == fresh);
        // The write healed its sector; row 0 is still beyond coverage.
        assert!(!store.shared.integrity.recorded_bad_in(0).contains(&(2, 0)));
        assert!(matches!(
            store.read_at(0, sym),
            Err(Error::Unrecoverable { stripe: 0, .. })
        ));
        let rows = 1..store.geometry().r;
        let after_row_0 = rows.start * (store.geometry().n - 2) * sym;
        let mut expected = base[..store.capacity() as usize].to_vec();
        expected[block].copy_from_slice(&fresh);
        let got = store
            .read_at(after_row_0 as u64, expected.len() - after_row_0)
            .unwrap();
        assert!(got == expected[after_row_0..]);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A parity on a `Failed` device is never written, so a write does
    /// not need it back: with row 0 at its limit (a failed parity device
    /// and two bad data sectors), a write to a surviving data sector of
    /// that row still lands, and the row's live parity follows it.
    #[test]
    fn a_write_does_not_restore_a_parity_it_cannot_write() {
        let dir = tmpdir("failed-parity");
        let opts = StoreOptions {
            code: "rs:8,4,2".parse().unwrap(),
            symbol: 64,
            stripes: 2,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let base = pattern(store.capacity() as usize, 8);
        store.write_at(0, &base).unwrap();
        store.fail_device(7).unwrap();
        for dev in [1, 2] {
            store.corrupt_sectors(dev, 0, 0, 1).unwrap();
        }
        assert_eq!(store.scrub(1).unwrap().mismatches.len(), 2);

        let sym = store.block_size();
        let k = store
            .geometry()
            .data_cells
            .iter()
            .position(|&c| c == (0, 0))
            .unwrap();
        let block = k * sym..(k + 1) * sym;
        assert!(store.read_at(block.start as u64, sym).unwrap() == base[block.clone()]);
        let fresh = pattern(sym, 77);
        store.write_at(block.start as u64, &fresh).unwrap();
        assert!(store.read_at(block.start as u64, sym).unwrap() == fresh);

        // (0,6) is the parity the whole row, new bytes included, encodes to.
        let mut expected = base.clone();
        expected[block].copy_from_slice(&fresh);
        let stripe = stripe_zero(&store, &expected);
        assert!(disk_image(&store)[&(0, 0, 6)] == stripe.cell((0, 6)));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Stripe 0 as the codec encodes it from the logical bytes `bytes`.
    fn stripe_zero(store: &StripeStore, bytes: &[u8]) -> StripeBuf {
        let geom = store.geometry();
        let sym = store.block_size();
        let mut stripe = StripeBuf::new(geom.r, geom.n, sym).unwrap();
        for (j, &cell) in geom.data_cells.iter().enumerate() {
            stripe.set_cell(cell, &bytes[j * sym..(j + 1) * sym]);
        }
        store.codec().encode(&mut stripe).unwrap();
        stripe
    }

    /// Repair's first phase moves `Failed` devices to `Rebuilding`
    /// without a stripe lock, so it can land between a write's staging
    /// and its commit. The commit then finds the device writable, but
    /// the write never staged its parity there: it persists only what it
    /// patched, and the repair that follows rebuilds that parity from
    /// the new row.
    #[test]
    fn a_parity_device_rebuilding_before_the_commit_is_left_to_repair() {
        let dir = tmpdir("rebuilding-parity");
        let opts = StoreOptions {
            code: "rs:8,4,2".parse().unwrap(),
            symbol: 64,
            stripes: 2,
        };
        let store = StripeStore::create(&dir, &opts).unwrap();
        let base = pattern(store.capacity() as usize, 8);
        store.write_at(0, &base).unwrap();
        store.fail_device(7).unwrap();

        let sym = store.block_size();
        let k = store
            .geometry()
            .data_cells
            .iter()
            .position(|&c| c == (0, 0))
            .unwrap();
        let block = k * sym..(k + 1) * sym;
        let fresh = pattern(sym, 77);
        let ops = [OpRef::Write {
            offset: block.start as u64,
            data: &fresh,
        }];
        let mut results: Vec<OpResult> = ops.iter().map(OpRef::seed).collect();
        let frags = [Fragment {
            op: 0,
            blocks: k..k + 1,
        }];
        {
            let _guards = store.lock_stripes(&[0]);
            let staged = store
                .stage_stripe(0, &frags, &ops, &mut results)
                .unwrap()
                .unwrap();
            let (StagedCells::Sparse(cells), Some(touched)) = (&staged.cells, &staged.touched)
            else {
                panic!("a one-block write stages its footprint");
            };
            assert!(!cells.contains_key(&(0, 7)));
            assert!(touched.iter().all(|c| cells.contains_key(c)));
            rebuilding(&store, 7);
            store.group_commit(&[staged]).unwrap();
            store.shared.integrity.persist().unwrap();
        }
        assert!(store.read_at(block.start as u64, sym).unwrap() == fresh);

        let report = store.repair(1).unwrap();
        assert!(report.complete());
        let mut expected = base.clone();
        expected[block].copy_from_slice(&fresh);
        let stripe = stripe_zero(&store, &expected);
        let image = disk_image(&store);
        for (&(s, row, dev), sector) in &image {
            if s == 0 {
                assert!(*sector == stripe.cell((row, dev)), "({row},{dev})");
            }
        }
        assert!(store.scrub(1).unwrap().mismatches.is_empty());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_reads_plan_fall_back_and_stay_a_byte_array() {
        for spec in ["stair:8,4,2,1-1-2", "sd:8,4,2,2", "rs:8,4,2"] {
            let dir = tmpdir(&format!("readmodel-{}", &spec[..2]));
            let opts = StoreOptions {
                code: spec.parse().unwrap(),
                symbol: 64,
                stripes: 6,
            };
            let store = StripeStore::create(&dir, &opts).unwrap();
            let base = pattern(store.capacity() as usize, 4);
            store.write_at(0, &base).unwrap();
            let (sym, per) = (store.block_size(), store.blocks_per_stripe());
            let mut m = Modelled {
                store,
                bytes: base,
                down: BTreeSet::new(),
                failed: BTreeSet::new(),
                bad: BTreeSet::new(),
                rng: Rng(0xD15C ^ spec.len() as u64),
            };
            // Reads, writes and fresh latent damage, interleaved; each
            // damaged sector is then read head-on, twice (found, then
            // planned around).
            let session = |m: &mut Modelled, rounds: usize| {
                for round in 0..rounds {
                    m.random_read();
                    if round % 3 == 0 {
                        m.random_write();
                    }
                    if let Some((stripe, row, dev)) = m.corrupt_somewhere() {
                        let cell = (row, dev);
                        let slot = m
                            .store
                            .geometry()
                            .data_cells
                            .iter()
                            .position(|&c| c == cell);
                        if let Some(slot) = slot {
                            let at = (stripe * per + slot) * sym;
                            m.read(at.saturating_sub(sym), 3 * sym.min(m.bytes.len() - at));
                            m.read(at + 5, sym - 5);
                        }
                    }
                }
            };
            session(&mut m, 20);
            // A device goes; every window over it is planned.
            let gone = m.rng.below(m.store.geometry().n);
            m.store.fail_device(gone).unwrap();
            m.down.insert(gone);
            m.failed.insert(gone);
            m.bad.retain(|&(_, _, dev)| dev != gone);
            session(&mut m, 30);
            m.assert_bytes();
            // Its replacement is attached but not rebuilt: still lost.
            rebuilding(&m.store, gone);
            m.failed.remove(&gone);
            session(&mut m, 20);
            m.assert_bytes();
            // Repair reads only what it rebuilds from: damage no read
            // had cause to touch is the scrub's to find first.
            m.store.scrub(2).unwrap();
            assert!(m.store.repair(2).unwrap().complete());
            m.down.clear();
            m.bad.clear();
            session(&mut m, 10);
            // Damage no read had cause to touch is the scrub's to find.
            m.store.scrub(2).unwrap();
            assert!(m.store.repair(2).unwrap().complete());
            let scrub = m.store.scrub(2).unwrap();
            assert!(scrub.clean(), "{spec}: {scrub:?}");
            m.assert_bytes();
            let Modelled { store, .. } = m;
            drop(store);
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
