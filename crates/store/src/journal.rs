//! stair-journal: the store's write-ahead intent log.
//!
//! The store persists stripes **in place**, so a crash between the
//! first and last sector write of a stripe write-back leaves the
//! stripe neither old nor new — the one corruption mode an erasure
//! code cannot see (old parity over new data *verifies* per cell but
//! decodes garbage). The journal closes that hole by inverting the
//! persistence order: before any in-place sector write, the **post
//! image** of every cell the commit will touch is appended here as one
//! length-prefixed, checksummed record and (by default) fsync'd. A
//! crash at any instant then leaves one of two recoverable states:
//!
//! * the record is absent or torn → no in-place write for it can have
//!   started, the stripe is still whole under its *old* contents;
//! * the record is whole → replay at open rewrites every cell from the
//!   post image (and re-records its checksum), finishing the commit.
//!
//! Replay is idempotent — records carry absolute post-images, not
//! deltas — so replaying any prefix, any number of times, converges.
//!
//! Records come in two kinds. A **cells record** carries the literal
//! post-image of every cell the commit writes (data and parity alike)
//! and replays as raw sector writes. A **data-image record** (the
//! `ENCODE_FLAG` bit) carries only the stripe's data cells; the
//! replayer rebuilds the stripe and recomputes parity with the codec.
//! Full-stripe commits use the latter: parity is a pure function of
//! the data, so journaling it would only add bytes to the record's
//! fsync — the dominant per-commit cost.
//!
//! A *partial* commit cannot drop its parity post-images the same way.
//! Replay could re-derive them only from the stripe's data cells, and
//! the ones the commit did not write are on disk alone. Crash mid
//! write-back, then lose one device (or meet one latent bad sector)
//! before the reopen: an untouched data cell of the written row is now
//! gone, and the parities that could rebuild it — the row's, and the
//! stair/global ones — are exactly the written cell's dependents, the
//! torn ones, each old or new and nobody knows which. The row holds
//! `m + 1` unknowns against `m` parity equations: the RAID write hole.
//! The literal post-images close it, so they stay.
//! Nor can a full-stripe overwrite go record-less: its acked data would
//! sit only in the page cache until `n` device fsyncs replaced the one
//! journal `fdatasync`.
//!
//! The log is a single fixed-capacity segment file (`journal.stair`),
//! **preallocated to its full capacity at open** so the per-commit
//! fsync never carries a file-size metadata update (on a journaling
//! filesystem that halves its cost). The live region is delimited not
//! by the file length but by an eight-byte zero **terminator stamp**
//! written right after the last record: replay parses records until it
//! hits the stamp (a zero length field), a torn record (checksum
//! mismatch), or a sequence break. When a group would overflow the
//! segment, the committer first takes a **checkpoint**: under an
//! exclusive gate (waiting out every commit that is mid-flight between
//! its append and its sector writes), everything the journal vouches
//! for is made durable in place, in this order — the device files
//! (`fdatasync` each), then the dirty checksum-table entries and the
//! health record (written), then the table file (`fdatasync`) — and
//! only then is the stamp rewound to the header: no truncation, no
//! metadata churn. The table goes after the devices and is synced like
//! them because an empty journal replays nothing: a table left in the
//! page cache would, after a power loss, call every sector written
//! since its last flush corrupt. Everything after the last checkpoint
//! is therefore always still in the journal.
//!
//! Every commit — one stripe or a whole batch of them — goes through
//! the group-commit API ([`Journal::begin`] → [`CommitGuard::append`]
//! per stripe → one [`CommitGuard::sync`]): the records are encoded
//! once, back to back, into the guard's buffer, and `sync` lands them
//! with **one** positioned write (terminator included) and **one**
//! fsync, amortizing the dominant per-commit cost across the
//! submission. Sequence numbers are handed out under the same lock
//! acquisition as that write, so a group is contiguous in the file and
//! in the numbering. The fsync takes the lock again rather than keeping
//! it: a second committer can land its group while the first is about
//! to sync, one `fdatasync` then flushes both, and the second's own
//! finds nothing dirty.
//!
//! Knobs (read once per store open):
//!
//! * `STAIR_JOURNAL=0` disables appends (replay of an existing journal
//!   still runs — a log written by an enabled run must still recover);
//! * `STAIR_JOURNAL_SYNC=0` skips the per-commit fsync (still correct
//!   against `kill -9`, which does not drop the page cache; only
//!   power loss needs the fsync);
//! * `STAIR_JOURNAL_SEGMENT=<bytes>` sets the segment capacity at
//!   store creation (recorded in the v3 superblock thereafter).

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use stair_code::CellIdx;

use crate::Error;
use stair_gf::fletcher32;

/// File name of the journal segment inside a store directory.
pub const JOURNAL_FILE: &str = "journal.stair";

/// Segment capacity used when `STAIR_JOURNAL_SEGMENT` is unset at
/// store creation.
pub const DEFAULT_JOURNAL_SEGMENT: u64 = 8 * 1024 * 1024;

/// Magic prefix of the segment file.
const JOURNAL_MAGIC: &[u8; 8] = b"STAIRJNL";
/// On-disk format version (bumped only on incompatible layout change).
const FORMAT_VERSION: u32 = 1;
/// Bytes of `JOURNAL_MAGIC` + format version before the first record.
const HEADER_LEN: u64 = 12;
/// Fixed body bytes before the per-cell payloads: seq (8) + stripe (4)
/// + cell count (4, top bit = `ENCODE_FLAG`).
const BODY_FIXED: usize = 16;
/// Per-cell bytes besides the symbol payload: row (4) + dev (4).
const CELL_FIXED: usize = 8;
/// Top bit of the cell-count field: the record is a full-stripe **data
/// image** — its cells are exactly the stripe's data cells, and the
/// applier recomputes parity instead of reading it from the record.
/// Full-stripe commits use this to journal ~`k/n` of the stripe's
/// bytes; the dominant journal cost is the fsync of those bytes, so
/// the saving is directly visible in write throughput.
const ENCODE_FLAG: u32 = 1 << 31;

// Same poisoning policy as `integrity.rs`: a thread that panicked while
// holding a journal lock left no half-written *in-memory* invariant
// worth dying over (the file tail may hold a torn record, which replay
// already tolerates), so every guard recovers the lock.

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `true` unless env var `name` is set to exactly `0`.
fn env_flag(name: &str) -> bool {
    !matches!(std::env::var(name).as_deref(), Ok("0"))
}

/// The segment capacity requested by the environment at store creation.
pub fn env_journal_segment() -> u64 {
    std::env::var("STAIR_JOURNAL_SEGMENT")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(|v| v.max(HEADER_LEN))
        .unwrap_or(DEFAULT_JOURNAL_SEGMENT)
}

struct Inner {
    file: File,
    /// Bytes of the segment in use (header + whole records).
    used: u64,
    /// Actual on-disk file length (≥ capacity after preallocation,
    /// larger only while an oversized record overruns the segment).
    file_len: u64,
    /// Next record sequence number. Replay requires consecutive
    /// sequence numbers, so a stale record surviving past a rewound
    /// stamp can never be mistaken for live tail.
    seq: u64,
}

/// Eight zero bytes: a zero record-length field, which replay treats
/// as end-of-log. Stamped after every group and at each checkpoint.
const TERMINATOR: [u8; 8] = [0; 8];

/// One record decoded during replay: the stripe it commits and the
/// post-image of every cell the commit was to write.
pub struct ReplayRecord<'a> {
    /// Record sequence number as written.
    pub seq: u64,
    /// Stripe index the record commits.
    pub stripe: usize,
    /// `(cell, post-image)` for every cell of the commit. For an
    /// `encode` record these are exactly the stripe's data cells.
    pub cells: Vec<(CellIdx, &'a [u8])>,
    /// A full-stripe data image: the applier must rebuild the stripe
    /// from `cells` and recompute parity, then persist every cell.
    pub encode: bool,
}

/// Held by a committer from its first journal append until its
/// in-place sector writes are done; a checkpoint's exclusive gate
/// waits out every live guard, so the stamp rewind never races a
/// half-applied commit. Committers call [`CommitGuard::append`] once
/// per stripe and [`CommitGuard::sync`] once — group commit: the
/// records gather in the guard and reach the segment in one write under
/// one fsync.
pub struct CommitGuard<'a> {
    journal: &'a Journal,
    _gate: RwLockReadGuard<'a, ()>,
    /// The group's records, encoded back to back, their sequence numbers
    /// and checksums blank until [`CommitGuard::sync`] lands them.
    group: Vec<u8>,
}

impl CommitGuard<'_> {
    /// Adds one stripe record (post-image of every cell in `cells`) to
    /// the group; nothing reaches the segment before
    /// [`CommitGuard::sync`]. `encode` marks a full-stripe data image
    /// (`cells` must then be exactly the data cells) whose parity the
    /// replayer recomputes.
    pub fn append(&mut self, stripe: usize, cells: &[(CellIdx, &[u8])], encode: bool) {
        if !cells.is_empty() {
            self.journal
                .encode_record(&mut self.group, stripe, cells, encode);
        }
    }

    /// Lands every record appended through this guard at the live end
    /// of the segment — one positioned write, terminator included — and
    /// makes them durable (one fdatasync, skipped under
    /// `STAIR_JOURNAL_SYNC=0`). Nothing appended, nothing done. Must run
    /// before the caller's first in-place sector write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the segment write and the fsync.
    pub fn sync(&mut self) -> Result<(), Error> {
        if self.group.is_empty() {
            return Ok(());
        }
        self.journal.land(std::mem::take(&mut self.group))
    }
}

/// The write-ahead intent log of one store.
pub struct Journal {
    symbol: usize,
    capacity: u64,
    /// The segment file's length before this handle preallocated it.
    /// Beyond it, and beyond what this handle has appended since, the
    /// file holds only the zeros preallocation wrote — so replay reads
    /// no further, whatever capacity the superblock claims.
    len_at_open: u64,
    enabled: bool,
    sync: bool,
    inner: Mutex<Inner>,
    /// Shared by committers (append → write-back), exclusive for
    /// checkpoint truncation. Gate holders acquire no further locks
    /// (the inner mutex is always released before returning), so the
    /// stripe-lock → gate order cannot deadlock.
    commit_gate: RwLock<()>,
    /// Records appended since open (metrics).
    appends: std::sync::atomic::AtomicU64,
    /// Checkpoints taken since open (metrics).
    checkpoints: std::sync::atomic::AtomicU64,
}

impl Journal {
    /// Opens (creating if absent) the journal segment of the store in
    /// `dir`. `capacity` comes from the superblock; `symbol` fixes the
    /// per-cell payload size of every record.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a file that exists but is not a stair
    /// journal (wrong magic or format version).
    pub fn open_or_create(dir: &Path, symbol: usize, capacity: u64) -> Result<Self, Error> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(JOURNAL_FILE))?;
        let capacity = capacity.max(HEADER_LEN);
        let len = file.metadata()?.len();
        if len < HEADER_LEN {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(JOURNAL_MAGIC);
            header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            file.write_all_at(&header, 0)?;
        } else {
            let mut header = [0u8; HEADER_LEN as usize];
            file.read_exact_at(&mut header, 0)?;
            if &header[..8] != JOURNAL_MAGIC {
                return Err(Error::Meta(format!("{JOURNAL_FILE} has wrong magic")));
            }
            let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
            if version != FORMAT_VERSION {
                return Err(Error::Meta(format!(
                    "{JOURNAL_FILE} format v{version} is not supported (want v{FORMAT_VERSION})"
                )));
            }
        }
        // Preallocate to full capacity once, so appends never change
        // the file length and their fsyncs stay metadata-free. The new
        // tail is zeros — a terminator wherever the live records end.
        if len < capacity {
            file.set_len(capacity)?;
            file.sync_all()?;
        }
        Ok(Journal {
            symbol,
            capacity,
            len_at_open: len,
            enabled: env_flag("STAIR_JOURNAL"),
            sync: env_flag("STAIR_JOURNAL_SYNC"),
            // `used` starts at the header: the file length no longer
            // marks the live end. A reopen over live records must
            // replay first — replay re-derives `used` from the parse —
            // and checkpoint before new commits (the store's open path
            // does exactly that).
            inner: Mutex::new(Inner {
                file,
                used: HEADER_LEN,
                file_len: len.max(capacity),
                seq: 0,
            }),
            commit_gate: RwLock::new(()),
            appends: std::sync::atomic::AtomicU64::new(0),
            checkpoints: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Records appended since this handle opened the journal.
    pub fn append_count(&self) -> u64 {
        self.appends.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Checkpoints taken since this handle opened the journal.
    pub fn checkpoint_count(&self) -> u64 {
        self.checkpoints.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether appends are on for this handle (`STAIR_JOURNAL` knob).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Segment capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of the segment currently holding records (header included).
    pub fn used_bytes(&self) -> u64 {
        mutex_lock(&self.inner).used
    }

    /// Total on-disk bytes one record with `cells` cells occupies.
    fn record_len(&self, cells: usize) -> u64 {
        (8 + BODY_FIXED + cells * (CELL_FIXED + self.symbol)) as u64
    }

    /// Opens a group commit covering up to `reserve.len()` stripe
    /// records (entry *i* = the cell count of record *i*, an upper
    /// bound is fine). Returns the guard the committer appends
    /// through, or `None` when journaling is disabled or the
    /// reservation is empty.
    ///
    /// When the reservation would overflow the segment, runs `persist`
    /// (the caller's make-everything-durable closure) under the
    /// exclusive gate and rewinds the stamp first; a reservation
    /// larger than the whole segment is still admitted (the file
    /// temporarily overruns capacity rather than wedging the store).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the checkpoint path.
    pub fn begin<'a>(
        &'a self,
        reserve: &[usize],
        persist: impl Fn() -> Result<(), Error>,
    ) -> Result<Option<CommitGuard<'a>>, Error> {
        if !self.enabled || reserve.is_empty() {
            return Ok(None);
        }
        let need: u64 = reserve.iter().map(|&cells| self.record_len(cells)).sum();
        let mut checkpointed = false;
        loop {
            {
                let gate = read_lock(&self.commit_gate);
                if mutex_lock(&self.inner).used + need <= self.capacity || checkpointed {
                    return Ok(Some(CommitGuard {
                        journal: self,
                        _gate: gate,
                        group: Vec::with_capacity(need as usize + TERMINATOR.len()),
                    }));
                }
            }
            self.checkpoint(&persist)?;
            checkpointed = true;
        }
    }

    /// Lands one group — whole records back to back, as
    /// [`Journal::encode_record`] left them — at the live end. One
    /// acquisition of `inner` covers the write: each record takes the
    /// next sequence number and then its checksum, and the group and a
    /// terminator after it go out in one write (so replay can never run
    /// past the last live record into stale pre-checkpoint bytes) —
    /// records are consecutive in the file in the order of their
    /// numbers, and a group is never interleaved with another. The
    /// fsync takes `inner` afresh: a committer that landed its group in
    /// between is flushed by the same `fdatasync`, and finds its own
    /// with nothing left to do.
    fn land(&self, mut group: Vec<u8>) -> Result<(), Error> {
        let mut inner = mutex_lock(&self.inner);
        let mut seq = inner.seq;
        let mut at = 0;
        while at < group.len() {
            let len = u32::from_le_bytes([group[at], group[at + 1], group[at + 2], group[at + 3]]);
            let body = at + 8..at + 8 + len as usize;
            group[body.start..body.start + 8].copy_from_slice(&seq.to_le_bytes());
            let sum = fletcher32(&group[body.clone()]);
            group[at + 4..at + 8].copy_from_slice(&sum.to_le_bytes());
            seq += 1;
            at = body.end;
        }
        let at = inner.used;
        let end = at + group.len() as u64;
        // The terminator rides in the same write when it fits inside
        // the preallocated region; at the very end of the file, EOF
        // itself terminates the parse.
        if end + TERMINATOR.len() as u64 <= inner.file_len {
            group.extend_from_slice(&TERMINATOR);
        }
        inner.file.write_all_at(&group, at)?;
        // Numbers are spent only by a write that happened: replay stops
        // at a sequence break, so a failed append must not leave one.
        let records = seq - inner.seq;
        inner.seq = seq;
        inner.used = end;
        inner.file_len = inner.file_len.max(at + group.len() as u64);
        self.appends
            .fetch_add(records, std::sync::atomic::Ordering::Relaxed);
        drop(inner);
        if self.sync {
            mutex_lock(&self.inner).file.sync_data()?;
        }
        Ok(())
    }

    /// Runs `persist` (make every journaled effect durable in place)
    /// and then rewinds the segment to empty by stamping a terminator
    /// at the header — the file length never changes. Waits out every
    /// in-flight [`CommitGuard`] first, so the rewind never races a
    /// commit that is between its append and its sector writes.
    /// `persist` always runs — a checkpoint is the store's durability
    /// point even when the segment is already empty.
    ///
    /// # Errors
    ///
    /// Propagates errors from `persist` and the stamp write.
    pub fn checkpoint(&self, persist: impl Fn() -> Result<(), Error>) -> Result<(), Error> {
        let _gate = write_lock(&self.commit_gate);
        let mut inner = mutex_lock(&self.inner);
        persist()?;
        inner.file.write_all_at(&TERMINATOR, HEADER_LEN)?;
        if self.sync {
            inner.file.sync_data()?;
        }
        inner.used = HEADER_LEN;
        inner.file_len = inner.file_len.max(HEADER_LEN + TERMINATOR.len() as u64);
        self.checkpoints
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Encodes one record at the end of `out`: body length, a checksum
    /// slot, then the body with a blank sequence number — both filled in
    /// by [`Journal::land`], which knows the number. The cell payloads
    /// are copied once, here.
    fn encode_record(
        &self,
        out: &mut Vec<u8>,
        stripe: usize,
        cells: &[(CellIdx, &[u8])],
        encode: bool,
    ) {
        let body_len = BODY_FIXED + cells.len() * (CELL_FIXED + self.symbol);
        out.reserve(8 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.extend_from_slice(&[0; 4 + 8]); // checksum, sequence number
        out.extend_from_slice(&(stripe as u32).to_le_bytes());
        let count = cells.len() as u32 | if encode { ENCODE_FLAG } else { 0 };
        out.extend_from_slice(&count.to_le_bytes());
        for &((row, dev), data) in cells {
            debug_assert_eq!(data.len(), self.symbol);
            out.extend_from_slice(&(row as u32).to_le_bytes());
            out.extend_from_slice(&(dev as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
    }

    /// Replays every whole record in file order, calling `apply` per
    /// record; parsing stops (without error) at the terminator stamp,
    /// at the first torn or corrupt record, or at a sequence break —
    /// by the append-before-write ordering, nothing past that point
    /// can have reached the devices. Returns the number of records
    /// applied and re-derives the live end for subsequent appends.
    /// Does **not** rewind; take a [`Journal::checkpoint`] once the
    /// replayed state is durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the segment and errors from
    /// `apply`.
    pub fn replay(
        &self,
        mut apply: impl FnMut(&ReplayRecord<'_>) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        let _span = stair_obs::trace::span(stair_obs::trace::names::JRNL_REPLAY);
        let buf = {
            let inner = mutex_lock(&self.inner);
            let written = self.len_at_open.max(inner.used);
            let len = inner.file.metadata()?.len().min(written) as usize;
            let mut buf = vec![0u8; len];
            inner.file.read_exact_at(&mut buf, 0)?;
            buf
        };
        let mut at = HEADER_LEN as usize;
        let mut applied = 0u64;
        let mut prev_seq: Option<u64> = None;
        while at + 8 <= buf.len() {
            let len = u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
            let sum = u32::from_le_bytes([buf[at + 4], buf[at + 5], buf[at + 6], buf[at + 7]]);
            if len < BODY_FIXED || at + 8 + len > buf.len() {
                break; // terminator stamp, or record longer than the file
            }
            let body = &buf[at + 8..at + 8 + len];
            if fletcher32(body) != sum {
                break; // torn tail: record half-written
            }
            let Some(record) = self.decode_body(body) else {
                break; // internally inconsistent: treat as torn
            };
            // Live records are consecutive: a checksum-lucky stale
            // record past a lost terminator cannot continue the chain.
            if prev_seq.is_some_and(|p| record.seq != p + 1) {
                break;
            }
            prev_seq = Some(record.seq);
            apply(&record)?;
            applied += 1;
            at += 8 + len;
        }
        // Appends after a dirty reopen continue from the live end
        // (the store checkpoints first, which rewinds this to the
        // header — but correctness must not depend on that).
        let mut inner = mutex_lock(&self.inner);
        inner.used = inner.used.max(at as u64);
        inner.seq = inner.seq.max(prev_seq.map_or(0, |p| p + 1));
        Ok(applied)
    }

    fn decode_body<'a>(&self, body: &'a [u8]) -> Option<ReplayRecord<'a>> {
        let seq = u64::from_le_bytes(body[..8].try_into().ok()?);
        let stripe = u32::from_le_bytes(body[8..12].try_into().ok()?) as usize;
        let raw_count = u32::from_le_bytes(body[12..16].try_into().ok()?);
        let encode = raw_count & ENCODE_FLAG != 0;
        let count = (raw_count & !ENCODE_FLAG) as usize;
        let cells_len = count.checked_mul(CELL_FIXED + self.symbol)?;
        if body.len() != BODY_FIXED.checked_add(cells_len)? {
            return None;
        }
        let mut cells = Vec::with_capacity(count);
        let mut at = BODY_FIXED;
        for _ in 0..count {
            let row = u32::from_le_bytes(body[at..at + 4].try_into().ok()?) as usize;
            let dev = u32::from_le_bytes(body[at + 4..at + 8].try_into().ok()?) as usize;
            let data = &body[at + 8..at + 8 + self.symbol];
            cells.push(((row, dev), data));
            at += CELL_FIXED + self.symbol;
        }
        Some(ReplayRecord {
            seq,
            stripe,
            cells,
            encode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-jrnl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    type OwnedCells = Vec<(CellIdx, Vec<u8>)>;

    fn cells(symbol: usize, seed: u8, n: usize) -> OwnedCells {
        (0..n)
            .map(|i| ((i / 3, i % 3), vec![seed.wrapping_add(i as u8); symbol]))
            .collect()
    }

    fn borrow(owned: &[(CellIdx, Vec<u8>)]) -> Vec<(CellIdx, &[u8])> {
        owned.iter().map(|(c, d)| (*c, d.as_slice())).collect()
    }

    /// One single-record commit, start to finish: reserve, append,
    /// sync, release the guard.
    fn commit(
        j: &Journal,
        stripe: usize,
        cells: &[(CellIdx, Vec<u8>)],
        encode: bool,
        persist: impl Fn() -> Result<(), Error>,
    ) {
        let mut g = j.begin(&[cells.len()], persist).unwrap().unwrap();
        g.append(stripe, &borrow(cells), encode);
        g.sync().unwrap();
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("rt");
        let j = Journal::open_or_create(&dir, 16, 1 << 20).unwrap();
        let a = cells(16, 1, 4);
        let b = cells(16, 9, 2);
        commit(&j, 3, &a, false, || Ok(()));
        commit(&j, 5, &b, false, || Ok(()));
        let mut seen = Vec::new();
        let n = j
            .replay(|rec| {
                seen.push((
                    rec.stripe,
                    rec.cells
                        .iter()
                        .map(|(c, d)| (*c, d.to_vec()))
                        .collect::<Vec<_>>(),
                ));
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(seen, vec![(3, a), (5, b)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_replay_without_error() {
        let dir = tmpdir("torn");
        let j = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        let a = cells(8, 2, 3);
        commit(&j, 1, &a, false, || Ok(()));
        commit(&j, 2, &a, false, || Ok(()));
        // Tear the second record: chop bytes off the live end (the
        // reopen preallocates the tail back to zeros, exactly what a
        // torn write leaves behind).
        let live_end = j.used_bytes();
        drop(j);
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(live_end - 5).unwrap();
        drop(file);
        let j = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        let n = j.replay(|rec| {
            assert_eq!(rec.stripe, 1);
            Ok(())
        });
        assert_eq!(n.unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = tmpdir("corrupt");
        let j = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        let a = cells(8, 3, 2);
        commit(&j, 0, &a, false, || Ok(()));
        // Flip one payload byte: the checksum no longer matches.
        let live_end = j.used_bytes() as usize;
        drop(j);
        let path = dir.join(JOURNAL_FILE);
        let mut raw = std::fs::read(&path).unwrap();
        raw[live_end - 3] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let j = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_segment_checkpoints_then_appends() {
        let dir = tmpdir("full");
        // Capacity fits exactly one 1-cell record (8 + 16 + 8 + 8 = 40
        // bytes) past the 12-byte header.
        let j = Journal::open_or_create(&dir, 8, 12 + 40).unwrap();
        let a = cells(8, 4, 1);
        let persists = std::sync::atomic::AtomicU64::new(0);
        let persist = || {
            persists.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        };
        commit(&j, 0, &a, false, persist);
        assert_eq!(persists.load(std::sync::atomic::Ordering::Relaxed), 0);
        // Second commit overflows → checkpoint (persist ran, segment
        // truncated) → append succeeds.
        commit(&j, 1, &a, false, persist);
        assert_eq!(persists.load(std::sync::atomic::Ordering::Relaxed), 1);
        let n = j.replay(|rec| {
            assert_eq!(rec.stripe, 1);
            Ok(())
        });
        assert_eq!(n.unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_still_commits() {
        let dir = tmpdir("oversized");
        let j = Journal::open_or_create(&dir, 64, 16).unwrap();
        let a = cells(64, 5, 4);
        commit(&j, 7, &a, false, || Ok(()));
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_is_idempotent() {
        let dir = tmpdir("ckpt");
        let j = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        let a = cells(8, 6, 2);
        commit(&j, 0, &a, false, || Ok(()));
        assert!(j.used_bytes() > HEADER_LEN);
        j.checkpoint(|| Ok(())).unwrap();
        assert_eq!(j.used_bytes(), HEADER_LEN);
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        // persist always runs (a checkpoint is the durability point
        // even with an empty segment), and its failure propagates.
        assert!(j
            .checkpoint(|| Err(Error::Meta("persist failed".into())))
            .is_err());
        assert_eq!(j.checkpoint_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_shares_one_guard_and_replays_in_order() {
        let dir = tmpdir("group");
        let j = Journal::open_or_create(&dir, 16, 1 << 20).unwrap();
        let a = cells(16, 1, 2);
        let b = cells(16, 7, 3);
        {
            let mut g = j.begin(&[2, 3], || Ok(())).unwrap().unwrap();
            g.append(4, &borrow(&a), false);
            g.append(9, &borrow(&b), true);
            g.sync().unwrap();
        }
        assert_eq!(j.append_count(), 2);
        let mut stripes = Vec::new();
        let n = j
            .replay(|rec| {
                stripes.push(rec.stripe);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(stripes, vec![4, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Three records through one guard.
    fn commit_group(j: &Journal, group: [(usize, &OwnedCells, bool); 3]) {
        let reserve = group.map(|(_, cells, _)| cells.len());
        let mut g = j.begin(&reserve, || Ok(())).unwrap().unwrap();
        for (stripe, cells, encode) in group {
            g.append(stripe, &borrow(cells), encode);
        }
        g.sync().unwrap();
    }

    #[test]
    fn a_group_lands_the_bytes_three_single_commits_did() {
        let (a, b, c) = (cells(16, 1, 2), cells(16, 7, 3), cells(16, 40, 1));
        let singly = tmpdir("bytes-singly");
        let j = Journal::open_or_create(&singly, 16, 4096).unwrap();
        commit(&j, 4, &a, false, || Ok(()));
        commit(&j, 9, &b, true, || Ok(()));
        commit(&j, 2, &c, false, || Ok(()));
        let grouped = tmpdir("bytes-grouped");
        // Without the fsync the group is written all the same.
        for sync in [true, false] {
            let _ = std::fs::remove_file(grouped.join(JOURNAL_FILE));
            let mut g = Journal::open_or_create(&grouped, 16, 4096).unwrap();
            g.sync = sync;
            commit_group(&g, [(4, &a, false), (9, &b, true), (2, &c, false)]);
            assert_eq!(g.append_count(), 3);
            assert_eq!(g.used_bytes(), j.used_bytes());
            assert!(
                std::fs::read(grouped.join(JOURNAL_FILE)).unwrap()
                    == std::fs::read(singly.join(JOURNAL_FILE)).unwrap(),
                "sync = {sync}"
            );
        }
        std::fs::remove_dir_all(&singly).unwrap();
        std::fs::remove_dir_all(&grouped).unwrap();
    }

    #[test]
    fn a_group_torn_inside_its_second_record_replays_the_first() {
        let dir = tmpdir("group-torn");
        let j = Journal::open_or_create(&dir, 8, 4096).unwrap();
        let (a, b, c) = (cells(8, 1, 2), cells(8, 7, 3), cells(8, 40, 1));
        commit_group(&j, [(4, &a, false), (9, &b, false), (2, &c, false)]);
        let cut = HEADER_LEN + j.record_len(a.len()) + j.record_len(b.len()) / 2;
        drop(j);
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let j = Journal::open_or_create(&dir, 8, 4096).unwrap();
        let mut stripes = Vec::new();
        let n = j.replay(|rec| {
            stripes.push(rec.stripe);
            Ok(())
        });
        assert_eq!((n.unwrap(), stripes), (1, vec![4]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_group_whose_reservation_checkpoints_still_lands_whole() {
        let dir = tmpdir("group-ckpt");
        // Room for three 1-cell records (40 bytes each) past the header.
        let j = Journal::open_or_create(&dir, 8, 12 + 120).unwrap();
        let a = cells(8, 4, 1);
        let persists = std::sync::atomic::AtomicU64::new(0);
        commit(&j, 0, &a, false, || Ok(()));
        {
            let persist = || {
                persists.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            };
            let mut g = j.begin(&[1, 1, 1], persist).unwrap().unwrap();
            for stripe in [5, 6, 7] {
                g.append(stripe, &borrow(&a), false);
            }
            g.sync().unwrap();
        }
        assert_eq!(persists.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(j.used_bytes(), 12 + 120);
        let mut stripes = Vec::new();
        let n = j.replay(|rec| {
            stripes.push(rec.stripe);
            Ok(())
        });
        assert_eq!((n.unwrap(), stripes), (3, vec![5, 6, 7]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_records_past_a_rewound_stamp_do_not_replay() {
        let dir = tmpdir("stale");
        let j = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        let a = cells(8, 1, 2);
        commit(&j, 0, &a, false, || Ok(()));
        commit(&j, 1, &a, false, || Ok(()));
        j.checkpoint(|| Ok(())).unwrap();
        // Only the stamp separates the now-stale records from replay.
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        // A fresh record overwrites the first stale one; replay must
        // stop at its terminator, not run on into stale record two.
        commit(&j, 7, &a, false, || Ok(()));
        let mut stripes = Vec::new();
        let n = j
            .replay(|rec| {
                stripes.push(rec.stripe);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(stripes, vec![7]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_flag_round_trips() {
        let dir = tmpdir("encflag");
        let j = Journal::open_or_create(&dir, 16, 1 << 20).unwrap();
        let a = cells(16, 2, 3);
        let b = cells(16, 5, 2);
        commit(&j, 1, &a, true, || Ok(()));
        commit(&j, 2, &b, false, || Ok(()));
        let mut kinds = Vec::new();
        let n = j
            .replay(|rec| {
                kinds.push((rec.stripe, rec.encode, rec.cells.len()));
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(kinds, vec![(1, true, 3), (2, false, 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let dir = tmpdir("magic");
        std::fs::write(dir.join(JOURNAL_FILE), b"NOTAJRNL\0\0\0\0").unwrap();
        assert!(Journal::open_or_create(&dir, 8, 1 << 20).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
