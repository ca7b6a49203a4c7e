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
//! **extended to its full capacity at open** (`set_len`) so the
//! per-commit fsync never carries a file-size update (on a journaling
//! filesystem that halves its cost). The extension is sparse, not
//! preallocated: a fresh 8 MiB segment has one 4 KiB block allocated,
//! as have the device files, so the first pass through the segment
//! still allocates blocks under each `fdatasync`; later passes rewrite
//! blocks already there. Real preallocation would write (or
//! `fallocate`) the whole segment at set-up, a cost every store
//! creation pays. The live region is delimited not
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
//! Replay reads the live records through one bounded window (1 MiB,
//! grown only to hold a single record longer than that), not the whole
//! segment into one buffer: an open pays for what the journal holds,
//! not for its capacity. The window must not shrink to one record — a
//! buffer that small leaves glibc's dynamic `mmap`/trim thresholds below
//! the stripe-sized buffers a store's first writes and reads free, and
//! set-up then trims and refaults their pages (see `REPLAY_WINDOW`).
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
//! One knob, read once per store open: `STAIR_JOURNAL=0` disables
//! appends (replay of an existing journal still runs — a log written by
//! an enabled run must still recover). A store is created with a
//! [`DEFAULT_JOURNAL_SEGMENT`] segment, which its v3 superblock records;
//! a store opens with whatever capacity its superblock records.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use stair_code::CellIdx;
use stair_gf::fletcher32;
use stair_obs::sync::{lock, read, write};

use crate::Error;

/// File name of the journal segment inside a store directory.
pub const JOURNAL_FILE: &str = "journal.stair";

/// Segment capacity a store is created with.
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

// Same poisoning policy as `integrity.rs` (`stair_obs::sync`): a thread
// that panicked while holding a journal lock left no half-written
// *in-memory* invariant worth dying over (the file tail may hold a torn
// record, which replay already tolerates).

/// `true` unless env var `name` is set to exactly `0`.
fn env_flag(name: &str) -> bool {
    !matches!(std::env::var(name).as_deref(), Ok("0"))
}

struct Inner {
    file: File,
    /// Bytes of the segment in use (header + whole records).
    used: u64,
    /// Actual on-disk file length (≥ capacity once extended,
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

/// Bytes [`Journal::replay`] reads from the segment at a time (more only
/// to hold a single record longer than this). It must not shrink to one
/// record: glibc sets its `mmap` and trim thresholds from the largest
/// `mmap`ed block a process has freed, and a record-sized replay buffer
/// leaves them at ≈ 0.5 and 1 MiB, below the ≈ 1.3 MiB of buffers a
/// whole-stripe write or read-back allocates and frees, so a store's
/// first writes and reads trim and refault those pages (EXPERIMENTS.md
/// "Replay through a window").
const REPLAY_WINDOW: usize = 1 << 20;

/// The stretch of the segment replay holds: `buf[..len]` are the bytes
/// from offset `start` on, and nothing past `end` is ever read.
struct Window {
    size: usize,
    end: u64,
    buf: Vec<u8>,
    start: u64,
    len: usize,
}

impl Window {
    /// An empty window of `size` bytes over the segment up to `end`.
    fn new(size: usize, end: u64) -> Self {
        Window {
            size,
            end,
            buf: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// The `need` bytes at `at`, which must end by `end`; replay only
    /// moves forward, so `at` is never before the window's start. When
    /// the window does not hold them all, it moves to start at `at`: the
    /// bytes it holds from `at` on go to its front, and it reads on from
    /// the segment after them — `size` bytes, or `need` if more, or up
    /// to `end` if less.
    fn bytes(&mut self, inner: &Mutex<Inner>, at: u64, need: usize) -> Result<&[u8], Error> {
        debug_assert!(at >= self.start, "replay moved back");
        let held = self.start + self.len as u64;
        if at + need as u64 > held {
            let keep = held.saturating_sub(at) as usize;
            let fill = need.max(self.size).min((self.end - at) as usize);
            if self.buf.len() < fill {
                let mut grown = vec![0; fill];
                grown[..keep].copy_from_slice(&self.buf[self.len - keep..self.len]);
                self.buf = grown;
            } else {
                self.buf.copy_within(self.len - keep..self.len, 0);
            }
            lock(inner)
                .file
                .read_exact_at(&mut self.buf[keep..fill], at + keep as u64)?;
            self.start = at;
            self.len = fill;
        }
        let from = (at - self.start) as usize;
        Ok(&self.buf[from..from + need])
    }
}

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
    /// makes them durable (one fdatasync). Nothing appended, nothing
    /// done. Must run
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
    /// The segment file's length before this handle extended it.
    /// Beyond it, and beyond what this handle has appended since, the
    /// file holds only the zeros the extension reads as — so replay reads
    /// no further, whatever capacity the superblock claims.
    len_at_open: u64,
    enabled: bool,
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
        // Extend to full capacity once, so appends never change the
        // file length and their fsyncs carry no size update. The new
        // tail is a hole that reads as zeros — a terminator wherever the
        // live records end.
        if len < capacity {
            file.set_len(capacity)?;
            file.sync_all()?;
        }
        Ok(Journal {
            symbol,
            capacity,
            len_at_open: len,
            enabled: env_flag("STAIR_JOURNAL"),
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

    /// Segment capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of the segment currently holding records (header included).
    pub fn used_bytes(&self) -> u64 {
        lock(&self.inner).used
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
                let gate = read(&self.commit_gate);
                if lock(&self.inner).used + need <= self.capacity || checkpointed {
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
        let mut inner = lock(&self.inner);
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
        // the extended region; at the very end of the file, EOF
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
        lock(&self.inner).file.sync_data()?;
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
        let _gate = write(&self.commit_gate);
        let mut inner = lock(&self.inner);
        persist()?;
        inner.file.write_all_at(&TERMINATOR, HEADER_LEN)?;
        inner.file.sync_data()?;
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
    /// The records are read through one bounded window, a 1 MiB buffer
    /// reused from record to record and grown only for a single record
    /// longer than that, so what replay holds follows the records it
    /// parses, not the segment's capacity. The window must not shrink to
    /// one record: a buffer that small leaves glibc's dynamic `mmap`/trim
    /// thresholds below the stripe-sized buffers a store's first writes
    /// and reads free, and those then trim and refault their pages.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the segment and errors from
    /// `apply`.
    pub fn replay(
        &self,
        apply: impl FnMut(&ReplayRecord<'_>) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        self.replay_through(REPLAY_WINDOW, apply)
    }

    /// [`Journal::replay`] through a `window`-byte buffer: it parses
    /// exactly what reading the whole live region into one buffer would
    /// — the region ends where the file, or what was written by the time
    /// of the open or since, ends — whatever the window.
    fn replay_through(
        &self,
        window: usize,
        mut apply: impl FnMut(&ReplayRecord<'_>) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        // Replay runs at open, where no span is current: with tracing on
        // it is a trace of its own.
        let _span = stair_obs::trace::span_or_root(stair_obs::trace::names::JRNL_REPLAY);
        let end = {
            let inner = lock(&self.inner);
            let written = self.len_at_open.max(inner.used);
            inner.file.metadata()?.len().min(written)
        };
        let mut segment = Window::new(window, end);
        let mut at = HEADER_LEN;
        let mut applied = 0u64;
        let mut prev_seq: Option<u64> = None;
        while at + 8 <= end {
            let head = segment.bytes(&self.inner, at, 8)?;
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
            let sum = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            if len < BODY_FIXED || at + 8 + len as u64 > end {
                break; // terminator stamp, or record longer than the file
            }
            let body = &segment.bytes(&self.inner, at, 8 + len)?[8..];
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
            at += 8 + len as u64;
        }
        // Appends after a dirty reopen continue from the live end
        // (the store checkpoints first, which rewinds this to the
        // header — but correctness must not depend on that).
        let mut inner = lock(&self.inner);
        inner.used = inner.used.max(at);
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

    /// One replayed record, owned: sequence number, stripe, data-image
    /// flag and cells.
    type Replayed = (u64, usize, bool, OwnedCells);

    /// What a replay leaves: the records it applied, then `used` and
    /// `seq`.
    type Outcome = (Vec<Replayed>, u64, u64);

    fn owned(rec: &ReplayRecord<'_>) -> Replayed {
        let cells = rec.cells.iter().map(|&(c, d)| (c, d.to_vec())).collect();
        (rec.seq, rec.stripe, rec.encode, cells)
    }

    /// The oracle: replay as it was before it read through a window — the
    /// whole live region read into one buffer and parsed there. Returns
    /// what it would apply and leave, without touching `j`.
    fn whole_buffer_replay(j: &Journal) -> Outcome {
        let inner = lock(&j.inner);
        let written = j.len_at_open.max(inner.used);
        let len = inner.file.metadata().unwrap().len().min(written) as usize;
        let mut buf = vec![0u8; len];
        inner.file.read_exact_at(&mut buf, 0).unwrap();
        let mut at = HEADER_LEN as usize;
        let mut records = Vec::new();
        let mut prev_seq: Option<u64> = None;
        while at + 8 <= buf.len() {
            let len = u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
            let sum = u32::from_le_bytes([buf[at + 4], buf[at + 5], buf[at + 6], buf[at + 7]]);
            if len < BODY_FIXED || at + 8 + len > buf.len() {
                break;
            }
            let body = &buf[at + 8..at + 8 + len];
            if fletcher32(body) != sum {
                break;
            }
            let Some(record) = j.decode_body(body) else {
                break;
            };
            if prev_seq.is_some_and(|p| record.seq != p + 1) {
                break;
            }
            prev_seq = Some(record.seq);
            records.push(owned(&record));
            at += 8 + len;
        }
        let used = inner.used.max(at as u64);
        let seq = inner.seq.max(prev_seq.map_or(0, |p| p + 1));
        (records, used, seq)
    }

    /// Replays `j` through windows of 1, 7, 8 and 9 bytes, one byte less
    /// than, exactly and one byte more than a `record`-byte record, and
    /// the shipped size; each must apply, and leave, what the oracle
    /// does. Returns the records.
    fn replays_alike(j: &Journal, record: u64) -> Vec<Replayed> {
        let want = whole_buffer_replay(j);
        let record = record as usize;
        for window in [1, 7, 8, 9, record - 1, record, record + 1, REPLAY_WINDOW] {
            let mut records = Vec::new();
            let n = j
                .replay_through(window, |rec| {
                    records.push(owned(rec));
                    Ok(())
                })
                .unwrap();
            assert_eq!(n, records.len() as u64, "window {window}");
            let got = (records, j.used_bytes(), lock(&j.inner).seq);
            assert!(got == want, "window {window}: {got:?} != {want:?}");
        }
        want.0
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
        assert_eq!(replays_alike(&j, j.record_len(4)).len(), 2);
        let reopened = Journal::open_or_create(&dir, 16, 1 << 20).unwrap();
        assert_eq!(replays_alike(&reopened, j.record_len(4)).len(), 2);
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
        // reopen extends the tail back with zeros, exactly what a
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
        assert_eq!(replays_alike(&j, j.record_len(3)).len(), 1);
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
        assert!(replays_alike(&j, j.record_len(2)).is_empty());
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
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_still_commits() {
        let dir = tmpdir("oversized");
        let j = Journal::open_or_create(&dir, 64, 16).unwrap();
        let a = cells(64, 5, 4);
        commit(&j, 7, &a, false, || Ok(()));
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 1);
        assert_eq!(replays_alike(&j, j.record_len(4)).len(), 1);
        let reopened = Journal::open_or_create(&dir, 64, 16).unwrap();
        assert_eq!(replays_alike(&reopened, j.record_len(4)).len(), 1);
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
        assert!(replays_alike(&j, j.record_len(2)).is_empty());
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
        assert_eq!(replays_alike(&j, j.record_len(3)).len(), 2);
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
        let g = Journal::open_or_create(&grouped, 16, 4096).unwrap();
        commit_group(&g, [(4, &a, false), (9, &b, true), (2, &c, false)]);
        assert_eq!(g.append_count(), 3);
        assert_eq!(g.used_bytes(), j.used_bytes());
        assert!(
            std::fs::read(grouped.join(JOURNAL_FILE)).unwrap()
                == std::fs::read(singly.join(JOURNAL_FILE)).unwrap()
        );
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
        assert_eq!(replays_alike(&j, j.record_len(3)).len(), 1);
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
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 3);
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
        assert!(replays_alike(&j, j.record_len(2)).is_empty());
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
        assert_eq!(replays_alike(&j, j.record_len(2)).len(), 1);
        let reopened = Journal::open_or_create(&dir, 8, 1 << 20).unwrap();
        assert_eq!(replays_alike(&reopened, j.record_len(2)).len(), 1);
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
        assert_eq!(replays_alike(&j, j.record_len(3)).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the property does to the segment after its commits.
    #[derive(Debug)]
    enum Tail {
        /// Nothing: the terminator stamp ends the live records.
        Stamped,
        /// Garbage over the stamp and on past it.
        Garbage(Vec<u8>),
        /// The file cut at an offset, as a torn append leaves it.
        Cut(u64),
        /// One byte flipped at an offset.
        Flip(u64),
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random commits into a segment small enough to checkpoint now
        /// and then (leaving stale records past the rewound stamp), then
        /// a random tail; every window parses what the whole buffer
        /// does, on the writing handle and on a reopened one.
        #[test]
        fn every_window_parses_what_the_whole_buffer_does(
            records in proptest::collection::vec(
                (1usize..6, proptest::prelude::any::<bool>(), 0usize..40, 1usize..4),
                0..14,
            ),
            tail in (0usize..4, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160), proptest::prelude::any::<u64>()),
        ) {
            let dir = tmpdir("windows");
            let capacity = 12 + 400;
            let j = Journal::open_or_create(&dir, 8, capacity).unwrap();
            for &(cells_n, encode, stripe, group) in &records {
                // `group` records through one guard, each one cell more.
                let owned: Vec<OwnedCells> = (0..group)
                    .map(|k| cells(8, stripe as u8 + k as u8, cells_n + k))
                    .collect();
                let reserve: Vec<usize> = owned.iter().map(Vec::len).collect();
                let mut g = j.begin(&reserve, || Ok(())).unwrap().unwrap();
                for (k, c) in owned.iter().enumerate() {
                    g.append(stripe + k, &borrow(c), encode);
                }
                g.sync().unwrap();
            }
            let live_end = j.used_bytes();
            let tail = match tail {
                (0, ..) => Tail::Stamped,
                (1, garbage, _) => Tail::Garbage(garbage),
                (2, _, at) => Tail::Cut(HEADER_LEN + at % (live_end - HEADER_LEN + 1)),
                // Inside the records or the stamp after them.
                (_, _, at) => Tail::Flip(HEADER_LEN + at % (live_end - HEADER_LEN + 8)),
            };
            let path = dir.join(JOURNAL_FILE);
            let file = OpenOptions::new().read(true).write(true).open(&path).unwrap();
            match &tail {
                Tail::Stamped => {}
                Tail::Garbage(garbage) => file.write_all_at(garbage, live_end).unwrap(),
                Tail::Cut(at) => file.set_len(*at).unwrap(),
                Tail::Flip(at) => {
                    let mut b = [0u8];
                    file.read_exact_at(&mut b, *at).unwrap();
                    file.write_all_at(&[b[0] ^ 0x5a], *at).unwrap();
                }
            }
            drop(file);
            let record = j.record_len(3);
            replays_alike(&j, record);
            drop(j);
            let reopened = Journal::open_or_create(&dir, 8, capacity).unwrap();
            replays_alike(&reopened, record);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let dir = tmpdir("magic");
        std::fs::write(dir.join(JOURNAL_FILE), b"NOTAJRNL\0\0\0\0").unwrap();
        assert!(Journal::open_or_create(&dir, 8, 1 << 20).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
