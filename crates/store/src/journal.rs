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
//! # Two segments
//!
//! The log is two segment files of one fixed capacity —
//! `journal.stair` (segment 0, the file a store always had, byte for
//! byte) and `journal.1.stair` — each **extended to its full capacity
//! at open** (`set_len`) so the per-commit fsync never carries a
//! file-size update (on a journaling filesystem that halves its cost).
//! The extension is sparse, not preallocated: a fresh 8 MiB segment has
//! one 4 KiB block allocated, as have the device files, so the first
//! pass through a segment still allocates blocks under each
//! `fdatasync`; later passes rewrite blocks already there. Real
//! preallocation would write (or `fallocate`) the whole segment at
//! set-up, a cost every store creation pays. The live region of a
//! segment is delimited not by the file length but by an eight-byte
//! zero **terminator stamp** written right after the last record:
//! replay parses records until it hits the stamp (a zero length field),
//! a torn record (checksum mismatch), or a sequence break. Sequence
//! numbers run on across the two segments.
//!
//! Appends go to the **active** segment. When a group does not fit, the
//! committer **hands off**: under an exclusive gate it waits out every
//! commit that is mid-flight between its append and its sector writes,
//! and swaps appends to the other segment, which is empty. The store's
//! one long-lived **checkpoint thread** then makes the full segment
//! durable in place, off every commit's path, in the order every
//! checkpoint uses (`make_durable`, the store's one list): the device
//! files (`fdatasync` each), the dirty checksum-table entries and the
//! health record (written), the table file (`fdatasync`) — and only
//! then stamps the full segment's terminator at its header and syncs
//! it: no truncation, no metadata churn. The table is synced like the devices because an
//! empty segment replays nothing: a table left in the page cache would,
//! after a power loss, call every sector written since its last flush
//! corrupt. A commit that fills the new segment before that work ends
//! waits for it (backpressure): appends only ever go to a segment whose
//! rewind is durable.
//!
//! Why that is safe, crash by crash:
//!
//! * Every record of the full segment had its in-place writes issued
//!   and its checksums recorded before the swap (the gate), so the
//!   thread's syncs cover them, and its rewind comes after them. Until
//!   that rewind is durable the segment still holds the records, so a
//!   crash anywhere in between replays them.
//! * A commit writes its table entries right after its sector writes,
//!   so they may reach disk *before* the device data they vouch for —
//!   the kernel writes the table file back when it likes. That is
//!   harmless: the segment holding the commit's record is not rewound
//!   before both are synced, and replay rewrites both the cells and
//!   their sums. The thread's syncs also carry data and entries of
//!   records in the new segment: early for them, never late.
//! * A crash mid background checkpoint leaves both segments live.
//!   Replay applies the segment whose first record has the lower
//!   sequence number first, then the other only if its first record
//!   continues that sequence; a newer segment that does not is ignored.
//!   Live segments always chain — a hand-off waits out every commit, so
//!   the new segment's first record takes the number after the full
//!   one's last — and a segment whose first record does not is not
//!   live.
//!
//! The **synchronous checkpoint** ([`Journal::checkpoint`]) — at
//! `flush`, at open after replay, at drop, and for a group larger than
//! one segment — waits for the thread, runs the same `make_durable`,
//! rewinds both segments and makes segment 0 active. It rewinds the
//! standby first and the active segment last, each synced on its own:
//! the standby may still hold older records (a replay left both live,
//! or its background checkpoint failed), and a crash between the two
//! rewinds must leave the newer records live, not the older ones alone
//! — replaying those would roll newer acked writes to the same cells
//! back, checksums and all. A background
//! checkpoint that fails leaves its segment un-rewound (still
//! replayable) and is reported by the next hand-off or synchronous
//! checkpoint; a hand-off after that checkpoints synchronously.
//!
//! Segment 0's header and format version are the single-segment
//! journal's, and nothing else records that a second segment exists, so
//! only upgrade is supported: a binary from before the second segment
//! opening a store this code left unclean replays segment 0 alone and
//! silently skips whatever `journal.1.stair` holds. A cleanly closed
//! store (every drop and `flush` checkpoints both segments) has nothing
//! there to skip.
//!
//! Replay reads the live records through one bounded window (1 MiB,
//! grown only to hold a single record longer than that), shared by the
//! two segments, not a whole segment into one buffer: an open pays for
//! what the journal holds, not for its capacity. The window must not
//! shrink to one record — a buffer that small leaves glibc's dynamic
//! `mmap`/trim thresholds below the stripe-sized buffers a store's
//! first writes and reads free, and set-up then trims and refaults
//! their pages (see `REPLAY_WINDOW`).
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;

use stair_code::CellIdx;
use stair_gf::fletcher32;
use stair_obs::sync::{lock, read, write};
use stair_obs::trace::{self, names};

use crate::Error;

/// File names of the two journal segments inside a store directory.
pub const JOURNAL_FILES: [&str; 2] = ["journal.stair", "journal.1.stair"];

/// Segment capacity a store is created with (each of the two).
pub const DEFAULT_JOURNAL_SEGMENT: u64 = 8 * 1024 * 1024;

/// Magic prefix of a segment file.
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

/// The append side's bookkeeping, one entry per segment.
struct Inner {
    /// The segment appends go to.
    active: usize,
    /// Bytes of each segment in use (header + whole records). The
    /// standby's is where it ended when it was handed off, until it is
    /// active again.
    used: [u64; 2],
    /// Actual on-disk length of each segment file (≥ capacity once
    /// extended, larger only while an oversized record overruns it).
    file_len: [u64; 2],
    /// Next record sequence number, across both segments. Replay
    /// requires consecutive sequence numbers, so a stale record
    /// surviving past a rewound stamp can never be mistaken for live
    /// tail.
    seq: u64,
}

/// Where the segment that is not taking appends stands.
enum Standby {
    /// Rewound, durably: the next hand-off can swap appends to it.
    Free,
    /// Handed off: the checkpoint thread is making this segment durable.
    Checkpointing(usize),
    /// The checkpoint thread failed on it: the next hand-off or
    /// synchronous checkpoint reports the error.
    Failed(Error),
    /// Holds records no checkpoint has made durable, and nothing works
    /// on it (after a failure was reported, or a replay): the next
    /// hand-off checkpoints synchronously.
    Full,
}

/// The checkpoint thread's work, shared with the committers.
struct Job {
    standby: Standby,
    /// Set when the journal is dropped: the thread finishes what it has
    /// and exits.
    stop: bool,
}

impl Job {
    /// Reports a failed background checkpoint once; its segment stays
    /// [`Standby::Full`].
    fn take_failure(&mut self) -> Result<(), Error> {
        match std::mem::replace(&mut self.standby, Standby::Full) {
            Standby::Failed(e) => Err(e),
            other => {
                self.standby = other;
                Ok(())
            }
        }
    }
}

/// What the journal shares with its checkpoint thread: the two segment
/// files, the store's durability step and the job.
struct Segments {
    files: [File; 2],
    /// Makes everything a segment vouches for durable in place — the
    /// store's `make_durable`.
    make_durable: Box<dyn Fn() -> Result<(), Error> + Send + Sync>,
    job: Mutex<Job>,
    /// Signalled when a hand-off queues work, when the thread finishes
    /// it, and at stop.
    changed: Condvar,
    /// Checkpoints completed, synchronous and background (metrics).
    checkpoints: AtomicU64,
}

impl Segments {
    /// The one durability order of a checkpoint: `make_durable`, then
    /// each of `segments`' stamps, in order, rewound to its header and
    /// synced, and `rewound` told of it.
    fn checkpoint(
        &self,
        segments: &[usize],
        mut rewound: impl FnMut(usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        (self.make_durable)()?;
        for &seg in segments {
            let file = &self.files[seg];
            file.write_all_at(&TERMINATOR, HEADER_LEN)?;
            file.sync_data()?;
            rewound(seg)?;
        }
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The job, once the thread is not working on a segment.
    fn idle(&self) -> MutexGuard<'_, Job> {
        let mut job = lock(&self.job);
        while matches!(job.standby, Standby::Checkpointing(_)) {
            job = self
                .changed
                .wait(job)
                .unwrap_or_else(PoisonError::into_inner);
        }
        job
    }

    /// The checkpoint thread: each handed-off segment is checkpointed
    /// as a trace of its own; a failure stays with the segment.
    fn run(&self) {
        let mut job = lock(&self.job);
        loop {
            if let Standby::Checkpointing(seg) = job.standby {
                drop(job);
                let mut span = trace::root_span(names::JRNL_CHECKPOINT);
                let done = self.checkpoint(&[seg], |_| Ok(()));
                if done.is_err() {
                    span.fail();
                }
                drop(span);
                job = lock(&self.job);
                job.standby = match done {
                    Ok(()) => Standby::Free,
                    Err(e) => Standby::Failed(e),
                };
                self.changed.notify_all();
            } else if job.stop {
                return;
            } else {
                job = self
                    .changed
                    .wait(job)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Eight zero bytes: a zero record-length field, which replay treats
/// as end-of-log. Stamped after every group and at each checkpoint.
const TERMINATOR: [u8; 8] = [0; 8];

/// Bytes [`Journal::replay`] reads from a segment at a time (more only
/// to hold a single record longer than this). It must not shrink to one
/// record: glibc sets its `mmap` and trim thresholds from the largest
/// `mmap`ed block a process has freed, and a record-sized replay buffer
/// leaves them at ≈ 0.5 and 1 MiB, below the ≈ 1.3 MiB of buffers a
/// whole-stripe write or read-back allocates and frees, so a store's
/// first writes and reads trim and refault those pages (EXPERIMENTS.md
/// "Replay through a window").
const REPLAY_WINDOW: usize = 1 << 20;

/// The stretch of a segment replay holds: `buf[..len]` are the bytes
/// from offset `start` on, and nothing past `end` is ever read. One
/// window serves both segments, one after the other.
struct Window {
    size: usize,
    end: u64,
    buf: Vec<u8>,
    start: u64,
    len: usize,
}

impl Window {
    /// An empty window of `size` bytes.
    fn new(size: usize) -> Self {
        Window {
            size,
            end: 0,
            buf: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// Empties the window for a segment read up to `end`; the buffer
    /// stays.
    fn restart(&mut self, end: u64) {
        self.end = end;
        self.start = 0;
        self.len = 0;
    }

    /// The `need` bytes of `file` at `at`, which must end by `end`;
    /// replay only moves forward, so `at` is never before the window's
    /// start. When the window does not hold them all, it moves to start
    /// at `at`: the bytes it holds from `at` on go to its front, and it
    /// reads on from the segment after them — `size` bytes, or `need` if
    /// more, or up to `end` if less.
    fn bytes(&mut self, file: &File, at: u64, need: usize) -> Result<&[u8], Error> {
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
            file.read_exact_at(&mut self.buf[keep..fill], at + keep as u64)?;
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
/// in-place sector writes are done; a hand-off's exclusive gate waits
/// out every live guard, so a segment is never handed off (nor a stamp
/// rewound) under a half-applied commit. Committers call
/// [`CommitGuard::append`] once per stripe and [`CommitGuard::sync`]
/// once — group commit: the records gather in the guard and reach the
/// segment in one write under one fsync.
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
    /// of the active segment — one positioned write, terminator
    /// included — and makes them durable (one fdatasync). Nothing
    /// appended, nothing done. Must run before the caller's first
    /// in-place sector write.
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

/// The write-ahead intent log of one store: two segments and the
/// store's one checkpoint thread.
pub struct Journal {
    symbol: usize,
    capacity: u64,
    /// Each segment file's length before this handle extended it.
    /// Beyond it, and beyond what this handle has appended since, the
    /// file holds only the zeros the extension reads as — so replay reads
    /// no further, whatever capacity the superblock claims.
    len_at_open: [u64; 2],
    enabled: bool,
    inner: Mutex<Inner>,
    /// Shared by committers (append → write-back), exclusive for a
    /// hand-off and a synchronous checkpoint. Gate holders acquire no
    /// further locks (the inner mutex is always released before
    /// returning), so the stripe-lock → gate order cannot deadlock.
    commit_gate: RwLock<()>,
    segments: Arc<Segments>,
    /// The checkpoint thread, joined at drop.
    thread: Option<JoinHandle<()>>,
    /// Records appended since open (metrics).
    appends: AtomicU64,
}

/// Opens (creating if absent) one segment file and extends it to
/// `capacity`; returns it with its length before the extension.
fn open_segment(dir: &Path, name: &str, capacity: u64) -> Result<(File, u64), Error> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join(name))?;
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
            return Err(Error::Meta(format!("{name} has wrong magic")));
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != FORMAT_VERSION {
            return Err(Error::Meta(format!(
                "{name} format v{version} is not supported (want v{FORMAT_VERSION})"
            )));
        }
    }
    // Extend to full capacity once, so appends never change the file
    // length and their fsyncs carry no size update. The new tail is a
    // hole that reads as zeros — a terminator wherever the live records
    // end.
    if len < capacity {
        file.set_len(capacity)?;
        file.sync_all()?;
    }
    Ok((file, len))
}

impl Journal {
    /// Opens (creating if absent) the two journal segments of the store
    /// in `dir` and starts the store's checkpoint thread. `capacity`
    /// comes from the superblock; `symbol` fixes the per-cell payload
    /// size of every record; `make_durable` makes everything a segment
    /// vouches for durable in place, and every checkpoint runs it before
    /// rewinding a segment.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a segment file that exists but is not a
    /// stair journal (wrong magic or format version), or a checkpoint
    /// thread that cannot be started.
    pub fn open_or_create(
        dir: &Path,
        symbol: usize,
        capacity: u64,
        make_durable: impl Fn() -> Result<(), Error> + Send + Sync + 'static,
    ) -> Result<Self, Error> {
        let capacity = capacity.max(HEADER_LEN);
        let (first, first_len) = open_segment(dir, JOURNAL_FILES[0], capacity)?;
        let (second, second_len) = open_segment(dir, JOURNAL_FILES[1], capacity)?;
        let len_at_open = [first_len, second_len];
        let segments = Arc::new(Segments {
            files: [first, second],
            make_durable: Box::new(make_durable),
            job: Mutex::new(Job {
                standby: Standby::Free,
                stop: false,
            }),
            changed: Condvar::new(),
            checkpoints: AtomicU64::new(0),
        });
        let thread = {
            let segments = Arc::clone(&segments);
            std::thread::Builder::new()
                .name("stair-checkpoint".into())
                .spawn(move || segments.run())?
        };
        Ok(Journal {
            symbol,
            capacity,
            len_at_open,
            enabled: env_flag("STAIR_JOURNAL"),
            // `used` starts at the header: the file length no longer
            // marks the live end. A reopen over live records must
            // replay first — replay re-derives `used` from the parse —
            // and checkpoint before new commits (the store's open path
            // does exactly that).
            inner: Mutex::new(Inner {
                active: 0,
                used: [HEADER_LEN; 2],
                file_len: len_at_open.map(|len| len.max(capacity)),
                seq: 0,
            }),
            commit_gate: RwLock::new(()),
            segments,
            thread: Some(thread),
            appends: AtomicU64::new(0),
        })
    }

    /// Records appended since this handle opened the journal.
    pub fn append_count(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Checkpoints completed since this handle opened the journal:
    /// synchronous ones and the checkpoint thread's.
    pub fn checkpoint_count(&self) -> u64 {
        self.segments.checkpoints.load(Ordering::Relaxed)
    }

    /// Capacity of each segment in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of the active segment currently holding records (header
    /// included).
    pub fn used_bytes(&self) -> u64 {
        let inner = lock(&self.inner);
        inner.used[inner.active]
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
    /// When the reservation does not fit the active segment, the
    /// caller hands off first: under the exclusive gate appends swap to
    /// the other segment, and the checkpoint thread makes the full one
    /// durable — waiting for that thread first if it still works on the
    /// other segment. A reservation larger than a whole segment takes a
    /// synchronous [`Journal::checkpoint`] instead and is still admitted
    /// (the file temporarily overruns capacity rather than wedging the
    /// store).
    ///
    /// # Errors
    ///
    /// Propagates errors from the synchronous checkpoint path, and a
    /// background checkpoint's failure not reported yet.
    pub fn begin(&self, reserve: &[usize]) -> Result<Option<CommitGuard<'_>>, Error> {
        if !self.enabled || reserve.is_empty() {
            return Ok(None);
        }
        let need: u64 = reserve.iter().map(|&cells| self.record_len(cells)).sum();
        let oversized = HEADER_LEN + need > self.capacity;
        let mut checkpointed = false;
        loop {
            {
                let gate = read(&self.commit_gate);
                if self.fits(need) || checkpointed {
                    return Ok(Some(CommitGuard {
                        journal: self,
                        _gate: gate,
                        group: Vec::with_capacity(need as usize + TERMINATOR.len()),
                    }));
                }
            }
            if oversized {
                self.checkpoint()?;
                checkpointed = true;
            } else {
                self.hand_off(need)?;
            }
        }
    }

    /// Whether `need` more bytes fit the active segment.
    fn fits(&self, need: u64) -> bool {
        let inner = lock(&self.inner);
        inner.used[inner.active] + need <= self.capacity
    }

    /// Swaps appends to the standby segment and hands the full one to
    /// the checkpoint thread. Waits for the thread first (backpressure);
    /// a standby left full by a reported failure is checkpointed here,
    /// synchronously. Returns without a swap when another committer
    /// handed off meanwhile — the caller looks again.
    fn hand_off(&self, need: u64) -> Result<(), Error> {
        let full = {
            let mut job = self.segments.idle();
            job.take_failure()?;
            matches!(job.standby, Standby::Full)
        };
        if full {
            return self.checkpoint();
        }
        let _gate = write(&self.commit_gate);
        let mut inner = lock(&self.inner);
        let active = inner.active;
        if inner.used[active] + need <= self.capacity
            || !matches!(lock(&self.segments.job).standby, Standby::Free)
        {
            return Ok(());
        }
        let standby = 1 - active;
        inner.active = standby;
        inner.used[standby] = HEADER_LEN;
        lock(&self.segments.job).standby = Standby::Checkpointing(active);
        self.segments.changed.notify_all();
        Ok(())
    }

    /// Lands one group — whole records back to back, as
    /// [`Journal::encode_record`] left them — at the live end of the
    /// active segment. One acquisition of `inner` covers the write: each
    /// record takes the next sequence number and then its checksum, and
    /// the group and a terminator after it go out in one write (so
    /// replay can never run past the last live record into stale
    /// pre-checkpoint bytes) — records are consecutive in the file in
    /// the order of their numbers, and a group is never interleaved with
    /// another. The fsync takes `inner` afresh: a committer that landed
    /// its group in between is flushed by the same `fdatasync`, and
    /// finds its own with nothing left to do. The committer's guard
    /// keeps the active segment from being handed off in between.
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
        let seg = inner.active;
        let file = &self.segments.files[seg];
        let at = inner.used[seg];
        let end = at + group.len() as u64;
        // The terminator rides in the same write when it fits inside
        // the extended region; at the very end of the file, EOF
        // itself terminates the parse.
        if end + TERMINATOR.len() as u64 <= inner.file_len[seg] {
            group.extend_from_slice(&TERMINATOR);
        }
        file.write_all_at(&group, at)?;
        // Numbers are spent only by a write that happened: replay stops
        // at a sequence break, so a failed append must not leave one.
        let records = seq - inner.seq;
        inner.seq = seq;
        inner.used[seg] = end;
        inner.file_len[seg] = inner.file_len[seg].max(at + group.len() as u64);
        self.appends.fetch_add(records, Ordering::Relaxed);
        drop(inner);
        let _serial = lock(&self.inner);
        file.sync_data()?;
        Ok(())
    }

    /// The synchronous checkpoint: waits out every in-flight
    /// [`CommitGuard`] and the checkpoint thread, then makes everything
    /// both segments vouch for durable and rewinds both — the file
    /// lengths never change — and appends go to segment 0 again. The
    /// durability step always runs — a checkpoint is the store's
    /// durability point even when both segments are empty.
    ///
    /// # Errors
    ///
    /// A background checkpoint's failure not reported yet (its segment
    /// stays un-rewound, and the next call checkpoints it), then errors
    /// from the durability step and the stamp writes.
    pub fn checkpoint(&self) -> Result<(), Error> {
        self.checkpoint_then(|_| Ok(()))
    }

    /// [`Journal::checkpoint`], calling `rewound` once each segment's
    /// rewind is durable; an error from it ends the checkpoint there.
    /// The standby is rewound first and the active segment last: the
    /// active one holds the newest records, so a crash between the two
    /// rewinds leaves a suffix of the history live — never the older
    /// records alone, whose replay would roll newer acked writes back.
    fn checkpoint_then(
        &self,
        mut rewound: impl FnMut(usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let _span = trace::span_or_root(names::JRNL_CHECKPOINT);
        let _gate = write(&self.commit_gate);
        let mut inner = lock(&self.inner);
        self.segments.idle().take_failure()?;
        let active = inner.active;
        self.segments.checkpoint(&[1 - active, active], |seg| {
            inner.used[seg] = HEADER_LEN;
            if seg != active {
                lock(&self.segments.job).standby = Standby::Free;
            }
            rewound(seg)
        })?;
        inner.active = 0;
        for len in &mut inner.file_len {
            *len = (*len).max(HEADER_LEN + TERMINATOR.len() as u64);
        }
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

    /// Replays every whole record of both segments, calling `apply` per
    /// record: first the segment whose first record has the lower
    /// sequence number, in file order, then the other only if its first
    /// record continues that sequence. A segment's parse stops (without
    /// error) at its terminator stamp, at the first torn or corrupt
    /// record, or at a sequence break — by the append-before-write
    /// ordering, nothing past that point can have reached the devices.
    /// Returns the number of records applied and re-derives the live
    /// ends for subsequent appends: they continue in the segment that
    /// holds the last record applied. Does **not** rewind; take a
    /// [`Journal::checkpoint`] once the replayed state is durable.
    ///
    /// The records are read through one bounded window, a 1 MiB buffer
    /// reused from record to record and from segment to segment, grown
    /// only for a single record longer than that, so what replay holds
    /// follows the records it parses, not the segments' capacity. The
    /// window must not shrink to one record: a buffer that small leaves
    /// glibc's dynamic `mmap`/trim thresholds below the stripe-sized
    /// buffers a store's first writes and reads free, and those then
    /// trim and refault their pages.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors reading the segments and errors from
    /// `apply`.
    pub fn replay(
        &self,
        apply: impl FnMut(&ReplayRecord<'_>) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        self.replay_through(REPLAY_WINDOW, apply)
    }

    /// [`Journal::replay`] through a `window`-byte buffer: it parses
    /// exactly what reading each segment's whole live region into one
    /// buffer would — a region ends where the file, or what was written
    /// by the time of the open or since, ends — whatever the window.
    fn replay_through(
        &self,
        window: usize,
        mut apply: impl FnMut(&ReplayRecord<'_>) -> Result<(), Error>,
    ) -> Result<u64, Error> {
        // Replay runs at open, where no span is current: with tracing on
        // it is a trace of its own.
        let _span = trace::span_or_root(names::JRNL_REPLAY);
        let ends = {
            let inner = lock(&self.inner);
            let mut ends = [0; 2];
            for (seg, end) in ends.iter_mut().enumerate() {
                let written = self.len_at_open[seg].max(inner.used[seg]);
                *end = self.segments.files[seg].metadata()?.len().min(written);
            }
            ends
        };
        let mut win = Window::new(window);
        let mut first = [None; 2];
        for (seg, slot) in first.iter_mut().enumerate() {
            self.parse(&mut win, seg, ends[seg], |rec| {
                *slot = Some(rec.seq);
                Ok(false)
            })?;
        }
        let older = match first {
            [Some(a), Some(b)] if b < a => 1,
            [None, Some(_)] => 1,
            _ => 0,
        };
        let mut applied = 0u64;
        let mut next: Option<u64> = None;
        let mut newest: Option<u64> = None;
        let mut last_segment = None;
        let mut stops = [HEADER_LEN; 2];
        for seg in [older, 1 - older] {
            let live = seg == older || first[seg] == next;
            stops[seg] = self.parse(&mut win, seg, ends[seg], |rec| {
                newest = newest.max(Some(rec.seq));
                if live {
                    apply(rec)?;
                    applied += 1;
                    next = Some(rec.seq + 1);
                    last_segment = Some(seg);
                }
                Ok(true)
            })?;
        }
        // Appends after a dirty reopen continue from the live end (the
        // store checkpoints first, which rewinds both segments — but
        // correctness must not depend on that), and a standby that holds
        // records is checkpointed before appends swap to it.
        let mut inner = lock(&self.inner);
        for (used, stop) in inner.used.iter_mut().zip(stops) {
            *used = (*used).max(stop);
        }
        inner.seq = inner.seq.max(newest.map_or(0, |s| s + 1));
        if let Some(seg) = last_segment {
            inner.active = seg;
        }
        if stops[1 - inner.active] > HEADER_LEN {
            let mut job = lock(&self.segments.job);
            if matches!(job.standby, Standby::Free) {
                job.standby = Standby::Full;
            }
        }
        Ok(applied)
    }

    /// Parses segment `seg`'s records in file order through `win`, up to
    /// `end`, handing each to `visit` until it returns `false`: stops,
    /// without error, at the terminator stamp, a torn or internally
    /// inconsistent record, or a sequence break. Returns the offset
    /// after the last record `visit` let the parse go past.
    fn parse(
        &self,
        win: &mut Window,
        seg: usize,
        end: u64,
        mut visit: impl FnMut(&ReplayRecord<'_>) -> Result<bool, Error>,
    ) -> Result<u64, Error> {
        let file = &self.segments.files[seg];
        win.restart(end);
        let mut at = HEADER_LEN;
        let mut prev_seq: Option<u64> = None;
        while at + 8 <= end {
            let head = win.bytes(file, at, 8)?;
            let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
            let sum = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
            if len < BODY_FIXED || at + 8 + len as u64 > end {
                break; // terminator stamp, or record longer than the file
            }
            let body = &win.bytes(file, at, 8 + len)?[8..];
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
            if !visit(&record)? {
                break;
            }
            at += 8 + len as u64;
        }
        Ok(at)
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

impl Drop for Journal {
    /// Stops the checkpoint thread once it has finished what it has;
    /// the store checkpoints synchronously before this runs.
    fn drop(&mut self) {
        lock(&self.segments.job).stop = true;
        self.segments.changed.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("stair-jrnl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A journal whose checkpoints have nothing to make durable.
    fn open(dir: &Path, symbol: usize, capacity: u64) -> Journal {
        Journal::open_or_create(dir, symbol, capacity, || Ok(())).unwrap()
    }

    /// A durability step the test steers: it counts its calls, fails
    /// while `fail` is set (or from call `fail_from` on), and blocks
    /// while `hold` is set.
    #[derive(Default)]
    struct Durable {
        calls: AtomicU64,
        fail: AtomicBool,
        fail_from: Option<u64>,
        hold: Mutex<bool>,
        released: Condvar,
    }

    impl Durable {
        fn run(&self) -> Result<(), Error> {
            let call = self.calls.fetch_add(1, Ordering::SeqCst);
            let mut held = lock(&self.hold);
            while *held {
                held = self.released.wait(held).unwrap();
            }
            if self.fail.load(Ordering::SeqCst) || self.fail_from.is_some_and(|k| call >= k) {
                return Err(Error::Meta("make_durable failed".into()));
            }
            Ok(())
        }

        fn set_hold(&self, on: bool) {
            *lock(&self.hold) = on;
            self.released.notify_all();
        }

        fn calls(&self) -> u64 {
            self.calls.load(Ordering::SeqCst)
        }
    }

    fn open_with(dir: &Path, symbol: usize, capacity: u64, durable: &Arc<Durable>) -> Journal {
        let durable = Arc::clone(durable);
        Journal::open_or_create(dir, symbol, capacity, move || durable.run()).unwrap()
    }

    /// Waits until the checkpoint thread has nothing in hand.
    fn settle(j: &Journal) {
        drop(j.segments.idle());
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
    fn try_commit(
        j: &Journal,
        stripe: usize,
        cells: &[(CellIdx, Vec<u8>)],
        encode: bool,
    ) -> Result<(), Error> {
        let mut g = j.begin(&[cells.len()])?.unwrap();
        g.append(stripe, &borrow(cells), encode);
        g.sync()
    }

    fn commit(j: &Journal, stripe: usize, cells: &[(CellIdx, Vec<u8>)], encode: bool) {
        try_commit(j, stripe, cells, encode).unwrap();
    }

    /// The stripes a replay applies, in order.
    fn replayed_stripes(j: &Journal) -> Vec<usize> {
        let mut stripes = Vec::new();
        let n = j
            .replay(|rec| {
                stripes.push(rec.stripe);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, stripes.len() as u64);
        stripes
    }

    /// Copies both segment files of `from` into a fresh `to`: the
    /// journal as a crash at this instant leaves it.
    fn crash_image(from: &Path, to: &str) -> PathBuf {
        let to = tmpdir(to);
        for name in JOURNAL_FILES {
            std::fs::copy(from.join(name), to.join(name)).unwrap();
        }
        to
    }

    /// One replayed record, owned: sequence number, stripe, data-image
    /// flag and cells.
    type Replayed = (u64, usize, bool, OwnedCells);

    /// What a replay leaves: the records it applied, then each
    /// segment's `used`, the active segment, `seq`, and whether the
    /// standby must be checkpointed before appends swap to it.
    type Outcome = (Vec<Replayed>, [u64; 2], usize, u64, bool);

    fn owned(rec: &ReplayRecord<'_>) -> Replayed {
        let cells = rec.cells.iter().map(|&(c, d)| (c, d.to_vec())).collect();
        (rec.seq, rec.stripe, rec.encode, cells)
    }

    /// What the journal's state says now, in [`Outcome`]'s terms.
    fn state(j: &Journal, records: Vec<Replayed>) -> Outcome {
        let inner = lock(&j.inner);
        let pending = !matches!(lock(&j.segments.job).standby, Standby::Free);
        (records, inner.used, inner.active, inner.seq, pending)
    }

    /// The oracle: replay as it was before it read through a window —
    /// each segment's whole live region read into one buffer and parsed
    /// there — and the two chained by the rule replay follows. Returns
    /// what it would apply and leave, without touching `j`.
    fn whole_buffer_replay(j: &Journal) -> Outcome {
        let (_, used, active, seq, pending) = state(j, Vec::new());
        let mut parsed: Vec<(Vec<Replayed>, u64)> = Vec::new();
        for (seg, file) in j.segments.files.iter().enumerate() {
            let written = j.len_at_open[seg].max(used[seg]);
            let len = file.metadata().unwrap().len().min(written) as usize;
            let mut buf = vec![0u8; len];
            file.read_exact_at(&mut buf, 0).unwrap();
            let mut at = HEADER_LEN as usize;
            let mut records: Vec<Replayed> = Vec::new();
            while at + 8 <= buf.len() {
                let len =
                    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]) as usize;
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
                if records.last().is_some_and(|p| record.seq != p.0 + 1) {
                    break;
                }
                records.push(owned(&record));
                at += 8 + len;
            }
            parsed.push((records, at as u64));
        }
        let first = |seg: usize| parsed[seg].0.first().map(|r| r.0);
        let older = match (first(0), first(1)) {
            (Some(a), Some(b)) if b < a => 1,
            (None, Some(_)) => 1,
            _ => 0,
        };
        let newer = 1 - older;
        let mut applied = parsed[older].0.clone();
        let mut active = active;
        if !applied.is_empty() {
            active = older;
        }
        if first(newer).is_some() && applied.last().map(|r| r.0 + 1) == first(newer) {
            applied.extend(parsed[newer].0.iter().cloned());
            active = newer;
        }
        let newest = parsed.iter().flat_map(|(r, _)| r).map(|r| r.0).max();
        let used = [0, 1].map(|seg| used[seg].max(parsed[seg].1));
        let seq = seq.max(newest.map_or(0, |s| s + 1));
        let pending = pending || parsed[1 - active].1 > HEADER_LEN;
        (applied, used, active, seq, pending)
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
            let got = state(j, records);
            assert!(got == want, "window {window}: {got:?} != {want:?}");
        }
        want.0
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("rt");
        let j = open(&dir, 16, 1 << 20);
        let a = cells(16, 1, 4);
        let b = cells(16, 9, 2);
        commit(&j, 3, &a, false);
        commit(&j, 5, &b, false);
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
        let reopened = open(&dir, 16, 1 << 20);
        assert_eq!(replays_alike(&reopened, j.record_len(4)).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_replay_without_error() {
        let dir = tmpdir("torn");
        let j = open(&dir, 8, 1 << 20);
        let a = cells(8, 2, 3);
        commit(&j, 1, &a, false);
        commit(&j, 2, &a, false);
        // Tear the second record: chop bytes off the live end (the
        // reopen extends the tail back with zeros, exactly what a
        // torn write leaves behind).
        let live_end = j.used_bytes();
        drop(j);
        let path = dir.join(JOURNAL_FILES[0]);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(live_end - 5).unwrap();
        drop(file);
        let j = open(&dir, 8, 1 << 20);
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
        let j = open(&dir, 8, 1 << 20);
        let a = cells(8, 3, 2);
        commit(&j, 0, &a, false);
        // Flip one payload byte: the checksum no longer matches.
        let live_end = j.used_bytes() as usize;
        drop(j);
        let path = dir.join(JOURNAL_FILES[0]);
        let mut raw = std::fs::read(&path).unwrap();
        raw[live_end - 3] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let j = open(&dir, 8, 1 << 20);
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        assert!(replays_alike(&j, j.record_len(2)).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_full_segment_hands_off_then_appends() {
        let dir = tmpdir("full");
        // Capacity fits exactly one 1-cell record (8 + 16 + 8 + 8 = 40
        // bytes) past the 12-byte header.
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, 12 + 40, &durable);
        let a = cells(8, 4, 1);
        commit(&j, 0, &a, false);
        // The second commit overflows segment 0: the append goes to
        // segment 1, and the thread makes segment 0 durable and rewinds
        // it.
        commit(&j, 1, &a, false);
        settle(&j);
        assert_eq!((durable.calls(), j.checkpoint_count()), (1, 1));
        assert_eq!(lock(&j.inner).active, 1);
        assert_eq!(replayed_stripes(&j), [1]);
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_record_still_commits() {
        let dir = tmpdir("oversized");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 64, 16, &durable);
        let a = cells(64, 5, 4);
        // Larger than a segment: the synchronous path, not a hand-off.
        commit(&j, 7, &a, false);
        assert_eq!((durable.calls(), lock(&j.inner).active), (1, 0));
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 1);
        assert_eq!(replays_alike(&j, j.record_len(4)).len(), 1);
        let reopened = open(&dir, 64, 16);
        assert_eq!(replays_alike(&reopened, j.record_len(4)).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_is_idempotent() {
        let dir = tmpdir("ckpt");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, 1 << 20, &durable);
        let a = cells(8, 6, 2);
        commit(&j, 0, &a, false);
        assert!(j.used_bytes() > HEADER_LEN);
        j.checkpoint().unwrap();
        assert_eq!(j.used_bytes(), HEADER_LEN);
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        assert!(replays_alike(&j, j.record_len(2)).is_empty());
        // The durability step always runs (a checkpoint is the
        // durability point even with empty segments), and its failure
        // propagates.
        durable.fail.store(true, Ordering::SeqCst);
        assert!(j.checkpoint().is_err());
        assert_eq!((durable.calls(), j.checkpoint_count()), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_shares_one_guard_and_replays_in_order() {
        let dir = tmpdir("group");
        let j = open(&dir, 16, 1 << 20);
        let a = cells(16, 1, 2);
        let b = cells(16, 7, 3);
        {
            let mut g = j.begin(&[2, 3]).unwrap().unwrap();
            g.append(4, &borrow(&a), false);
            g.append(9, &borrow(&b), true);
            g.sync().unwrap();
        }
        assert_eq!(j.append_count(), 2);
        assert_eq!(replayed_stripes(&j), [4, 9]);
        assert_eq!(replays_alike(&j, j.record_len(3)).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Three records through one guard.
    fn commit_group(j: &Journal, group: [(usize, &OwnedCells, bool); 3]) {
        let reserve = group.map(|(_, cells, _)| cells.len());
        let mut g = j.begin(&reserve).unwrap().unwrap();
        for (stripe, cells, encode) in group {
            g.append(stripe, &borrow(cells), encode);
        }
        g.sync().unwrap();
    }

    #[test]
    fn a_group_lands_the_bytes_three_single_commits_did() {
        let (a, b, c) = (cells(16, 1, 2), cells(16, 7, 3), cells(16, 40, 1));
        let singly = tmpdir("bytes-singly");
        let j = open(&singly, 16, 4096);
        commit(&j, 4, &a, false);
        commit(&j, 9, &b, true);
        commit(&j, 2, &c, false);
        let grouped = tmpdir("bytes-grouped");
        let g = open(&grouped, 16, 4096);
        commit_group(&g, [(4, &a, false), (9, &b, true), (2, &c, false)]);
        assert_eq!(g.append_count(), 3);
        assert_eq!(g.used_bytes(), j.used_bytes());
        for name in JOURNAL_FILES {
            assert!(
                std::fs::read(grouped.join(name)).unwrap()
                    == std::fs::read(singly.join(name)).unwrap()
            );
        }
        std::fs::remove_dir_all(&singly).unwrap();
        std::fs::remove_dir_all(&grouped).unwrap();
    }

    #[test]
    fn a_group_torn_inside_its_second_record_replays_the_first() {
        let dir = tmpdir("group-torn");
        let j = open(&dir, 8, 4096);
        let (a, b, c) = (cells(8, 1, 2), cells(8, 7, 3), cells(8, 40, 1));
        commit_group(&j, [(4, &a, false), (9, &b, false), (2, &c, false)]);
        let cut = HEADER_LEN + j.record_len(a.len()) + j.record_len(b.len()) / 2;
        drop(j);
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join(JOURNAL_FILES[0]))
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let j = open(&dir, 8, 4096);
        assert_eq!(replayed_stripes(&j), [4]);
        assert_eq!(replays_alike(&j, j.record_len(3)).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_group_whose_reservation_hands_off_still_lands_whole() {
        let dir = tmpdir("group-ckpt");
        // Room for three 1-cell records (40 bytes each) past the header.
        let j = open(&dir, 8, 12 + 120);
        let a = cells(8, 4, 1);
        commit(&j, 0, &a, false);
        {
            let mut g = j.begin(&[1, 1, 1]).unwrap().unwrap();
            for stripe in [5, 6, 7] {
                g.append(stripe, &borrow(&a), false);
            }
            g.sync().unwrap();
        }
        assert_eq!(j.used_bytes(), 12 + 120);
        settle(&j);
        assert_eq!(j.checkpoint_count(), 1);
        assert_eq!(replayed_stripes(&j), [5, 6, 7]);
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_records_past_a_rewound_stamp_do_not_replay() {
        let dir = tmpdir("stale");
        let j = open(&dir, 8, 1 << 20);
        let a = cells(8, 1, 2);
        commit(&j, 0, &a, false);
        commit(&j, 1, &a, false);
        j.checkpoint().unwrap();
        // Only the stamp separates the now-stale records from replay.
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        assert!(replays_alike(&j, j.record_len(2)).is_empty());
        // A fresh record overwrites the first stale one; replay must
        // stop at its terminator, not run on into stale record two.
        commit(&j, 7, &a, false);
        assert_eq!(replayed_stripes(&j), [7]);
        assert_eq!(replays_alike(&j, j.record_len(2)).len(), 1);
        let reopened = open(&dir, 8, 1 << 20);
        assert_eq!(replays_alike(&reopened, j.record_len(2)).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_flag_round_trips() {
        let dir = tmpdir("encflag");
        let j = open(&dir, 16, 1 << 20);
        let a = cells(16, 2, 3);
        let b = cells(16, 5, 2);
        commit(&j, 1, &a, true);
        commit(&j, 2, &b, false);
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

    /// Room for two 1-cell, 8-byte-symbol records per segment.
    const TWO_RECORDS: u64 = 12 + 2 * 40;

    #[test]
    fn a_crash_mid_background_checkpoint_replays_older_then_newer() {
        let dir = tmpdir("mid-ckpt");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, TWO_RECORDS, &durable);
        let a = cells(8, 1, 1);
        // Segment 0 fills (stripes 0, 1), hands off to segment 1
        // (2, 3); segment 1 fills and hands back to segment 0 (4, 5),
        // whose first rewind is done — but the thread is still inside
        // the second checkpoint when the crash image is taken.
        for stripe in 0..4 {
            commit(&j, stripe, &a, false);
        }
        settle(&j);
        durable.set_hold(true);
        for stripe in 4..6 {
            commit(&j, stripe, &a, false);
        }
        let image = crash_image(&dir, "mid-ckpt-image");
        durable.set_hold(false);
        settle(&j);
        drop(j);
        // Segment 1 holds numbers 2 and 3, segment 0 holds 4 and 5: the
        // older segment is the second file.
        let j = open(&image, 8, TWO_RECORDS);
        assert_eq!(replayed_stripes(&j), [2, 3, 4, 5]);
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 4);
        assert_eq!(lock(&j.inner).active, 0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&image).unwrap();
    }

    #[test]
    fn a_commit_that_fills_the_new_segment_waits_for_the_checkpoint() {
        let dir = tmpdir("backpressure");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, TWO_RECORDS, &durable);
        let a = cells(8, 1, 1);
        // Segment 0 (stripes 0, 1) is handed off and its checkpoint
        // held; segment 1 (2, 3) fills meanwhile.
        durable.set_hold(true);
        for stripe in 0..4 {
            commit(&j, stripe, &a, false);
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                commit(&j, 4, &a, false);
                done.store(true, Ordering::SeqCst);
            });
            // Nothing to sequence here: a correct commit cannot finish
            // while the checkpoint is held. The pause only gives one that
            // does not wait the time to show it.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(
                !done.load(Ordering::SeqCst),
                "a commit overtook the checkpoint"
            );
            durable.set_hold(false);
        });
        settle(&j);
        // Segment 0 was rewound, took stripe 4, and segment 1 was
        // handed off and rewound in turn.
        assert_eq!(j.checkpoint_count(), 2);
        assert_eq!(replayed_stripes(&j), [4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_rewound_older_segment_replays_only_the_newer() {
        let dir = tmpdir("rewound");
        let j = open(&dir, 8, TWO_RECORDS);
        let a = cells(8, 1, 1);
        for stripe in 0..4 {
            commit(&j, stripe, &a, false);
        }
        settle(&j);
        drop(j);
        // Segment 0's records 0 and 1 are still in its file, past the
        // rewound stamp.
        let j = open(&dir, 8, TWO_RECORDS);
        assert_eq!(replayed_stripes(&j), [2, 3]);
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_newer_segment_that_does_not_continue_the_sequence_is_ignored() {
        let a = cells(8, 1, 1);
        for (before, want) in [(2, vec![0, 1, 10]), (3, vec![0, 1])] {
            // Segment 0 holds numbers 0 and 1.
            let dir = tmpdir("chain");
            let j = open(&dir, 8, 1 << 20);
            commit(&j, 0, &a, false);
            commit(&j, 1, &a, false);
            drop(j);
            // Another journal's segment 0 holds one live record, number
            // `before`; it becomes this journal's segment 1.
            let other = tmpdir("chain-other");
            let o = open(&other, 8, 1 << 20);
            for stripe in 0..before {
                commit(&o, 20 + stripe, &a, false);
            }
            o.checkpoint().unwrap();
            commit(&o, 10, &a, false);
            drop(o);
            std::fs::copy(other.join(JOURNAL_FILES[0]), dir.join(JOURNAL_FILES[1])).unwrap();
            let j = open(&dir, 8, 1 << 20);
            assert_eq!(replayed_stripes(&j), want, "segment 1 starts at {before}");
            assert_eq!(replays_alike(&j, j.record_len(1)).len(), want.len());
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&other).unwrap();
        }
    }

    #[test]
    fn a_torn_tail_in_the_newer_segment_stops_there() {
        let dir = tmpdir("torn-newer");
        // Segment 0's checkpoint fails, so it stays live beside 1.
        let durable = Arc::new(Durable::default());
        durable.fail.store(true, Ordering::SeqCst);
        let j = open_with(&dir, 8, TWO_RECORDS, &durable);
        let a = cells(8, 1, 1);
        for stripe in 0..4 {
            commit(&j, stripe, &a, false);
        }
        settle(&j);
        let live_end = j.used_bytes();
        drop(j);
        let file = OpenOptions::new()
            .write(true)
            .open(dir.join(JOURNAL_FILES[1]))
            .unwrap();
        file.set_len(live_end - 5).unwrap();
        drop(file);
        let j = open(&dir, 8, TWO_RECORDS);
        assert_eq!(replayed_stripes(&j), [0, 1, 2]);
        assert_eq!(replays_alike(&j, j.record_len(1)).len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_background_checkpoint_stays_unrewound_and_is_reported() {
        let dir = tmpdir("failed");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, 12 + 40, &durable);
        let a = cells(8, 1, 1);
        let unrewound = |seg: usize| {
            let raw = std::fs::read(dir.join(JOURNAL_FILES[seg])).unwrap();
            raw[12..20] != TERMINATOR
        };
        durable.fail.store(true, Ordering::SeqCst);
        commit(&j, 0, &a, false);
        commit(&j, 1, &a, false); // hands segment 0 off
        settle(&j);
        assert!(unrewound(0), "a failed checkpoint rewinds nothing");
        // The next hand-off reports the failure, once.
        assert!(try_commit(&j, 2, &a, false).is_err());
        durable.fail.store(false, Ordering::SeqCst);
        // Then a hand-off checkpoints the left-over segment itself.
        commit(&j, 2, &a, false);
        assert!(!unrewound(1));
        assert_eq!(replayed_stripes(&j), [2]);
        // A synchronous checkpoint reports a background failure too.
        durable.fail.store(true, Ordering::SeqCst);
        commit(&j, 3, &a, false); // hands segment 0 off
        settle(&j);
        assert!(unrewound(0));
        assert!(j.checkpoint().is_err());
        durable.fail.store(false, Ordering::SeqCst);
        j.checkpoint().unwrap();
        assert!(!unrewound(0) && !unrewound(1));
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Runs a synchronous checkpoint of `j` (in `dir`) that crashes once
    /// its first rewind is durable, and returns the stripes the crash
    /// image replays.
    fn replayed_after_the_first_rewind(j: &Journal, dir: &Path, tag: &str) -> Vec<usize> {
        let mut image = None;
        let crashed = j.checkpoint_then(|_| {
            image = Some(crash_image(dir, tag));
            Err(Error::Meta("crash".into()))
        });
        assert!(crashed.is_err());
        let image = image.unwrap();
        let replayed = replayed_stripes(&open(&image, 8, j.capacity()));
        std::fs::remove_dir_all(&image).unwrap();
        replayed
    }

    #[test]
    fn a_crash_between_the_synchronous_rewinds_leaves_only_newer_records() {
        let a = cells(8, 1, 1);
        // Reopened over a crash mid background checkpoint: segment 1
        // holds records 2 and 3, segment 0 the newer 4 and 5, and
        // appends continue in segment 0. The open's checkpoint follows.
        let dir = tmpdir("rewind-order-replay");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, TWO_RECORDS, &durable);
        for stripe in 0..4 {
            commit(&j, stripe, &a, false);
        }
        settle(&j);
        durable.set_hold(true);
        for stripe in 4..6 {
            commit(&j, stripe, &a, false);
        }
        let image = crash_image(&dir, "rewind-order-replay-image");
        durable.set_hold(false);
        drop(j);
        let j = open(&image, 8, TWO_RECORDS);
        assert_eq!(replayed_stripes(&j), [2, 3, 4, 5]);
        assert_eq!(lock(&j.inner).active, 0);
        assert_eq!(
            replayed_after_the_first_rewind(&j, &image, "rewind-order-replay-crash"),
            [4, 5]
        );
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&image).unwrap();

        // Segment 1's background checkpoint failed while segment 0
        // took record 2; the failure is reported, then a flush's
        // checkpoint follows.
        let dir = tmpdir("rewind-order-failed");
        let durable = Arc::new(Durable::default());
        let j = open_with(&dir, 8, 12 + 40, &durable);
        commit(&j, 0, &a, false);
        commit(&j, 1, &a, false); // hands segment 0 off
        settle(&j);
        durable.fail.store(true, Ordering::SeqCst);
        commit(&j, 2, &a, false); // hands segment 1 off; its checkpoint fails
        settle(&j);
        durable.fail.store(false, Ordering::SeqCst);
        assert!(j.checkpoint().is_err());
        assert_eq!(lock(&j.inner).active, 0);
        assert_eq!(
            replayed_after_the_first_rewind(&j, &dir, "rewind-order-failed-crash"),
            [2]
        );
        // The rewound standby is free again; the next checkpoint
        // finishes the active segment.
        j.checkpoint().unwrap();
        assert_eq!(j.replay(|_| Ok(())).unwrap(), 0);
        drop(j);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the property does to a segment after its commits.
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

        /// Random commits into segments small enough to hand off now
        /// and then (leaving stale records past rewound stamps), the
        /// background checkpoints failing from a random one on (leaving
        /// both segments live), then a random tail on either segment;
        /// every window parses what the whole buffers do, on the
        /// writing handle and on a reopened one.
        #[test]
        fn every_window_parses_what_the_whole_buffer_does(
            records in proptest::collection::vec(
                (1usize..6, proptest::prelude::any::<bool>(), 0usize..40, 1usize..4),
                0..14,
            ),
            fail_from in 0u64..6,
            seg in 0usize..2,
            tail in (0usize..4, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160), proptest::prelude::any::<u64>()),
        ) {
            let dir = tmpdir("windows");
            let capacity = 12 + 400;
            let durable = Arc::new(Durable { fail_from: Some(fail_from), ..Durable::default() });
            let j = open_with(&dir, 8, capacity, &durable);
            for &(cells_n, encode, stripe, group) in &records {
                // `group` records through one guard, each one cell more.
                let owned: Vec<OwnedCells> = (0..group)
                    .map(|k| cells(8, stripe as u8 + k as u8, cells_n + k))
                    .collect();
                let reserve: Vec<usize> = owned.iter().map(Vec::len).collect();
                // A reported checkpoint failure ends the commits.
                let Ok(Some(mut g)) = j.begin(&reserve) else { break };
                for (k, c) in owned.iter().enumerate() {
                    g.append(stripe + k, &borrow(c), encode);
                }
                g.sync().unwrap();
            }
            settle(&j);
            let live_end = lock(&j.inner).used[seg];
            let tail = match tail {
                (0, ..) => Tail::Stamped,
                (1, garbage, _) => Tail::Garbage(garbage),
                (2, _, at) => Tail::Cut(HEADER_LEN + at % (live_end - HEADER_LEN + 1)),
                // Inside the records or the stamp after them.
                (_, _, at) => Tail::Flip(HEADER_LEN + at % (live_end - HEADER_LEN + 8)),
            };
            let path = dir.join(JOURNAL_FILES[seg]);
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
            let reopened = open(&dir, 8, capacity);
            replays_alike(&reopened, record);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        for name in JOURNAL_FILES {
            let dir = tmpdir("magic");
            std::fs::write(dir.join(name), b"NOTAJRNL\0\0\0\0").unwrap();
            assert!(Journal::open_or_create(&dir, 8, 1 << 20, || Ok(())).is_err());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
