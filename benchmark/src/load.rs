//! Seeded op streams, block contents, and the shadow-table verifier.
//!
//! Everything a workload submits is a pure function of `--seed`: the
//! program under test only ever sees generated ops, and the verifier
//! knows what every block must hold without keeping a copy of it.
//! Block `b` at version `v` has content `f(seed, b, v)`; a per-thread
//! [`Shadow`] table holds `v`. Self-contained on purpose — no
//! `stair-bench` import, so edits to the workspace's own harness cannot
//! change what this benchmark submits.

use std::ops::Range;

/// xorshift64* seeded through splitmix64 (so seed 0 and neighbouring
/// seeds still give unrelated streams).
#[derive(Clone, Debug)]
pub struct Rng(u64);

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix(seed).max(1))
    }

    /// An independent stream of `seed`, e.g. one per client thread.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng::new(splitmix(seed) ^ splitmix(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for
    /// every `n` this benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Block contents
// ---------------------------------------------------------------------

/// Bytes of the per-block stamp: block index, version, and a tag tying
/// both to the seed.
pub const STAMP: usize = 16;

fn content_key(seed: u64, block: u64, version: u32) -> u64 {
    splitmix(splitmix(seed ^ block.rotate_left(32)) ^ u64::from(version))
}

/// Writes `f(seed, block, version)` over `out` (one block).
pub fn fill_block(seed: u64, block: u64, version: u32, out: &mut [u8]) {
    let key = content_key(seed, block, version);
    let mut rng = Rng(key.max(1));
    for chunk in out.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    if out.len() >= STAMP {
        out[0..8].copy_from_slice(&block.to_le_bytes());
        out[8..12].copy_from_slice(&version.to_le_bytes());
        out[12..16].copy_from_slice(&(key as u32).to_le_bytes());
    }
}

/// The version a block's stamp claims, if the stamp is self-consistent
/// for `(seed, block)`.
pub fn stamped_version(seed: u64, block: u64, data: &[u8]) -> Option<u32> {
    if data.len() < STAMP || data[0..8] != block.to_le_bytes() {
        return None;
    }
    let version = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
    let tag = content_key(seed, block, version) as u32;
    (data[12..16] == tag.to_le_bytes()).then_some(version)
}

// ---------------------------------------------------------------------
// Shadow table
// ---------------------------------------------------------------------

/// Version marking a block whose last write returned an error: the
/// write may or may not have landed, so the next read adopts whichever
/// self-consistent version it finds.
const UNKNOWN: u32 = u32::MAX;

/// What one thread knows about its slice of the block space.
pub struct Shadow {
    seed: u64,
    region: Range<u64>,
    versions: Vec<u32>,
}

/// Why a block failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// Wrong length for the blocks asked for.
    Short,
    /// The stamp is not `(block, expected version)`.
    Stamp,
    /// The stamp matched but the body differs.
    Body,
}

impl Shadow {
    /// A table for blocks `region`, all at version 0 (the prefill).
    pub fn new(seed: u64, region: Range<u64>) -> Self {
        let len = (region.end - region.start) as usize;
        Shadow {
            seed,
            region,
            versions: vec![0; len],
        }
    }

    /// Forgets every version: the first read of each block then adopts
    /// whatever self-consistent version it finds. For probes that take
    /// over a device an earlier probe has written to.
    pub fn forget(&mut self) {
        self.versions.fill(UNKNOWN);
    }

    fn slot(&mut self, block: u64) -> &mut u32 {
        assert!(
            self.region.contains(&block),
            "block outside this thread's region"
        );
        &mut self.versions[(block - self.region.start) as usize]
    }

    /// The payload for writing `run` blocks from `start` at their next
    /// versions. Nothing is committed until [`Shadow::commit_write`].
    pub fn next_payload(&mut self, start: u64, run: usize, block_size: usize) -> Vec<u8> {
        let mut data = vec![0u8; run * block_size];
        let seed = self.seed;
        for (i, chunk) in data.chunks_mut(block_size).enumerate() {
            let block = start + i as u64;
            let next = match *self.slot(block) {
                UNKNOWN => 1,
                v => v + 1,
            };
            fill_block(seed, block, next, chunk);
        }
        data
    }

    /// Records the outcome of writing the payload of
    /// [`Shadow::next_payload`]: acknowledged blocks move to the new
    /// version, failed ones become unknown.
    pub fn commit_write(&mut self, start: u64, run: usize, ok: bool) {
        for block in start..start + run as u64 {
            let slot = self.slot(block);
            *slot = match (*slot, ok) {
                (_, false) => UNKNOWN,
                (UNKNOWN, true) => 1,
                (v, true) => v + 1,
            };
        }
    }

    /// Checks `data` read from `run` blocks at `start`: always the
    /// stamp, and the whole body when `full`.
    pub fn verify_read(
        &mut self,
        start: u64,
        run: usize,
        block_size: usize,
        data: &[u8],
        full: bool,
    ) -> Result<(), Mismatch> {
        if data.len() != run * block_size {
            return Err(Mismatch::Short);
        }
        let seed = self.seed;
        let mut expected = vec![0u8; if full { block_size } else { 0 }];
        for (i, chunk) in data.chunks(block_size).enumerate() {
            let block = start + i as u64;
            let found = stamped_version(seed, block, chunk).ok_or(Mismatch::Stamp)?;
            let slot = self.slot(block);
            if *slot == UNKNOWN {
                *slot = found;
            } else if *slot != found {
                return Err(Mismatch::Stamp);
            }
            if full {
                fill_block(seed, block, found, &mut expected);
                if expected != chunk {
                    return Err(Mismatch::Body);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------

/// Zipf(θ) over ranks `0..n` by inverse-CDF table lookup: exact, and
/// deterministic for a given PRNG stream.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`, rank 0 the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A stride coprime to `n` near `n/φ`, so `rank·stride mod n` scatters
/// neighbouring ranks across the whole region (hot blocks then land in
/// different stripes and shards instead of one).
pub fn coprime_stride(n: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    if n <= 2 {
        return 1;
    }
    let mut stride = ((n as f64) * 0.618_033_988_75) as u64;
    while gcd(stride.max(1), n) != 1 {
        stride += 1;
    }
    stride.max(1)
}

// ---------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------

/// One submission: a single `read_at`/`write_at` when `starts` has one
/// entry, else one `submit` of an `IoBatch` with an op per entry. Every
/// op covers `run` blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub write: bool,
    pub starts: Vec<u64>,
    pub run: usize,
}

impl Op {
    pub fn blocks(&self) -> usize {
        self.starts.len() * self.run
    }
}

/// The four access patterns of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Stripe-aligned whole-stripe writes walking the region, wrapping.
    SeqStripeWrite,
    /// Uniform-random `run`-block reads aligned to `run` blocks.
    UniformRead { run: usize },
    /// Batches of `ops` distinct single-block ops at uniform-random
    /// addresses; all-write with probability `p_write`, else all-read.
    UniformBatch { ops: usize, p_write: f64 },
    /// Single-block reads at zipf(θ) ranks scattered over the region;
    /// one op in `write_every` is a single-block write instead.
    ZipfRead { theta: f64, write_every: u64 },
}

/// A seeded, endless stream of [`Op`]s over one thread's block region.
pub struct OpStream {
    pattern: Pattern,
    rng: Rng,
    region: Range<u64>,
    blocks_per_stripe: u64,
    cursor: u64,
    zipf: Option<(Zipf, u64)>,
}

impl OpStream {
    /// `region` is this thread's blocks (stripe-aligned for
    /// [`Pattern::SeqStripeWrite`]); `stream` picks the thread's PRNG
    /// stream of `seed`.
    pub fn new(
        pattern: Pattern,
        seed: u64,
        stream: u64,
        region: Range<u64>,
        blocks_per_stripe: usize,
    ) -> Self {
        let len = region.end - region.start;
        assert!(len > 0, "empty region");
        let zipf = match pattern {
            Pattern::ZipfRead { theta, .. } => {
                Some((Zipf::new(len as usize, theta), coprime_stride(len)))
            }
            _ => None,
        };
        OpStream {
            pattern,
            rng: Rng::stream(seed, stream),
            region,
            blocks_per_stripe: blocks_per_stripe as u64,
            cursor: 0,
            zipf,
        }
    }

    fn len(&self) -> u64 {
        self.region.end - self.region.start
    }

    fn zipf_block(&mut self) -> u64 {
        let len = self.len();
        let (zipf, stride) = self.zipf.as_ref().expect("zipf pattern");
        let rank = zipf.sample(&mut self.rng) as u64;
        self.region.start + (rank * stride) % len
    }

    pub fn next_op(&mut self) -> Op {
        match self.pattern {
            Pattern::SeqStripeWrite => {
                let per = self.blocks_per_stripe;
                let stripes = self.len() / per;
                let start = self.region.start + (self.cursor % stripes) * per;
                self.cursor += 1;
                Op {
                    write: true,
                    starts: vec![start],
                    run: per as usize,
                }
            }
            Pattern::UniformRead { run } => {
                let slots = self.len() / run as u64;
                let start = self.region.start + self.rng.below(slots) * run as u64;
                Op {
                    write: false,
                    starts: vec![start],
                    run,
                }
            }
            Pattern::UniformBatch { ops, p_write } => {
                let write = self.rng.unit() < p_write;
                let mut starts: Vec<u64> = Vec::with_capacity(ops);
                while starts.len() < ops {
                    let block = self.region.start + self.rng.below(self.len());
                    if !starts.contains(&block) {
                        starts.push(block);
                    }
                }
                Op {
                    write,
                    starts,
                    run: 1,
                }
            }
            Pattern::ZipfRead { write_every, .. } => {
                let write = self.rng.below(write_every) == 0;
                let block = self.zipf_block();
                Op {
                    write,
                    starts: vec![block],
                    run: 1,
                }
            }
        }
    }

    /// FNV-1a over the next `ops` ops — what the determinism tests (and
    /// anyone checking two builds saw the same inputs) compare.
    pub fn hash(&mut self, ops: usize) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for _ in 0..ops {
            let op = self.next_op();
            eat(u64::from(op.write));
            eat(op.run as u64);
            for s in op.starts {
                eat(s);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATTERNS: [Pattern; 4] = [
        Pattern::SeqStripeWrite,
        Pattern::UniformRead { run: 16 },
        Pattern::UniformBatch {
            ops: 16,
            p_write: 0.5,
        },
        Pattern::ZipfRead {
            theta: 0.99,
            write_every: 128,
        },
    ];

    fn stream(p: Pattern, seed: u64, thread: u64) -> OpStream {
        OpStream::new(p, seed, thread, 930..930 + 93 * 40, 93)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for p in PATTERNS {
            assert_eq!(
                stream(p, 7, 0).hash(500),
                stream(p, 7, 0).hash(500),
                "{p:?}"
            );
            if p != Pattern::SeqStripeWrite {
                assert_ne!(
                    stream(p, 7, 0).hash(500),
                    stream(p, 8, 0).hash(500),
                    "{p:?}"
                );
                assert_ne!(
                    stream(p, 7, 0).hash(500),
                    stream(p, 7, 1).hash(500),
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn ops_stay_inside_the_region_and_batches_are_distinct() {
        for p in PATTERNS {
            let mut s = stream(p, 3, 1);
            for _ in 0..2000 {
                let op = s.next_op();
                for &start in &op.starts {
                    assert!(
                        start >= 930 && start + op.run as u64 <= 930 + 93 * 40,
                        "{p:?}"
                    );
                }
                let mut sorted = op.starts.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), op.starts.len());
                if p == Pattern::SeqStripeWrite {
                    assert_eq!((op.starts[0] - 930) % 93, 0);
                    assert_eq!(op.run, 93);
                }
            }
        }
    }

    #[test]
    fn seq_stream_walks_every_stripe_then_wraps() {
        let mut s = stream(Pattern::SeqStripeWrite, 1, 0);
        let first: Vec<u64> = (0..40).map(|_| s.next_op().starts[0]).collect();
        let expect: Vec<u64> = (0..40).map(|k| 930 + k * 93).collect();
        assert_eq!(first, expect);
        assert_eq!(s.next_op().starts[0], 930);
    }

    #[test]
    fn zipf_rank_frequency_slope_is_minus_theta() {
        let theta = 0.99;
        let zipf = Zipf::new(4096, theta);
        let mut rng = Rng::new(11);
        let mut counts = vec![0u64; 4096];
        for _ in 0..2_000_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Least-squares slope of log(count) on log(rank) over the head,
        // where every rank has thousands of samples.
        let pts: Vec<(f64, f64)> = (0..64)
            .map(|r| (((r + 1) as f64).ln(), (counts[r] as f64).ln()))
            .collect();
        let n = pts.len() as f64;
        let (sx, sy) = pts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
        let (sxx, sxy) = pts
            .iter()
            .fold((0.0, 0.0), |a, p| (a.0 + p.0 * p.0, a.1 + p.0 * p.1));
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!((slope + theta).abs() < 0.03, "slope {slope}");
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }

    #[test]
    fn stride_scatter_is_a_permutation() {
        for n in [1u64, 2, 93, 8184, 8277] {
            let stride = coprime_stride(n);
            let mut seen = vec![false; n as usize];
            for rank in 0..n {
                seen[((rank * stride) % n) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "n={n} stride={stride}");
        }
    }

    #[test]
    fn verifier_accepts_what_it_wrote_and_reports_damage() {
        let mut shadow = Shadow::new(5, 100..200);
        // Prefill content is version 0.
        let mut prefill = vec![0u8; 2 * 512];
        fill_block(5, 150, 0, &mut prefill[..512]);
        fill_block(5, 151, 0, &mut prefill[512..]);
        assert_eq!(shadow.verify_read(150, 2, 512, &prefill, true), Ok(()));

        let payload = shadow.next_payload(150, 2, 512);
        shadow.commit_write(150, 2, true);
        assert_eq!(shadow.verify_read(150, 2, 512, &payload, true), Ok(()));

        // A stale version (the prefill again) is a failed op.
        assert_eq!(
            shadow.verify_read(150, 2, 512, &prefill, false),
            Err(Mismatch::Stamp)
        );
        // A flipped body byte passes the stamp check but not the full one.
        let mut flipped = payload.clone();
        flipped[300] ^= 1;
        assert_eq!(shadow.verify_read(150, 2, 512, &flipped, false), Ok(()));
        assert_eq!(
            shadow.verify_read(150, 2, 512, &flipped, true),
            Err(Mismatch::Body)
        );
        // A flipped stamp byte fails either way; a short read too.
        let mut bad_stamp = payload.clone();
        bad_stamp[9] ^= 1;
        assert_eq!(
            shadow.verify_read(150, 2, 512, &bad_stamp, false),
            Err(Mismatch::Stamp)
        );
        assert_eq!(
            shadow.verify_read(150, 2, 512, &payload[..1000], false),
            Err(Mismatch::Short)
        );
    }

    #[test]
    fn failed_write_leaves_the_block_adoptable() {
        let mut shadow = Shadow::new(9, 0..10);
        let lost = shadow.next_payload(3, 1, 256);
        shadow.commit_write(3, 1, false);
        // Either outcome of the failed write verifies once...
        let mut old = vec![0u8; 256];
        fill_block(9, 3, 0, &mut old);
        assert_eq!(shadow.verify_read(3, 1, 256, &old, true), Ok(()));
        // ...and is then pinned.
        assert_eq!(
            shadow.verify_read(3, 1, 256, &lost, true),
            Err(Mismatch::Stamp)
        );
    }
}
