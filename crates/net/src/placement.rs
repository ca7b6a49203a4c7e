//! Deterministic block-range placement: how the global logical block
//! space maps onto shards.
//!
//! The unit of placement is a **range** of `range_blocks` consecutive
//! global blocks (one stripe's worth of data blocks, so a full-range
//! write is a full-stripe write on its shard). Ranges are dealt
//! round-robin:
//!
//! ```text
//! global block g
//!   range        = g / range_blocks
//!   shard        = range % shards
//!   local block  = (range / shards) · range_blocks + g % range_blocks
//! ```
//!
//! Round-robin striping means a sequential scan of the global space
//! touches every shard in turn, so concurrent sequential clients spread
//! across all shards instead of queueing on one.

use stair_device::{OpRef, OpResult};
use stair_obs::trace;

use crate::NetError;

/// The placement map: pure arithmetic, shared by server and tooling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    shards: usize,
    /// Placement unit in blocks (= data blocks per stripe).
    range_blocks: usize,
    /// Ranges per shard (= stripes per shard).
    ranges_per_shard: usize,
    block_size: usize,
}

/// One shard-local piece of a global byte span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpan {
    /// Which shard serves this piece.
    pub shard: usize,
    /// Byte offset within the shard's local space.
    pub local_offset: u64,
    /// Byte offset of this piece within the caller's global span.
    pub span_offset: usize,
    /// Length of this piece in bytes.
    pub len: usize,
}

impl Placement {
    /// Builds a map for `shards` shards each holding `ranges_per_shard`
    /// ranges of `range_blocks` blocks of `block_size` bytes.
    pub fn new(
        shards: usize,
        range_blocks: usize,
        ranges_per_shard: usize,
        block_size: usize,
    ) -> Self {
        assert!(shards > 0 && range_blocks > 0 && ranges_per_shard > 0 && block_size > 0);
        Placement {
            shards,
            range_blocks,
            ranges_per_shard,
            block_size,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Blocks per placement range.
    pub fn range_blocks(&self) -> usize {
        self.range_blocks
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total capacity in bytes across all shards.
    pub fn capacity(&self) -> u64 {
        self.shards as u64
            * self.ranges_per_shard as u64
            * self.range_blocks as u64
            * self.block_size as u64
    }

    /// Maps a global byte offset to `(shard, local byte offset)`.
    pub fn locate(&self, offset: u64) -> (usize, u64) {
        let range_bytes = (self.range_blocks * self.block_size) as u64;
        let range = offset / range_bytes;
        let shard = (range % self.shards as u64) as usize;
        let local = (range / self.shards as u64) * range_bytes + offset % range_bytes;
        (shard, local)
    }

    /// Splits the global byte span `[offset, offset + len)` into
    /// shard-local pieces, in global order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Shards`] if the span exceeds capacity.
    pub fn split(&self, offset: u64, len: usize) -> Result<Vec<ShardSpan>, NetError> {
        let end = offset
            .checked_add(len as u64)
            .filter(|&e| e <= self.capacity())
            .ok_or_else(|| {
                NetError::Shards(format!(
                    "span {offset}+{len} exceeds capacity {}",
                    self.capacity()
                ))
            })?;
        let range_bytes = (self.range_blocks * self.block_size) as u64;
        let mut out = Vec::new();
        let mut at = offset;
        while at < end {
            let (shard, local_offset) = self.locate(at);
            // Stop at the end of the current range: the next range lives
            // on the next shard.
            let range_end = (at / range_bytes + 1) * range_bytes;
            let piece = (range_end.min(end) - at) as usize;
            // Merge with the previous piece when consecutive ranges land
            // on the same shard contiguously (only possible with 1 shard).
            match out.last_mut() {
                Some(ShardSpan {
                    shard: s,
                    local_offset: lo,
                    len: l,
                    ..
                }) if *s == shard && *lo + *l as u64 == local_offset => {
                    *l += piece;
                }
                _ => out.push(ShardSpan {
                    shard,
                    local_offset,
                    span_offset: (at - offset) as usize,
                    len: piece,
                }),
            }
            at += piece as u64;
        }
        Ok(out)
    }
}

/// One shard's share of a batch: shard-local ops plus, per op, where
/// its result stitches back into the global batch.
#[derive(Debug)]
pub struct ShardBatch<'a> {
    /// The shard these ops run on.
    pub shard: usize,
    /// Shard-local views (offsets in the shard's local byte space, data
    /// borrowed from the global ops), in global submission order.
    pub ops: Vec<OpRef<'a>>,
    /// Per local op: `(global op index, byte offset of this fragment
    /// within the global op's span)`.
    pub map: Vec<(usize, usize)>,
}

/// Splits a batch by placement into one [`ShardBatch`] per touched
/// shard, shards in ascending order. Submission order is preserved
/// within each shard, so conflicting ops (which always share the
/// shard their overlap lands on) keep their observable ordering.
///
/// # Errors
///
/// Returns [`NetError::Shards`] if any op's span exceeds capacity —
/// detected before anything executes.
pub fn split_batch<'a>(
    placement: &Placement,
    ops: &[OpRef<'a>],
) -> Result<Vec<ShardBatch<'a>>, NetError> {
    let mut out: Vec<ShardBatch<'a>> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        for span in placement.split(op.offset(), op.byte_len())? {
            let at = match out.binary_search_by_key(&span.shard, |b| b.shard) {
                Ok(at) => at,
                Err(at) => {
                    out.insert(
                        at,
                        ShardBatch {
                            shard: span.shard,
                            ops: Vec::new(),
                            map: Vec::new(),
                        },
                    );
                    at
                }
            };
            out[at]
                .ops
                .push(op.piece(span.span_offset, span.len, span.local_offset));
            out[at].map.push((i, span.span_offset));
        }
    }
    Ok(out)
}

/// Executes a split batch: `run` once per group — inline for a single
/// group (the common shape; threads buy nothing at width 1), else on
/// scoped threads that inherit the submitting thread's span context —
/// and each group's results stitched back into `ops` order.
pub(crate) fn run_groups<E: Into<NetError> + Send>(
    ops: &[OpRef<'_>],
    groups: &[ShardBatch<'_>],
    run: impl Fn(&ShardBatch<'_>) -> Result<Vec<OpResult>, E> + Sync,
) -> Result<Vec<OpResult>, NetError> {
    let subs: Vec<Result<Vec<OpResult>, E>> = if let [g] = groups {
        vec![run(g)]
    } else {
        let ctx = trace::current();
        let run = &run;
        std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .map(|g| {
                    scope.spawn(move || {
                        let _trace = trace::enter_ctx(ctx);
                        run(g)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(
                    #[expect(
                        clippy::expect_used,
                        reason = "a panicked group thread is a bug — propagate, don't mask as NetError"
                    )]
                    |h| h.join().expect("shard group thread"),
                )
                .collect()
        })
    };
    let mut results: Vec<OpResult> = ops.iter().map(OpRef::seed).collect();
    for (g, sub) in groups.iter().zip(subs) {
        crate::device_impl::stitch(&mut results, &g.map, sub.map_err(Into::into)?)?;
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_ranges() {
        // 3 shards, 4-block ranges, 2 ranges per shard, 10-byte blocks.
        let p = Placement::new(3, 4, 2, 10);
        assert_eq!(p.capacity(), 3 * 2 * 4 * 10);
        // Range k lives on shard k % 3 at local range k / 3.
        assert_eq!(p.locate(0), (0, 0));
        assert_eq!(p.locate(40), (1, 0));
        assert_eq!(p.locate(80), (2, 0));
        assert_eq!(p.locate(120), (0, 40));
        assert_eq!(p.locate(125), (0, 45));
        assert_eq!(p.locate(239), (2, 79));
    }

    #[test]
    fn split_covers_span_exactly_once() {
        let p = Placement::new(3, 4, 2, 10);
        let spans = p.split(35, 100).unwrap();
        // Pieces tile the request in order.
        let mut at = 0usize;
        for s in &spans {
            assert_eq!(s.span_offset, at);
            at += s.len;
        }
        assert_eq!(at, 100);
        // Every global byte maps to the piece covering it.
        for s in &spans {
            let (shard, local) = p.locate(35 + s.span_offset as u64);
            assert_eq!((shard, local), (s.shard, s.local_offset));
        }
    }

    #[test]
    fn split_rejects_beyond_capacity() {
        let p = Placement::new(2, 4, 2, 10);
        assert!(p.split(p.capacity(), 1).is_err());
        assert!(p.split(p.capacity() - 1, 2).is_err());
        assert!(p.split(p.capacity(), 0).unwrap().is_empty());
        assert!(p.split(u64::MAX, 2).is_err());
    }

    #[test]
    fn single_shard_spans_merge() {
        let p = Placement::new(1, 4, 8, 10);
        let spans = p.split(0, 300).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len, 300);
    }

    #[test]
    fn split_batch_groups_by_shard_and_keeps_order() {
        // 3 shards, 4-block ranges, 2 ranges per shard, 10-byte blocks:
        // range k → shard k % 3, range bytes = 40.
        let p = Placement::new(3, 4, 2, 10);
        let (ones, twos) = (vec![1u8; 40], vec![2u8; 10]);
        let ops = [
            OpRef::Write {
                offset: 0,
                data: &ones,
            }, // range 0 → shard 0
            OpRef::Read {
                offset: 40,
                len: 40,
            }, // range 1 → shard 1
            OpRef::Write {
                offset: 35,
                data: &twos,
            }, // crosses range 0 → 1, splits across shards 0 and 1
            OpRef::Read { offset: 5, len: 10 }, // shard 0 again
        ];
        let shards = split_batch(&p, &ops).unwrap();
        assert_eq!(shards.len(), 2);
        // Shard 0: op 0, the head of op 2, op 3 — in submission order.
        assert_eq!(shards[0].shard, 0);
        assert_eq!(shards[0].map, vec![(0, 0), (2, 0), (3, 0)]);
        assert_eq!(
            shards[0].ops[1],
            OpRef::Write {
                offset: 35,
                data: &twos[..5]
            }
        );
        // Shard 1: op 1, then the tail of op 2 (span offset 5, local
        // offset 0 of range 1's shard-local bytes).
        assert_eq!(shards[1].shard, 1);
        assert_eq!(shards[1].map, vec![(1, 0), (2, 5)]);
        assert_eq!(
            shards[1].ops[1],
            OpRef::Write {
                offset: 0,
                data: &twos[5..]
            }
        );

        // A 64-single-block batch landing in one range produces exactly
        // one shard group — the "one request frame per shard" shape.
        let one_stripe: Vec<OpRef<'_>> = (0..40usize)
            .map(|k| OpRef::Write {
                offset: k as u64,
                data: &ones[k..k + 1],
            })
            .collect();
        let shards = split_batch(&p, &one_stripe).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].ops.len(), 40);

        // Out-of-range ops poison the whole split.
        assert!(split_batch(
            &p,
            &[OpRef::Read {
                offset: p.capacity(),
                len: 1
            }]
        )
        .is_err());
    }
}
