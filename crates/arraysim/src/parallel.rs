//! Parallel stripe coding: stripes are independent (§2, "each stripe is
//! independently protected"), so encoding and repairing an array
//! parallelizes trivially across stripes. The paper makes the same point
//! for CPU scaling ("the encoding operations can also be parallelized with
//! modern multi-core CPUs", §6.2.1).

use stair::{Plan, StairCodec, Stripe};

use crate::Error;

/// Encodes many stripes with one codec across `threads` worker threads.
///
/// # Errors
///
/// Returns the first codec error encountered (none are expected for
/// well-formed stripes).
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn encode_stripes(
    codec: &StairCodec,
    stripes: &mut [Stripe],
    threads: usize,
) -> Result<(), Error> {
    assert!(threads > 0, "need at least one thread");
    let shard = stripes.len().div_ceil(threads).max(1);
    let results = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in stripes.chunks_mut(shard) {
            handles.push(scope.spawn(move |_| {
                for stripe in chunk {
                    codec.encode(stripe)?;
                }
                Ok::<(), stair::Error>(())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("encode worker panicked");
    for r in results {
        r?;
    }
    Ok(())
}

/// Applies one decode plan to many stripes in parallel (the common rebuild
/// case: a device failure erases the *same* coordinates in every stripe).
///
/// # Errors
///
/// Returns the first codec error encountered.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn repair_stripes(
    codec: &StairCodec,
    plan: &Plan,
    stripes: &mut [Stripe],
    threads: usize,
) -> Result<(), Error> {
    assert!(threads > 0, "need at least one thread");
    let shard = stripes.len().div_ceil(threads).max(1);
    let results = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in stripes.chunks_mut(shard) {
            handles.push(scope.spawn(move |_| {
                for stripe in chunk {
                    codec.apply_plan(plan, stripe)?;
                }
                Ok::<(), stair::Error>(())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("repair worker panicked");
    for r in results {
        r?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stair::Config;

    fn stripes(config: &Config, count: usize) -> Vec<Stripe> {
        (0..count)
            .map(|i| {
                let mut s = Stripe::new(config.clone(), 32).unwrap();
                s.fill_pattern(i as u8);
                s
            })
            .collect()
    }

    #[test]
    fn parallel_encode_matches_serial() {
        let config = Config::new(8, 8, 2, &[1, 2]).unwrap();
        let codec = StairCodec::new(config.clone()).unwrap();
        let mut parallel = stripes(&config, 17);
        let mut serial = parallel.clone();
        encode_stripes(&codec, &mut parallel, 4).unwrap();
        for s in &mut serial {
            codec.encode(s).unwrap();
        }
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_repair_rebuilds_failed_device() {
        let config = Config::new(8, 8, 2, &[1, 2]).unwrap();
        let codec = StairCodec::new(config.clone()).unwrap();
        let mut all = stripes(&config, 9);
        encode_stripes(&codec, &mut all, 3).unwrap();
        let pristine = all.clone();
        // Device 5 dies: same erasure coordinates in every stripe.
        let erased: Vec<(usize, usize)> = (0..8).map(|row| (row, 5)).collect();
        for s in &mut all {
            s.erase(&erased).unwrap();
        }
        let plan = codec.plan_decode(&erased).unwrap();
        repair_stripes(&codec, &plan, &mut all, 3).unwrap();
        assert_eq!(all, pristine);
    }

    #[test]
    fn more_threads_than_stripes_is_fine() {
        let config = Config::new(6, 4, 1, &[1]).unwrap();
        let codec = StairCodec::new(config.clone()).unwrap();
        let mut few = stripes(&config, 2);
        encode_stripes(&codec, &mut few, 16).unwrap();
    }
}
