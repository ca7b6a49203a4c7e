//! The host-speed reference.
//!
//! The sandbox this benchmark runs in is a small VM on a shared host,
//! and its CPU speed drifts by tens of percent over minutes (measured:
//! the same build's `gf8` L1 kernel between 0.72 and 1.27 GiB/s, and
//! every CPU-bound end-to-end number with it). No bound a regression
//! gate could use survives that, so the end-to-end run samples this
//! fixed kernel between windows — after every client has its last
//! reply and the devices are flushed, so nothing of the program under
//! test competes with it — and reports the **host speed** (kernel rate
//! over [`NOMINAL_RATE`]) beside the metrics. Time-based metrics are
//! put at reference speed: a window's rates are divided by its host
//! speed, its durations multiplied. That holds for the windows that
//! mostly wait for the virtual disk as well: when the host is slow, so
//! is its I/O completion (`README.md` has the measurement).
//!
//! The kernel is the benchmark's own (byte-table lookups, a
//! Fletcher-style checksum and an L1-resident copy: the instruction mix
//! of the storage stack without calling any of its code), so an
//! optimisation of the program cannot hide in the reference.

use std::time::{Duration, Instant};

/// Kernel iterations per second, two threads together, on this sandbox
/// when its host is quiet. Runs are compared across minutes and across
/// processes, so the reference has to be a constant; it only sets the
/// scale, and the host speed is reported so the numbers as measured can
/// be had back.
pub const NOMINAL_RATE: f64 = 230_000.0;

/// One sample is this many slices of [`SLICE`] per thread; a thread's
/// rate is the median over its slices, so a scheduling hiccup (both
/// spinners briefly on one core, an interrupt) costs a slice, not the
/// sample.
const SLICES: usize = 12;
const SLICE: Duration = Duration::from_millis(8);

const REGION: usize = 4096;

fn kernel(dst: &mut [u8], src: &[u8], table: &[u8; 256], out: &mut [u8]) -> u32 {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= table[*s as usize];
    }
    let (mut a, mut b) = (0u32, 0u32);
    for w in dst.chunks_exact(2) {
        a = (a + u32::from(u16::from_le_bytes([w[0], w[1]]))) % 65535;
        b = (b + a) % 65535;
    }
    out.copy_from_slice(dst);
    (b << 16) | a
}

/// One thread's sample: its kernel rate, median over the slices.
pub fn spin() -> f64 {
    let mut table = [0u8; 256];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u8).wrapping_mul(167).wrapping_add(13);
    }
    let src: Vec<u8> = (0..REGION as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let mut dst = vec![0u8; REGION];
    let mut out = vec![0u8; REGION];
    let mut acc = 0u32;
    let mut rates: Vec<f64> = (0..SLICES)
        .map(|_| {
            let begin = Instant::now();
            let mut iterations = 0u64;
            while begin.elapsed() < SLICE {
                for _ in 0..8 {
                    acc ^= kernel(
                        std::hint::black_box(&mut dst),
                        std::hint::black_box(&src),
                        &table,
                        &mut out,
                    );
                }
                iterations += 8;
            }
            iterations as f64 / begin.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(acc);
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    (rates[SLICES / 2 - 1] + rates[SLICES / 2]) / 2.0
}

/// One sample: the kernel's rate summed over `threads` threads spinning
/// side by side, as a share of [`NOMINAL_RATE`].
pub fn speed(threads: usize) -> f64 {
    let rate: f64 = std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..threads).map(|_| scope.spawn(spin)).collect();
        spinners
            .into_iter()
            .map(|s| s.join().expect("calibration thread panicked"))
            .sum()
    });
    rate / NOMINAL_RATE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_runs_and_scales_with_threads() {
        let one = speed(1);
        assert!(one > 0.0 && one.is_finite());
        // The checksum depends on every byte the lookups produced.
        let table = [1u8; 256];
        let src = vec![7u8; REGION];
        let (mut a, mut b) = (vec![0u8; REGION], vec![0u8; REGION]);
        let mut out = vec![0u8; REGION];
        let first = kernel(&mut a, &src, &table, &mut out);
        b[100] = 1;
        assert_ne!(first, kernel(&mut b, &src, &table, &mut out));
        assert_eq!(out, b);
    }
}
