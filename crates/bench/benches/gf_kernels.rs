//! Ablations on the Galois-field substrate: the dispatched split-table
//! `Mult_XOR` region kernel vs the same tables walked a byte at a time vs a
//! naive per-byte log/exp loop, and GF(2^8) vs GF(2^16) region throughput
//! (the word-size effect of §6.2.1). Also the guard against a silent scalar
//! fallback: the run fails if AVX2 is there and the dispatched kernel is
//! not at least twice the byte loop.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use stair_gf::{Field, Gf16, Gf8};

/// SPLIT(8,4) `Mult_XOR` one byte at a time: what `Gf8::mult_xor_region`
/// does where it has no SIMD tier.
fn scalar_mult_xor(dst: &mut [u8], src: &[u8], c: u8) {
    let lo: [u8; 16] = std::array::from_fn(|x| Gf8::mul(c, x as u8));
    let hi: [u8; 16] = std::array::from_fn(|x| Gf8::mul(c, (x as u8) << 4));
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 0x0f) as usize] ^ hi[(s >> 4) as usize];
    }
}

fn bench_gf_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_region_kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let len = 64 * 1024;
    let src = vec![0xA7u8; len];
    let mut dst = vec![0x11u8; len];
    group.throughput(Throughput::Bytes(len as u64));

    group.bench_function("gf8_split_table", |b| {
        b.iter(|| Gf8::mult_xor_region(&mut dst, &src, 0x53));
    });

    group.bench_function("gf8_split_table_scalar", |b| {
        b.iter(|| scalar_mult_xor(&mut dst, &src, 0x53));
    });

    group.bench_function("gf8_per_byte_logexp", |b| {
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(&src) {
                *d ^= Gf8::mul(0x53, s);
            }
        });
    });

    group.bench_function("gf16_split_table", |b| {
        b.iter(|| Gf16::mult_xor_region(&mut dst, &src, 0x5353));
    });
    group.finish();
}

fn bench_gf_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_width_effect");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    // A full row-parity computation: 14 data symbols into 2 parities,
    // 8 KiB symbols — once over GF(2^8), once over GF(2^16).
    let k = 14usize;
    let symbol = 8192usize;
    let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; symbol]).collect();
    let mut p = vec![0u8; symbol];
    group.throughput(Throughput::Bytes((k * symbol) as u64));
    group.bench_function("w8", |b| {
        b.iter(|| {
            p.fill(0);
            for (i, d) in data.iter().enumerate() {
                Gf8::mult_xor_region(&mut p, d, Gf8::exp(i));
            }
        });
    });
    group.bench_function("w16", |b| {
        b.iter(|| {
            p.fill(0);
            for (i, d) in data.iter().enumerate() {
                Gf16::mult_xor_region(&mut p, d, Gf16::exp(i));
            }
        });
    });
    group.finish();
}

/// Times the dispatched `Gf8::mult_xor_region` and the scalar loop in the
/// same run on one L1-resident pair of sectors. A same-run ratio does not
/// depend on how fast the host is, so it can gate CI: with AVX2 detected,
/// anything under 2 means the dispatch fell back to scalar.
fn guard_against_silent_fallback(_: &mut Criterion) {
    let src = [0xA7u8; 4096];
    let mut dst = [0x11u8; 4096];
    let mut best_secs = |kernel: fn(&mut [u8], &[u8], u8)| {
        (0..5)
            .map(|_| {
                let begin = Instant::now();
                for _ in 0..2048 {
                    kernel(black_box(&mut dst), black_box(&src), 0x53);
                }
                begin.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let ratio = best_secs(scalar_mult_xor) / best_secs(Gf8::mult_xor_region);
    #[cfg(target_arch = "x86_64")]
    let avx2 = is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    println!("gf_dispatch_guard/gf8_dispatched_over_scalar   x{ratio:.1}   avx2: {avx2}");
    assert!(
        !avx2 || ratio >= 2.0,
        "AVX2 detected but Gf8::mult_xor_region is only x{ratio:.2} the scalar loop: \
         the dispatch fell back"
    );
}

criterion_group!(
    benches,
    bench_gf_kernels,
    bench_gf_width,
    guard_against_silent_fallback
);
criterion_main!(benches);
