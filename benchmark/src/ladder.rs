//! The traced **layers** run: the workload again with the program's
//! spans switched on in alternate windows, then a ladder of probes
//! that calls each lower layer's public functions directly —
//! `tcp:` → `ShardSet` → `StripeStore` → `ErasureCode` on an in-memory
//! `StripeBuf` → `Field::mult_xor_region` — and reports each layer
//! absolutely and as a ratio to the layer beneath it.
//!
//! Every probe is single-threaded and runs for a fixed share of
//! `--seconds`, so the run's length does not depend on how fast the
//! layers are. Probe devices are a quarter of the workload's size
//! (equal across the rungs that are compared) to fit the time cap.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use stair_code::{CodecSpec, ErasureCode, ErasureSet, StripeBuf};
use stair_device::{BlockDevice, DeviceSpec, Instrumented, IoBatch};
use stair_gf::{counters, Field, Gf16, Gf8};
use stair_net::{open_device, ShardSet};
use stair_obs::trace::{self, names};
use stair_obs::MetricsSnapshot;
use stair_store::{build_codec, StripeStore};

use crate::e2e::{clients_for, scratch_dir, timed_setups, Measured, Options, Report};
use crate::engine::{pattern_of, run_windows, Client, Observer, Plan, Unobserved, Window};
use crate::env::{
    blocks_per_stripe, create_file_store, inject_worst_case, prefill_and_verify, store_options,
    stripe_payload, stripes_for, worst_case_cells, ServerThread, CLIENTS, SYMBOL,
};
use crate::json::Value;
use crate::load::{fill_block, stamped_version, Rng};
use crate::metrics::{Workload, PER_LAYER};
use crate::procfs;
use crate::spans::{Ladder, TraceSink, TraceSummary};

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

/// The largest arena the streaming kernels walk. Four times the
/// last-level cache is the aim; a VM that reports a host-sized LLC
/// would otherwise spend the whole probe faulting pages in.
const ARENA_CAP: usize = 256 << 20;

/// What a timed loop did.
#[derive(Clone, Copy, Debug)]
struct Rate {
    calls: u64,
    units: u64,
    secs: f64,
}

impl Rate {
    fn per_sec(self, scale: f64) -> f64 {
        self.units as f64 / scale / self.secs
    }

    fn us_per_call(self) -> f64 {
        self.secs * 1e6 / self.calls.max(1) as f64
    }
}

/// The ladder's state: where numbers go, the span log, and whether
/// every probe's output checked out.
struct Rungs<'a> {
    values: BTreeMap<&'static str, f64>,
    spans: &'a mut Ladder,
    root: usize,
    /// Length of one probe.
    probe: Duration,
    seed: u64,
    correct: bool,
    notes: Vec<String>,
}

impl Rungs<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn ratio(&mut self, name: &'static str, num: &str, den: &str) {
        let (n, d) = (self.get(num), self.get(den));
        self.put(name, if d == 0.0 { 0.0 } else { n / d });
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("FAILED CHECK: {what}"));
        }
    }

    /// Calls `body` until `probes` probe lengths have passed, inside a
    /// ladder span; `body` returns the units of work one call did.
    fn time(&mut self, span: &str, probes: u32, mut body: impl FnMut() -> u64) -> Rate {
        let id = self.spans.begin(span, Some(self.root));
        let budget = self.probe * probes;
        let begin = Instant::now();
        let (mut calls, mut units) = (0u64, 0u64);
        loop {
            units += body();
            calls += 1;
            if begin.elapsed() >= budget {
                break;
            }
        }
        let secs = begin.elapsed().as_secs_f64();
        self.spans.end(id, calls);
        Rate { calls, units, secs }
    }
}

// ---------------------------------------------------------------------
// gf
// ---------------------------------------------------------------------

fn gf_rungs(r: &mut Rungs) {
    const REGION: usize = 4096;
    let llc = procfs::llc_bytes().unwrap_or(32 << 20) as usize;
    let arena_len = (4 * llc).min(ARENA_CAP) / (2 * REGION) * (2 * REGION);
    r.notes.push(format!(
        "gf stream arena {} MiB (LLC {} MiB{})",
        arena_len >> 20,
        llc >> 20,
        if 4 * llc > ARENA_CAP {
            "; capped below 4x LLC"
        } else {
            ""
        }
    ));
    let mut arena = vec![0u8; arena_len];
    let mut rng = Rng::stream(r.seed, 0x6F);
    for chunk in arena.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    let (src, dst) = arena.split_at_mut(arena_len / 2);
    let regions = src.len() / REGION;
    let c8 = Gf8::elem(0x53);

    // Walk source and destination regions in step, wrapping.
    let mut at = 0usize;
    let mut walk = |kernel: &dyn Fn(&mut [u8], &[u8])| -> u64 {
        let span = at * REGION..(at + 1) * REGION;
        kernel(&mut dst[span.clone()], &src[span]);
        at = (at + 1) % regions;
        REGION as u64
    };
    let rate = r.time("gf.gf8_mult_xor_stream", 1, || {
        walk(&|d, s| Gf8::mult_xor_region(d, s, c8))
    });
    r.put("gf.gf8_mult_xor_stream_gib_s", rate.per_sec(GIB));
    let rate = r.time("gf.xor_region_stream", 1, || {
        walk(&|d, s| Gf8::xor_region(d, s))
    });
    r.put("gf.xor_region_stream_gib_s", rate.per_sec(GIB));
    let rate = r.time("gf.copy_stream", 1, || walk(&|d, s| d.copy_from_slice(s)));
    r.put("gf.copy_stream_gib_s", rate.per_sec(GIB));
    r.ratio(
        "gf.mult_xor_over_copy",
        "gf.gf8_mult_xor_stream_gib_s",
        "gf.copy_stream_gib_s",
    );

    // One source and one destination region: both stay in L1.
    let (s1, d1) = (&src[..REGION], &mut dst[..REGION]);
    let rate = r.time("gf.gf8_mult_xor_l1", 1, || {
        for _ in 0..32 {
            Gf8::mult_xor_region(std::hint::black_box(&mut *d1), std::hint::black_box(s1), c8);
        }
        32 * REGION as u64
    });
    r.put("gf.gf8_mult_xor_l1_gib_s", rate.per_sec(GIB));
    let c16 = Gf16::elem(0x1234);
    let rate = r.time("gf.gf16_mult_xor_l1", 1, || {
        for _ in 0..32 {
            Gf16::mult_xor_region(
                std::hint::black_box(&mut *d1),
                std::hint::black_box(s1),
                c16,
            );
        }
        32 * REGION as u64
    });
    r.put("gf.gf16_mult_xor_l1_gib_s", rate.per_sec(GIB));
}

// ---------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------

struct CodecUnderTest {
    codec: Box<dyn ErasureCode>,
    stripe: StripeBuf,
    data_bytes: usize,
}

fn codec_under_test(spec: &str, seed: u64) -> CodecUnderTest {
    let spec: CodecSpec = spec.parse().expect("reference codec spec parses");
    let codec = build_codec(&spec).expect("reference codec builds");
    let geom = codec.geometry();
    let mut stripe = StripeBuf::new(geom.r, geom.n, SYMBOL).expect("stripe shape");
    let mut payload = vec![0u8; geom.data_per_stripe() * SYMBOL];
    for (i, chunk) in payload.chunks_mut(SYMBOL).enumerate() {
        fill_block(seed, i as u64, 0, chunk);
    }
    stripe
        .write_cells(&geom.data_cells, &payload)
        .expect("payload matches the data cells");
    CodecUnderTest {
        codec,
        stripe,
        data_bytes: payload.len(),
    }
}

fn codec_rungs(r: &mut Rungs) {
    let mut stair = codec_under_test(crate::env::CODE, r.seed);
    let mut sd = codec_under_test("sd:8,16,2,3", r.seed);
    let mut rs = codec_under_test("rs:8,16,2", r.seed);

    // Encode: MiB/s of stripe data. The exact Mult_XOR count of one
    // encode is read off the gf counters first (nothing else runs).
    let before = counters::mult_xors();
    stair.codec.encode(&mut stair.stripe).expect("encode");
    let encode_xors = counters::mult_xors() - before;
    r.put("gf.mult_xors_per_stripe_encode", encode_xors as f64);
    for (name, span, cut) in [
        ("codec.stair_encode_mib_s", "codec.stair_encode", &mut stair),
        ("codec.sd_encode_mib_s", "codec.sd_encode", &mut sd),
        ("codec.rs_encode_mib_s", "codec.rs_encode", &mut rs),
    ] {
        let bytes = cut.data_bytes as u64;
        let rate = r.time(span, 1, || {
            cut.codec.encode(&mut cut.stripe).expect("encode");
            bytes
        });
        r.put(name, rate.per_sec(MIB));
        if name == "codec.stair_encode_mib_s" {
            // Share of the L1 kernel rate that survives the codec's
            // own bookkeeping and cache misses.
            let kernel_gib_s =
                encode_xors as f64 * SYMBOL as f64 * rate.calls as f64 / GIB / rate.secs;
            let l1 = r.get("gf.gf8_mult_xor_l1_gib_s");
            r.put(
                "codec.encode_kernel_keep_frac",
                if l1 == 0.0 { 0.0 } else { kernel_gib_s / l1 },
            );
        }
    }
    r.ratio(
        "codec.stair_over_sd_encode",
        "codec.stair_encode_mib_s",
        "codec.sd_encode_mib_s",
    );

    // Decode: apply of the worst-case plan, MiB/s of stripe data.
    let cells = worst_case_cells();
    let erased = ErasureSet::new(cells.iter().copied());
    for (name, span, cut) in [
        ("codec.stair_decode_mib_s", "codec.stair_decode", &mut stair),
        ("codec.sd_decode_mib_s", "codec.sd_decode", &mut sd),
    ] {
        let plan = cut
            .codec
            .plan(&erased)
            .expect("the worst covered pattern plans");
        let whole = cut.stripe.as_flat().to_vec();
        cut.stripe.erase(&cells);
        let before = counters::mult_xors();
        cut.codec.apply(&plan, &mut cut.stripe).expect("apply");
        if name == "codec.stair_decode_mib_s" {
            r.put(
                "gf.mult_xors_per_stripe_decode",
                (counters::mult_xors() - before) as f64,
            );
        }
        r.check(cut.stripe.as_flat() == whole, "decode restores the stripe");
        let bytes = cut.data_bytes as u64;
        let rate = r.time(span, 1, || {
            cut.stripe.erase(&cells);
            cut.codec.apply(&plan, &mut cut.stripe).expect("apply");
            bytes
        });
        r.put(name, rate.per_sec(MIB));
    }
    let rate = r.time("codec.stair_plan", 1, || {
        std::hint::black_box(stair.codec.plan(&erased).expect("plan"));
        1
    });
    r.put("codec.stair_plan_us", rate.us_per_call());

    // Update: one data cell rewritten, parity patched in place.
    for (name, span, cut) in [
        ("codec.stair_update_us", "codec.stair_update", &mut stair),
        ("codec.sd_update_us", "codec.sd_update", &mut sd),
    ] {
        let data_cells = cut.codec.geometry().data_cells;
        let mut fresh = vec![0u8; SYMBOL];
        let (mut at, mut version, mut patched) = (0usize, 1u32, 0usize);
        let rate = r.time(span, 1, || {
            fill_block(1, at as u64, version, &mut fresh);
            let cell = data_cells[at];
            let touched = cut
                .codec
                .update(&mut cut.stripe, cell, &fresh)
                .expect("update");
            if version == 1 {
                patched += touched.len();
            }
            at += 1;
            if at == data_cells.len() {
                (at, version) = (0, version + 1);
            }
            1
        });
        r.put(name, rate.us_per_call());
        if name == "codec.stair_update_us" {
            // Mean over one pass of every data cell: the exact update
            // penalty (a partial first pass would bias it, so the
            // probe must have completed one).
            let full_pass = version > 1;
            r.check(full_pass, "update probe covered every data cell");
            r.put(
                "codec.stair_update_parity_cells",
                patched as f64 / data_cells.len() as f64,
            );
        }
    }
}

// ---------------------------------------------------------------------
// store and device
// ---------------------------------------------------------------------

/// Full-stripe `write_at`s walking the store.
fn full_stripe_writes(r: &mut Rungs, span: &str, store: &StripeStore, probes: u32) -> Rate {
    let stripes = store.stripe_count();
    let stripe_bytes = (store.blocks_per_stripe() * SYMBOL) as u64;
    let payloads: Vec<Vec<u8>> = (0..stripes).map(|s| stripe_payload(r.seed, s, 1)).collect();
    let mut at = 0usize;
    r.time(span, probes, || {
        store
            .write_at(at as u64 * stripe_bytes, &payloads[at])
            .expect("full-stripe write");
        at = (at + 1) % stripes;
        stripe_bytes
    })
}

/// Two instruments on one quantity — the time of one stripe encode as
/// the store does it, on a stripe buffer allocated and filled for that
/// write — taken turn about so both see the same allocator and cache
/// state. The ladder's own timer goes around a direct `encode` call on
/// a fresh buffer; the program's `store.encode` span is collected from
/// full-stripe one-op batches through `StripeStore::submit` (the path
/// that carries the `store.*` spans) under a `bench.submit` root.
/// Returns the ladder's mean in µs and the span summary.
fn encode_by_both_instruments(
    r: &mut Rungs,
    store: &StripeStore,
    probes: u32,
) -> (f64, TraceSummary) {
    let stripes = store.stripe_count();
    let stripe_bytes = (store.blocks_per_stripe() * SYMBOL) as u64;
    let geom = store.geometry().clone();
    let payloads: Vec<Vec<u8>> = (0..stripes).map(|s| stripe_payload(r.seed, s, 1)).collect();
    let mut sink = TraceSink::starting_now();
    let (mut at, mut encode_ns) = (0usize, 0u128);
    trace::set_enabled(true);
    let rate = r.time("store.encode_by_both_instruments", probes, || {
        let mut stripe = StripeBuf::new(geom.r, geom.n, SYMBOL).expect("stripe shape");
        stripe
            .write_cells(&geom.data_cells, &payloads[at])
            .expect("payload fits the data cells");
        let begin = Instant::now();
        store.codec().encode(&mut stripe).expect("encode");
        encode_ns += begin.elapsed().as_nanos();
        drop(stripe);

        let mut batch = IoBatch::new();
        batch.write(at as u64 * stripe_bytes, payloads[at].clone());
        let root = trace::root_span(names::BENCH_SUBMIT);
        store.submit(&batch).expect("full-stripe submit");
        drop(root);
        at = (at + 1) % stripes;
        // Often enough that the recorder's ring never wraps unseen.
        if at % 32 == 0 {
            sink.poll();
        }
        1
    });
    trace::set_enabled(false);
    sink.poll();
    (encode_ns as f64 / 1e3 / rate.calls as f64, sink.summarize())
}

fn store_rungs(r: &mut Rungs, dir: &Path, stripes: usize) -> Result<(), String> {
    let e = |what: &'static str| move |err: stair_store::Error| format!("{what}: {err}");
    let per = blocks_per_stripe();
    let blocks = (stripes * per) as u64;
    let seed = r.seed;

    // The journal knob is read when a store opens; nothing else in
    // this process opens one while the ladder runs.
    std::env::set_var("STAIR_JOURNAL", "0");
    let bare = StripeStore::create(&dir.join("nojournal"), &store_options(stripes));
    std::env::remove_var("STAIR_JOURNAL");
    let bare = bare.map_err(e("create un-journaled store"))?;
    // Untimed first pass, here and below: the timed writes then land
    // on allocated, cached pages on both stores alike.
    let fill = |store: &StripeStore| {
        (0..stripes).try_for_each(|s| {
            store
                .write_at((s * per * SYMBOL) as u64, &stripe_payload(seed, s, 1))
                .map(drop)
                .map_err(e("fill"))
        })
    };
    fill(&bare)?;
    let rate = full_stripe_writes(r, "store.full_stripe_write_nojournal", &bare, 3);
    r.put("store.full_stripe_write_nojournal_mib_s", rate.per_sec(MIB));
    drop(bare);

    let store_dir = dir.join("store");
    let store =
        StripeStore::create(&store_dir, &store_options(stripes)).map_err(e("create store"))?;
    fill(&store)?;
    let rate = full_stripe_writes(r, "store.full_stripe_write", &store, 4);
    r.put("store.full_stripe_write_mib_s", rate.per_sec(MIB));
    r.ratio(
        "store.journal_keep_frac",
        "store.full_stripe_write_mib_s",
        "store.full_stripe_write_nojournal_mib_s",
    );
    r.ratio(
        "store.write_over_codec_encode",
        "store.full_stripe_write_mib_s",
        "codec.stair_encode_mib_s",
    );

    // Both exceed the hot loop of `codec.stair_encode_mib_s`, which
    // reuses one cache-resident buffer.
    let (by_ladder_us, traced) = encode_by_both_instruments(r, &store, 4);
    let by_spans_us = traced
        .self_us
        .get(names::STORE_ENCODE)
        .copied()
        .unwrap_or(0.0);
    r.put(
        "trace.ladder_agreement",
        if by_spans_us > 0.0 {
            by_ladder_us / by_spans_us
        } else {
            0.0
        },
    );
    r.notes.push(format!(
        "encode inside a full-stripe store write: {by_ladder_us:.0} us by ladder, {by_spans_us:.0} us by spans ({} traced submits of {:.0} us each)",
        traced.submissions, traced.submit_us
    ));

    let mut rng = Rng::stream(seed, 0x57);
    let check_block = |data: &[u8], first: u64| {
        data.chunks(SYMBOL)
            .enumerate()
            .all(|(i, c)| stamped_version(seed, first + i as u64, c).is_some())
    };
    let read16 = |r: &mut Rungs, span: &str, rng: &mut Rng| -> (Rate, bool) {
        let mut ok = true;
        let rate = r.time(span, 1, || {
            let first = rng.below(blocks / 16) * 16;
            let data = store
                .read_at(first * SYMBOL as u64, 16 * SYMBOL)
                .expect("read");
            ok &= check_block(&data, first);
            (16 * SYMBOL) as u64
        });
        (rate, ok)
    };
    let (rate, ok) = read16(r, "store.clean_read", &mut rng);
    r.check(ok, "clean reads verify");
    r.put("store.clean_read_mib_s", rate.per_sec(MIB));

    let mut block = vec![0u8; SYMBOL];
    let mut version = 2u32;
    let rate = r.time("store.delta_write", 1, || {
        let b = rng.below(blocks);
        fill_block(seed, b, version, &mut block);
        version += 1;
        store
            .write_at(b * SYMBOL as u64, &block)
            .expect("delta write");
        1
    });
    r.put("store.delta_write_us", rate.us_per_call());
    let rate = r.time("store.batch16_write", 1, || {
        let mut batch = IoBatch::new();
        let mut picked: Vec<u64> = Vec::with_capacity(16);
        while picked.len() < 16 {
            let b = rng.below(blocks);
            if !picked.contains(&b) {
                picked.push(b);
                fill_block(seed, b, version, &mut block);
                batch.write(b * SYMBOL as u64, block.clone());
            }
        }
        version += 1;
        store.submit(&batch).expect("batch write");
        1
    });
    r.put("store.batch16_write_us", rate.us_per_call());

    inject_worst_case(&store, 0, stripes, seed)?;
    let (rate, ok) = read16(r, "store.degraded_read", &mut rng);
    r.check(ok, "degraded reads verify");
    r.put("store.degraded_read_mib_s", rate.per_sec(MIB));
    r.ratio(
        "store.degraded_over_codec_decode",
        "store.degraded_read_mib_s",
        "codec.stair_decode_mib_s",
    );

    let id = r.spans.begin("store.repair", Some(r.root));
    let begin = Instant::now();
    let report = store.repair(CLIENTS).map_err(e("repair"))?;
    let secs = begin.elapsed().as_secs_f64();
    r.spans.end(id, 1);
    r.check(report.unrecoverable_stripes.is_empty(), "repair completes");
    r.put(
        "store.repair_mib_s",
        (report.sectors_rewritten * SYMBOL) as f64 / MIB / secs,
    );
    drop(store);

    // device: the same store through `open_device(file:)`.
    let open = || {
        open_device(&DeviceSpec::File {
            dir: store_dir.clone(),
        })
        .map_err(|err| format!("open_device(file:): {err}"))
    };
    let read1 = |r: &mut Rungs, span: &str, dev: &dyn BlockDevice, rng: &mut Rng| {
        r.time(span, 1, || {
            let b = rng.below(blocks);
            std::hint::black_box(dev.read_at(b * SYMBOL as u64, SYMBOL).expect("read"));
            1
        })
    };
    let dev = open()?;
    let plain = read1(r, "device.bare_read1", &dev, &mut rng);
    let batched = r.time("device.batch16_read", 1, || {
        let mut batch = IoBatch::new();
        for _ in 0..16 {
            batch.read(rng.below(blocks) * SYMBOL as u64, SYMBOL);
        }
        std::hint::black_box(dev.submit(&batch).expect("batch read"));
        16
    });
    let instrumented = Instrumented::new(dev);
    let metered = read1(r, "device.instrumented_read1", &instrumented, &mut rng);
    r.put(
        "device.instrumented_keep_frac",
        metered.per_sec(1.0) / plain.per_sec(1.0),
    );
    r.put(
        "device.batch16_over_single",
        batched.per_sec(1.0) / plain.per_sec(1.0),
    );
    r.put("store.read1_us", plain.us_per_call());
    Ok(())
}

// ---------------------------------------------------------------------
// net and cache
// ---------------------------------------------------------------------

/// Runs one client on `pattern` over the whole of `dev` for `probes`
/// probe lengths, as one window.
fn stream_window(
    r: &mut Rungs,
    span: &str,
    client: &mut Client,
    dev: &dyn BlockDevice,
    probes: u32,
) -> Window {
    let id = r.spans.begin(span, Some(r.root));
    let plan = Plan {
        warmup: Duration::ZERO,
        window: r.probe * probes,
        windows: 1,
        poll: None,
    };
    let window = run_windows(std::slice::from_mut(client), &[dev], &plan, &mut Unobserved)
        .pop()
        .expect("one window");
    r.spans.end(id, window.attempted);
    r.check(window.failed == 0, span);
    window
}

/// A client owning the whole of `dev`; `fresh` says the device still
/// holds exactly its prefill.
fn whole_device_client(
    workload: Workload,
    seed: u64,
    dev: &dyn BlockDevice,
    fresh: bool,
) -> Client {
    let per = blocks_per_stripe();
    let region = 0..dev.capacity() / (per * SYMBOL) as u64 * per as u64;
    let client = Client::new(pattern_of(workload), seed, 0, region, per, SYMBOL);
    if fresh {
        client
    } else {
        client.adopting()
    }
}

fn net_rungs(r: &mut Rungs, dir: &Path, mib: usize, cache_mb: usize) -> Result<(), String> {
    let seed = r.seed;

    // Rung 1: workload 3's stream straight onto one file: store.
    let file_dir = dir.join("net-file");
    create_file_store(&file_dir, stripes_for(mib))?;
    let file = open_device(&DeviceSpec::File { dir: file_dir }).map_err(|e| e.to_string())?;
    prefill_and_verify(&file, seed)?;
    let mut client = whole_device_client(Workload::SmallRwTcp, seed, &file, true);
    let w = stream_window(r, "net.file_direct", &mut client, &file, 3);
    r.put("net.file_direct_goodput_mib_s", w.goodput_mib_s());
    drop(file);

    // Rung 2: the same stream onto an in-process two-shard set.
    let shards = ShardSet::create(
        &dir.join("net-shards"),
        CLIENTS,
        &store_options(stripes_for(mib / CLIENTS)),
    )
    .map_err(|e| e.to_string())?;
    prefill_and_verify(&shards, seed)?;
    let mut client = whole_device_client(Workload::SmallRwTcp, seed, &shards, true);
    let w = stream_window(r, "net.shards_direct", &mut client, &shards, 3);
    r.put("net.shards_direct_goodput_mib_s", w.goodput_mib_s());
    r.ratio(
        "net.shards_over_file",
        "net.shards_direct_goodput_mib_s",
        "net.file_direct_goodput_mib_s",
    );

    // Rung 3: the same shard set behind the wire; the client carries
    // its shadow table over, so verification continues seamlessly.
    let server = ServerThread::start(shards)?;
    let tcp = |lanes| {
        open_device(&DeviceSpec::Tcp {
            addr: server.addr.clone(),
            lanes,
        })
        .map_err(|e| format!("open_device(tcp:): {e}"))
    };
    let wire = tcp(1)?;
    let w = stream_window(r, "net.tcp", &mut client, &wire, 3);
    r.put("net.tcp_goodput_mib_s", w.goodput_mib_s());
    r.ratio(
        "net.tcp_over_shards",
        "net.tcp_goodput_mib_s",
        "net.shards_direct_goodput_mib_s",
    );
    r.put("net.read_batch_lat_p50_us", w.read_p50_us);
    r.put("net.write_batch_lat_p50_us", w.write_p50_us);

    let rate = r.time("net.status_rtt", 1, || {
        std::hint::black_box(wire.status().expect("status"));
        1
    });
    r.put("net.status_rtt_us", rate.us_per_call());
    let blocks = wire.capacity() / SYMBOL as u64;
    let mut rng = Rng::stream(seed, 0x4E);
    let rate = r.time("net.read1_rtt", 1, || {
        let b = rng.below(blocks);
        std::hint::black_box(wire.read_at(b * SYMBOL as u64, SYMBOL).expect("read"));
        1
    });
    r.put("net.read1_rtt_us", rate.us_per_call());
    r.ratio("net.read1_over_store", "net.read1_rtt_us", "store.read1_us");
    drop(wire);

    // cache: workload 4's stream through cache:tcp:, then on the bare
    // striped client the cache wraps.
    let inner_spec = DeviceSpec::Tcp {
        addr: server.addr.clone(),
        lanes: CLIENTS,
    };
    let cached = open_device(&DeviceSpec::Cache {
        inner: Box::new(inner_spec),
        mb: cache_mb,
        wb: false,
        interval_ms: stair_device::CACHE_DEFAULT_INTERVAL_MS,
    })
    .map_err(|e| format!("open_device(cache:tcp:): {e}"))?;
    let mut client = whole_device_client(Workload::ZipfReadCacheTcp, seed, &cached, false);
    // One probe length to warm the cache, then the measured window.
    stream_window(r, "cache.warm", &mut client, &cached, 1);
    let with_cache = stream_window(r, "cache.cached", &mut client, &cached, 2);
    // Rank 0 scatters to offset 0·stride of the region: block 0.
    let hot = 0u64;
    std::hint::black_box(
        cached
            .read_at(hot * SYMBOL as u64, SYMBOL)
            .map_err(|e| e.to_string())?,
    );
    let rate = r.time("cache.hit_read", 1, || {
        std::hint::black_box(cached.read_at(hot * SYMBOL as u64, SYMBOL).expect("read"));
        1
    });
    r.put("cache.hit_read_us", rate.us_per_call());
    // A cyclic scan longer than the cache never hits under CLOCK.
    let mut at = 0u64;
    let rate = r.time("cache.miss_read", 1, || {
        std::hint::black_box(cached.read_at(at * SYMBOL as u64, SYMBOL).expect("read"));
        at = (at + 1) % blocks;
        1
    });
    r.put("cache.miss_read_us", rate.us_per_call());
    drop(cached);
    let bare = tcp(CLIENTS)?;
    let without = stream_window(r, "cache.inner", &mut client, &bare, 2);
    r.put(
        "cache.over_inner",
        with_cache.goodput_mib_s() / without.goodput_mib_s(),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// The traced workload windows
// ---------------------------------------------------------------------

/// Turns the program's tracing on in odd windows and samples the
/// flight recorder while it is on.
struct Tracer {
    sink: TraceSink,
}

impl Observer for Tracer {
    fn window_start(&mut self, window: usize) {
        // Collect what the window that just ended recorded before
        // switching.
        self.sink.poll();
        trace::set_enabled(window % 2 == 1);
    }

    fn poll(&mut self) {
        if trace::enabled() {
            self.sink.poll();
        }
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

fn data_requests(snap: &MetricsSnapshot) -> u64 {
    ["srv.req.read", "srv.req.write", "srv.req.batch"]
        .iter()
        .map(|n| counter(snap, n))
        .sum()
}

/// The traced run of one workload: every per-layer metric.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut ladder = Ladder::new();
    let root = ladder.begin("layers", None);
    let (env, _) = timed_setups(&Options {
        setups: 1,
        ..opts.clone()
    })?;
    let mut clients = clients_for(&env, opts.workload, opts.seed);
    let devices: Vec<&dyn BlockDevice> = env.devices.iter().map(|d| &**d).collect();
    let probe_dev = devices[0];
    let metrics = |what: &str| {
        probe_dev
            .metrics()
            .map_err(|e| format!("metrics {what}: {e}"))
    };

    // Four windows, tracing off/on/off/on, after a short warm-up.
    let plan = Plan {
        warmup: Duration::from_secs_f64(opts.seconds * 0.05),
        window: Duration::from_secs_f64(opts.seconds * 0.10),
        windows: 4,
        poll: Some(Duration::from_millis(20)),
    };
    let dropped_before = trace::recorder().dropped_spans();
    let before = metrics("before")?;
    let io_before = procfs::write_io();
    let span = ladder.begin(&format!("workload.{}", opts.workload.name()), Some(root));
    let mut tracer = Tracer {
        sink: TraceSink::starting_now(),
    };
    let windows = run_windows(&mut clients, &devices, &plan, &mut tracer);
    trace::set_enabled(false);
    tracer.sink.poll();
    let steps: u64 = clients.iter().map(|c| c.steps).sum();
    let bytes: u64 = clients.iter().map(|c| c.bytes).sum();
    ladder.end(span, steps);
    let io_after = procfs::write_io();
    let after = metrics("after")?;
    let status = probe_dev.status().map_err(|e| format!("status: {e}"))?;
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();

    let mut r = Rungs {
        values: BTreeMap::new(),
        spans: &mut ladder,
        root,
        probe: Duration::from_secs_f64(opts.seconds / 100.0),
        seed: opts.seed,
        correct: failed == 0,
        notes: Vec::new(),
    };

    // (C) counter deltas over the whole traced run, per submission.
    let per_op =
        |name: &str| (counter(&after, name) - counter(&before, name)) as f64 / steps as f64;
    r.put("store.stripe_locks_per_op", per_op("store.stripe_locks"));
    r.put("store.encode_passes_per_op", per_op("store.encode_passes"));
    r.put(
        "store.delta_updates_per_op",
        per_op("store.delta_update_calls"),
    );
    r.put(
        "store.recover_passes_per_op",
        per_op("store.recover_passes"),
    );
    r.put("store.jrnl_appends_per_op", per_op("store.jrnl.appends"));
    r.put(
        "store.jrnl_checkpoints_per_kop",
        per_op("store.jrnl.checkpoints") * 1e3,
    );
    r.put(
        "store.wchar_per_user_byte",
        (io_after.0 - io_before.0) as f64 / bytes.max(1) as f64,
    );
    r.put(
        "store.syscw_per_op",
        (io_after.1 - io_before.1) as f64 / steps as f64,
    );
    r.put(
        "store.disk_bytes_per_user_byte",
        procfs::dir_bytes(&env.store_dir) as f64 / env.capacity() as f64,
    );
    let lookups = per_op("cache.hit") + per_op("cache.miss");
    r.put(
        "cache.hit_rate",
        if lookups == 0.0 {
            0.0
        } else {
            per_op("cache.hit") / lookups
        },
    );
    r.check(
        status.cache.is_some() == (opts.workload == Workload::ZipfReadCacheTcp),
        "only the cache workload reports a cache tier",
    );
    r.put("cache.evictions_per_kop", per_op("cache.evict") * 1e3);
    r.put(
        "cache.invalidations_per_kop",
        per_op("cache.invalidate") * 1e3,
    );
    r.put(
        "net.srv_requests_per_op",
        (data_requests(&after) - data_requests(&before)) as f64 / steps as f64,
    );
    // The server sees a retry as a connection it did not have at the
    // start, or as a batch id it has seen before.
    r.put(
        "net.client_retries",
        ["srv.connections_total", "srv.batch.redelivered"]
            .iter()
            .map(|n| (counter(&after, n) - counter(&before, n)) as f64)
            .sum(),
    );
    r.put(
        "obs.dropped_spans",
        (trace::recorder().dropped_spans() - dropped_before) as f64,
    );
    let mean = |traced: bool| {
        let picked: Vec<f64> = windows
            .iter()
            .enumerate()
            .filter(|(k, _)| (k % 2 == 1) == traced)
            .map(|(_, w)| w.goodput_mib_s())
            .collect();
        picked.iter().sum::<f64>() / picked.len() as f64
    };
    r.put("obs.trace_keep_frac", mean(true) / mean(false));

    // (T) the program's spans over the traced windows.
    let summary = tracer.sink.summarize();
    r.put("trace.bench_submit_us", summary.submit_us);
    r.put("trace.unattributed_frac", summary.unattributed_frac);
    for (metric, span) in [
        ("trace.client_encode_self_us", names::CLIENT_ENCODE),
        ("trace.client_decode_self_us", names::CLIENT_DECODE),
        ("trace.srv_queue_self_us", names::SRV_QUEUE),
        ("trace.srv_exec_self_us", names::SRV_EXEC),
        ("trace.shards_submit_self_us", names::SHARDS_SUBMIT),
        ("trace.store_lock_self_us", names::STORE_LOCK),
        ("trace.store_encode_self_us", names::STORE_ENCODE),
        ("trace.store_delta_self_us", names::STORE_DELTA),
        ("trace.store_persist_self_us", names::STORE_PERSIST),
        ("trace.jrnl_append_self_us", names::JRNL_APPEND),
        ("trace.cache_fill_self_us", names::CACHE_FILL),
    ] {
        r.put(metric, summary.self_us.get(span).copied().unwrap_or(0.0));
    }
    r.notes.push(format!(
        "trace sample: {} submissions of {attempted} in the windows",
        summary.submissions
    ));

    // (L) the ladder.
    let dir = scratch_dir(&opts.out_dir, "ladder", 0);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let probe_mib = (opts.sizes.logical_mib / 4).max(CLIENTS);
    let result = (|| {
        gf_rungs(&mut r);
        codec_rungs(&mut r);
        store_rungs(&mut r, &dir, stripes_for(probe_mib / 2))?;
        net_rungs(&mut r, &dir, probe_mib, (opts.sizes.cache_mb / 4).max(1))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result?;

    let Rungs {
        values,
        correct,
        notes,
        ..
    } = r;
    ladder.end(root, steps);
    for note in &notes {
        println!("# {note}");
    }
    let trace_file = opts
        .out_dir
        .join(format!("trace-{}.json", opts.workload.name()));
    let doc = Value::obj()
        .with("workload", opts.workload.name())
        .with("seed", opts.seed)
        .with("ladder_spans", ladder.to_json())
        .with("program_spans", tracer.sink.to_json(20_000));
    std::fs::write(&trace_file, doc.render() + "\n")
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = values
                .get(m.name)
                .copied()
                .ok_or_else(|| format!("layers run produced no value for {}", m.name))?;
            Ok(Measured {
                name: m.name,
                unit: m.unit,
                values: vec![value],
                note: format!("({})", m.source.letter()),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        workload: opts.workload,
        metrics,
        attempted,
        failed,
        correct,
        host_speed: Vec::new(),
    })
}
