//! The names this benchmark emits — workloads, end-to-end metrics and
//! per-layer metrics — declared once. `BENCHMARK.json` mirrors these
//! tables; `tests/selfcheck.rs` fails if the two drift apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median it may worsen by before a change is a regression.
///
/// The bounds are wider than the 7 %/15 % the defining issue hoped for:
/// on this sandbox the spread of ten runs (inter-quartile range over
/// median, at reference speed) reaches 14 % for goodput and the CPU
/// cost, 17 % for the median and 16 % for the tail latency on the
/// noisiest workload, and a bound inside the instrument's own spread
/// gates on noise. `README.md` has the measurements; each bound is at
/// most twice the worst spread measured, up to the 25 % a bound may be.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "goodput_mib_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_gib",
        unit: "s/GiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    // 1 − failed ÷ attempted over the whole run. Reported as the
    // verified share rather than the failed share because a gated
    // metric must never read 0 (a spread "as a share of the median" is
    // undefined there). The bound, one failed op in ten thousand, is
    // what the driver gates on; `compare` calls any failure beyond the
    // base's a regression (`report::compare`).
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0001,
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Ladder probe: the benchmark's own span around direct calls into
    /// one layer's public functions.
    Ladder,
    /// Delta of an already-public counter over the traced windows.
    Counter,
    /// The program's own spans, aggregated to self-time by name.
    Trace,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::Ladder => "L",
            Source::Counter => "C",
            Source::Trace => "T",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Ladder, Trace};

pub const PER_LAYER: &[PerLayer] = &[
    // gf
    layer("gf.gf8_mult_xor_stream_gib_s", "GiB/s", Higher, Ladder),
    layer("gf.gf8_mult_xor_l1_gib_s", "GiB/s", Higher, Ladder),
    layer("gf.gf16_mult_xor_l1_gib_s", "GiB/s", Higher, Ladder),
    layer("gf.xor_region_stream_gib_s", "GiB/s", Higher, Ladder),
    layer("gf.copy_stream_gib_s", "GiB/s", Higher, Ladder),
    layer("gf.mult_xor_over_copy", "ratio", Higher, Ladder),
    layer("gf.mult_xors_per_stripe_encode", "count", Lower, Counter),
    layer("gf.mult_xors_per_stripe_decode", "count", Lower, Counter),
    // codec
    layer("codec.stair_encode_mib_s", "MiB/s", Higher, Ladder),
    layer("codec.sd_encode_mib_s", "MiB/s", Higher, Ladder),
    layer("codec.rs_encode_mib_s", "MiB/s", Higher, Ladder),
    layer("codec.stair_over_sd_encode", "ratio", Higher, Ladder),
    layer("codec.stair_decode_mib_s", "MiB/s", Higher, Ladder),
    layer("codec.sd_decode_mib_s", "MiB/s", Higher, Ladder),
    layer("codec.stair_plan_us", "us", Lower, Ladder),
    layer("codec.stair_update_us", "us", Lower, Ladder),
    layer("codec.sd_update_us", "us", Lower, Ladder),
    layer("codec.stair_update_parity_cells", "count", Lower, Counter),
    layer("codec.encode_kernel_keep_frac", "ratio", Higher, Ladder),
    // store
    layer("store.full_stripe_write_mib_s", "MiB/s", Higher, Ladder),
    layer(
        "store.full_stripe_write_nojournal_mib_s",
        "MiB/s",
        Higher,
        Ladder,
    ),
    layer("store.journal_keep_frac", "ratio", Higher, Ladder),
    layer("store.write_over_codec_encode", "ratio", Higher, Ladder),
    layer("store.clean_read_mib_s", "MiB/s", Higher, Ladder),
    layer("store.degraded_read_mib_s", "MiB/s", Higher, Ladder),
    layer("store.degraded_over_codec_decode", "ratio", Higher, Ladder),
    layer("store.delta_write_us", "us", Lower, Ladder),
    layer("store.batch16_write_us", "us", Lower, Ladder),
    layer("store.repair_mib_s", "MiB/s", Higher, Ladder),
    layer("store.stripe_locks_per_op", "count", Lower, Counter),
    layer("store.encode_passes_per_op", "count", Lower, Counter),
    layer("store.delta_updates_per_op", "count", Lower, Counter),
    layer("store.recover_passes_per_op", "count", Lower, Counter),
    layer("store.jrnl_appends_per_op", "count", Lower, Counter),
    layer("store.jrnl_checkpoints_per_kop", "count", Lower, Counter),
    layer("store.wchar_per_user_byte", "ratio", Lower, Counter),
    layer("store.syscw_per_op", "count", Lower, Counter),
    layer("store.disk_bytes_per_user_byte", "ratio", Lower, Counter),
    // cache
    layer("cache.hit_rate", "ratio", Higher, Counter),
    layer("cache.hit_read_us", "us", Lower, Ladder),
    layer("cache.miss_read_us", "us", Lower, Ladder),
    layer("cache.evictions_per_kop", "count", Lower, Counter),
    layer("cache.invalidations_per_kop", "count", Lower, Counter),
    layer("cache.over_inner", "ratio", Higher, Ladder),
    // device
    layer("device.instrumented_keep_frac", "ratio", Higher, Ladder),
    layer("device.batch16_over_single", "ratio", Higher, Ladder),
    // net
    layer("net.file_direct_goodput_mib_s", "MiB/s", Higher, Ladder),
    layer("net.shards_direct_goodput_mib_s", "MiB/s", Higher, Ladder),
    layer("net.shards_over_file", "ratio", Higher, Ladder),
    layer("net.tcp_over_shards", "ratio", Higher, Ladder),
    layer("net.status_rtt_us", "us", Lower, Ladder),
    layer("net.read1_rtt_us", "us", Lower, Ladder),
    layer("net.read1_over_store", "ratio", Lower, Ladder),
    layer("net.read_batch_lat_p50_us", "us", Lower, Ladder),
    layer("net.write_batch_lat_p50_us", "us", Lower, Ladder),
    layer("net.srv_requests_per_op", "count", Lower, Counter),
    layer("net.client_retries", "count", Lower, Counter),
    // obs
    layer("obs.trace_keep_frac", "ratio", Higher, Ladder),
    layer("obs.dropped_spans", "count", Lower, Counter),
    // trace
    layer("trace.bench_submit_us", "us", Lower, Trace),
    layer("trace.client_encode_self_us", "us", Lower, Trace),
    layer("trace.client_decode_self_us", "us", Lower, Trace),
    layer("trace.srv_queue_self_us", "us", Lower, Trace),
    layer("trace.srv_exec_self_us", "us", Lower, Trace),
    layer("trace.shards_submit_self_us", "us", Lower, Trace),
    layer("trace.store_lock_self_us", "us", Lower, Trace),
    layer("trace.store_encode_self_us", "us", Lower, Trace),
    layer("trace.store_delta_self_us", "us", Lower, Trace),
    layer("trace.store_persist_self_us", "us", Lower, Trace),
    layer("trace.jrnl_append_self_us", "us", Lower, Trace),
    layer("trace.cache_fill_self_us", "us", Lower, Trace),
    layer("trace.unattributed_frac", "ratio", Lower, Trace),
    layer("trace.ladder_agreement", "ratio", Higher, Trace),
];

/// The four workloads, by the name `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SeqWriteFile,
    DegradedReadFile,
    SmallRwTcp,
    ZipfReadCacheTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SeqWriteFile,
        Workload::DegradedReadFile,
        Workload::SmallRwTcp,
        Workload::ZipfReadCacheTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeqWriteFile => "seq_write_file",
            Workload::DegradedReadFile => "degraded_read_file",
            Workload::SmallRwTcp => "small_rw_tcp",
            Workload::ZipfReadCacheTcp => "zipf_read_cache_tcp",
        }
    }

    /// Why the workload exists: which layers do its work and which it
    /// bypasses (one line; `BENCHMARK.json` carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SeqWriteFile => {
                "whole-stripe writes on file: - gf, codec encode, store persist and the journal do all the work; net and cache do none"
            }
            Workload::DegradedReadFile => {
                "64 KiB reads of a file: store with 2 failed devices and (1,2) sector bursts - codec plan/apply decode and integrity checks; no journal, no writes, no wire"
            }
            Workload::SmallRwTcp => {
                "16-op single-block batches (70% all-write, else all-read) over tcp: to 2 shards - net framing, queue, shard split, parity-delta updates, group commit; few bytes through gf"
            }
            Workload::ZipfReadCacheTcp => {
                "zipf(0.99) single-block reads through cache:tcp: with an 8 MiB cache, 1 op in 512 a write - cache hit path and CLOCK; codec bypassed on hits; the no-change control for kernel work"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
