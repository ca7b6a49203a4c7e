//! The one JSON serializer for `stair dev … --json` device health,
//! maintenance and trace reports: every backend goes through it, so
//! `--dev file:…` and `--dev tcp:…` produce byte-identical shapes.

use stair_device::{CacheTierStatus, DeviceStatus, RepairOutcome, ScrubOutcome, ShardHealth};
use stair_net::json::Json;
use stair_net::{WireSpan, WireTrace};

/// One shard's health as a JSON object.
fn shard_json(shard: &ShardHealth) -> Json {
    let devs = |v: &[usize]| Json::arr(v.iter().map(|&d| Json::int(d)));
    Json::obj([
        ("codec", Json::str(shard.codec.clone())),
        ("capacity_bytes", Json::int64(shard.capacity)),
        ("block_size", Json::int(shard.block_size)),
        ("stripes", Json::int(shard.stripes)),
        ("blocks_per_stripe", Json::int(shard.blocks_per_stripe)),
        ("device_tolerance", Json::int(shard.device_tolerance)),
        ("sector_tolerance", Json::int(shard.sector_tolerance)),
        ("failed_devices", devs(&shard.failed_devices)),
        ("rebuilding_devices", devs(&shard.rebuilding_devices)),
        ("known_bad_sectors", Json::int(shard.known_bad_sectors)),
        ("clean_shutdown", Json::Bool(shard.clean_shutdown)),
        ("replayed_records", Json::int64(shard.replayed_records)),
        ("healthy", Json::Bool(shard.healthy())),
    ])
}

/// A cache tier's state as a JSON object (present only for `cache:`
/// devices, so uncached status shapes are unchanged).
fn cache_json(tier: &CacheTierStatus) -> Json {
    Json::obj([
        ("budget_bytes", Json::int64(tier.budget_bytes)),
        ("frames", Json::int(tier.frames)),
        ("resident_blocks", Json::int(tier.resident_blocks)),
        ("generation", Json::int64(tier.generation)),
        ("write_back", Json::Bool(tier.write_back)),
        ("wb_buffered_blocks", Json::int(tier.wb_buffered_blocks)),
        ("hits", Json::int64(tier.hits)),
        ("misses", Json::int64(tier.misses)),
    ])
}

/// A device's unified status as a JSON object — the same shape for
/// every backend (a local store is simply a device with one shard).
pub fn device_status_json(status: &DeviceStatus) -> Json {
    let mut fields = vec![
        ("backend", Json::str(status.backend.clone())),
        ("shards", Json::int(status.shards.len())),
        ("total_capacity_bytes", Json::int64(status.capacity)),
        ("block_size", Json::int(status.block_size)),
        ("healthy", Json::Bool(status.healthy())),
        (
            "shard_status",
            Json::arr(status.shards.iter().map(shard_json)),
        ),
    ];
    if let Some(tier) = &status.cache {
        fields.push(("cache", cache_json(tier)));
    }
    Json::obj(fields)
}

/// A scrub outcome as a JSON object.
pub fn scrub_json(outcome: &ScrubOutcome) -> Json {
    Json::obj([
        ("op", Json::str("scrub")),
        ("stripes_scanned", Json::int64(outcome.stripes_scanned)),
        ("sectors_verified", Json::int64(outcome.sectors_verified)),
        ("mismatches", Json::int64(outcome.mismatches)),
        (
            "unavailable_devices",
            Json::int64(outcome.unavailable_devices),
        ),
        ("records_cleared", Json::int64(outcome.records_cleared)),
        ("clean", Json::Bool(outcome.clean())),
    ])
}

/// A span/trace id as JSON. Ids are random u64s, so they print as hex
/// strings — JSON numbers lose precision past 2^53. Id 0 (a span's
/// `parent_id` when it is its process's root) stays the string "0".
fn id_json(id: u64) -> Json {
    if id == 0 {
        Json::str("0")
    } else {
        Json::str(format!("{id:016x}"))
    }
}

fn span_json(span: &WireSpan) -> Json {
    Json::obj([
        ("span_id", id_json(span.span_id)),
        ("parent_id", id_json(span.parent_id)),
        ("name", Json::str(span.name.clone())),
        ("start_us", Json::int64(span.start_us)),
        ("duration_us", Json::int64(span.duration_us)),
        ("ok", Json::Bool(span.ok)),
        ("bytes", Json::int64(span.bytes)),
    ])
}

fn one_trace_json(trace: &WireTrace, origin: &str) -> Json {
    Json::obj([
        ("trace_id", id_json(trace.trace_id)),
        ("root_span", id_json(trace.root_span)),
        ("origin", Json::str(origin)),
        ("duration_us", Json::int64(trace.duration_us)),
        ("ok", Json::Bool(trace.ok)),
        ("slow", Json::Bool(trace.slow)),
        ("spans", Json::arr(trace.spans.iter().map(span_json))),
    ])
}

/// Flight-recorder pulls as one JSON object, for `stair dev trace` on
/// every backend. `local` traces
/// come from this process's recorder, `server` traces from a TRACE
/// pull; each trace is tagged with its origin, and span timestamps are
/// relative to the *originating* process's recorder epoch (the two
/// clocks are not comparable — join traces by `trace_id` and parent
/// span ids, not by `start_us`).
pub fn traces_json(local: &[WireTrace], server: &[WireTrace]) -> Json {
    Json::obj([
        ("op", Json::str("trace")),
        ("local_traces", Json::int(local.len())),
        ("server_traces", Json::int(server.len())),
        (
            "traces",
            Json::arr(
                local
                    .iter()
                    .map(|t| one_trace_json(t, "local"))
                    .chain(server.iter().map(|t| one_trace_json(t, "server"))),
            ),
        ),
    ])
}

/// A repair outcome as a JSON object.
pub fn repair_json(outcome: &RepairOutcome) -> Json {
    Json::obj([
        ("op", Json::str("repair")),
        ("devices_replaced", Json::int64(outcome.devices_replaced)),
        ("stripes_repaired", Json::int64(outcome.stripes_repaired)),
        ("sectors_rewritten", Json::int64(outcome.sectors_rewritten)),
        (
            "unrecoverable_stripes",
            Json::int64(outcome.unrecoverable_stripes),
        ),
        ("complete", Json::Bool(outcome.complete())),
    ])
}
