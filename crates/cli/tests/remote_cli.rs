//! End-to-end test of `stair serve` and `stair dev … --dev tcp:`: a
//! real server child process on a loopback port driven by real client
//! invocations, plus the clean-failure paths (busy port, bad root,
//! unreachable server) that must exit with an error message, never a
//! panic.

mod common;

use common::{init, run, shutdown, spawn_server};

#[test]
fn serve_remote_session_round_trips_degraded_data() {
    let work = std::env::temp_dir().join(format!("stair-remote-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let root = work.join("net-root");
    let (mut server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let dev = format!("tcp:{addr}");

    // capacity = 2 shards × 8 stripes × 20 blocks × 128 bytes.
    let capacity = 2 * 8 * 20 * 128usize;
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 13 % 251) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();

    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        &dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains(&format!("wrote {capacity} bytes")), "{out}");

    // Clean read round-trips.
    let output = work.join("out.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        output.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&output).unwrap(), payload);

    // Fail a device on shard 1 and corrupt a burst on shard 0; the
    // degraded read must still return the exact payload.
    let (ok, out) = run(&[
        "dev", "fail", "--dev", &dev, "--shard", "1", "--device", "3",
    ]);
    assert!(ok, "{out}");
    let (ok, out) = run(&[
        "dev", "fail", "--dev", &dev, "--shard", "0", "--device", "5", "--stripe", "2", "--sector",
        "1", "--len", "2",
    ]);
    assert!(ok, "{out}");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        output.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&output).unwrap(), payload, "degraded read");

    // Status (human + JSON) reflects the failure.
    let (ok, out) = run(&["dev", "status", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("shard 1: failed [3]"), "{out}");
    let (ok, json) = run(&["dev", "status", "--dev", &dev, "--json"]);
    assert!(ok, "{json}");
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"failed_devices\":[3]"), "{json}");
    assert!(json.contains("\"healthy\":false"), "{json}");

    // Scrub flags the burst, repair heals everything, scrub then clean.
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("run `stair dev repair`"), "{out}");
    let (ok, out) = run(&["dev", "repair", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("repair complete"), "{out}");
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("device clean"), "{out}");

    let (ok, json) = run(&["dev", "status", "--dev", &dev, "--json"]);
    assert!(ok, "{json}");
    assert!(json.contains("\"healthy\":true"), "{json}");

    // Flush, then clean shutdown: the child must exit successfully.
    let (ok, out) = run(&["dev", "flush", "--dev", &dev]);
    assert!(ok, "{out}");
    let (ok, out) = run(&["dev", "shutdown", "--dev", &dev]);
    assert!(ok, "{out}");
    let status = server.0.wait().expect("server wait");
    assert!(status.success(), "server exit: {status:?}");

    // The shards persisted: a second server over the same root serves
    // the same bytes.
    let (server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let dev = format!("tcp:{addr}");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        output.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&output).unwrap(), payload, "after restart");
    shutdown(server, &addr);

    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn file_and_tcp_status_json_share_one_shape() {
    let work = std::env::temp_dir().join(format!("stair-json-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // A local store…
    let file = format!("file:{}", work.join("store").display());
    init(&file, "stair:8,4,2,1-1-2", "128", "8");
    let (ok, local) = run(&["dev", "status", "--dev", &file, "--json"]);
    assert!(ok, "{local}");

    // …and a served shard set of the same shape.
    let root = work.join("net-root");
    let (server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let (ok, remote) = run(&["dev", "status", "--dev", &format!("tcp:{addr}"), "--json"]);
    assert!(ok, "{remote}");
    shutdown(server, &addr);

    // Both went through the same serializer: every key of the unified
    // shape appears verbatim in both documents (a local store is simply
    // a device with one shard), and each per-shard key in both.
    for key in [
        "\"backend\":",
        "\"shards\":",
        "\"total_capacity_bytes\":",
        "\"shard_status\":",
        "\"codec\":\"stair:8,4,2,1-1-2\"",
        "\"block_size\":128",
        "\"stripes\":8",
        "\"blocks_per_stripe\":20",
        "\"device_tolerance\":2",
        "\"sector_tolerance\":4",
        "\"failed_devices\":[]",
        "\"rebuilding_devices\":[]",
        "\"known_bad_sectors\":0",
        "\"clean_shutdown\":true",
        "\"replayed_records\":0",
        "\"healthy\":true",
    ] {
        assert!(local.contains(key), "local missing {key}: {local}");
        assert!(remote.contains(key), "remote missing {key}: {remote}");
    }
    assert!(local.contains("\"backend\":\"file\""), "{local}");
    assert!(local.contains("\"shards\":1"), "{local}");
    assert!(remote.contains("\"backend\":\"tcp\""), "{remote}");
    assert!(remote.contains("\"shards\":2"), "{remote}");

    // Identical shapes: the key sequence of the two documents matches.
    common::assert_same_status_shape(&local, &remote);

    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn serve_refuses_busy_port_with_clean_error() {
    let work = std::env::temp_dir().join(format!("stair-busy-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    // Occupy a port, then ask serve to bind it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let busy = listener.local_addr().unwrap().to_string();
    let (ok, out) = run(&[
        "serve",
        "--dir",
        work.join("root").to_str().unwrap(),
        "--addr",
        &busy,
        "--shards",
        "1",
        "--symbol",
        "128",
        "--stripes",
        "4",
    ]);
    assert!(!ok, "binding a busy port must fail");
    assert!(
        out.contains("error:") && out.contains("cannot bind"),
        "{out}"
    );
    assert!(!out.contains("panicked"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn serve_refuses_bad_roots_with_clean_errors() {
    let work = std::env::temp_dir().join(format!("stair-badroot-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // Root is a file, not a directory.
    let file_root = work.join("not-a-dir");
    std::fs::write(&file_root, b"occupied").unwrap();
    let (ok, out) = run(&[
        "serve",
        "--dir",
        file_root.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);
    assert!(!ok);
    assert!(
        out.contains("error:") && out.contains("not a directory"),
        "{out}"
    );
    assert!(!out.contains("panicked"), "{out}");

    // Root holds shards but the count disagrees.
    let root = work.join("root");
    let (server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    shutdown(server, &addr);
    let (ok, out) = run(&[
        "serve",
        "--dir",
        root.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "3",
    ]);
    assert!(!ok);
    assert!(
        out.contains("error:") && out.contains("--shards asked for 3"),
        "{out}"
    );
    assert!(!out.contains("panicked"), "{out}");

    // A shard directory with corrupt metadata.
    std::fs::write(root.join("shard-0000").join("store.meta"), b"garbage").unwrap();
    let (ok, out) = run(&[
        "serve",
        "--dir",
        root.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--shards",
        "2",
    ]);
    assert!(!ok);
    assert!(out.contains("error:"), "{out}");
    assert!(!out.contains("panicked"), "{out}");

    // Missing required flags.
    let (ok, out) = run(&["serve", "--addr", "127.0.0.1:0"]);
    assert!(!ok);
    assert!(out.contains("--dir is required"), "{out}");
    let (ok, out) = run(&["serve", "--dir", work.join("x").to_str().unwrap()]);
    assert!(!ok);
    assert!(out.contains("--addr is required"), "{out}");

    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn tcp_against_no_server_is_a_clean_error() {
    // Port 9 (discard) on localhost is almost certainly closed; if an
    // OS quirk makes connect hang, the test harness timeout covers us.
    for verb in ["status", "shutdown"] {
        let (ok, out) = run(&["dev", verb, "--dev", "tcp:127.0.0.1:9"]);
        assert!(!ok);
        assert!(
            out.contains("error:") && out.contains("cannot connect"),
            "{verb}: {out}"
        );
        assert!(!out.contains("panicked"), "{verb}: {out}");
    }

    let (ok, out) = run(&["dev", "bogus", "--dev", "tcp:127.0.0.1:9"]);
    assert!(!ok);
    assert!(out.contains("unknown stair dev command `bogus`"), "{out}");
    assert!(!out.contains("panicked"), "{out}");
}
