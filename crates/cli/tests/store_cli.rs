//! End-to-end test of the `stair store` CLI surface: init → write →
//! fail a device + inject a sector burst → degraded read returns the
//! original data → repair → scrub reports clean.

mod common;

use common::run;

#[test]
fn store_cli_session() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();

    // init with the paper's running-example geometry, small sectors.
    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "stair:8,4,2,1-1-2",
        "--symbol",
        "128",
        "--stripes",
        "12",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("initialized stair:8,4,2,1-1-2 store"), "{out}");

    // write a payload filling the store.
    let capacity = 12 * 20 * 128; // stripes × blocks/stripe × block size
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 7 % 253) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();
    let (ok, out) = run(&[
        "store",
        "write",
        "--dir",
        dir_s,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("full re-encodes"), "{out}");

    // kill two devices (m = 2) and corrupt a 2-sector burst in a third.
    assert!(run(&["store", "fail", "--dir", dir_s, "--device", "2"]).0);
    assert!(run(&["store", "fail", "--dir", dir_s, "--device", "5"]).0);
    assert!(
        run(&[
            "store", "fail", "--dir", dir_s, "--device", "7", "--stripe", "3", "--sector", "1",
            "--len", "2",
        ])
        .0
    );

    // degraded read returns the original bytes.
    let extracted = work.join("degraded.bin");
    let (ok, out) = run(&[
        "store",
        "read",
        "--dir",
        dir_s,
        "--output",
        extracted.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("degraded"), "{out}");
    assert_eq!(std::fs::read(&extracted).unwrap(), payload);

    // scrub detects the burst; repair reconstructs everything.
    let (ok, out) = run(&["store", "scrub", "--dir", dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("2 mismatches"), "{out}");
    let (ok, out) = run(&["store", "repair", "--dir", dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("repair complete"), "{out}");

    // post-repair: scrub clean, reads clean and identical.
    let (ok, out) = run(&["store", "scrub", "--dir", dir_s]);
    assert!(ok && out.contains("device clean"), "{out}");
    let final_out = work.join("final.bin");
    let (ok, out) = run(&[
        "store",
        "read",
        "--dir",
        dir_s,
        "--output",
        final_out.to_str().unwrap(),
    ]);
    assert!(ok && out.contains("(clean)"), "{out}");
    assert_eq!(std::fs::read(&final_out).unwrap(), payload);

    // small overwrite goes down the delta path.
    let patch = work.join("patch.bin");
    std::fs::write(&patch, vec![0xEEu8; 100]).unwrap();
    let (ok, out) = run(&[
        "store",
        "write",
        "--dir",
        dir_s,
        "--input",
        patch.to_str().unwrap(),
        "--offset",
        "300",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("delta updates"), "{out}");

    // status reflects a healthy store.
    let (ok, out) = run(&["store", "status", "--dir", dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("failed devices    : []"), "{out}");

    std::fs::remove_dir_all(&work).unwrap();
}

/// `--code sd:...` creates an SD-backed store that survives the same
/// sequence as the STAIR-backed one: fail a device + corrupt sectors →
/// degraded read → repair → clean scrub.
#[test]
fn store_cli_sd_backed_session() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-sd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();

    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "sd:6,4,1,2",
        "--symbol",
        "128",
        "--stripes",
        "8",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("initialized sd:6,4,1,2 store"), "{out}");

    // Fill the store: 6 devices, m=1, s=2 → 4·5−2 = 18 blocks per stripe.
    let capacity = 8 * 18 * 128;
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 11 % 251) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();
    let (ok, out) = run(&[
        "store",
        "write",
        "--dir",
        dir_s,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");

    // m = 1 device down plus a 2-sector burst (s = 2) elsewhere.
    assert!(run(&["store", "fail", "--dir", dir_s, "--device", "5"]).0);
    assert!(
        run(&[
            "store", "fail", "--dir", dir_s, "--device", "1", "--stripe", "2", "--sector", "1",
            "--len", "2",
        ])
        .0
    );

    let extracted = work.join("degraded.bin");
    let (ok, out) = run(&[
        "store",
        "read",
        "--dir",
        dir_s,
        "--output",
        extracted.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&extracted).unwrap(), payload);

    let (ok, out) = run(&["store", "repair", "--dir", dir_s]);
    assert!(ok && out.contains("repair complete"), "{out}");
    let (ok, out) = run(&["store", "scrub", "--dir", dir_s]);
    assert!(ok && out.contains("device clean"), "{out}");

    let (ok, out) = run(&["store", "status", "--dir", dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("codec sd:6,4,1,2"), "{out}");
    assert!(out.contains("1 device(s) + 2 sector(s)"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn store_cli_inject_detect_repair() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-inj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dir = work.join("store");
    let dir_s = dir.to_str().unwrap();

    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "stair:8,8,2,2-2",
        "--symbol",
        "64",
        "--stripes",
        "8",
    ]);
    assert!(ok, "{out}");

    // Replay the independent sector-failure model against the store.
    let (ok, out) = run(&[
        "store", "inject", "--dir", dir_s, "--p-sec", "0.05", "--seed", "7",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("sampled 64 chunks"), "{out}");

    let (ok, _) = run(&["store", "scrub", "--dir", dir_s]);
    assert!(ok);
    let (ok, out) = run(&["store", "repair", "--dir", dir_s]);
    assert!(ok, "{out}");
    let (ok, out) = run(&["store", "scrub", "--dir", dir_s]);
    assert!(ok && out.contains("device clean"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

/// A failure model the sampler cannot take is a clean `error:` exit 1
/// naming the flag — never a panic (exit 101).
#[test]
fn store_cli_inject_rejects_bad_model_parameters() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-badinj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let dir_s = work.to_str().unwrap();
    let (ok, out) = run(&[
        "store",
        "init",
        "--dir",
        dir_s,
        "--code",
        "stair:8,4,2,1-1-2",
        "--stripes",
        "2",
    ]);
    assert!(ok, "{out}");
    for (flags, named) in [
        (["--p-sec", "2", "--seed", "1"], "--p-sec"),
        (["--p-sec", "NaN", "--seed", "1"], "--p-sec"),
        (["--p-sec", "0.01", "--burst", "0,1"], "--burst"),
    ] {
        let out = std::process::Command::new(common::bin())
            .args(["store", "inject", "--dir", dir_s])
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
    }
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn store_init_requires_a_codec_spec() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-nocode-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let dir_s = work.to_str().unwrap();
    // No --code (separate --n/--r/--m/--e values are no substitute):
    // a clean error naming the flag, nothing created.
    for args in [
        vec!["store", "init", "--dir", dir_s],
        vec![
            "store", "init", "--dir", dir_s, "--n", "8", "--r", "4", "--m", "2", "--e", "1,1,2",
        ],
    ] {
        let (ok, out) = run(&args);
        assert!(!ok, "{out}");
        assert!(out.contains("--code is required"), "{out}");
        assert!(!work.exists(), "a refused init must create nothing");
    }
}
