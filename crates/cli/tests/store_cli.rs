//! End-to-end test of `stair dev` on local `file:` and `shards:`
//! stores: init → write → fail a device + inject a sector burst →
//! degraded read returns the original data → repair → scrub reports
//! clean; the failure-model replay (`inject`); and the refusals of the
//! verbs that act on one kind of backend only.

mod common;

use common::{exit_code, init, run};

#[test]
fn store_cli_session() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dev = format!("file:{}", work.join("store").display());

    // init with the paper's running-example geometry, small sectors.
    let out = init(&dev, "stair:8,4,2,1-1-2", "128", "12");
    assert!(out.contains("initialized stair:8,4,2,1-1-2 store"), "{out}");

    // write a payload filling the store.
    let capacity = 12 * 20 * 128; // stripes × blocks/stripe × block size
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 7 % 253) as u8).collect();
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
    assert!(out.contains("full re-encodes"), "{out}");

    // kill two devices (m = 2) and corrupt a 2-sector burst in a third.
    assert!(run(&["dev", "fail", "--dev", &dev, "--device", "2"]).0);
    assert!(run(&["dev", "fail", "--dev", &dev, "--device", "5"]).0);
    assert!(
        run(&[
            "dev", "fail", "--dev", &dev, "--device", "7", "--stripe", "3", "--sector", "1",
            "--len", "2",
        ])
        .0
    );

    // degraded read returns the original bytes.
    let extracted = work.join("degraded.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        extracted.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("degraded"), "{out}");
    assert_eq!(std::fs::read(&extracted).unwrap(), payload);

    // scrub detects the burst; repair reconstructs everything.
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("2 mismatches"), "{out}");
    let (ok, out) = run(&["dev", "repair", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("repair complete"), "{out}");

    // post-repair: scrub clean, reads clean and identical.
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok && out.contains("device clean"), "{out}");
    let final_out = work.join("final.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        final_out.to_str().unwrap(),
    ]);
    assert!(ok && out.contains("(clean)"), "{out}");
    assert_eq!(std::fs::read(&final_out).unwrap(), payload);

    // small overwrite goes down the delta path.
    let patch = work.join("patch.bin");
    std::fs::write(&patch, vec![0xEEu8; 100]).unwrap();
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        &dev,
        "--input",
        patch.to_str().unwrap(),
        "--offset",
        "300",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("delta updates"), "{out}");

    // status reflects a healthy store, and the last close was clean:
    // what the journal replay verdict reads after a crash.
    let (ok, out) = run(&["dev", "status", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("failed devices    : []"), "{out}");
    assert!(out.contains("clean (journal checkpointed)"), "{out}");

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
    let dev = format!("file:{}", work.join("store").display());

    let out = init(&dev, "sd:6,4,1,2", "128", "8");
    assert!(out.contains("initialized sd:6,4,1,2 store"), "{out}");

    // Fill the store: 6 devices, m=1, s=2 → 4·5−2 = 18 blocks per stripe.
    let capacity = 8 * 18 * 128;
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 11 % 251) as u8).collect();
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

    // m = 1 device down plus a 2-sector burst (s = 2) elsewhere.
    assert!(run(&["dev", "fail", "--dev", &dev, "--device", "5"]).0);
    assert!(
        run(&[
            "dev", "fail", "--dev", &dev, "--device", "1", "--stripe", "2", "--sector", "1",
            "--len", "2",
        ])
        .0
    );

    let extracted = work.join("degraded.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        extracted.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&extracted).unwrap(), payload);

    let (ok, out) = run(&["dev", "repair", "--dev", &dev]);
    assert!(ok && out.contains("repair complete"), "{out}");
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok && out.contains("device clean"), "{out}");

    let (ok, out) = run(&["dev", "status", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("codec sd:6,4,1,2"), "{out}");
    assert!(out.contains("1 device(s) + 2 sector(s)"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

/// `init` on `shards:ROOT?n=K` creates K shards that the `shards:`
/// backend then opens and drives.
#[test]
fn init_creates_a_shard_set() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let dev = format!("shards:{}?n=3", work.display());
    let out = init(&dev, "stair:8,4,2,1-1-2", "128", "4");
    // 3 shards × 4 stripes × 20 blocks × 128 bytes.
    assert!(
        out.contains("3 shard(s) x 4 stripes") && out.contains("= 30720 bytes"),
        "{out}"
    );
    let (ok, json) = run(&["dev", "status", "--dev", &dev, "--json"]);
    assert!(ok, "{json}");
    assert!(
        json.contains("\"backend\":\"shards\"") && json.contains("\"shards\":3"),
        "{json}"
    );
    // A second init over the same root is refused and leaves it intact.
    let (ok, out) = run(&["dev", "init", "--dev", &dev, "--code", "rs:8,4,2"]);
    assert!(!ok && out.contains("already holds shards"), "{out}");
    assert!(run(&["dev", "status", "--dev", &dev]).0);
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn store_cli_inject_detect_repair() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-inj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dev = format!("file:{}", work.join("store").display());
    init(&dev, "stair:8,8,2,2-2", "64", "8");

    // Replay the independent sector-failure model against the store.
    let (ok, out) = run(&[
        "dev", "inject", "--dev", &dev, "--p-sec", "0.05", "--seed", "7",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("sampled 64 chunks"), "{out}");

    let (ok, _) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok);
    let (ok, out) = run(&["dev", "repair", "--dev", &dev]);
    assert!(ok, "{out}");
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok && out.contains("device clean"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

/// A failure model the sampler cannot take is a clean `error:` exit 1
/// naming the flag — never a panic (exit 101).
#[test]
fn store_cli_inject_rejects_bad_model_parameters() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-badinj-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let dev = format!("file:{}", work.display());
    init(&dev, "stair:8,4,2,1-1-2", "512", "2");
    for (flags, named) in [
        (["--p-sec", "2", "--seed", "1"], "--p-sec"),
        (["--p-sec", "NaN", "--seed", "1"], "--p-sec"),
        (["--p-sec", "0.01", "--burst", "0,1"], "--burst"),
    ] {
        let (code, stderr) =
            exit_code(&[["dev", "inject", "--dev", &dev].as_slice(), &flags].concat());
        assert_eq!(code, Some(1), "{flags:?}: {stderr}");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
    }
    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn store_init_requires_a_codec_spec() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-nocode-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let dev = format!("file:{}", work.display());
    // No --code (separate --n/--r/--m/--e values are no substitute):
    // a clean error naming the flag, nothing created.
    for (args, named) in [
        (vec!["dev", "init", "--dev", &dev], "--code is required"),
        (
            vec!["dev", "init", "--dev", &dev, "--n", "8", "--r", "4"],
            "unknown flag `--n`",
        ),
        (
            vec![
                "dev",
                "init",
                "--dev",
                &dev,
                "--code",
                "stair:8,4,2,1-1-2",
                "--symbol",
                "0",
            ],
            "error:",
        ),
    ] {
        let (ok, out) = run(&args);
        assert!(!ok, "{out}");
        assert!(out.contains(named), "{out}");
        assert!(!work.exists(), "a refused init must create nothing");
    }
}

/// A spec too wide for GF(2^8) is the user's bad configuration, not a
/// codec bug: exit 1, named as such, nothing created.
#[test]
fn oversized_codec_spec_is_a_config_error() {
    let work = std::env::temp_dir().join(format!("stair-store-cli-wide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let dev = format!("file:{}", work.display());
    let (code, stderr) = exit_code(&["dev", "init", "--dev", &dev, "--code", "rs:300,4,2"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("invalid codec configuration"), "{stderr}");
    assert!(!stderr.contains("internal"), "{stderr}");
    assert!(!work.exists(), "a refused init must create nothing");
}

/// `init` and `inject` act on local stores only, `shutdown` on a
/// server only: any other scheme is a clean error naming the verb.
#[test]
fn backend_specific_verbs_refuse_other_schemes() {
    for args in [
        ["init", "--dev", "tcp:127.0.0.1:9", "--code", "rs:8,4,2"],
        [
            "init",
            "--dev",
            "cache:file:/nonexistent",
            "--code",
            "rs:8,4,2",
        ],
        ["init", "--dev", "shards:/nonexistent", "--code", "rs:8,4,2"],
        ["inject", "--dev", "shards:/nonexistent", "--p-sec", "0.1"],
        ["inject", "--dev", "tcp:127.0.0.1:9", "--p-sec", "0.1"],
        ["shutdown", "--dev", "file:/nonexistent", "", ""],
    ] {
        let args: Vec<&str> = std::iter::once("dev")
            .chain(args.into_iter().filter(|a| !a.is_empty()))
            .collect();
        let (ok, out) = run(&args);
        assert!(!ok, "{args:?}: {out}");
        assert!(
            out.contains(&format!("error: `stair dev {}`", args[1])),
            "{args:?}: {out}"
        );
        assert!(!out.contains("panicked"), "{args:?}: {out}");
    }
    assert!(!std::path::Path::new("/nonexistent").exists());
}
