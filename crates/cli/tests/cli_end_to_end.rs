//! End-to-end test of the `stair` binary: a file kept in a `file:`
//! store survives two lost devices and a sector burst on a third —
//! written with `dev write`, damaged, scrubbed, repaired and read back
//! byte-identical with `dev read --len`. This is the whole archive use
//! case; there is no second on-disk format for it.

mod common;

use common::{init, run};

#[test]
fn full_cli_session() {
    let work = std::env::temp_dir().join(format!("stair-cli-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let input = work.join("input.bin");
    let payload: Vec<u8> = (0..100_000).map(|i| (i * 13 % 241) as u8).collect();
    std::fs::write(&input, &payload).unwrap();
    let dev = format!("file:{}", work.join("store").display());

    // 4 stripes x 93 blocks x 512 bytes = 190 464 bytes of capacity.
    let out = init(&dev, "stair:8,16,2,1-2", "512", "4");
    assert!(out.contains("initialized stair:8,16,2,1-2 store"), "{out}");
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        &dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("wrote 100000 bytes"), "{out}");

    // Lose two devices and a 2-sector burst on a third.
    for device in ["0", "4"] {
        assert!(run(&["dev", "fail", "--dev", &dev, "--device", device]).0);
    }
    let (ok, out) = run(&[
        "dev", "fail", "--dev", &dev, "--device", "6", "--stripe", "1", "--sector", "3", "--len",
        "2",
    ]);
    assert!(ok, "{out}");

    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(
        out.contains("2 mismatches, 2 unavailable device(s)"),
        "{out}"
    );
    assert!(out.contains("run `stair dev repair`"), "{out}");

    let (ok, out) = run(&["dev", "repair", "--dev", &dev]);
    assert!(ok, "{out}");
    assert!(out.contains("replaced 2 device(s)"), "{out}");
    assert!(out.contains("repair complete"), "{out}");
    let (ok, out) = run(&["dev", "scrub", "--dev", &dev]);
    assert!(ok && out.contains("device clean"), "{out}");

    let restored = work.join("restored.bin");
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        &dev,
        "--output",
        restored.to_str().unwrap(),
        "--len",
        "100000",
    ]);
    assert!(ok && out.contains("(clean)"), "{out}");
    assert_eq!(std::fs::read(&restored).unwrap(), payload);

    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn info_takes_a_stair_spec() {
    let kernels = format!(
        "byte kernels            : gf8 {}, fletcher32 {}",
        stair_gf::gf8_tier(),
        stair_gf::fletcher32_tier()
    );
    for args in [vec!["info"], vec!["info", "--code", "stair:8,16,2,1-2"]] {
        let (ok, out) = run(&args);
        assert!(ok, "{out}");
        assert!(out.contains("STAIR(n=8, r=16, m=2, e=[1, 2])"), "{out}");
        assert!(out.contains("storage efficiency"), "{out}");
        // The kernel tiers this host dispatches to, by the names stair-gf reads.
        assert!(out.contains(&kernels), "{out}");
    }
    let (ok, out) = run(&["info", "--code", "stair:8,4,2,1-1-2"]);
    assert!(ok && out.contains("m' = 3, s = 4"), "{out}");

    // Another family, a malformed spec, or the retired per-parameter
    // flags are clean errors.
    for (args, named) in [
        (vec!["info", "--code", "sd:6,4,1,2"], "not a stair: spec"),
        (vec!["info", "--code", "stair:8,16"], "error:"),
        (vec!["info", "--n", "8"], "unknown flag `--n`"),
    ] {
        let (ok, out) = run(&args);
        assert!(!ok, "{args:?}: {out}");
        assert!(out.contains(named), "{args:?}: {out}");
        assert!(!out.contains("panicked"), "{args:?}: {out}");
    }
}

#[test]
fn retired_commands_are_unknown() {
    for cmd in [
        "store",
        "remote",
        "encode",
        "verify",
        "extract",
        "corrupt",
        "repair",
        "frobnicate",
    ] {
        let (ok, out) = run(&[cmd, "--dir", "/nonexistent"]);
        assert!(!ok, "{cmd}: {out}");
        assert!(out.contains(&format!("unknown command `{cmd}`")), "{out}");
    }
    let (ok, out) = run(&[]);
    assert!(!ok && out.contains("usage:"), "{out}");
}
