//! End-to-end test of the `stair` binary: encode a file, destroy two
//! devices and a burst, verify/repair/extract through the CLI surface.

mod common;

use common::run;

#[test]
fn full_cli_session() {
    let work = std::env::temp_dir().join(format!("stair-cli-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let input = work.join("input.bin");
    let payload: Vec<u8> = (0..250_000).map(|i| (i * 13 % 241) as u8).collect();
    std::fs::write(&input, &payload).unwrap();
    let dir = work.join("archive");
    let dir_s = dir.to_str().unwrap();

    let (ok, out) = run(&[
        "encode",
        "--input",
        input.to_str().unwrap(),
        "--out",
        dir_s,
        "--e",
        "1,2",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("encoded 250000 bytes"), "{out}");

    let (ok, out) = run(&["verify", "--dir", dir_s]);
    assert!(ok && out.contains("healthy"), "{out}");

    // Lose two devices and a 2-sector burst.
    assert!(run(&["corrupt", "--dir", dir_s, "--device", "0"]).0);
    assert!(run(&["corrupt", "--dir", dir_s, "--device", "4"]).0);
    assert!(
        run(&[
            "corrupt", "--dir", dir_s, "--device", "6", "--stripe", "1", "--sector", "3", "--len",
            "2"
        ])
        .0
    );

    let (ok, out) = run(&["verify", "--dir", dir_s]);
    assert!(ok && out.contains("damaged"), "{out}");

    let (ok, out) = run(&["repair", "--dir", dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("rebuilt 2 device(s)"), "{out}");
    assert!(out.contains("repaired 2 latent sector(s)"), "{out}");

    let restored = work.join("restored.bin");
    let (ok, out) = run(&[
        "extract",
        "--dir",
        dir_s,
        "--output",
        restored.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert_eq!(std::fs::read(&restored).unwrap(), payload);

    let (ok, out) = run(&["info", "--n", "8", "--r", "16", "--m", "2", "--e", "1,2"]);
    assert!(ok && out.contains("storage efficiency"), "{out}");
    // The kernel tiers this host dispatches to, by the names stair-gf reads.
    let kernels = format!(
        "byte kernels            : gf8 {}, fletcher32 {}",
        stair_gf::gf8_tier(),
        stair_gf::fletcher32_tier()
    );
    assert!(out.contains(&kernels), "{out}");

    // Unknown command and bad flags fail cleanly.
    assert!(!run(&["frobnicate"]).0);
    assert!(!run(&["encode", "--out", dir_s]).0);

    std::fs::remove_dir_all(&work).unwrap();
}
