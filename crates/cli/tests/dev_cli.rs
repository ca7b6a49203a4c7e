//! End-to-end test of the `stair dev` CLI surface: the same verbs
//! driven by `--dev` specs against a local store and a served shard
//! set, with byte-identical data and identical JSON shapes across
//! backends, plus clean errors for bad specs and flags, and README's
//! verb table held to the code's.

mod common;

use common::{dev_verbs, exit_code, init, run, shutdown, spawn_server};

/// Runs the same write → fail → degraded read → scrub → repair → read
/// session through `stair dev`, returning the final status JSON. The
/// returned bytes must equal the input for every backend.
fn session(dev: &str, shard: &str, work: &std::path::Path, input: &std::path::Path) -> String {
    let tag = dev.split(':').next().unwrap();
    let (ok, out) = run(&[
        "dev",
        "write",
        "--dev",
        dev,
        "--input",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{dev} write: {out}");
    assert!(out.contains("stripes touched"), "{out}");

    let (ok, out) = run(&[
        "dev", "fail", "--dev", dev, "--shard", shard, "--device", "3",
    ]);
    assert!(ok, "{dev} fail: {out}");

    let degraded = work.join(format!("degraded-{tag}.bin"));
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        degraded.to_str().unwrap(),
    ]);
    assert!(ok, "{dev} read: {out}");
    assert!(out.contains("(degraded)"), "{out}");
    assert_eq!(
        std::fs::read(&degraded).unwrap(),
        std::fs::read(input).unwrap(),
        "{dev}: degraded read must return the original data"
    );

    let (ok, json) = run(&["dev", "scrub", "--dev", dev, "--threads", "2", "--json"]);
    assert!(ok, "{dev} scrub: {json}");
    assert!(json.contains("\"op\":\"scrub\""), "{json}");
    assert!(json.contains("\"clean\":false"), "{json}");

    let (ok, json) = run(&["dev", "repair", "--dev", dev, "--threads", "2", "--json"]);
    assert!(ok, "{dev} repair: {json}");
    assert!(json.contains("\"op\":\"repair\""), "{json}");
    assert!(json.contains("\"complete\":true"), "{json}");

    let healed = work.join(format!("healed-{tag}.bin"));
    let (ok, out) = run(&[
        "dev",
        "read",
        "--dev",
        dev,
        "--output",
        healed.to_str().unwrap(),
    ]);
    assert!(ok && out.contains("(clean)"), "{dev}: {out}");
    assert_eq!(
        std::fs::read(&healed).unwrap(),
        std::fs::read(input).unwrap(),
        "{dev}: post-repair read must return the original data"
    );

    let (ok, _) = run(&["dev", "flush", "--dev", dev]);
    assert!(ok, "{dev} flush");

    let (ok, json) = run(&["dev", "status", "--dev", dev, "--json"]);
    assert!(ok, "{dev} status: {json}");
    assert!(json.contains("\"healthy\":true"), "{json}");
    json
}

#[test]
fn dev_cli_runs_identical_sessions_on_file_and_tcp_backends() {
    let work = std::env::temp_dir().join(format!("stair-dev-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // Both backends get the same logical capacity: 16 stripes x 20
    // blocks x 128 bytes (one store with 16 stripes; two shards of 8).
    let capacity = 16 * 20 * 128usize;
    let payload: Vec<u8> = (0..capacity).map(|i| (i * 17 % 249) as u8).collect();
    let input = work.join("input.bin");
    std::fs::write(&input, &payload).unwrap();

    let store_dir = work.join("store");
    init(
        &format!("file:{}", store_dir.display()),
        "stair:8,4,2,1-1-2",
        "128",
        "16",
    );
    let file_spec = format!("file:{}", store_dir.display());
    let file_json = session(&file_spec, "0", &work, &input);

    let root = work.join("net-root");
    let (server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let tcp_spec = format!("tcp:{addr}");
    let tcp_json = session(&tcp_spec, "1", &work, &input);

    // Omitting --shard on a multi-shard backend is refused (defaulting
    // to shard 0 would fault a shard the operator never named); a
    // single-store backend accepts the default.
    let (ok, out) = run(&["dev", "fail", "--dev", &tcp_spec, "--device", "0"]);
    assert!(!ok, "{out}");
    assert!(out.contains("--shard is required"), "{out}");

    shutdown(server, &addr);

    // After shutdown the same root is usable in-process via shards:.
    let shards_spec = format!("shards:{}?n=2", root.display());
    let (ok, json) = run(&["dev", "status", "--dev", shards_spec.as_str(), "--json"]);
    assert!(ok, "{json}");
    assert!(json.contains("\"backend\":\"shards\""), "{json}");

    // The two backends produced identical data (both equal the input,
    // compare them to each other for good measure) and identical JSON
    // status shapes.
    assert_eq!(
        std::fs::read(work.join("healed-file.bin")).unwrap(),
        std::fs::read(work.join("healed-tcp.bin")).unwrap()
    );
    common::assert_same_status_shape(&file_json, &tcp_json);

    std::fs::remove_dir_all(&work).unwrap();
}

/// Replays one op-script through `stair dev batch`, returning the JSON.
fn replay(dev: &str, script: &std::path::Path) -> String {
    let (ok, json) = run(&[
        "dev",
        "batch",
        "--dev",
        dev,
        "--from",
        script.to_str().unwrap(),
    ]);
    assert!(ok, "{dev} batch: {json}");
    json
}

/// The `data` of every read result of a `dev batch` JSON report, in
/// order.
fn read_data(json: &str) -> Vec<String> {
    json.split("\"data\":\"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap_or_default().to_string())
        .collect()
}

#[test]
fn dev_batch_replays_the_same_op_script_on_file_and_tcp() {
    let work = std::env::temp_dir().join(format!("stair-dev-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();

    // An op-script with scattered writes, then reads of the same spans:
    // comments, blank lines, an unaligned cross-block write, a write in a
    // later block row (2000) and one in the next stripe (2600, past the
    // 20 × 128 bytes of stripe 0), and a read spanning unwritten and
    // written bytes.
    let script = work.join("ops.txt");
    std::fs::write(
        &script,
        "# batch smoke script\n\
         write 0 aabbccdd\n\
         write 256 00112233445566778899\n\
         \n\
         write 130 feedface # trailing comment\n\
         write 2000 cafebabe\n\
         write 2600 0badf00d\n\
         read 0 4\n\
         read 256 10\n\
         read 130 4\n\
         read 1990 24\n\
         read 2600 4\n",
    )
    .unwrap();

    let store_dir = work.join("store");
    init(
        &format!("file:{}", store_dir.display()),
        "stair:8,4,2,1-1-2",
        "128",
        "16",
    );
    let file_spec = format!("file:{}", store_dir.display());
    let file_json = replay(&file_spec, &script);

    let root = work.join("net-root");
    let (server, addr) = spawn_server(root.to_str().unwrap(), &[]);
    let tcp_spec = format!("tcp:{addr}");
    let tcp_json = replay(&tcp_spec, &script);

    // Reads echo exactly what the writes stored, in order, on both
    // backends; unwritten bytes read as zeros.
    let zeros = "00".repeat(10);
    let expected = [
        "aabbccdd".to_string(),
        "00112233445566778899".into(),
        "feedface".into(),
        format!("{zeros}cafebabe{zeros}"),
        "0badf00d".into(),
    ];
    for json in [&file_json, &tcp_json] {
        assert!(json.contains("\"op\":\"batch\""), "{json}");
        assert!(json.contains("\"ops\":10"), "{json}");
        assert_eq!(read_data(json), expected, "{json}");
    }
    // Identical JSON key shape across backends.
    common::assert_same_key_shape(&file_json, &tcp_json);

    // The resulting device bytes are identical: read both back in full.
    let file_out = work.join("file.bin");
    let tcp_out = work.join("tcp.bin");
    let (ok, _) = run(&[
        "dev",
        "read",
        "--dev",
        &file_spec,
        "--output",
        file_out.to_str().unwrap(),
        "--len",
        "4096",
    ]);
    assert!(ok);
    let (ok, _) = run(&[
        "dev",
        "read",
        "--dev",
        &tcp_spec,
        "--output",
        tcp_out.to_str().unwrap(),
        "--len",
        "4096",
    ]);
    assert!(ok);
    assert_eq!(
        std::fs::read(&file_out).unwrap(),
        std::fs::read(&tcp_out).unwrap()
    );

    shutdown(server, &addr);

    // Malformed scripts are clean errors with a line number.
    let bad = work.join("bad.txt");
    std::fs::write(&bad, "write 0 abc\n").unwrap(); // odd-length hex
    let (ok, out) = run(&[
        "dev",
        "batch",
        "--dev",
        &file_spec,
        "--from",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(out.contains("op-script line 1"), "{out}");
    let (ok, out) = run(&["dev", "batch", "--dev", &file_spec]);
    assert!(!ok);
    assert!(out.contains("--from is required"), "{out}");

    std::fs::remove_dir_all(&work).unwrap();
}

#[test]
fn dev_cli_rejects_bad_specs_cleanly() {
    let (ok, out) = run(&["dev", "status", "--dev", "nfs:/somewhere"]);
    assert!(!ok);
    assert!(
        out.contains("error:") && out.contains("unknown scheme"),
        "{out}"
    );
    assert!(!out.contains("panicked"), "{out}");

    let (ok, out) = run(&["dev", "status", "--dev", "shards:/nope?k=3"]);
    assert!(!ok);
    assert!(out.contains("unknown query parameter"), "{out}");

    let (ok, out) = run(&["dev", "status"]);
    assert!(!ok);
    assert!(out.contains("--dev is required"), "{out}");

    let (ok, out) = run(&["dev", "munge", "--dev", "file:/tmp"]);
    assert!(!ok);
    assert!(out.contains("unknown stair dev command"), "{out}");

    // A spec that parses but points nowhere is a clean open error.
    let (ok, out) = run(&["dev", "status", "--dev", "file:/definitely/not/a/store"]);
    assert!(!ok);
    assert!(out.contains("error:"), "{out}");
    assert!(!out.contains("panicked"), "{out}");
}

/// Every verb refuses a flag it does not take, and a flag given twice,
/// with exit 1 and an `error:` naming the flag — before it touches the
/// device.
#[test]
fn every_verb_refuses_unknown_and_repeated_flags() {
    let work = std::env::temp_dir().join(format!("stair-dev-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).unwrap();
    let dev = format!("file:{}", work.join("store").display());
    init(&dev, "stair:8,4,2,1-1-2", "128", "2");

    // A misspelled --offset must not read from offset 0 and succeed.
    let output = work.join("o.bin");
    let output_s = output.to_str().unwrap();
    let (code, err) = exit_code(&[
        "dev", "read", "--dev", &dev, "--output", output_s, "--offest", "4096",
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("error: unknown flag `--offest`"), "{err}");
    assert!(!output.exists(), "a refused read must write nothing");
    let (code, err) = exit_code(&[
        "dev", "read", "--dev", &dev, "--output", output_s, "--offset", "0", "--offset", "128",
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("error: flag `--offset` given twice"), "{err}");

    for (verb, _) in dev_verbs() {
        let (code, err) = exit_code(&["dev", &verb, "--dev", &dev, "--bogus-flag", "1"]);
        assert_eq!(code, Some(1), "{verb}: {err}");
        assert!(
            err.contains("error: unknown flag `--bogus-flag`"),
            "{verb}: {err}"
        );
        let (code, err) = exit_code(&["dev", &verb, "--dev", &dev, "--dev", &dev]);
        assert_eq!(code, Some(1), "{verb}: {err}");
        assert!(
            err.contains("error: flag `--dev` given twice"),
            "{verb}: {err}"
        );
        let (code, err) = exit_code(&["dev", &verb, "stray", "--dev", &dev]);
        assert_eq!(code, Some(1), "{verb}: {err}");
        assert!(
            err.contains("error: unexpected argument `stray`"),
            "{verb}: {err}"
        );
    }
    // Nothing above reached the store: it is as `init` left it.
    let (ok, out) = run(&["dev", "status", "--dev", &dev]);
    assert!(ok && out.contains("failed devices    : []"), "{out}");
    std::fs::remove_dir_all(&work).unwrap();
}

/// README's `stair dev` verb table is the code's: the same verbs in the
/// same order with the same usage, and README names no other verb.
#[test]
fn readme_verb_table_is_the_code_table() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md");
    let table: Vec<(String, String)> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `stair dev "))
        .map(|row| {
            let (verb, usage) = row
                .split_once("` | `")
                .unwrap_or_else(|| panic!("malformed verb row: {row}"));
            let usage = usage
                .strip_suffix("` |")
                .unwrap_or_else(|| panic!("malformed verb row: {row}"));
            (verb.to_string(), usage.replace("\\|", "|"))
        })
        .collect();
    let verbs = dev_verbs();
    assert_eq!(
        table, verbs,
        "README's verb table differs from `stair dev`'s"
    );
    for (at, _) in readme.match_indices("stair dev ") {
        let word: String = readme[at + "stair dev ".len()..]
            .chars()
            .take_while(char::is_ascii_lowercase)
            .collect();
        assert!(
            word.is_empty() || verbs.iter().any(|(verb, _)| *verb == word),
            "README names `stair dev {word}`, which is not a verb"
        );
    }
}
