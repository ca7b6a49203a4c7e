//! The README and the manifests agree with the code.
//!
//! * README names every wire opcode, `DeviceSpec` scheme and `CodecSpec`
//!   family: its grammar tables are the interface, and a variant added
//!   without a line there ships a hidden feature.
//! * There is one timing harness: `benchmark/` times the system and
//!   `crates/bench/src` the paper. A `benches/` directory, a `[[bench]]`
//!   table or a root `BENCH_*.json` would be a second one.
//! * README's "Workspace map" has a row for every package, and each row
//!   names one: a crate folded away leaves no stale row behind.
//! * Every package inherits the workspace lint table, so
//!   `unsafe_code = "forbid"` reaches all of its targets. `crates/gf`,
//!   which hosts the one `unsafe` module, carries its own table denying
//!   `unsafe_code` instead.

use std::fs;
use std::path::{Path, PathBuf};

use stair_code::CodecSpec;
use stair_device::DeviceSpec;
use stair_net::protocol::Opcode;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One value of every `DeviceSpec` variant. The match has no `_` arm:
/// a new scheme does not compile until it is named here, beside the
/// list it must join.
fn every_device_spec() -> Vec<DeviceSpec> {
    let file = || DeviceSpec::File { dir: "/srv".into() };
    let all = vec![
        file(),
        DeviceSpec::Shards {
            root: "/srv".into(),
            shards: None,
        },
        DeviceSpec::Tcp {
            addr: "127.0.0.1:7070".into(),
            lanes: 1,
        },
        DeviceSpec::Cache {
            inner: Box::new(file()),
            mb: 1,
            wb: false,
            interval_ms: 0,
        },
    ];
    for spec in &all {
        match spec {
            DeviceSpec::File { .. }
            | DeviceSpec::Shards { .. }
            | DeviceSpec::Tcp { .. }
            | DeviceSpec::Cache { .. } => {}
        }
    }
    all
}

/// One value of every `CodecSpec` variant; a new family does not
/// compile until it is named here.
fn every_codec_spec() -> Vec<CodecSpec> {
    let all = vec![
        CodecSpec::Stair {
            n: 8,
            r: 4,
            m: 2,
            e: vec![1, 1, 2],
        },
        CodecSpec::Sd {
            n: 8,
            r: 4,
            m: 2,
            s: 2,
        },
        CodecSpec::Rs { n: 8, r: 4, m: 2 },
    ];
    for spec in &all {
        match spec {
            CodecSpec::Stair { .. } | CodecSpec::Sd { .. } | CodecSpec::Rs { .. } => {}
        }
    }
    all
}

/// The names in code that README does not mention: opcodes by wire
/// name in any case (README writes `HELLO(1)`), schemes and families in
/// their grammar's `name:` form.
fn undocumented(readme: &str) -> Vec<String> {
    let lower = readme.to_lowercase();
    let opcodes = Opcode::ALL
        .iter()
        .map(|op| op.name())
        .filter(|name| !lower.contains(name))
        .map(|name| format!("opcode `{name}`"));
    let schemes = every_device_spec()
        .iter()
        .map(|spec| format!("{}:", spec.scheme()))
        .filter(|form| !readme.contains(form))
        .map(|form| format!("device scheme `{form}`"))
        .collect::<Vec<_>>();
    let families = every_codec_spec()
        .iter()
        .map(|spec| format!("{}:", spec.family()))
        .filter(|form| !readme.contains(form))
        .map(|form| format!("codec family `{form}`"))
        .collect::<Vec<_>>();
    opcodes.chain(schemes).chain(families).collect()
}

/// The workspace's package directories: the root package and every
/// `members` entry of the root manifest.
fn packages(root: &Path) -> Vec<PathBuf> {
    let manifest = read(&root.join("Cargo.toml"));
    let at = manifest
        .find("members")
        .expect("a [workspace] members list");
    let list = &manifest[at..];
    let list = &list[list.find('[').expect("members = [") + 1..list.find(']').expect("]")];
    let members = list
        .lines()
        .map(|line| line.split('#').next().unwrap_or_default())
        .flat_map(|line| line.split(','))
        .map(|entry| entry.trim().trim_matches('"'))
        .filter(|entry| !entry.is_empty())
        .map(|entry| root.join(entry));
    std::iter::once(root.to_path_buf()).chain(members).collect()
}

/// The paths of README's "Workspace map" table: the first backticked
/// word of each row's second column.
fn workspace_map(readme: &str) -> Vec<String> {
    readme
        .lines()
        .skip_while(|line| *line != "## Workspace map")
        .skip(1)
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| line.split('|').nth(2)?.split('`').nth(1))
        .map(str::to_string)
        .collect()
}

/// What a workspace map with these `rows` gets wrong: a package with no
/// row, and a row naming no package (`dir/*` names each package in
/// `dir`).
fn map_errors(root: &Path, rows: &[String]) -> Vec<String> {
    let packages = packages(root);
    let names = |row: &str, dir: &Path| match row.strip_suffix("/*") {
        Some(parent) => dir.parent() == Some(root.join(parent).as_path()),
        None => dir == root.join(row),
    };
    let unmapped = packages
        .iter()
        .filter(|dir| !rows.iter().any(|row| names(row, dir)))
        .map(|dir| format!("package {} has no row", dir.display()));
    let stale = rows
        .iter()
        .filter(|row| {
            !packages
                .iter()
                .any(|dir| names(row, dir) && dir.join("Cargo.toml").is_file())
        })
        .map(|row| format!("row `{row}` names no package"));
    unmapped.chain(stale).collect()
}

/// `true` when TOML table `[table]` of `manifest` holds the line `entry`
/// (spaces ignored): a scan from the header to the next one.
fn table_has(manifest: &str, table: &str, entry: &str) -> bool {
    let header = format!("[{table}]");
    manifest
        .lines()
        .map(|line| line.replace(' ', ""))
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .any(|line| line == entry)
}

#[test]
fn readme_names_every_opcode_scheme_and_family() {
    let missing = undocumented(&read(&root().join("README.md")));
    assert!(missing.is_empty(), "README.md does not mention {missing:?}");
    // The check itself: a README without them is caught.
    assert_eq!(undocumented("").len(), Opcode::ALL.len() + 4 + 3);
}

#[test]
fn readme_maps_every_package_and_only_packages() {
    let root = root();
    let rows = workspace_map(&read(&root.join("README.md")));
    let errors = map_errors(&root, &rows);
    assert!(errors.is_empty(), "README.md's workspace map: {errors:?}");
    // The check itself: a stale row and a missing one are both caught.
    let stale = [rows.clone(), vec!["crates/gfmatrix".into()]].concat();
    assert_eq!(
        map_errors(&root, &stale),
        ["row `crates/gfmatrix` names no package"]
    );
    assert_eq!(map_errors(&root, &rows[1..]).len(), 1);
}

#[test]
fn benchmark_is_the_one_timing_harness() {
    let root = root();
    let mut strays: Vec<String> = fs::read_dir(&root)
        .expect("workspace root")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    for dir in packages(&root) {
        if dir.join("benches").is_dir() {
            strays.push(format!("{}/benches", dir.display()));
        }
        if read(&dir.join("Cargo.toml")).contains("[[bench]]") {
            strays.push(format!("{}/Cargo.toml's [[bench]]", dir.display()));
        }
    }
    assert!(
        strays.is_empty(),
        "second timing harnesses (time the system in benchmark/, the paper in crates/bench/src): \
         {strays:?}"
    );
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = root();
    let unlinted: Vec<String> = packages(&root)
        .into_iter()
        .filter(|dir| {
            let manifest = read(&dir.join("Cargo.toml"));
            let own_gf_table = dir.ends_with("crates/gf")
                && table_has(&manifest, "lints.rust", "unsafe_code=\"deny\"");
            manifest.contains("[package]")
                && !table_has(&manifest, "lints", "workspace=true")
                && !own_gf_table
        })
        .map(|dir| dir.display().to_string())
        .collect();
    assert!(
        unlinted.is_empty(),
        "manifests without `[lints] workspace = true`, whose targets escape \
         `unsafe_code = \"forbid\"`: {unlinted:?}"
    );
    assert!(packages(&root).len() > 10);
}
