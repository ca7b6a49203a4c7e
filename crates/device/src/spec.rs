//! The device spec grammar: one-line, URI-style backend descriptors.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use crate::DeviceError;

/// A parsed device descriptor naming a storage backend.
///
/// The grammar (scheme, a target, then optional `?key=value` query
/// parameters — no spaces, so specs embed in CLI flags and scripts):
///
/// ```text
/// file:<dir>              a single local stripe store
/// shards:<root>[?n=<k>]   a sharded set under <root> (n asserts the count)
/// tcp:<host:port>[?lanes=<l>]   a remote server (lanes > 1 stripes the
///                               transfer over that many connections)
/// cache:<inner>[?mb=<m>&wb=on|off&interval_ms=<t>]
///                         a tiered cache in front of any inner spec
/// ```
///
/// `cache:` wraps another spec; its own keys (`mb` — read budget in
/// MiB, `wb` — write-back on/off, `interval_ms` — group-commit
/// interval) and the inner spec's keys share one query string, split
/// by key (so `cache:tcp:h:p?lanes=2&mb=8` gives the lanes to `tcp:`
/// and the budget to the cache). Nested `cache:` specs are rejected.
///
/// # Example
///
/// ```
/// use stair_device::DeviceSpec;
///
/// let spec: DeviceSpec = "shards:/srv/stair?n=4".parse()?;
/// assert_eq!(spec.to_string(), "shards:/srv/stair?n=4");
/// assert_eq!(spec.scheme(), "shards");
/// assert_eq!("tcp:10.0.0.1:7070?lanes=4".parse::<DeviceSpec>()?.scheme(), "tcp");
/// # Ok::<(), stair_device::DeviceError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceSpec {
    /// A single local stripe store at `dir`.
    File {
        /// Store directory.
        dir: PathBuf,
    },
    /// A sharded set of stripe stores under `root`.
    Shards {
        /// Root directory holding `shard-NNNN` subdirectories.
        root: PathBuf,
        /// Expected shard count; opening fails if the on-disk count
        /// disagrees. `None` accepts whatever is there.
        shards: Option<usize>,
    },
    /// A remote stair-net server.
    Tcp {
        /// `host:port` of the server.
        addr: String,
        /// Connections to stripe transfers over (≥ 1).
        lanes: usize,
    },
    /// A tiered cache (block-granular CLOCK read tier plus an optional
    /// write-back tier) in front of another backend.
    Cache {
        /// The backend being fronted (never itself `Cache`).
        inner: Box<DeviceSpec>,
        /// Read-tier budget in MiB (≥ 1, and < 2⁴⁴ so its byte count
        /// fits a `u64`; see [`cache_budget_bytes`]).
        mb: usize,
        /// Write-back tier enabled (`wb=on`); the default is
        /// write-through — the safe choice, especially over `tcp:`.
        wb: bool,
        /// Group-commit interval in milliseconds for the write-back
        /// drain thread; 0 disables the timer (drains happen only on
        /// pressure or `flush()`).
        interval_ms: u64,
    },
}

/// Default read-tier budget in MiB for `cache:` specs.
pub const CACHE_DEFAULT_MB: usize = 64;
/// Default group-commit interval in milliseconds for `cache:` specs.
pub const CACHE_DEFAULT_INTERVAL_MS: u64 = 50;

/// A `cache:` budget of `mb` MiB in bytes, or `None` where that does not
/// fit a `u64`.
pub fn cache_budget_bytes(mb: usize) -> Option<u64> {
    u64::try_from(mb).ok()?.checked_mul(1 << 20)
}

impl DeviceSpec {
    /// The scheme name (`"file"`, `"shards"`, `"tcp"`, or `"cache"`).
    pub fn scheme(&self) -> &'static str {
        match self {
            DeviceSpec::File { .. } => "file",
            DeviceSpec::Shards { .. } => "shards",
            DeviceSpec::Tcp { .. } => "tcp",
            DeviceSpec::Cache { .. } => "cache",
        }
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceSpec::File { dir } => write!(f, "file:{}", dir.display()),
            DeviceSpec::Shards { root, shards } => {
                write!(f, "shards:{}", root.display())?;
                if let Some(n) = shards {
                    write!(f, "?n={n}")?;
                }
                Ok(())
            }
            DeviceSpec::Tcp { addr, lanes } => {
                write!(f, "tcp:{addr}")?;
                if *lanes > 1 {
                    write!(f, "?lanes={lanes}")?;
                }
                Ok(())
            }
            DeviceSpec::Cache {
                inner,
                mb,
                wb,
                interval_ms,
            } => {
                // The inner spec renders first (with its own query, if
                // any); cache keys append to the shared query string.
                let rendered = inner.to_string();
                let mut sep = if rendered.contains('?') { '&' } else { '?' };
                write!(f, "cache:{rendered}")?;
                let mut kv = |f: &mut fmt::Formatter<'_>, key: &str, val: String| {
                    let r = write!(f, "{sep}{key}={val}");
                    sep = '&';
                    r
                };
                if *mb != CACHE_DEFAULT_MB {
                    kv(f, "mb", mb.to_string())?;
                }
                if *wb {
                    kv(f, "wb", "on".into())?;
                }
                if *interval_ms != CACHE_DEFAULT_INTERVAL_MS {
                    kv(f, "interval_ms", interval_ms.to_string())?;
                }
                Ok(())
            }
        }
    }
}

/// A spec's target and its parsed `?key=value` query parameters.
type TargetAndQuery<'a> = (&'a str, Vec<(&'a str, &'a str)>);

/// Splits `target[?query]` and parses the query into `(key, value)`
/// pairs, rejecting malformed ones.
fn split_query<'a>(
    rest: &'a str,
    bad: &impl Fn(&str) -> DeviceError,
) -> Result<TargetAndQuery<'a>, DeviceError> {
    let Some((target, query)) = rest.split_once('?') else {
        return Ok((rest, Vec::new()));
    };
    let mut params = Vec::new();
    for pair in query.split('&') {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| bad(&format!("query parameter `{pair}` is not key=value")))?;
        if key.is_empty() || value.is_empty() {
            return Err(bad(&format!("query parameter `{pair}` is incomplete")));
        }
        params.push((key, value));
    }
    Ok((target, params))
}

impl FromStr for DeviceSpec {
    type Err = DeviceError;

    fn from_str(text: &str) -> Result<Self, DeviceError> {
        let bad = |msg: &str| DeviceError::Spec(format!("device spec `{text}`: {msg}"));
        let (scheme, rest) = text
            .split_once(':')
            .ok_or_else(|| bad("expected `scheme:target` (file:, shards:, tcp:, or cache:)"))?;
        let int = |key: &str, v: &str| {
            v.parse::<usize>()
                .map_err(|_| bad(&format!("{key} expects an integer, got `{v}`")))
        };
        match scheme {
            "file" => {
                let (dir, params) = split_query(rest, &bad)?;
                if let Some((key, _)) = params.first() {
                    return Err(bad(&format!("file takes no query parameters (got {key})")));
                }
                if dir.is_empty() {
                    return Err(bad("file expects a directory, e.g. file:/srv/store"));
                }
                Ok(DeviceSpec::File {
                    dir: PathBuf::from(dir),
                })
            }
            "shards" => {
                let (root, params) = split_query(rest, &bad)?;
                if root.is_empty() {
                    return Err(bad("shards expects a root directory"));
                }
                let mut shards = None;
                for (key, value) in params {
                    match key {
                        "n" if shards.is_none() => {
                            let n = int("n", value)?;
                            if n == 0 {
                                return Err(bad("n must be at least 1"));
                            }
                            shards = Some(n);
                        }
                        "n" => return Err(bad("duplicate query parameter n")),
                        other => return Err(bad(&format!("unknown query parameter `{other}`"))),
                    }
                }
                Ok(DeviceSpec::Shards {
                    root: PathBuf::from(root),
                    shards,
                })
            }
            "tcp" => {
                let (addr, params) = split_query(rest, &bad)?;
                if addr.is_empty() {
                    return Err(bad("tcp expects host:port, e.g. tcp:127.0.0.1:7070"));
                }
                let mut lanes = 1;
                let mut seen = false;
                for (key, value) in params {
                    match key {
                        "lanes" if !seen => {
                            lanes = int("lanes", value)?;
                            if lanes == 0 {
                                return Err(bad("lanes must be at least 1"));
                            }
                            seen = true;
                        }
                        "lanes" => return Err(bad("duplicate query parameter lanes")),
                        other => return Err(bad(&format!("unknown query parameter `{other}`"))),
                    }
                }
                Ok(DeviceSpec::Tcp {
                    addr: addr.to_string(),
                    lanes,
                })
            }
            "cache" => {
                // Cache keys and inner-spec keys share one query
                // string; split by key, then hand the rest back to the
                // inner parse so `cache:tcp:h:p?lanes=2&mb=8` works.
                let (target, params) = split_query(rest, &bad)?;
                if target.is_empty() {
                    return Err(bad(
                        "cache expects an inner spec, e.g. cache:file:/srv/store",
                    ));
                }
                let mut mb = CACHE_DEFAULT_MB;
                let mut wb = false;
                let mut interval_ms = CACHE_DEFAULT_INTERVAL_MS;
                let (mut seen_mb, mut seen_wb, mut seen_iv) = (false, false, false);
                let mut inner_params: Vec<(&str, &str)> = Vec::new();
                for (key, value) in params {
                    match key {
                        "mb" if !seen_mb => {
                            mb = int("mb", value)?;
                            if mb == 0 {
                                return Err(bad("mb must be at least 1"));
                            }
                            if cache_budget_bytes(mb).is_none() {
                                return Err(bad(&format!(
                                    "mb={mb} overflows a 64-bit byte budget"
                                )));
                            }
                            seen_mb = true;
                        }
                        "wb" if !seen_wb => {
                            wb = match value {
                                "on" => true,
                                "off" => false,
                                other => {
                                    return Err(bad(&format!(
                                        "wb expects on or off, got `{other}`"
                                    )))
                                }
                            };
                            seen_wb = true;
                        }
                        "interval_ms" if !seen_iv => {
                            interval_ms = int("interval_ms", value)? as u64;
                            seen_iv = true;
                        }
                        "mb" | "wb" | "interval_ms" => {
                            return Err(bad(&format!("duplicate query parameter {key}")))
                        }
                        _ => inner_params.push((key, value)),
                    }
                }
                let mut inner_text = target.to_string();
                for (i, (key, value)) in inner_params.iter().enumerate() {
                    inner_text.push(if i == 0 { '?' } else { '&' });
                    inner_text.push_str(key);
                    inner_text.push('=');
                    inner_text.push_str(value);
                }
                let inner: DeviceSpec = inner_text.parse()?;
                if matches!(inner, DeviceSpec::Cache { .. }) {
                    return Err(bad("cache specs do not nest"));
                }
                Ok(DeviceSpec::Cache {
                    inner: Box::new(inner),
                    mb,
                    wb,
                    interval_ms,
                })
            }
            other => Err(bad(&format!(
                "unknown scheme `{other}` (expected file, shards, tcp, or cache)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            "file:/srv/store",
            "file:relative/dir",
            "shards:/srv/stair",
            "shards:/srv/stair?n=4",
            "tcp:127.0.0.1:7070",
            "tcp:127.0.0.1:7070?lanes=4",
            "tcp:example.net:9",
            "cache:file:/srv/store",
            "cache:file:/srv/store?mb=8",
            "cache:shards:/srv/stair?n=4&mb=8",
            "cache:tcp:127.0.0.1:7070?lanes=2&mb=8&wb=on&interval_ms=25",
            "cache:tcp:h:1?wb=on",
        ] {
            let spec: DeviceSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text, "round trip of `{text}`");
        }
    }

    #[test]
    fn parses_to_expected_variants() {
        assert_eq!(
            "file:/a/b".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::File {
                dir: PathBuf::from("/a/b")
            }
        );
        assert_eq!(
            "shards:/root?n=3".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Shards {
                root: PathBuf::from("/root"),
                shards: Some(3)
            }
        );
        // tcp addr keeps its own colon; lanes defaults to 1.
        assert_eq!(
            "tcp:10.1.2.3:7070".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Tcp {
                addr: "10.1.2.3:7070".into(),
                lanes: 1
            }
        );
        // cache splits its shared query string by key: lanes goes to
        // the inner tcp spec, mb/wb/interval_ms stay with the cache.
        assert_eq!(
            "cache:tcp:h:1?lanes=2&mb=8&wb=on&interval_ms=25"
                .parse::<DeviceSpec>()
                .unwrap(),
            DeviceSpec::Cache {
                inner: Box::new(DeviceSpec::Tcp {
                    addr: "h:1".into(),
                    lanes: 2
                }),
                mb: 8,
                wb: true,
                interval_ms: 25,
            }
        );
        assert_eq!(
            "cache:file:/a/b".parse::<DeviceSpec>().unwrap(),
            DeviceSpec::Cache {
                inner: Box::new(DeviceSpec::File {
                    dir: PathBuf::from("/a/b")
                }),
                mb: CACHE_DEFAULT_MB,
                wb: false,
                interval_ms: CACHE_DEFAULT_INTERVAL_MS,
            }
        );
    }

    #[test]
    fn cache_defaults_render_bare() {
        let spec: DeviceSpec = "cache:file:/x?mb=64&wb=off&interval_ms=50".parse().unwrap();
        assert_eq!(spec.to_string(), "cache:file:/x");
        // Inner query params survive even when cache keys are default.
        let spec: DeviceSpec = "cache:shards:/x?n=2&mb=64".parse().unwrap();
        assert_eq!(spec.to_string(), "cache:shards:/x?n=2");
    }

    #[test]
    fn lanes_of_one_renders_bare() {
        let spec: DeviceSpec = "tcp:h:1?lanes=1".parse().unwrap();
        assert_eq!(spec.to_string(), "tcp:h:1");
    }

    #[test]
    fn bad_schemes_are_rejected() {
        for text in ["", "justapath", "nfs:/x", "FILE:/x", "file", "tcp"] {
            assert!(
                text.parse::<DeviceSpec>().is_err(),
                "`{text}` should not parse"
            );
        }
    }

    #[test]
    fn bad_targets_and_query_params_are_rejected() {
        for text in [
            "file:",
            "file:/x?n=2",
            "shards:",
            "shards:/x?n=",
            "shards:/x?n=zero",
            "shards:/x?n=0",
            "shards:/x?n=2&n=3",
            "shards:/x?k=2",
            "shards:/x?n",
            "tcp:",
            "tcp:h:1?lanes=0",
            "tcp:h:1?lanes=a",
            "tcp:h:1?lanes=2&lanes=3",
            "tcp:h:1?window=8",
            "cache:",
            "cache:file:/x?mb=0",
            "cache:file:/x?mb=big",
            "cache:file:/x?wb=maybe",
            "cache:file:/x?mb=8&mb=9",
            "cache:file:/x?wb=on&wb=off",
            "cache:file:/x?interval_ms=1&interval_ms=2",
            "cache:file:/x?bogus=1",
            "cache:cache:file:/x",
            "cache:nfs:/x",
        ] {
            let err = text.parse::<DeviceSpec>().unwrap_err();
            assert!(
                matches!(err, DeviceError::Spec(_)),
                "`{text}` should fail as a spec error, got {err:?}"
            );
        }
    }

    /// 2⁴⁴ MiB is 2⁶⁴ bytes: it used to wrap to a budget of 0 (one
    /// frame), and 2⁴⁴ + 8 MiB to 8 MiB.
    #[test]
    fn cache_budgets_that_overflow_u64_are_refused() {
        for mb in [1u64 << 44, (1 << 44) + 8] {
            let err = format!("cache:file:/x?mb={mb}")
                .parse::<DeviceSpec>()
                .unwrap_err();
            assert!(
                matches!(&err, DeviceError::Spec(m) if m.contains(&format!("mb={mb} overflows"))),
                "mb={mb}: {err:?}"
            );
        }
        let max = (1u64 << 44) - 1;
        assert!(format!("cache:file:/x?mb={max}")
            .parse::<DeviceSpec>()
            .is_ok());
        assert_eq!(
            cache_budget_bytes(max as usize),
            Some(u64::MAX - (1 << 20) + 1)
        );
    }
}
