//! A minimal JSON value builder for machine-readable reports.
//!
//! The workspace has no registry access, so instead of serde this tiny
//! module covers the one direction the tooling needs: building a value
//! and rendering it as spec-compliant JSON text (string escaping,
//! `null` for non-finite floats). Shared by every `stair dev … --json`
//! report and `chaos_kill9`'s `--json` report.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact; JSON has no integer/float distinction).
    Int(i64),
    /// A float; NaN and infinities render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an integer value (saturating past `i64::MAX`, far beyond
    /// any count this workspace produces).
    pub fn int(v: usize) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Builds an integer value from a `u64`.
    pub fn int64(v: u64) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Renders with a trailing newline — the shape every `--json` flag
    /// in this workspace emits.
    pub fn to_text(&self) -> String {
        format!("{self}\n")
    }
}

/// Renders a metrics snapshot as the one JSON shape every surface
/// shares (`stair dev metrics` on every backend): counters,
/// gauges, histograms, and slow ops as **arrays of uniform objects**,
/// so the key shape is identical across backends even though the
/// metric *name* sets differ.
pub fn metrics_json(snap: &stair_obs::MetricsSnapshot) -> Json {
    Json::obj([
        (
            "counters",
            Json::arr(snap.counters.iter().map(|(name, v)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("value", Json::int64(*v)),
                ])
            })),
        ),
        (
            "gauges",
            Json::arr(snap.gauges.iter().map(|(name, v)| {
                Json::obj([("name", Json::str(name.clone())), ("value", Json::Int(*v))])
            })),
        ),
        (
            "histograms",
            Json::arr(snap.histograms.iter().map(|(name, h)| {
                Json::obj([
                    ("name", Json::str(name.clone())),
                    ("count", Json::int64(h.count())),
                    ("sum_us", Json::int64(h.sum)),
                    ("mean_us", Json::Num(h.mean())),
                    ("p50_us", Json::int64(h.p50())),
                    ("p99_us", Json::int64(h.p99())),
                    ("max_us", Json::int64(h.max)),
                ])
            })),
        ),
        (
            "slow_ops",
            Json::arr(snap.slow_ops.iter().map(|ev| {
                Json::obj([
                    ("t_us", Json::int64(ev.t_us)),
                    ("kind", Json::str(ev.kind.clone())),
                    ("shard", Json::int(ev.shard as usize)),
                    ("bytes", Json::int64(ev.bytes)),
                    ("duration_us", Json::int64(ev.duration_us)),
                    ("ok", Json::Bool(ev.ok)),
                ])
            })),
        ),
    ])
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact single-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape(s, f),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let v = Json::obj([
            ("name", Json::str("net_throughput")),
            ("ok", Json::Bool(true)),
            ("count", Json::int(42)),
            ("rate", Json::Num(12.5)),
            ("nan", Json::Num(f64::NAN)),
            ("tags", Json::arr([Json::str("a"), Json::str("b")])),
            ("nested", Json::obj([("x", Json::Null)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"net_throughput","ok":true,"count":42,"rate":12.5,"nan":null,"tags":["a","b"],"nested":{"x":null}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn saturates_huge_ints() {
        assert_eq!(Json::int64(u64::MAX).to_string(), i64::MAX.to_string());
    }
}
