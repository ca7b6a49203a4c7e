//! Shared flag parsing for every `stair` command — one parser per flag
//! type, so error text and accepted syntax cannot drift between
//! commands.

use std::collections::HashMap;

/// Parsed command-line flags: `--key value` pairs; valueless flags map
/// to the empty string (so presence tests like `--json` work).
pub type Flags = HashMap<String, String>;

/// Parses `[--key value | --flag]...` against `usage`: a key that is
/// not one of the `--words` in `usage`, a key given twice, or a bare
/// word where a `--key` belongs is an error naming it. A `--key`
/// followed by another `--key` (or by nothing) is a valueless flag.
pub fn parse(args: &[String], usage: &str) -> Result<Flags, String> {
    let accepted: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|w| w.strip_prefix("--"))
        .collect();
    let mut it = args.iter().peekable();
    let mut flags = HashMap::new();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`\nusage: {usage}"))?;
        if !accepted.contains(&key) {
            return Err(format!("unknown flag `{arg}`\nusage: {usage}"));
        }
        let value = it
            .next_if(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_default();
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("flag `{arg}` given twice"));
        }
    }
    Ok(flags)
}

/// A mandatory, non-empty flag.
pub fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .filter(|v| !v.is_empty())
        .ok_or_else(|| format!("--{key} is required"))
}

/// An integer flag with a default.
pub fn num_flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects an integer, got `{v}`")),
    }
}
