//! Process accounting read from `/proc/self` (Linux only, like the
//! store's `fdatasync` path this benchmark exists to measure).

use std::fs;
use std::path::Path;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` has been 100 on every Linux ABI for
/// decades; reading it properly needs `sysconf`, i.e. a libc binding
/// this dependency-free package does not have.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are
    // counted from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ")" comes field 3 (state); utime is field 14, stime 15.
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(14) + tick(15)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// `wchar` (bytes passed to write-like syscalls) and `syscw` (their
/// count) from `/proc/self/io`; zeros where the file is unreadable.
pub fn write_io() -> (u64, u64) {
    let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("wchar:"), field("syscw:"))
}

/// Size in bytes of the last-level cache of cpu0, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| {
            fs::read_to_string(dir.join(f))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        if read("type").as_deref() == Some("Instruction") {
            continue;
        }
        let Ok(level) = level.parse::<u32>() else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|m| m << 20),
                None => size.parse::<u64>().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Sum of the lengths of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_is_readable_and_monotonic() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.05 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 0.5);
    }
}
