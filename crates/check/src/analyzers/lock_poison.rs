//! L1 `lock-poison`: the PR 3 soundness rule. A poisoned mutex only
//! means *some other thread panicked mid-hold*; the data's integrity
//! story is the checksum layer, not the poison flag. So a poisonable
//! guard must never be consumed with `unwrap`/`expect` — that converts
//! one thread's panic into a cascading denial of service. The approved
//! idiom is `unwrap_or_else(|e| e.into_inner())` (or
//! `unwrap_or_else(PoisonError::into_inner)`).

use crate::findings::{Finding, Lint};
use crate::workspace::{SourceFile, Workspace};

/// Appends one finding per lock site that panics on poison.
pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        // Test code may panic on poison freely — a poisoned lock in a
        // test IS a failure, and the double panic points at it.
        if f.is_test_like() {
            continue;
        }
        scan_file(f, out);
    }
}

/// `true` when code tokens at `ci` open `.lock()` / `.read()` /
/// `.write()` — an *empty-argument* call, which is what distinguishes
/// a poisonable guard acquisition from `io::Read::read(&mut buf)`.
fn is_guard_acquisition(f: &SourceFile, ci: usize) -> bool {
    let tf = &f.tf;
    tf.is_punct(ci, ".")
        && (tf.is_ident(ci + 1, "lock")
            || tf.is_ident(ci + 1, "read")
            || tf.is_ident(ci + 1, "write"))
        && tf.is_punct(ci + 2, "(")
        && tf.is_punct(ci + 3, ")")
}

fn scan_file(f: &SourceFile, out: &mut Vec<Finding>) {
    let tf = &f.tf;
    let n = tf.code.len();
    for ci in 0..n {
        if !is_guard_acquisition(f, ci) {
            continue;
        }
        let site = tf.ctok(ci + 1);
        if f.in_test_span(site.start) {
            continue;
        }
        // What consumes the Result<Guard, PoisonError>?
        if !tf.is_punct(ci + 4, ".") {
            continue; // `let r = m.lock();` — consumption is elsewhere
        }
        let method = ci + 5;
        let bad = (tf.is_ident(method, "unwrap") || tf.is_ident(method, "expect"))
            && tf.is_punct(method + 1, "(");
        let lazy_without_into_inner = tf.is_ident(method, "unwrap_or_else")
            && tf.is_punct(method + 1, "(")
            && !closure_mentions_into_inner(f, method + 1);
        if !(bad || lazy_without_into_inner) {
            continue;
        }
        let key = Lint::LockPoison.waiver_key().unwrap_or("lock-ok");
        let consume = tf.ctok(method);
        if f.waived(key, site.line) || f.waived(key, consume.line) {
            continue;
        }
        let what = tf.ctext(ci + 1).to_string();
        let how = tf.ctext(method).to_string();
        out.push(Finding::new(
            Lint::LockPoison,
            &f.rel,
            consume.line,
            consume.col,
            format!(
                "`.{what}()` guard consumed with `{how}`; poison is detection metadata, not a \
                 correctness gate — use `unwrap_or_else(|e| e.into_inner())` or waive with \
                 `// check: lock-ok <reason>`"
            ),
        ));
    }
}

/// `true` when the call opening at code token `open_ci` (a `(`)
/// contains an `into_inner` identifier before its matching close.
fn closure_mentions_into_inner(f: &SourceFile, open_ci: usize) -> bool {
    let tf = &f.tf;
    let mut depth = 0usize;
    let mut ci = open_ci;
    while ci < tf.code.len() {
        match tf.ctext(ci) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "into_inner" => return true,
            _ => {}
        }
        ci += 1;
    }
    false
}
