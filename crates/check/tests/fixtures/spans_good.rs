// Fixture: near-miss negatives for span-discipline. Every recording
// site goes through a declared constant; string literals appear only
// in non-sink calls.
use crate::trace::{names, root_span, span};

pub fn traced_op() {
    let _a = span(names::LIVE_SPAN);
    let _b = root_span(names::OTHER_SPAN);
    // A literal in a non-sink call is not a span name.
    log("fix.live");
}

fn log(_msg: &str) {}
