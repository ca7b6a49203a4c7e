#!/usr/bin/env bash
# The one command.
#
#   benchmark/run.sh              build, then every end-to-end metric of every
#                                 workload, then every per-layer metric (the
#                                 traced layers run); non-zero exit if any
#                                 output failed verification
#   benchmark/run.sh <args...>    build, then `stair-benchmark <args...>` —
#                                 what BENCHMARK.json's command resolves to:
#                                 --workload W --seed N --seconds S --trace 0|1
#
# Builds offline from the checkout it sits in; honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/stair-benchmark"
if [ "$#" -gt 0 ]; then
    exec "$bin" "$@"
fi
"$bin" suite --trace 0
"$bin" suite --trace 1
