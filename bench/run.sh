#!/usr/bin/env bash
# The benchmark's one command. Builds this package — and, through its
# path dependencies, the system under test — then runs it.
#
#   bench/run.sh [--seed N] [--only W] [--quick] [--out DIR]
#       every workload, untraced then traced; prints every metric and
#       writes <out>/<git-sha>.json (default out: bench/out)
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the driver's result object
#   bench/run.sh --compare A.json[,A2.json...] B.json[,B2.json...]
#       hold B against A under the bounds
#
# Exits non-zero on a build failure, a failed run or incorrect outputs.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# Everything the build leaves behind stays under one directory; a driver
# may point CARGO_TARGET_DIR elsewhere inside its checkout.
mkdir -p "${CARGO_TARGET_DIR:-$here/target}/tmp"
CARGO_TARGET_DIR=$(cd "${CARGO_TARGET_DIR:-$here/target}" && pwd)
export CARGO_TARGET_DIR TMPDIR="$CARGO_TARGET_DIR/tmp"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/hs1-wallbench" --home "$here" "$@"
