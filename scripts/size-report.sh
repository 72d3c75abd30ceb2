#!/bin/sh
# The tracked size numbers ROADMAP aim 2 wants to go *down*, per crate
# and in total: lines of Rust under src/, `pub` items, workspace crates
# and the dependency edges between them, bench harnesses, distinct
# HS1_* env knobs (names the code reads with
# `env::var` / `env::var_os`), items in `trait Protocol` (what a protocol
# policy may differ in), and "by history, not by paper" markers under
# crates/ (behaviour kept apart per protocol for no reason the paper
# gives). Per crate it also prints `unsafe` blocks under src/ (every crate
# root forbids or denies `unsafe_code`; these are the allowed ones), it
# counts the places library code spawns a thread, and the places outside
# hs1-statesync that drive a state-sync client (`SyncClient::new(`; the
# node shell is the one driver both runtimes step). CI enforces six
# bounds on this output: 0 by-history markers, at most 1 bench harness,
# at most 1 HS1_* knob, at most 1 thread-spawn site in library code (the
# HTTP introspection responder), 0 sync drivers outside hs1-statesync,
# and a ceiling on `pub` items (the `pub items:` line; every crate root
# warns on `unreachable_pub`, so a new item starts narrow); the rest is
# informational. That includes one HotStuff-1 engine's live heap after
# 10,000 views, as `crates/hs1-core/tests/memory_budget.rs` measures it
# (its `engine 0:` line), and beside it what a view's steps allocate
# across four engines, as `crates/hs1-core/tests/step_allocations.rs`
# counts it (the first entry of the count vector ROADMAP item 29 asks
# for). Last, it runs the tier-1 tests (`cargo test`, debug
# profile) and prints each test binary's wall time, slowest first: a
# report of what each binary costs on this host, never a gate (a failing
# test does not fail the report).
set -eu
cd "$(dirname "$0")/.."
PUB='^\s*pub \(fn\|struct\|enum\|trait\|mod\|const\|type\)'
count() { find "$@" -name '*.rs' -exec cat {} + 2>/dev/null | wc -l | tr -d ' '; }
pubs() { find "$@" -name '*.rs' -exec cat {} + 2>/dev/null | grep -c "$PUB" || true; }
unsafes() { find "$@" -name '*.rs' -exec cat {} + 2>/dev/null | grep -o 'unsafe {' | wc -l | tr -d ' '; }
printf '%-16s %8s %6s %6s\n' crate lines pub unsafe
for dir in crates/* .; do
    [ -d "$dir/src" ] || continue
    name=$(basename "$(cd "$dir" && pwd)")
    printf '%-16s %8s %6s %6s\n' "$name" "$(count "$dir/src")" "$(pubs "$dir/src")" "$(unsafes "$dir/src")"
done
printf '%-16s %8s %6s %6s\n' total "$(count crates/*/src src)" "$(pubs crates/*/src src)" "$(unsafes crates/*/src src)"
echo "pub items: $(pubs crates/*/src src)"
echo "workspace Rust lines (src, tests, benches, examples): $(count crates src tests examples)"
echo "workspace crates: $(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -c '"crates/')"
# Edges between workspace crates: path entries under [dependencies].
edges=$(awk 'FNR == 1 { t = 0 } /^\[/ { t = ($0 == "[dependencies]") } t && /path = "\.\.\// { n++ }
    END { print n + 0 }' crates/*/Cargo.toml)
echo "crate dependency edges: $edges"
echo "bench harnesses: $(grep -c '^\[\[bench\]\]' crates/hs1-sim/Cargo.toml)"
knobs=$(grep -rhoE 'var(_os)?\("HS1_[A-Z_]+"' crates src tests examples --include='*.rs' |
    grep -oE 'HS1_[A-Z_]+' | sort -u)
echo "HS1_* env knobs: $(echo "$knobs" | wc -l | tr -d ' ') ($(echo $knobs))"
items=$(awk '/trait Protocol/ { t = 1 } t && /^}/ { exit } t && /^    (type|const|fn) / { n++ } END { print n + 0 }' \
    crates/hs1-core/src/driver.rs)
echo "trait Protocol items: $items"
# Comments wrap, so count over the text with line breaks and comment
# markers squeezed out.
markers=$(find crates -name '*.rs' -exec cat {} + | tr -s '\n/! ' ' ' |
    grep -o 'by history, not by paper' | wc -l | tr -d ' ')
echo "by-history markers: $markers"
# Library code only: bins are skipped, and so is everything from a
# file's unindented `#[cfg(test)]` line on.
spawns=$(find crates/*/src -name '*.rs' ! -path '*/src/bin/*' -exec awk '
    FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t && /(\.|thread::)spawn\(/ { print }
' {} + | wc -l | tr -d ' ')
echo "thread-spawn sites in library code: $spawns"
drivers=$(find crates/*/src src -name '*.rs' ! -path 'crates/hs1-statesync/*' -exec cat {} + |
    grep -o 'SyncClient::new(' | wc -l | tr -d ' ')
echo "sync drivers outside hs1-statesync: $drivers"
heap=$(cargo test -q -p hs1-core --test memory_budget -- --nocapture 2>&1 |
    sed -n 's/^engine 0: //p')
echo "engine live heap (memory_budget, engine 0): ${heap:-not measured}"
steps=$(cargo test -q -p hs1-core --test step_allocations -- --nocapture 2>&1 |
    sed -n "s/^a view's steps across four engines: //p")
echo "engine step allocations (step_allocations, a view across four engines): ${steps:-not measured}"
# Each binary's "Running <source> (<path>-<hash>)" or "Doc-tests <crate>"
# line, then its "test result: ... finished in <t>s" line.
tests=$(cargo test --no-fail-fast 2>&1) || true
echo "test binary wall times (s, this host; tests in the binary):"
echo "$tests" | awk '
    /^ +Running / { src = ($2 == "unittests") ? $3 : $2; bin = $NF
                    sub(/\)$/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
                    name = bin " " src }
    /^ +Doc-tests / { name = $2 " doctests" }
    /^test result:/ { t = $NF; sub(/s$/, "", t); printf "%8.2f %5d  %s\n", t, $4, name }
' | sort -rn
