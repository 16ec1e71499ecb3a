#!/usr/bin/env bash
# Tier-1 gate: everything must pass before merging.
#
# Hermetic by construction — the workspace has no external registry
# dependencies, so this works offline. See README.md "Hermetic builds".
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# The benchmark (perf/, a workspace of its own) builds against the
# simulator's public API; its tests catch a change that breaks it and
# drive `run --smoke`, which checks committed state and output digests.
cargo test -q --offline --manifest-path perf/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Perf lints are advisory (warn, not deny): surface regressions in the
# simulator kernel's hot loops without blocking unrelated changes.
cargo clippy --workspace --all-targets -- -W clippy::perf
cargo fmt --check
# Public docs build warning-free, so an intra-doc link to a renamed or
# deleted item fails here instead of dangling.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
# Runtime invariant checker + differential oracle + fault injection.
cargo run --release -q -p pl-verify -- --smoke
# Attack-suite smoke: every gadget x scheme point of the leakage sweep
# runs end to end and writes a parseable leakage report.
cargo run --release -q -p pl-attack -- --smoke --out /dev/null
# Serve smoke: boot the job server on an ephemeral port, submit the same
# job twice, and require the repeat to be a cache hit whose result JSON
# is byte-identical to the run that populated the cache.
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SERVE_DIR"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
./target/release/plsim serve --addr 127.0.0.1:0 \
  --port-file "$SERVE_DIR/port.txt" --cache-dir "$SERVE_DIR/cache" --threads 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SERVE_DIR/port.txt" ] && break; sleep 0.1; done
SERVE_ADDR=$(cat "$SERVE_DIR/port.txt")
./target/release/plsim submit --server "$SERVE_ADDR" --workload stream \
  --scheme fence --pin ep --scale test >"$SERVE_DIR/run1.json" 2>"$SERVE_DIR/meta1.txt"
./target/release/plsim submit --server "$SERVE_ADDR" --workload stream \
  --scheme fence --pin ep --scale test >"$SERVE_DIR/run2.json" 2>"$SERVE_DIR/meta2.txt"
grep -q 'cached=false' "$SERVE_DIR/meta1.txt"
grep -q 'cached=true' "$SERVE_DIR/meta2.txt"
cmp "$SERVE_DIR/run1.json" "$SERVE_DIR/run2.json"
./target/release/plsim shutdown --server "$SERVE_ADDR" 2>/dev/null
wait "$SERVE_PID"
unset SERVE_PID
# Invariant-heavy sweeps once more at release speed with debug
# assertions live (the `checked` profile), so internal debug_assert!s
# in the pipeline/protocol run against the full scheme matrix. The
# ff_equivalence spin_parking filter re-proves the spin-parking twins
# bit-identical with every debug_assert! in the park/replay path armed.
# The golden table runs there too, so the debug oracles (STT's taint
# closure among them) see its 4-core lock_counter and spin_relay jobs.
cargo test -q --profile checked --test protocol_invariants --test verify_checker --test determinism
cargo test -q --profile checked --test ff_equivalence spin_parking
# The attack suite under debug assertions: non-vacuity, mitigation
# direction, and sweep determinism with the transient-shadow and
# observer paths' debug_assert!s armed.
cargo test -q --profile checked -p pl-attack --test leakage
echo "tier-1: OK"
