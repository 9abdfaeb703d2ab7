#!/usr/bin/env bash
# CI check for the SDDS workspace: formatting, lints, tier-1 build + tests
# (with the raised property-case count), compile checks for benches and
# examples, and the bench-regression gate against BENCH_baseline.json.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> sdds-lint (concurrency + panic hygiene + taint + hot-path escapes)"
# The taint pass statically proves no plaintext or key type reaches the DSP
# or the obs export surface (see ARCHITECTURE.md, "Trust boundary"); the
# hot-path pass proves the per-event serving path allocation-free, with
# every remaining allocation carrying a justified `// alloc:` annotation
# (ARCHITECTURE.md, "Hot path"). The machine-readable findings land next to
# the human report so CI logs and tooling see the same thing.
mkdir -p target
if ! cargo run -q -p sdds-lint -- --json target/sdds-lint.json; then
    echo "sdds-lint findings (also at target/sdds-lint.json):" >&2
    cat target/sdds-lint.json >&2
    exit 1
fi

echo "==> cargo test -q (SDDS_PROP_CASES=256)"
SDDS_PROP_CASES=256 cargo test -q

echo "==> model check (--cfg sdds_check, SDDS_CHECK_BRANCHES=${SDDS_CHECK_BRANCHES:-60000})"
# The instrumented build swaps sdds-sync onto the sdds-check shims, so the
# invariant models explore real service interleavings. A separate target dir
# keeps the differently-flagged artifacts from thrashing the main cache.
CARGO_TARGET_DIR=target/check RUSTFLAGS="--cfg sdds_check" \
    SDDS_CHECK_BRANCHES="${SDDS_CHECK_BRANCHES:-60000}" \
    cargo test -q -p sdds-check

echo "==> concurrent-read property test (SDDS_PROP_CASES=512)"
# The readers-vs-republisher race deserves a deeper soak than the default
# suite gives it: 512 completed reads under continuous republishing.
SDDS_PROP_CASES=512 cargo test -q --test concurrent_reads

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --no-run

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> obs snapshot (harness --obs --obs-only: E10/E11 telemetry report)"
# The telemetry pass re-runs the E10 hot-document and E11 actor workloads
# with observability wired in and dumps the merged ObsSnapshot + flight
# recorder. The report must be valid JSON and carry one family from each
# instrumented layer (serve, the actor executor the scheduler runs on,
# session) plus the flight recorder, and every serve-count family: the
# registered per-shard cells are the only store of the DSP's serve counts.
obs_report="$(mktemp -t sdds-obs-XXXXXX.json)"
trap 'rm -f "$obs_report"' EXIT
target/release/harness --obs "$obs_report" --obs-only
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$obs_report"
fi
for family in dsp.serve.requests dsp.serve.bytes dsp.serve.chunks \
    dsp.serve.rule_blobs dsp.serve.rule_bytes dsp.serve.latency_ns \
    actors.dispatches session.apdu_round_trips sdds-obs-flight-v1; do
    grep -qF "$family" "$obs_report" ||
        { echo "obs report is missing \`$family\`" >&2; exit 1; }
done

echo "==> scripts/bench_gate.sh"
# Gates the E1/E9 hardware-measured keys plus the simulated-clock E10/E11
# keys (aggregate events/s, scaling and replication ratios, actor-vs-thread
# speedup). On foreign hardware, SDDS_BENCH_GATE=ram narrows the gate to the
# machine-independent set — peak RAM and every E10/E11 key.
scripts/bench_gate.sh

echo "CI checks passed."
