#!/usr/bin/env bash
# CI-style verification: lint, build, test, then smoke-run the repro
# driver in parallel with JSON output and a traced run, checking that
# every artifact exists and parses. `cargo test --workspace` runs every
# doctest as well, so there is no separate `--doc` pass.
set -euo pipefail
cd "$(dirname "$0")/.."

out=/tmp/repro-ci

cargo fmt --all -- --check

# Boundary gate: the GUESS core reads no extension config. Reputation,
# payments, push maintenance and the walk/ping rules each live in their
# own module; the non-test code of engine.rs and engine/query_exec.rs
# (up to each file's first #[cfg(test)]) names none of their fields.
for f in crates/guess/src/engine.rs crates/guess/src/engine/query_exec.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" | grep -E \
        'distrust_pongs|probe_payments|adaptive_ping|adaptive_parallelism|selfish_fraction|selfish_parallelism|maintenance_mode|protocol\.push'; then
        echo "boundary gate: the GUESS core reads extension config (lines above)" >&2
        exit 1
    fi
done

# Boundary gate: the forwarding engines keep only their search
# mechanism. Churn, query bursts, scenario hooks and the run itself are
# workload::population::ForwardingSim's, so the non-test code of
# crates/gnutella/src and crates/gossip/src (up to each file's first
# #[cfg(test)]) starts no clock, rebirths or joins no peer, draws no
# burst and builds no kernel.
for f in $(find crates/gnutella/src crates/gossip/src -name '*.rs' | sort); do
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" | grep -E \
        'Clocks::start|clocks\.start\(|\.rebirth\(|\.join\([^")]*rng|sample_burst_(size|gap)|KernelParams::new'; then
        echo "boundary gate: a forwarding engine runs the peer lifecycle itself (lines above)" >&2
        exit 1
    fi
done

# Boundary gate: GUESS takes its peers' content and clocks from
# workload::population. The non-test code of the GUESS engine (up to
# each file's first #[cfg(test)]) builds no library, draws no file count
# or lifetime, and holds none of the models behind them.
for f in crates/guess/src/engine.rs crates/guess/src/engine/*.rs; do
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" | grep -E \
        'build_library_in|sample_file_count|LibraryArena|FileCountModel|QueryModel|ChurnDriver|sample_lifetime'; then
        echo "boundary gate: the GUESS engine builds peer content or clocks itself (lines above)" >&2
        exit 1
    fi
done

cargo clippy --all-targets -- -D warnings
# Intra-doc links stay resolvable, in the private modules' docs that
# DESIGN.md points at too, and public docs link no private item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --document-private-items
cargo build --release --workspace
# Under `timeout`, like the traced runs at the end: a run that never
# advances its clock fails verify instead of blocking it.
timeout 1800 cargo test -q --workspace

# Determinism gates (gossip included) and the quick-scale golden guard:
# every experiment's quick report must stay byte-identical to the
# committed manifest (tests/golden/quick.fnv1a.txt).
cargo test -q --release -p guess-bench --test determinism
cargo test -q --release -p guess-bench --test quick_goldens -- --ignored
# Gossip rumor state on optimised code: peak heap per peer stays flat
# from 2 000 to 16 000 peers, and untraced runs equal traced ones. The
# queue heap gate bounds peak heap per peer of a queries-off GUESS run
# past two ring wraps of the event queue; the cache heap gate bounds it
# for link-cache blocks that grow with their entries.
cargo test -q --release -p guess-bench --test gossip_heap --test queue_heap --test cache_heap --test trace

# Event-queue scale oracle: ~200k pending on GUESS's timer shape, every
# pop checked against a BinaryHeap.
timeout 600 cargo test -q --release -p simkit --test properties -- --ignored

# Policy-kernel scale oracle: per policy, 100 000 random caches of 1-600
# entries; every ranked pick and eviction contest, and the RNG draw after
# it, checked against the per-entry reference forms.
timeout 600 cargo test -q --release -p guess --lib -- --ignored policy_kernels

# Scenario gates: an empty timeline is byte-identical to a plain run on
# every engine, the seven-entry catalog (push-storm included) matches
# its own committed manifest (tests/golden/scenarios.fnv1a.txt), and a
# catalog entry renders identically across --jobs levels.
cargo test -q --release -p guess-bench --test scenario_noop
cargo test -q --release -p guess-bench --test scenario_goldens -- --ignored

# Scenario CLI smoke: two catalog entries end to end through the repro
# driver, with the text artifacts present and the JSON parsing. The
# driver runs scenarios side by side at --jobs > 1, so the text
# artifacts must also be byte-identical at --jobs 1 and 4.
rm -rf "$out/scenarios" "$out/scenarios-j4"
cargo run --release -p guess-bench --bin repro -- \
    scenario param-flip join-wave --quick --jobs 1 --json --out "$out/scenarios"
cargo run --release -p guess-bench --bin repro -- \
    scenario param-flip join-wave --quick --jobs 4 --out "$out/scenarios-j4"
for name in param-flip join-wave; do
    [ -s "$out/scenarios/$name.txt" ] || { echo "missing $out/scenarios/$name.txt" >&2; exit 1; }
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/scenarios/$name.json"
    diff "$out/scenarios/$name.txt" "$out/scenarios-j4/$name.txt"
done
echo "scenario gate: param-flip and join-wave byte-identical at --jobs 1 and 4"

# Maintenance-plane gate: the CUP-style experiment's quick golden is
# pinned in quick.fnv1a.txt with the rest of the registry; here, the
# report must additionally be byte-identical across --jobs levels, which
# (with the manifest) pins that the default pull mode leaves every other
# report's RNG streams untouched.
rm -rf "$out/maint-j1" "$out/maint-j4"
cargo run --release -p guess-bench --bin repro -- \
    maintenance --quick --jobs 1 --out "$out/maint-j1"
cargo run --release -p guess-bench --bin repro -- \
    maintenance --quick --jobs 4 --out "$out/maint-j4"
diff "$out/maint-j1/maintenance.txt" "$out/maint-j4/maintenance.txt"
echo "maintenance gate: quick report byte-identical at --jobs 1 and 4"

# Parallel-kernel gate (GUESS is the only engine with a lane mode). The
# lanes=1 serial-identity property runs in the plain workspace suite
# above; here the quick-scale contract gets its release run: with
# lanes > 1 the report must be byte-identical at 1 and 4 worker threads
# (output is a pure function of (seed, lanes), never of the worker
# count). This gate and the benchmark's run threads, so each is under
# `timeout`: a hang fails verify instead of blocking it.
timeout 900 cargo test -q --release -p guess-bench --test thread_identity -- --ignored

# The repo benchmark (benchmark/, declared by BENCHMARK.json) still
# builds against the crates, passes its self-tests, and completes every
# workload, layer driver and output check at smoke scale.
timeout 900 cargo test -q --offline --manifest-path benchmark/Cargo.toml
timeout 900 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 --quick --jobs 2 --json --out "$out"

for name in table3 fig9; do
    for ext in txt json; do
        [ -s "$out/$name.$ext" ] || { echo "missing $out/$name.$ext" >&2; exit 1; }
    done
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/$name.json"
done

# Shard-determinism gate: splitting a grid across --shard invocations
# and taking the union of the output files must be byte-identical to
# the unsharded run (seed-addressed determinism makes merging trivial).
rm -rf "$out/shard-all" "$out/shard-0" "$out/shard-1" "$out/shard-merged"
cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 forwarding3 --quick --jobs 2 --json --out "$out/shard-all"
cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 forwarding3 --quick --jobs 2 --json --shard 0/2 --out "$out/shard-0"
cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 forwarding3 --quick --jobs 2 --json --shard 1/2 --out "$out/shard-1"
mkdir -p "$out/shard-merged"
cp "$out/shard-0"/* "$out/shard-1"/* "$out/shard-merged/"
diff -r "$out/shard-all" "$out/shard-merged"
echo "shard gate: 0/2 + 1/2 merge is byte-identical to the unsharded grid"

# Traced runs: the binary itself reconciles each trace against the run
# report (exits non-zero on mismatch); then check every line is JSON.
timeout 900 cargo run --release -p guess-bench --bin repro -- --trace "$out/trace.jsonl" --quick
timeout 900 cargo run --release -p guess-bench --bin repro -- \
    --trace "$out/gossip-trace.jsonl" --engine gossip --quick
timeout 900 cargo run --release -p guess-bench --bin repro -- \
    --trace "$out/gnutella-trace.jsonl" --engine gnutella --quick
for trace in trace gossip-trace gnutella-trace; do
    python3 - "$out/$trace.jsonl" <<'EOF'
import json, sys
n = 0
with open(sys.argv[1]) as f:
    for line in f:
        json.loads(line)
        n += 1
assert n > 0, "empty trace"
print(f"{sys.argv[1]}: {n} well-formed JSONL records")
EOF
done
echo "verify: OK"
