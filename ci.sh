#!/usr/bin/env bash
# Local CI gate: format check, build, test (incl. doctests), docs with
# warnings denied, and clippy when the component is installed. Mirrors
# what changes are held to — run it before sending a PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> mddbench self-tests (every SimResult field pinned to mddbench/pins/sim.txt)"
cargo test --release --offline --manifest-path mddbench/Cargo.toml

echo "==> benchmark freeze (mddbench/ and BENCHMARK.json unchanged)"
# A workspace dependency edit can make cargo quietly rewrite the frozen
# mddbench/Cargo.lock during the build above; fail here if anything did.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --quiet -- mddbench/ BENCHMARK.json || {
        echo "benchmark freeze: mddbench/ or BENCHMARK.json changed:"
        git diff --stat -- mddbench/ BENCHMARK.json; exit 1; }
else
    echo "    not a git checkout; skipping"
fi

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo test --workspace --doc (doctests as a named gate)"
cargo test --workspace --doc -q

echo "==> engine cache smoke (re-run must be served from cache)"
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
engine_sweep() {
    cargo run -q -p mdd-bench --release --bin mddsim -- \
        --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
        --sweep 0.05:0.15:3 --warmup 100 --measure 300 \
        --cache-dir "$CACHE_DIR"
}
first=$(engine_sweep)
echo "$first" | grep -q "3 points: 3 simulated" || {
    echo "engine smoke: cold run did not simulate 3 points:"; echo "$first"; exit 1; }
second=$(engine_sweep)
echo "$second" | grep -q "3 points: 0 simulated, 3 cached" || {
    echo "engine smoke: warm run was not fully cache-served:"; echo "$second"; exit 1; }

echo "==> --jobs equivalence (reports bit-identical across worker counts)"
jobs_sweep() { # n
    cargo run -q -p mdd-bench --release --bin mddsim -- \
        --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
        --sweep 0.05:0.15:3 --warmup 100 --measure 300 \
        --no-cache --jobs "$1" 2>/dev/null
}
jobs1=$(jobs_sweep 1)
jobs4=$(jobs_sweep 4)
[ "$jobs1" = "$jobs4" ] || {
    echo "jobs equivalence: --jobs 1 and --jobs 4 disagree:"
    diff <(echo "$jobs1") <(echo "$jobs4") || true; exit 1; }
# --jobs 0 must be rejected at the flag, not deep in the pool.
set +e
cargo run -q -p mdd-bench --release --bin mddsim -- \
    --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
    --sweep 0.05:0.15:3 --warmup 100 --measure 300 --jobs 0 >/dev/null 2>&1
jobs0_status=$?
set -e
[ "$jobs0_status" -eq 2 ] || {
    echo "jobs equivalence: --jobs 0 should exit 2, got $jobs0_status"; exit 1; }

echo "==> unknown and repeated flags are usage errors (exit 2, naming the flag)"
# A flag no binary declares must stop the run, not fall back to a
# default: --shards and the --topo alias of --radix are gone, and --laod
# is a misspelt --load.
for bad in "--shards 2" "--laod 0.9" "--topo 4x4"; do
    set +e
    # shellcheck disable=SC2086
    bad_err=$(./target/release/mddsim --radix 4x4 --warmup 100 --measure 300 $bad 2>&1 >/dev/null)
    bad_status=$?
    set -e
    [ "$bad_status" -eq 2 ] || {
        echo "unknown flags: mddsim $bad should exit 2, got $bad_status"; exit 1; }
    echo "$bad_err" | grep -q -- "unknown flag ${bad%% *}" || {
        echo "unknown flags: mddsim $bad should name the flag, said:"; echo "$bad_err"; exit 1; }
done
# A repeated option is refused the same way, not resolved to one of its
# values: --verify must not check the 4x4 torus and ignore the second
# --radix.
set +e
bad_err=$(./target/release/mddsim --verify --radix 4x4 --warmup 100 --radix 70000x70000 2>&1 >/dev/null)
bad_status=$?
set -e
[ "$bad_status" -eq 2 ] || {
    echo "repeated flags: mddsim --radix twice should exit 2, got $bad_status"; exit 1; }
echo "$bad_err" | grep -q -- "--radix given more than once" || {
    echo "repeated flags: mddsim --radix twice should name the flag, said:"; echo "$bad_err"; exit 1; }
# The client reads the same run flags, so it rejects --topo the same way
# (before it ever reaches for a daemon).
set +e
bad_err=$(./target/release/mddsim-client submit --sweep 0.05:0.15:3 --topo 4x4 2>&1 >/dev/null)
bad_status=$?
set -e
[ "$bad_status" -eq 2 ] || {
    echo "unknown flags: mddsim-client --topo should exit 2, got $bad_status"; exit 1; }
echo "$bad_err" | grep -q -- "unknown flag --topo" || {
    echo "unknown flags: mddsim-client --topo should name the flag, said:"; echo "$bad_err"; exit 1; }

echo "==> malformed topology specs are usage errors (exit 2, naming the spec)"
# 70000x70000 overflows the 32-bit node ids: every binary that reads
# --radix must reject it at the flag, not panic building the torus.
for cmd in "mddsim --radix 70000x70000" "mddsim --verify --radix 70000x70000" \
    "mddsim-client submit --sweep 0.05:0.15:3 --radix 70000x70000" \
    "mdd-analyze --min-vc --radix 70000x70000"; do
    set +e
    # shellcheck disable=SC2086
    bad_err=$(./target/release/$cmd 2>&1 >/dev/null)
    bad_status=$?
    set -e
    [ "$bad_status" -eq 2 ] || {
        echo "malformed topology: $cmd should exit 2, got $bad_status"; exit 1; }
    echo "$bad_err" | grep -q -- "70000x70000" || {
        echo "malformed topology: $cmd should name the spec, said:"; echo "$bad_err"; exit 1; }
done

echo "==> pool scaling perf gate (2-3 cores: jobs=2 >= 1.3x jobs=1; 4+ cores: jobs=4 <= 0.5x; skips on 1 core)"
cargo test -q -p mdd-engine --release --test perf -- --ignored

echo "==> mddsimd sweep service smoke"
DAEMON_DIR=$(mktemp -d)
DAEMON_SOCK="$DAEMON_DIR/mddsimd.sock"
daemon_submit() {
    cargo run -q -p mdd-bench --release --bin mddsim-client -- \
        --socket "$DAEMON_SOCK" submit --sweep 0.05:0.30:6 \
        --scheme pr --pattern pat271 --vcs 4 --radix 4x4 \
        --warmup 100 --measure 300 2>/dev/null
}
cargo run -q -p mdd-bench --release --bin mddsimd -- \
    --socket "$DAEMON_SOCK" --cache-dir "$DAEMON_DIR/cache" --jobs 2 \
    2>"$DAEMON_DIR/daemon.log" &
DAEMON_PID=$!
trap 'rm -rf "$CACHE_DIR" "$DAEMON_DIR"; kill "$DAEMON_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do [ -S "$DAEMON_SOCK" ] && break; sleep 0.1; done
[ -S "$DAEMON_SOCK" ] || {
    echo "daemon smoke: socket never appeared"; cat "$DAEMON_DIR/daemon.log"; exit 1; }
# Two concurrent clients: both must stream all six points back.
daemon_submit >"$DAEMON_DIR/c1.out" &
C1=$!
daemon_submit >"$DAEMON_DIR/c2.out" &
C2=$!
wait "$C1" "$C2"
for out in c1 c2; do
    grep -q "^6 points:" "$DAEMON_DIR/$out.out" || {
        echo "daemon smoke: client $out did not finish its sweep:"
        cat "$DAEMON_DIR/$out.out"; exit 1; }
    [ "$(grep -c '^point ' "$DAEMON_DIR/$out.out")" -eq 6 ] || {
        echo "daemon smoke: client $out did not stream 6 points:"
        cat "$DAEMON_DIR/$out.out"; exit 1; }
done
# A third identical submission must be served entirely from the cache.
third=$(daemon_submit)
echo "$third" | grep -q "6 points: 0 simulated, 6 cached" || {
    echo "daemon smoke: repeat submit was not fully cache-served:"; echo "$third"; exit 1; }
cargo run -q -p mdd-bench --release --bin mddsim-client -- \
    --socket "$DAEMON_SOCK" shutdown >/dev/null
wait "$DAEMON_PID" || {
    echo "daemon smoke: daemon did not exit cleanly:"; cat "$DAEMON_DIR/daemon.log"; exit 1; }
[ ! -e "$DAEMON_SOCK" ] || {
    echo "daemon smoke: socket not removed on shutdown"; exit 1; }
trap 'rm -rf "$CACHE_DIR" "$DAEMON_DIR"' EXIT

echo "==> static verifier smoke (mddsim --verify)"
# The release binary is invoked directly (built above), so the stage
# times the verifier rather than cargo. Each verdict has a 1,000 ms
# budget; the 64x64 scaling smoke below reuses this check.
verify_one() { # radix scheme vcs expected_verdict
    local out t0 t1
    t0=$(date +%s%N)
    out=$(./target/release/mddsim \
        --verify --scheme "$2" --pattern pat271 --vcs "$3" --radix "$1") || true
    t1=$(date +%s%N)
    echo "$out" | grep -q "verdict: $4" || {
        echo "verify smoke: $1 $2 vcs=$3 expected $4, got:"; echo "$out"; exit 1; }
    local ms=$(( (t1 - t0) / 1000000 ))
    [ "$ms" -lt 1000 ] || {
        echo "verify smoke: $1 $2 verdict took ${ms}ms (budget 1000ms)"; exit 1; }
    echo "    $1 $2 vcs=$3: $4 in ${ms}ms"
}
verify_one 8x8 sa 8 ProvenFree
verify_one 8x8 dr 8 RecoverableCycles
verify_one 8x8 pr 4 RecoverableCycles
# One VC short of SA's budget must be rejected outright (exit status 3).
set +e
unsafe_out=$(./target/release/mddsim \
    --verify --scheme sa --pattern pat271 --vcs 7 --radix 8x8)
unsafe_status=$?
set -e
[ "$unsafe_status" -eq 3 ] || {
    echo "verify smoke: crippled SA should exit 3, got $unsafe_status"; exit 1; }
echo "$unsafe_out" | grep -q "verdict: Unsafe" || {
    echo "verify smoke: crippled SA should be Unsafe, got:"; echo "$unsafe_out"; exit 1; }

echo "==> golden verdicts (mdd-analyze --verdicts is bit-for-bit reproducible)"
GOLDEN_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR" "$DAEMON_DIR" "$GOLDEN_DIR"' EXIT
./target/release/mdd-analyze --verdicts --out "$GOLDEN_DIR" >/dev/null
diff -u results/verdicts.json "$GOLDEN_DIR/verdicts.json" || {
    echo "golden verdicts: results/verdicts.json drifted from the analyzer;"
    echo "rerun ./target/release/mdd-analyze --verdicts --out results and commit"
    exit 1; }

echo "==> golden fault frontier (mdd-analyze --frontier is bit-for-bit reproducible)"
# The committed command: every single-link fault plus 32 sampled
# double-link faults, SA/DR/PR on 8x8 and 16x16, through the engine pool.
# Two workers: the 10 s budget below was set for a two-worker pool. On a
# 2-core host the slowest sweep, 16x16 SA, takes 3.6-4.2 s with one
# worker and 1.7-2.6 s with two; 16x16 PR takes 2.9-3.1 s and 1.5-1.8 s.
frontier_out=$(./target/release/mdd-analyze --frontier --doubles 32 --jobs 2 --out "$GOLDEN_DIR")
echo "$frontier_out" | grep '^frontier: ' | sed "s/^/    [nproc $(nproc)] /"
diff -u results/fault_frontier.json "$GOLDEN_DIR/fault_frontier.json" || {
    echo "golden frontier: results/fault_frontier.json drifted from the analyzer;"
    echo "rerun ./target/release/mdd-analyze --frontier --doubles 32 --out results and commit"
    exit 1; }
# SA is the crippled-by-fault case: fault-free it is ProvenFree at 8 VCs,
# and at least one single-link fault must degrade that verdict.
echo "$frontier_out" | grep "^frontier: sa " | grep -Eq "[1-9][0-9]* degrading" || {
    echo "golden frontier: no verdict-degrading fault on an SA line"; exit 1; }
# Every scheme sweep (544 faults at 16x16) must stay interactive: <10s.
slow=$(echo "$frontier_out" | grep '^frontier: ' |
    sed -E 's/.*\(([0-9.]+)s\)$/\1/' | awk '$1 >= 10.0')
[ -z "$slow" ] || {
    echo "golden frontier: a scheme sweep blew the 10s budget: ${slow}s"; exit 1; }

echo "==> golden smoke figures (mdd-figures all --smoke is bit-for-bit reproducible at any --jobs)"
# --jobs 1 and the default worker count must both reproduce the committed
# results/smoke/ byte for byte.
./target/release/mdd-figures all --smoke --no-cache --jobs 1 \
    --out "$GOLDEN_DIR/jobs1" >/dev/null
./target/release/mdd-figures all --smoke --no-cache \
    --out "$GOLDEN_DIR/jobsN" >/dev/null
for run in jobs1 jobsN; do
    diff -ru results/smoke "$GOLDEN_DIR/$run/smoke" || {
        echo "golden smoke figures: results/smoke/ drifted from mdd-figures ($run);"
        echo "rerun ./target/release/mdd-figures all --smoke --no-cache --out results and commit"
        exit 1; }
done

echo "==> scaling smoke (orbit-quotiented verifier at 64x64, ladder sweep point)"
# The orbit quotient must classify a 4096-router torus interactively:
# three verdicts in <1s each, timed by the verifier smoke's check.
verify_one 64x64 sa 8 ProvenFree
verify_one 64x64 dr 8 RecoverableCycles
verify_one 64x64 pr 4 RecoverableCycles
# One short 64x64 simulation point through the --radix preset path.
scale_out=$(./target/release/mddsim \
    --scheme pr --pattern pat100 --vcs 4 --radix 64x64 \
    --load 0.005 --warmup 100 --measure 200 --no-cache)
echo "$scale_out" | grep -q "throughput" || {
    echo "scaling smoke: 64x64 sweep point produced no result:"
    echo "$scale_out"; exit 1; }

echo "==> mddbench perf floors (ladder8, big64 and sparse64 work_per_s, host-calibrated)"
# The repository benchmark's times are scaled to a reference host speed,
# so one floor per workload serves every host: 0.75x the recorded median
# in EXPERIMENTS.md, i.e. the 0.25 regression bound BENCHMARK.json fixes
# for this metric. Every simulated result is checked against
# mddbench/pins/ as well; mdd-benchcmp reads the summary line and fails
# on an incorrect run or a rate under the floor.
bench_floor() { # workload floor
    local out
    out=$(cargo run --release --offline --quiet --manifest-path mddbench/Cargo.toml -- \
        --workload "$1" --seconds 10 --trace 0)
    echo -n "    $1: "
    echo "$out" | ./target/release/mdd-benchcmp floor - work_per_s "$2" || {
        echo "mddbench floor: $1 failed its floor or its pins:"; echo "$out"; exit 1; }
}
# ladder8: the figure-sweep shape, 9 SA/DR/PR points on 8x8 (~90k median).
bench_floor ladder8 68000
# big64: the busy 64x64 rung, where the fused router pass carries the cost
# (2,087 median since the compact router state).
bench_floor big64 1565
# sparse64: the 64x64 size-ladder rung, where the wake sets and traffic
# carry the cost (137.6k median since the compact router state).
bench_floor sparse64 103200

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets"
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> ci.sh: all green"
