#!/usr/bin/env sh
# CI entry point, lane-selectable so contributors can run one gate
# locally without the full multi-tree build:
#
#   ./ci.sh tier1   — verify build (-Werror) + full ctest
#   ./ci.sh bench   — Release bench smoke + BENCH_*.json schema/trajectory
#   ./ci.sh servebench — serving benchmark: its tests + a 2 s run per workload
#   ./ci.sh tsan    — ThreadSanitizer over the concurrency suites
#   ./ci.sh asan    — ASan+UBSan (non-recoverable) over the full ctest suite
#   ./ci.sh faults  — fault-injection chaos suite, Debug then TSan
#   ./ci.sh tidy    — clang-tidy gate over src/ (skips if not installed)
#   ./ci.sh all     — every lane above, in that order (the default)
#
# Mirrors .github/workflows/ci.yml, whose jobs call these same lanes.
# See README "Correctness tooling" for what each lane enforces.
set -eu

run_tier1() {
  set -x
  cmake -B build -S . -DWQE_WERROR=ON
  cmake --build build -j "$(nproc)"
  (cd build && ctest --output-on-failure -j)
  set +x
}

# The paper reproductions: every table, figure and ablation bench.
PAPER_BENCHES="table2_groundtruth_precision table3_component_stats
  table4_cycle_precision fig5_contribution fig6_cycle_counts
  fig7a_category_ratio fig7b_extra_edge_density
  fig9_density_vs_contribution fig_misc_scalars ablation_expansion_systems
  ablation_cycle_filters ablation_article_frequency"

# Bench smoke: Release tree (the perf numbers people quote), smallest
# cycle-enumeration configs (CSR and legacy), the smallest
# cycle-scoring config (whose setup hard-asserts the ball-local scorer
# equals the oracle on every cycle), the ball-pruning
# bench (whose setup hard-asserts pruned == unpruned cycle sets and a
# >= 1.3x best speedup), and the snapshot-load bench (whose setup
# hard-asserts bit-identical graphs across all startup paths and a
# >= 10x mmap-vs-rebuild speedup), hard-failing on crash or malformed
# JSON so the perf benches and their machine-readable output can't
# silently rot.  Then every PAPER_BENCHES binary at 12 domains / 8
# topics: each builds the whole experiment and aborts on any internal
# inconsistency, so it must exit 0 and print its table.
#
# Set WQE_WRITE_BASELINE=1 to install this run's BENCH_*.json files into
# bench/baselines/ instead of gating against them — only do this on a
# quiet multi-core host (see bench/baselines/README.md), then commit.
run_bench() {
  set -x
  cmake -B build-bench -S . -DWQE_WERROR=ON -DCMAKE_BUILD_TYPE=Release \
    -DWQE_BUILD_TESTS=OFF -DWQE_BUILD_EXAMPLES=OFF
  cmake --build build-bench -j "$(nproc)"
  cd build-bench
  ./wqe_bench_perf_cycle_enumeration \
    --benchmark_filter='BM_CycleEnumerationBall(Legacy)?/3/100$|BM_CycleScoring(Oracle)?/100$' \
    --benchmark_min_time=0.05
  ./wqe_bench_perf_ball_pruning
  ./wqe_bench_perf_snapshot_load
  python3 - <<'EOF'
import json
with open('BENCH_perf_cycle_enumeration.json') as f:
    data = json.load(f)
assert data['bench'] == 'perf_cycle_enumeration', data
results = data['results']
assert results, 'bench emitted no results'
for r in results:
    assert set(r) == {'name', 'metric', 'value', 'config'}, r
    assert isinstance(r['value'], (int, float)), r
assert any(r['metric'] == 'speedup_vs_legacy' for r in results), \
    'missing CSR-vs-legacy speedup record'
assert any(r['metric'] == 'speedup_vs_oracle' for r in results), \
    'missing scorer-vs-oracle speedup record'
print(f'bench smoke OK: {len(results)} records')
EOF
  for bench in $PAPER_BENCHES; do
    if ! out=$(WQE_BENCH_DOMAINS=12 WQE_BENCH_TOPICS=8 "./wqe_bench_$bench"); then
      echo "ci.sh bench: wqe_bench_$bench failed" >&2
      exit 1
    fi
    if [ -z "$out" ]; then
      echo "ci.sh bench: wqe_bench_$bench printed nothing" >&2
      exit 1
    fi
    echo "paper bench $bench OK"
  done
  # Bench trajectory: the comparator always self-checks (a file must never
  # regress against itself), and gates against a committed baseline when
  # one is present (use `WQE_WRITE_BASELINE=1 ./ci.sh bench` — or
  # `bench_compare.py --write-baseline` directly — to capture one).
  if [ "${WQE_WRITE_BASELINE:-0}" = "1" ]; then
    python3 ../bench/bench_compare.py --write-baseline ../bench/baselines \
      BENCH_perf_cycle_enumeration.json BENCH_perf_ball_pruning.json \
      BENCH_perf_snapshot_load.json
  else
    for bench_json in BENCH_perf_cycle_enumeration.json \
                      BENCH_perf_ball_pruning.json \
                      BENCH_perf_snapshot_load.json; do
      python3 ../bench/bench_compare.py "$bench_json" "$bench_json"
      if [ -f "../bench/baselines/$bench_json" ]; then
        python3 ../bench/bench_compare.py \
          "../bench/baselines/$bench_json" "$bench_json"
      fi
    done
  fi
  cd ..
  set +x
}

# Serving-benchmark smoke: builds servebench/ (a CMake package of its own
# that compiles the library from this checkout) in Release, in the tree
# servebench/run.py uses, runs the benchmark's own tests, then runs every
# workload for 2 s at seed 1 and fails unless its result line reports a
# correct run with no failed operation.  The timings are not gated here.
run_servebench() {
  set -x
  cmake -S servebench -B .bench_build/servebench -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build/servebench -j "$(nproc)"
  (cd .bench_build/servebench && ctest --output-on-failure)
  python3 - <<'EOF'
import json
import subprocess
import sys

for workload in ('cold_miss', 'hot_hits', 'republish'):
    out = subprocess.run(
        [sys.executable, 'servebench/run.py', '--workload', workload,
         '--seed', '1', '--seconds', '2', '--trace', '0'],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result['correct'] is True and result['failed'] == 0, \
        (workload, result)
    print(f"servebench {workload} OK: {result['attempted']} attempted, "
          "0 failed")
EOF
  set +x
}

# ThreadSanitizer pass over the concurrency subsystem (tests only; the
# benches and examples don't add coverage and double the build).  Debug
# so NDEBUG is off and the WQE_DCHECK contracts (registry freeze, nested
# fan-out) are live — the main build's RelWithDebInfo compiles them out.
# analysis_test for AnalyzeAll's topic fan-out, the one fan-out below the
# request level (RunParallel's cursor, per-topic result slots, and the
# nested call from a pool worker that must degrade to sequential);
# cycles_test for the cancel requested from another thread mid-DFS;
# ball_prune_test because the pruning kernel records into the shared
# global metrics registry; obs_test for the lock-free metrics instruments
# (multi-writer histogram stress) and trace propagation across pool
# tasks; snapshot_test for hot republish under live traffic (epoch swap +
# cache generation churn); ir_test for one engine's frozen index searched
# from four threads at once, which must rank bit-identically to
# sequential searches.
# (The asan lane below runs the full ctest suite, so both already cover
# obs_test there.)
run_tsan() {
  set -x
  cmake -B build-tsan -S . -DWQE_TSAN=ON -DWQE_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DWQE_BUILD_BENCHES=OFF -DWQE_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$(nproc)"
  (cd build-tsan && ctest --output-on-failure -R 'serve_test|api_test|analysis_test|cycles_test|obs_test|ball_prune_test|chaos_test|snapshot_test|ir_test')
  set +x
}

# Fault-injection chaos lane: the seeded fault schedules in chaos_test
# drive randomized failures, delays, deadlines and cancellation through
# the serving stack, asserting no deadlock, fail-atomic batches, and
# bit-identical survivors.  Runs in Debug (WQE_DCHECK contracts live)
# and then again under ThreadSanitizer — injected delays shift thread
# interleavings, which is precisely when races surface.
run_faults() {
  set -x
  cmake -B build-faults -S . -DWQE_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DWQE_BUILD_BENCHES=OFF -DWQE_BUILD_EXAMPLES=OFF
  cmake --build build-faults -j "$(nproc)" --target wqe_chaos_test
  (cd build-faults && ctest --output-on-failure -R 'chaos_test')
  cmake -B build-tsan -S . -DWQE_TSAN=ON -DWQE_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DWQE_BUILD_BENCHES=OFF -DWQE_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j "$(nproc)" --target wqe_chaos_test
  (cd build-tsan && ctest --output-on-failure -R 'chaos_test')
  set +x
}

# AddressSanitizer + UBSan over the *full* ctest suite.  Debug keeps the
# WQE_DCHECK validators (CsrGraph::CheckInvariants at freeze time, the
# cache shard invariants in serve_test) live, so memory errors and
# structural corruption are both fatal here.
run_asan() {
  set -x
  cmake -B build-asan -S . -DWQE_ASAN=ON -DWQE_WERROR=ON \
    -DCMAKE_BUILD_TYPE=Debug \
    -DWQE_BUILD_BENCHES=OFF -DWQE_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure -j)
  set +x
}

# clang-tidy gate over the library sources, warnings as errors, using the
# committed .clang-tidy (bugprone/concurrency/performance + the
# readability subset the codebase follows).  Skips — loudly, not
# silently — when clang-tidy isn't installed; the ci.yml job installs it,
# so the gate always runs upstream.
run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "ci.sh tidy: clang-tidy not installed; lane SKIPPED locally" \
         "(the clang-tidy job in .github/workflows/ci.yml still gates merges)"
    return 0
  fi
  set -x
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DWQE_BUILD_TESTS=OFF -DWQE_BUILD_BENCHES=OFF -DWQE_BUILD_EXAMPLES=OFF
  find src -name '*.cc' -print | sort | \
    xargs clang-tidy -p build-tidy --warnings-as-errors='*' --quiet
  set +x
}

lane="${1:-all}"
case "$lane" in
  tier1) run_tier1 ;;
  bench) run_bench ;;
  servebench) run_servebench ;;
  tsan)  run_tsan ;;
  asan)  run_asan ;;
  faults) run_faults ;;
  tidy)  run_tidy ;;
  all)
    run_tier1
    run_bench
    run_servebench
    run_tsan
    run_asan
    run_faults
    run_tidy
    ;;
  *)
    echo "usage: $0 [tier1|bench|servebench|tsan|asan|faults|tidy|all]" >&2
    exit 2
    ;;
esac
echo "ci.sh: lane '$lane' OK"
