#!/usr/bin/env bash
# Full verification gate: configure, build and run the test suite from a
# FRESH build directory. Incremental builds have bitten us before — after a
# header ABI change, stale object files link silently and fail at runtime
# (futex hangs, heap corruption) — so this script never reuses a build dir.
#
# Usage: scripts/verify.sh [extra cmake args...]
#   LLMDM_VERIFY_BUILD_DIR  override the build dir (still wiped first)
#   LLMDM_VERIFY_KEEP=1     keep the build dir afterwards (default: keep)
set -Eeuo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${LLMDM_VERIFY_BUILD_DIR:-${repo_root}/build-verify}"

# Every phase runs through stage(): a failure anywhere (including inside a
# pipeline, via pipefail, or a function, via errtrace) lands in the ERR trap
# below, which names the stage that died and the exit code it died with —
# instead of the bare `set -e` exit that leaves the reader scrolling for the
# first red line.
current_stage="startup"
stage() {
  current_stage="$1"
  echo "== ${current_stage} =="
}
trap 'code=$?; echo "VERIFY FAILED in stage: ${current_stage} (exit ${code})" >&2; exit "${code}"' ERR

stage "clean (${build_dir})"
rm -rf "${build_dir}"

generator=()
if command -v ninja >/dev/null 2>&1; then
  generator=(-G Ninja)
fi

stage "configure"
# Warnings fail the build of this tree and of each tree below.
cmake -B "${build_dir}" -S "${repo_root}" "${generator[@]}" \
  -DLLMDM_WERROR=ON "$@"

stage "build"
cmake --build "${build_dir}" -j "$(nproc)"

stage "test"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

stage "kernel parity + exact int8 search"
"${build_dir}/tests/llmdm_tests" \
  --gtest_filter='Kernels*:ExactInt8Search*:ProbeMemo*' >/dev/null
echo "ok: scalar/SIMD kernels bit-identical; int8 search equals the float32 sweep (ids, order, score bits); a probe-memo answer equals the search it replays"

stage "bench smoke (registry reconciliation)"
"${build_dir}/bench/bench_serve_overload" --benchmark-smoke \
  --metrics-out="${build_dir}/BENCH_serve_smoke.prom" >/dev/null
echo "ok: registry snapshot reconciles and is byte-stable"

stage "bench smoke (multi-tenant QoS isolation)"
"${build_dir}/bench/bench_serve_overload" --qos-smoke \
  --metrics-out="${build_dir}/BENCH_serve_qos_smoke.prom" >/dev/null
echo "ok: hot tenant contained; compliant SLOs hold and exports are byte-stable"

stage "bench smoke (continuous batching)"
"${build_dir}/bench/bench_serve_overload" --batch-smoke \
  --metrics-out="${build_dir}/BENCH_batch_smoke.prom" >/dev/null
echo "ok: batching saves spend without changing answers, byte-stable across workers"

# The determinism set: every seeded output the repo prints. That is every
# bench under bench/ of the main tree, so a new bench joins by default, but
# for three that time wall clock by design and bench_serve_overload, whose
# default run follows real completion order in its faults=30% row; of that
# bench only the three smoke cells run (stdout and .prom). The four
# in-process examples run too.
det_benches=()
for bin in "${build_dir}"/bench/*; do
  name="$(basename "${bin}")"
  case "${name}" in
    bench_ablation_vectordb | bench_perf_hotpath | bench_net_loadgen) ;;
    bench_serve_overload) ;;
    *) det_benches+=("${name}") ;;
  esac
done
det_cells=(benchmark-smoke qos-smoke batch-smoke)
det_examples=(quickstart datalake_explorer healthcare_etl nl2sql_assistant)

# Runs the determinism set of the build tree $1 inside the new directory $2.
# The metrics paths are relative, so the "wrote <path>" line each smoke cell
# prints is the same for every tree and directory.
run_determinism_set() {
  local tree
  tree="$(cd "$1" && pwd)"
  mkdir "$2"
  pushd "$2" >/dev/null
  for name in "${det_benches[@]}"; do
    "${tree}/bench/${name}" >"${name}.txt"
  done
  for cell in "${det_cells[@]}"; do
    "${tree}/bench/bench_serve_overload" "--${cell}" \
      --metrics-out="${cell}.prom" >"${cell}.txt"
  done
  for example in "${det_examples[@]}"; do
    "${tree}/examples/example_${example}" >"example_${example}.txt"
  done
  popd >/dev/null
}

# cmp's every output in directory $1 with its namesake in $2 and sets
# `compared` to their number.
compare_outputs() {
  compared=0
  for file in "$1"/*; do
    cmp "${file}" "$2/$(basename "${file}")"
    compared=$((compared + 1))
  done
}

stage "determinism (every bench, smoke cell and example, run twice)"
# Everything is seeded, so a run printed twice must match byte for byte.
det_dir="$(mktemp -d "${build_dir}/determinism.XXXXXX")"
run_determinism_set "${build_dir}" "${det_dir}/first"
run_determinism_set "${build_dir}" "${det_dir}/second"
compare_outputs "${det_dir}/first" "${det_dir}/second"
rm -rf "${det_dir}"
echo "ok: all ${compared} outputs byte-identical across two runs"

stage "net loopback smoke (wire protocol end to end)"
# Start the real server binary on an ephemeral-ish port, drive it with the
# loadgen over loopback, then SIGTERM it and require a clean graceful drain
# (exit 0). The loadgen's own exit status enforces every request is answered.
net_port=$((20000 + RANDOM % 20000))
# shed-policy=none: the loadgen requires every request answered, and its
# virtual-time burst would overwhelm any bounded queue by design.
"${build_dir}/tools/llmdm_server" --port="${net_port}" --shed-policy=none \
  --metrics-out="${build_dir}/llmdm_server_smoke.prom" &
net_server_pid=$!
for _ in $(seq 1 50); do
  if "${build_dir}/bench/bench_net_loadgen" --benchmark-smoke \
      --port="${net_port}" --out="${build_dir}/BENCH_net_verify.json" \
      >/dev/null 2>&1; then
    net_ok=1
    break
  fi
  net_ok=0
  sleep 0.1
done
[ "${net_ok}" = 1 ]
kill -TERM "${net_server_pid}"
wait "${net_server_pid}"
grep -q llmdm_net_requests_rx_total "${build_dir}/llmdm_server_smoke.prom"
echo "ok: llmdm_server answered a loopback load and drained cleanly on SIGTERM"

stage "durability crash sweep"
sweep_dir="$(mktemp -d "${build_dir}/crash-sweep.XXXXXX")"
"${build_dir}/tests/llmdm_durability_harness" --mode=sweep \
  --dir="${sweep_dir}" >/dev/null
rm -rf "${sweep_dir}"
echo "ok: recovery is a clean prefix at every truncation offset"

stage "scalar dispatch (the determinism set vs. the SIMD tree)"
# A second fresh tree with -DLLMDM_FORCE_SCALAR=ON, building only the
# benches and examples of the determinism set. Every dispatch level is
# bit-identical by the kernel contract (vectordb/kernels.h), so every output
# of the set must match the main tree's byte for byte, including those that
# score vectors through the kernels (Table III, A2, A3, A5, Fig. 5, the
# data-lake example). The extra cmake args are not forwarded.
scalar_dir="${build_dir}-scalar"
rm -rf "${scalar_dir}"
cmake -B "${scalar_dir}" -S "${repo_root}" "${generator[@]}" \
  -DLLMDM_FORCE_SCALAR=ON -DLLMDM_WERROR=ON >/dev/null
cmake --build "${scalar_dir}" -j "$(nproc)" --target "${det_benches[@]}" \
  bench_serve_overload "${det_examples[@]/#/example_}"
run_determinism_set "${build_dir}" "${scalar_dir}/out-simd"
run_determinism_set "${scalar_dir}" "${scalar_dir}/out-scalar"
compare_outputs "${scalar_dir}/out-simd" "${scalar_dir}/out-scalar"
echo "ok: scalar dispatch reproduces all ${compared} outputs byte for byte"

stage "thread sanitizer (concurrency + net suites)"
# A third fresh tree with -DLLMDM_TSAN=ON, building only the two suites
# that race real threads over the serve layer (including its golden pin)
# and the net event loop. The extra cmake args are not forwarded: TSan
# cannot be combined with -DLLMDM_SANITIZE=ON.
tsan_dir="${build_dir}-tsan"
rm -rf "${tsan_dir}"
cmake -B "${tsan_dir}" -S "${repo_root}" "${generator[@]}" -DLLMDM_TSAN=ON \
  -DLLMDM_WERROR=ON >/dev/null
cmake --build "${tsan_dir}" -j "$(nproc)" \
  --target llmdm_concurrency_tests llmdm_net_tests
TSAN_OPTIONS=halt_on_error=1 "${tsan_dir}/tests/llmdm_concurrency_tests" \
  --gtest_brief=1
# A coalesced follower attaches to its flight on the submitting thread
# while the leader's worker may be publishing; which side answers it is
# real thread timing. Whether a cache lookup finds its shard free, and so
# asks the shard's probe memo, is thread timing too. Repeat the tests that
# coalesce, and the cache soaks, to run both under many interleavings.
TSAN_OPTIONS=halt_on_error=1 "${tsan_dir}/tests/llmdm_concurrency_tests" \
  --gtest_brief=1 --gtest_repeat=20 \
  --gtest_filter='Serve.SingleFlight*:ServeQos.CoalescedFollower*:ServeBatching.*:ConcurrentSoak.*'
TSAN_OPTIONS=halt_on_error=1 "${tsan_dir}/tests/llmdm_net_tests" \
  --gtest_brief=1
# Serve workers write responses to sockets the loop thread also flushes,
# pauses and closes; repeat the loopback and concurrency tests to run that
# shared connection state under many interleavings.
TSAN_OPTIONS=halt_on_error=1 "${tsan_dir}/tests/llmdm_net_tests" \
  --gtest_brief=1 --gtest_repeat=20 \
  --gtest_filter='NetLoopback.*:NetConcurrency.*'
echo "ok: concurrency and net suites race-free under ThreadSanitizer"

stage "address + undefined-behaviour sanitizers (all suites)"
# A fourth fresh tree with -DLLMDM_SANITIZE=ON, building every test suite
# plus the durability crash harness (the ctest durability label runs the
# harness sweeps instrumented). As for TSan, the extra cmake args are not
# forwarded. UBSan reports fail the run only with halt_on_error set; there
# are no suppressions.
asan_dir="${build_dir}-asan"
rm -rf "${asan_dir}"
cmake -B "${asan_dir}" -S "${repo_root}" "${generator[@]}" -DLLMDM_SANITIZE=ON \
  -DLLMDM_WERROR=ON >/dev/null
cmake --build "${asan_dir}" -j "$(nproc)" \
  --target llmdm_tests llmdm_durability_tests llmdm_durability_harness \
  llmdm_robustness_tests llmdm_concurrency_tests llmdm_net_tests
export ASAN_OPTIONS=halt_on_error=1
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
ctest --test-dir "${asan_dir}" --output-on-failure -j "$(nproc)" -L durability
for suite in llmdm_tests llmdm_robustness_tests llmdm_concurrency_tests \
    llmdm_net_tests; do
  "${asan_dir}/tests/${suite}" --gtest_brief=1
done
unset ASAN_OPTIONS UBSAN_OPTIONS
echo "ok: every test suite clean under ASan + UBSan"

echo "VERIFY PASSED (${build_dir})"
