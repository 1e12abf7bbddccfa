#!/usr/bin/env bash
# Tier-1 verification: full build + complete test suite from a clean tree,
# the kernel suites again in a Release tree (build-release/, the level
# perfbench compiles at), short seeded runs of the four soaks, then the full
# sweeps checked byte for byte against the checked-in records (all under
# build/, so no tracked file changes), a one-second smoke run of each
# perfbench workload (built under build/perfbench), then an
# AddressSanitizer+UBSan build of the resilience-critical tests (including
# the runtime tests, which exercise activation-arena aliasing), then a
# ThreadSanitizer build of the parallel execution-engine tests and the
# traced sessions that run over its pool.
#
# Usage: scripts/tier1.sh [-jN]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:--j$(nproc)}"

echo "== tier-1: build (warnings-as-errors) + full ctest =="
cmake -B build -S . -DVEDLIOT_WERROR=ON > /dev/null
cmake --build build "${JOBS}" > /dev/null
ctest --test-dir build --output-on-failure "${JOBS}"

echo
echo "== tier-1: kernel, CRC-32 and package suites with SIMD force-disabled (portable dispatch) =="
# The kill switch also pins util::crc32 to its table loop, so test_util and
# test_package check that loop at the lengths the PCLMULQDQ fold takes.
VEDLIOT_FORCE_PORTABLE=1 ctest --test-dir build --output-on-failure "${JOBS}" \
  -R 'test_microkernel|test_runtime|test_qruntime|test_util|test_package'

echo
echo "== tier-1: kernel suites in a Release build, at the resolved level and portable =="
# The default build is RelWithDebInfo (-O2), where GCC leaves the depthwise
# row sweep and the f32 row epilogues scalar; Release (-O3), as perfbench
# builds them, vectorizes them. The PinnedOutputs constants check that code.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DVEDLIOT_WERROR=ON > /dev/null
cmake --build build-release "${JOBS}" --target test_runtime test_qruntime test_microkernel > /dev/null
ctest --test-dir build-release --output-on-failure "${JOBS}" \
  -R 'test_microkernel|test_runtime|test_qruntime'
VEDLIOT_FORCE_PORTABLE=1 ctest --test-dir build-release --output-on-failure "${JOBS}" \
  -R 'test_microkernel|test_runtime|test_qruntime'

echo
echo "== tier-1: bench baseline carries the roofline fields =="
for field in achieved_gflops fraction_of_roofline hardware_concurrency gemm_nodes depthwise_nodes; do
  grep -q "\"$field\"" BENCH_runtime.json || {
    echo "BENCH_runtime.json is missing \"$field\" (regenerate with scripts/bench_runtime.sh)" >&2
    exit 1
  }
done

echo
echo "== tier-1: static analysis (vedliot-lint) =="
build/src/apps/vedliot-lint --selftest
build/src/apps/vedliot-lint --zoo resnet50 --save build/resnet50.vmdl > /dev/null
build/src/apps/vedliot-lint --model build/resnet50.vmdl
scripts/lint.sh

echo
echo "== tier-1: wasm bytecode verifier (vedliot-lint --wasm) =="
build/src/apps/vedliot-lint --wasm --selftest
# The bundled example/bench modules: add is fully accepted; kv and spin are
# runnable (exit 0) but carry expected warnings (loops, unproven indexing).
build/src/apps/vedliot-lint --wasm --wmod add > /dev/null
build/src/apps/vedliot-lint --wasm --wmod kv > /dev/null
build/src/apps/vedliot-lint --wasm --wmod spin > /dev/null

echo
echo "== tier-1: serve, fleet, integrity and OTA soaks (seeded, short; records under build/) =="
scripts/soak.sh --quick
for field in '"converged":true' '"no_torn_install":true'; do
  grep -q "$field" build/soak-quick/BENCH_ota.json || {
    echo "the quick OTA soak records are missing $field" >&2
    exit 1
  }
done

echo
echo "== tier-1: the checked-in soak records reproduce (full sweeps under build/soak-full/) =="
scripts/soak.sh --check

echo
echo "== tier-1: perfbench smoke (Release build and records under build/perfbench) =="
# One short seeded run per benchmark workload: a runtime API change that
# breaks the benchmark, or a workload that stops passing its own output
# checks, fails here instead of in the benchmark pipeline.
for workload in resnet50_int8 mobilenetv3_f32 fleet_exec fleet_overload; do
  log="build/perfbench-smoke-$workload.log"
  result="$(CARGO_TARGET_DIR=build python3 perfbench/run.py --workload "$workload" \
            --seed 1 --seconds 1 2> "$log" | tail -n 1)" || {
    tail -n 20 "$log" >&2
    exit 1
  }
  case "$result" in
    *'"correct": true,'*'"failed": 0,'*) echo "perfbench $workload: correct, 0 failed" ;;
    *) echo "perfbench $workload: $result" >&2; exit 1 ;;
  esac
done
# Its speed reference's placement, to compare with another build's before
# comparing benchmark numbers (ROADMAP.md, item 9).
scripts/perfbench_layout.sh build/perfbench/perfbench

echo
echo "== tier-1: ASan+UBSan on the resilience/platform/observability/runtime/analysis/serve/safety tests =="
cmake -B build-asan -S . -DVEDLIOT_SANITIZE=ON > /dev/null
cmake --build build-asan "${JOBS}" --target test_resilience test_platform test_distributed test_util test_obs test_runtime test_qruntime test_microkernel test_analysis test_wasm_verifier test_serve test_fleet test_safety test_package test_rollout > /dev/null
ctest --test-dir build-asan --output-on-failure "${JOBS}" \
  -R 'test_resilience|test_platform|test_distributed|test_util|test_obs|test_runtime|test_qruntime|test_microkernel|test_analysis|test_wasm_verifier|test_serve|test_fleet|test_safety|test_package|test_rollout'

echo
echo "== tier-1: TSan on the parallel execution-engine, traced-session + serve tests =="
cmake -B build-tsan -S . -DVEDLIOT_TSAN=ON > /dev/null
cmake --build build-tsan "${JOBS}" --target test_util test_runtime test_qruntime test_microkernel test_obs test_serve test_fleet > /dev/null
ctest --test-dir build-tsan --output-on-failure "${JOBS}" \
  -R 'test_util|test_runtime|test_qruntime|test_microkernel|test_obs|test_serve|test_fleet'

echo
echo "tier-1 OK"
