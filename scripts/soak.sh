#!/usr/bin/env bash
# The four deterministic soaks (serve, fleet, integrity, ota) through the one
# driver, build/bench/soak. Full mode writes the checked-in records:
# BENCH_serve.json (serve then fleet records), BENCH_integrity.json and
# BENCH_ota.json. --quick runs the short sweeps and writes the same three
# files under build/soak-quick/ instead, so quick runs never touch tracked
# files. --check runs the full sweeps into build/soak-full/ and fails unless
# each file is byte-identical to its checked-in record. Exit status is
# non-zero when any soak violates an invariant or its determinism rerun
# diverges.
#
# Usage: scripts/soak.sh [--quick | --check]

set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "") QUICK=""; OUT="." ;;
  --quick) QUICK="--quick"; OUT="build/soak-quick" ;;
  --check) QUICK=""; OUT="build/soak-full" ;;
  *) echo "usage: $0 [--quick | --check]" >&2; exit 2 ;;
esac

cmake -B build -S . > /dev/null
cmake --build build -j"$(nproc)" --target soak > /dev/null
mkdir -p "${OUT}"

# ${QUICK} stays unquoted so that an empty value passes no argument.
{ build/bench/soak serve ${QUICK}; build/bench/soak fleet ${QUICK}; } > "${OUT}/BENCH_serve.json"
build/bench/soak integrity ${QUICK} > "${OUT}/BENCH_integrity.json"
build/bench/soak ota ${QUICK} > "${OUT}/BENCH_ota.json"
echo "soak records written to ${OUT}/BENCH_{serve,integrity,ota}.json" >&2

if [ "${1:-}" = "--check" ]; then
  for record in BENCH_serve.json BENCH_integrity.json BENCH_ota.json; do
    cmp "${OUT}/${record}" "${record}" || {
      echo "${record} no longer reproduces (regenerate with scripts/soak.sh)" >&2
      exit 1
    }
  done
  echo "soak records reproduce byte for byte" >&2
fi
