#!/usr/bin/env bash
# Source-level lint: clang-tidy over the static-analysis and security
# subsystems (or a caller-given path list) using the compile database
# exported by CMake, plus a clang -fsyntax-only -Wthread-safety pass over
# the files that carry util/thread_safety.hpp annotations.
#
# Usage: scripts/lint.sh [path-prefix ...]   (default: src/analysis src/security)
#
# Exits 0 with a notice when the LLVM tooling is not installed, so CI images
# without it degrade gracefully instead of failing the pipeline.

set -euo pipefail
cd "$(dirname "$0")/.."

# compile_commands.json is exported unconditionally (CMAKE_EXPORT_COMPILE_COMMANDS
# in the top-level CMakeLists); (re)configure if the database is missing.
if [[ ! -f build/compile_commands.json ]]; then
  cmake -B build -S . > /dev/null
fi

prefixes=("${@:-src/analysis src/security}")
# Allow a single space-separated default to expand into multiple prefixes.
read -r -a prefixes <<< "${prefixes[*]}"

files=()
for prefix in "${prefixes[@]}"; do
  while IFS= read -r f; do
    files+=("$f")
  done < <(find "$prefix" -name '*.cpp' | sort)
done

if [[ ${#files[@]} -eq 0 ]]; then
  echo "lint: no .cpp files under: ${prefixes[*]}" >&2
  exit 2
fi

if command -v clang-tidy > /dev/null 2>&1; then
  echo "lint: clang-tidy over ${#files[@]} file(s): ${prefixes[*]}"
  clang-tidy -p build --quiet "${files[@]}"
else
  echo "lint: clang-tidy not found on PATH; skipping clang-tidy pass" >&2
fi

# Thread Safety Analysis: prove the lock annotations (thread_safety.hpp) on
# the classes that declare them. Any clang++ on PATH can run this pass —
# it needs no compile database beyond include paths.
if command -v clang++ > /dev/null 2>&1; then
  ts_files=(src/util/thread_pool.cpp src/safety/model_store.cpp)
  echo "lint: clang -Wthread-safety over ${#ts_files[@]} annotated file(s)"
  clang++ -std=c++20 -fsyntax-only -Isrc -Wthread-safety -Werror=thread-safety \
    "${ts_files[@]}"
else
  echo "lint: clang++ not found on PATH; skipping thread-safety analysis" >&2
fi

echo "lint OK"
