#!/usr/bin/env bash
# Source-level lint: a check that no two headers under src/ define the same
# namespace-scope class or struct, then clang-tidy over the static-analysis
# and security subsystems (or a caller-given path list) using the compile
# database exported by CMake, plus a clang -fsyntax-only -Wthread-safety pass
# over the files that carry util/thread_safety.hpp annotations.
#
# Usage: scripts/lint.sh [path-prefix ...]   (default: src/analysis src/security)
#
# The duplicate-type check is plain shell and awk and always runs. The LLVM
# passes exit 0 with a notice when the tooling is not installed, so CI images
# without it degrade gracefully instead of failing the pipeline.

set -euo pipefail
cd "$(dirname "$0")/.."

# Two definitions of one class in one namespace break the one-definition
# rule as soon as a binary links both: the linker keeps one copy of each
# inline member and template instance, whichever it sees first. List every
# namespace-scope class/struct definition in src/ headers (brace depth
# tracks the enclosing namespaces; forward declarations and template
# specializations are skipped) and fail on a qualified name defined twice.
definitions="$(find src -name '*.hpp' | sort | xargs awk '
  FNR == 1 { depth = 0; top = 0 }
  {
    line = $0
    sub(/\/\/.*/, "", line)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    if (match(line, /^[ \t]*namespace[ \t]+[A-Za-z_][A-Za-z0-9_:]*[ \t]*\{/)) {
      name = substr(line, RSTART, RLENGTH)
      sub(/^[ \t]*namespace[ \t]+/, "", name)
      sub(/[ \t]*\{$/, "", name)
      ns[++top] = name
      at[top] = depth
    } else if (match(line, /^[ \t]*namespace[ \t]*\{/)) {
      ns[++top] = "(anonymous)"
      at[top] = depth
    } else if (depth == (top ? at[top] + 1 : 0) &&
               match(line, /^[ \t]*(template[ \t]*<.*>[ \t]*)?(class|struct)[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*($|final|:[^:]|\{)/)) {
      type = substr(line, RSTART, RLENGTH)
      sub(/^[ \t]*(template[ \t]*<.*>[ \t]*)?(class|struct)[ \t]+/, "", type)
      sub(/[^A-Za-z0-9_].*$/, "", type)
      qualified = ""
      for (i = 1; i <= top; ++i) qualified = qualified ns[i] "::"
      print qualified type " " FILENAME ":" FNR
    }
    depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
    while (top > 0 && depth <= at[top]) --top
  }')"
duplicates="$(cut -d' ' -f1 <<< "$definitions" | sort | uniq -d)"
if [[ -n "$duplicates" ]]; then
  echo "lint: a class or struct is defined twice in one namespace:" >&2
  while IFS= read -r type; do
    grep "^$type " <<< "$definitions" | sed 's/^/  /' >&2
  done <<< "$duplicates"
  exit 1
fi
echo "lint: $(wc -l <<< "$definitions") namespace-scope class/struct definitions, no duplicates"

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
