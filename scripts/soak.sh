#!/usr/bin/env bash
# The four deterministic soaks (serve, fleet, integrity, ota) through the one
# driver, build/bench/soak. Full mode writes the checked-in records:
# BENCH_serve.json (serve then fleet records), BENCH_integrity.json and
# BENCH_ota.json. --quick runs the short sweeps and writes the same three
# files under build/soak-quick/ instead, so quick runs never touch tracked
# files. --check runs the full sweeps into build/soak-full/ and fails unless
# each file is byte-identical to its checked-in record; for a file that
# differs it prints each differing record line with its record kind and the
# fields whose values moved (old -> new), and every line only one file has.
# Exit status is non-zero when any soak violates an invariant or its
# determinism rerun diverges.
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

# What moved between a checked-in record ($1) and its rerun ($2). Each file
# holds one line per scenario in a fixed order, so difflib aligns them and
# a changed block pairs its lines by position; a pair prints every field
# (nested ones by dotted path) whose value differs. The lines left over, and
# those of inserted or deleted blocks, print as only in one file.
explain() {
  python3 - "$1" "$2" <<'PY'
import difflib, json, sys

def fields(line):
    try:
        record = json.loads(line)
    except ValueError:
        return None
    flat = {}
    def walk(path, value):
        if isinstance(value, dict):
            for key, inner in value.items():
                walk(f"{path}.{key}" if path else key, inner)
        elif isinstance(value, list):
            for i, inner in enumerate(value):
                walk(f"{path}[{i}]", inner)
        else:
            flat[path] = value
    walk("", record)
    return flat

def kind(flat):
    return flat.get("record", "?") if flat is not None else "not JSON"

def show(flat, key):
    return json.dumps(flat[key]) if key in flat else "(absent)"

old_path, new_path = sys.argv[1:]
old_lines = open(old_path).read().splitlines()
new_lines = open(new_path).read().splitlines()
blocks = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False).get_opcodes()
for tag, i1, i2, j1, j2 in blocks:
    if tag == "equal":
        continue
    paired = min(i2 - i1, j2 - j1)
    for i, j in zip(range(i1, i2), range(j1, j2)):
        a, b = fields(old_lines[i]), fields(new_lines[j])
        print(f"  {old_path} line {i + 1} ({kind(a)}) vs {new_path} line {j + 1} ({kind(b)}):")
        if a is None or b is None:
            continue
        moved = [key for key in list(a) + [key for key in b if key not in a]
                 if (key in a) != (key in b) or a.get(key) != b.get(key)]
        for key in moved:
            print(f"    {key}: {show(a, key)} -> {show(b, key)}")
        if not moved:
            print("    same fields and values; only the bytes differ")
    for i in range(i1 + paired, i2):
        print(f"  only in {old_path} line {i + 1} ({kind(fields(old_lines[i]))})")
    for j in range(j1 + paired, j2):
        print(f"  only in {new_path} line {j + 1} ({kind(fields(new_lines[j]))})")
PY
}

if [ "${1:-}" = "--check" ]; then
  moved=0
  for record in BENCH_serve.json BENCH_integrity.json BENCH_ota.json; do
    cmp -s "${OUT}/${record}" "${record}" && continue
    echo "${record} no longer reproduces (regenerate with scripts/soak.sh):" >&2
    explain "${record}" "${OUT}/${record}" >&2
    moved=1
  done
  [ "${moved}" = 0 ] || exit 1
  echo "soak records reproduce byte for byte" >&2
fi
