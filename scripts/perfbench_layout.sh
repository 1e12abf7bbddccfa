#!/usr/bin/env bash
# Where the linker put perfbench's speed-reference loop: the address of
# reference_loop_avx2 and its offset mod 64, read from the symbol table.
#
# perfbench rescales every end-to-end time by that loop's best time, and the
# loop runs at a different speed at a different offset within its 64-byte
# line, so library code linked ahead of it can shift every rescaled metric
# (ROADMAP.md, item 9). Compare the offset of two builds before comparing
# their benchmark numbers.
#
# Usage: scripts/perfbench_layout.sh <perfbench binary>
#        scripts/perfbench_layout.sh <parent binary> <change binary>
#
# With two binaries it prints both lines and exits 1 when the two loops sit
# at different offsets mod 64.

set -euo pipefail

if [[ $# -ne 1 && $# -ne 2 ]]; then
  echo "usage: $0 <perfbench binary> [<change binary>]" >&2
  exit 2
fi

offsets=()
for binary in "$@"; do
  addr="$(nm -C "$binary" | awk '/reference_loop_avx2/ && !found { print $1; found = 1 }')"
  if [[ -z "$addr" ]]; then
    echo "$binary: no reference_loop_avx2 symbol" >&2
    exit 1
  fi
  offset=$((16#$addr % 64))
  offsets+=("$offset")
  prefix=""
  [[ $# -eq 2 ]] && prefix="$binary: "
  printf '%sreference_loop_avx2 at 0x%x, offset %d mod 64\n' "$prefix" "0x$addr" "$offset"
done

if [[ $# -eq 2 && "${offsets[0]}" != "${offsets[1]}" ]]; then
  echo "the two reference loops sit at different offsets mod 64:" \
       "${offsets[0]} vs ${offsets[1]}" >&2
  exit 1
fi
