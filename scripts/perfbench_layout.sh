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

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <perfbench binary>" >&2
  exit 2
fi

addr="$(nm -C "$1" | awk '/reference_loop_avx2/ && !found { print $1; found = 1 }')"
if [[ -z "$addr" ]]; then
  echo "$1: no reference_loop_avx2 symbol" >&2
  exit 1
fi
printf 'reference_loop_avx2 at 0x%x, offset %d mod 64\n' "0x$addr" "$((16#$addr % 64))"
