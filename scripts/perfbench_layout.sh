#!/usr/bin/env bash
# Where the linker put perfbench's speed-reference loop and the hot runtime
# kernels: the address of each and its offset mod 64, read from the symbol
# table.
#
# perfbench rescales every end-to-end time by that loop's best time, and the
# loop runs at a different speed at a different offset within its 64-byte
# line, so library code linked ahead of it can shift every rescaled metric
# (ROADMAP.md, item 9). The kernels (the AVX2 GEMMs, both im2cols, the f32
# depthwise, both pools and the int8 elementwise kernel) may be
# placement-sensitive the same way. Compare two builds' offsets before
# comparing their benchmark numbers.
#
# Usage: scripts/perfbench_layout.sh <perfbench binary>
#        scripts/perfbench_layout.sh <parent binary> <change binary>
#
# With two binaries it prints both reference-loop lines, the loop's shift in
# bytes, and for each build the total size of the `[clone .cold]` functions
# linked ahead of the loop: GCC places every object's .text.unlikely, the
# libraries' included, before perfbench's own hot text, so resizing any throw
# path anywhere moves the loop. Then it prints each kernel side by side,
# marking a kernel whose offset mod 64 moved. It exits 1 when the two
# reference loops sit at different offsets mod 64; a kernel that moved does
# not change the exit status, since a kernel change moves its kernels by
# design.

set -euo pipefail

if [[ $# -ne 1 && $# -ne 2 ]]; then
  echo "usage: $0 <perfbench binary> [<change binary>]" >&2
  exit 2
fi

# Kernel label and the demangled-name prefix that identifies its symbol.
kernels=(
  "gemm_s8_avx2|gemm_s8_avx2("
  "gemm_f32_avx2|gemm_f32_avx2("
  "im2col<float>|im2col<float>("
  "im2col<signed char>|im2col<signed char>("
  "depthwise<F32Policy>|depthwise<vedliot::runtime_kernels::F32Policy>("
  "pool<F32Policy>|runtime_kernels::pool<vedliot::runtime_kernels::F32Policy>("
  "pool<S8Policy>|runtime_kernels::pool<vedliot::runtime_kernels::S8Policy>("
  "eltwise_s8|eltwise_s8("
)

# Address (hex, no 0x) of the first symbol whose demangled name contains $2.
symbol_address() {
  nm -C "$1" | awk -v pattern="$2" 'index($0, pattern) && !found { print $1; found = 1 }'
}

# Total bytes of the cold clones placed below address $2 (decimal).
cold_bytes_before() {
  nm -S -C -t d "$1" | awk -v limit="$2" '
    NF >= 4 && index($0, "[clone .cold]") && $1 + 0 < limit + 0 { total += $2 }
    END { print total + 0 }'
}

# "0x<address> (<offset> mod 64)", or "absent".
placement() {
  local addr
  addr="$(symbol_address "$1" "$2")"
  if [[ -z "$addr" ]]; then
    echo "absent"
  else
    printf '0x%x (%d mod 64)' "0x$addr" "$((16#$addr % 64))"
  fi
}

offsets=()
addresses=()
for binary in "$@"; do
  addr="$(symbol_address "$binary" reference_loop_avx2)"
  if [[ -z "$addr" ]]; then
    echo "$binary: no reference_loop_avx2 symbol" >&2
    exit 1
  fi
  offset=$((16#$addr % 64))
  offsets+=("$offset")
  addresses+=("$((16#$addr))")
  prefix=""
  [[ $# -eq 2 ]] && prefix="$binary: "
  printf '%sreference_loop_avx2 at 0x%x, offset %d mod 64\n' "$prefix" "0x$addr" "$offset"
done

if [[ $# -eq 2 ]]; then
  printf 'reference loop shift: %+d bytes\n' "$((addresses[1] - addresses[0]))"
  printf '%s: [clone .cold] bytes ahead of the loop: %d\n' \
    "$1" "$(cold_bytes_before "$1" "${addresses[0]}")" \
    "$2" "$(cold_bytes_before "$2" "${addresses[1]}")"
fi

if [[ $# -eq 1 ]]; then
  for kernel in "${kernels[@]}"; do
    printf '  %-22s %s\n' "${kernel%%|*}" "$(placement "$1" "${kernel#*|}")"
  done
else
  printf '  %-22s %-26s %-26s\n' kernel parent change
  for kernel in "${kernels[@]}"; do
    before="$(placement "$1" "${kernel#*|}")"
    after="$(placement "$2" "${kernel#*|}")"
    mark=""
    [[ "${before#* }" != "${after#* }" ]] && mark="moved"
    printf '  %-22s %-26s %-26s %s\n' "${kernel%%|*}" "$before" "$after" "$mark"
  done
fi

if [[ $# -eq 2 && "${offsets[0]}" != "${offsets[1]}" ]]; then
  echo "the two reference loops sit at different offsets mod 64:" \
       "${offsets[0]} vs ${offsets[1]}" >&2
  exit 1
fi
