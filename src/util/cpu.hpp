#pragma once
/// \file cpu.hpp
/// \brief Host CPU SIMD capability detection and dispatch-level resolution.
///
/// The execution engine carries one portable scalar kernel set plus
/// architecture-specific microkernels (AVX2/FMA on x86-64, NEON on
/// aarch64). Which set actually runs is decided *at runtime* from CPUID
/// feature bits — the VEDLIoT premise is one binary serving heterogeneous
/// devices, so the compiled artifact must never assume the build host's
/// ISA. Resolution order:
///
///   1. `VEDLIOT_FORCE_PORTABLE=1` (env) pins the portable scalar path —
///      the kill switch for field debugging and the reference half of
///      every SIMD-vs-scalar regression test.
///   2. `VEDLIOT_SIMD=portable|avx2|neon|auto` (env) requests a specific
///      level; an unavailable request falls back to portable, never up.
///   3. An explicit ExecConfig::simd request, same fallback rule.
///   4. kAuto picks the best level the CPU supports.
///
/// The CRC-32 (util/hash.hpp) dispatches on the same feature bits but
/// resolves its path once per process, at its first call: `pclmul` picks
/// the carry-less-multiply fold, and `VEDLIOT_FORCE_PORTABLE`, read at that
/// moment, pins the table loop for the rest of the process.

#include <string_view>

namespace vedliot::util {

/// Kernel dispatch level. kAuto is a *request* (resolve to the best
/// supported level); the other values are concrete kernel sets.
enum class SimdLevel {
  kAuto,      ///< request: pick the best available at runtime
  kPortable,  ///< scalar C++ kernels, available everywhere
  kAvx2,      ///< x86-64 AVX2+FMA microkernels
  kNeon,      ///< aarch64 NEON microkernels
};

std::string_view simd_level_name(SimdLevel level);

/// CPUID-derived feature bits of the host (detected once, cached).
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool pclmul = false;  ///< x86 carry-less multiply: the CRC-32 fold
  bool neon = false;
};
const CpuFeatures& cpu_features();

/// True when `VEDLIOT_FORCE_PORTABLE` is set to anything but "" or "0".
/// Reads the environment on every call.
bool portable_forced();

/// True when the host can execute kernels at \p level (kAuto/kPortable
/// are always supported).
bool simd_supported(SimdLevel level);

/// Resolve a requested level to a concrete one: apply the env overrides,
/// then availability (unsupported requests degrade to portable). Never
/// returns kAuto.
SimdLevel resolve_simd_level(SimdLevel requested);

}  // namespace vedliot::util
