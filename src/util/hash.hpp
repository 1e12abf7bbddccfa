#pragma once
/// \file hash.hpp
/// \brief Non-cryptographic integrity hashes.
///
/// CRC-32 (the ISO-HDLC / zlib polynomial, reflected) is the per-tensor
/// weight digest used by the model-package format and the runtime weight
/// scrubber: cheap enough to re-hash deployed weights a few tensors per
/// control tick, and any single bit flip is guaranteed to change the
/// digest. For tamper-resistance against an *adversary* the packages are
/// additionally sealed (security/crypto.hpp); CRC-32 targets silent data
/// corruption, not attacks.
///
/// crc32 has two paths with one result. On x86-64 hosts with PCLMULQDQ
/// (util::CpuFeatures::pclmul) an input of 64 bytes or more is folded
/// with carry-less multiplies over its largest multiple of 16 bytes, at
/// memory bandwidth; the bytewise table loop hashes the remaining tail,
/// every input under 64 bytes, and everything on other hosts. The path is
/// chosen once per process, at the first call: `VEDLIOT_FORCE_PORTABLE=1`
/// set by then pins the table loop for the process (the kill switch the
/// kernels share, util/cpu.hpp).

#include <cstdint>
#include <span>
#include <string_view>

namespace vedliot::util {

/// CRC-32 of a byte span. \p seed chains incremental computation: pass the
/// previous result to continue a digest across fragments (crc32 of the
/// concatenation equals the chained value). check value: crc32("123456789")
/// == 0xCBF43926.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

/// CRC-32 over the raw IEEE-754 bytes of a float span (the weight-tensor
/// digest: bit flips below float equality tolerance still change it).
std::uint32_t crc32(std::span<const float> data, std::uint32_t seed = 0);

/// FNV-1a 64-bit over a string: the placement hash behind the consistent
/// ring (serve/ring.hpp), idempotency-cache keys, and the soak harnesses'
/// event-log digests. \p seed chains incremental computation (pass the
/// previous result to continue across fragments); the default is the FNV
/// offset basis.
std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed = 0xCBF29CE484222325ull);

}  // namespace vedliot::util
