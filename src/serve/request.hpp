#pragma once
/// \file request.hpp
/// \brief Versioned serving wire types (v2): what a client submits and what
/// the fleet hands back.
///
/// PR 7 API redesign: the ad-hoc Request POD grew fields in three different
/// PRs, so the serving surface now versions its wire structs explicitly.
/// Request carries a named priority class (not a bare int), an idempotency
/// key the response cache may coalesce on, and an opaque payload handle the
/// execute path derives the input tensor from. Response is the symmetric
/// reply record: where the request was served, how it fared against its
/// deadline, and a CRC-32 of the output tensor so harnesses can check
/// batched-vs-singleton bitwise equality without shipping tensors around.

#include <cstdint>
#include <string>
#include <string_view>

namespace vedliot::serve {

/// Wire-struct version stamped into every Request/Response this header
/// defines. Bump on any field change; harnesses assert it so a stale
/// serializer fails loudly instead of mis-parsing.
inline constexpr std::uint32_t kServeApiVersion = 2;

/// Scheduling class, ordered: higher classes pre-empt lower ones in the
/// admission queue (the queue still breaks ties EDF-first).
enum class PriorityClass : int {
  kBatch = 0,        ///< throughput traffic; first to displace
  kStandard = 1,     ///< default interactive traffic
  kInteractive = 2,  ///< latency-critical; displaces both lower classes
};

std::string_view priority_class_name(PriorityClass p);

/// A serving request (wire version kServeApiVersion).
struct Request {
  std::uint32_t version = kServeApiVersion;

  std::uint64_t id = 0;          ///< 0 = assigned by submit()
  std::string client;            ///< retry-budget + routing key
  PriorityClass priority_class = PriorityClass::kStandard;
  double arrival_s = 0;
  double deadline_s = 0;         ///< absolute simulated time
  std::int64_t batch = 1;        ///< lanes this request occupies

  /// Idempotency key: requests sharing a non-empty key are safe to coalesce
  /// — the response cache may answer a repeat without recomputing. Empty =
  /// never cached.
  std::string idempotency_key;

  /// Opaque payload handle. The simulation has no real client tensors; in
  /// execute mode the input is synthesized deterministically from this
  /// handle (falling back to the request id when 0), so identical handles
  /// produce identical inputs — the property the idempotency cache and the
  /// batched-equality checks rely on.
  std::uint64_t payload = 0;

  /// The queue-facing integer priority (ordered as the enum).
  int priority() const { return static_cast<int>(priority_class); }
};

/// Terminal outcome of a request's lifetime.
enum class ResponseStatus {
  kOk,            ///< delivered within deadline
  kLate,          ///< delivered past deadline
  kShed,          ///< refused at admission or displaced from a queue
  kCancelled,     ///< deadline expired in queue / infeasible at dispatch
  kFailed,        ///< gave up after retries
};

/// A serving response (wire version kServeApiVersion). One per offered
/// request; the fleet returns the full set after a run.
struct Response {
  std::uint32_t version = kServeApiVersion;

  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::kShed;
  double time_s = 0;          ///< when the terminal outcome was decided
  double latency_s = 0;       ///< time_s - arrival (0 for shed)
  std::string served_by;      ///< "replica3/come1" (empty unless executed)
  bool cache_hit = false;     ///< answered from the idempotency cache
  bool degraded = false;      ///< served by a brownout rung below healthy
  std::uint32_t output_crc32 = 0;  ///< CRC-32 of the output tensor (execute)
};

}  // namespace vedliot::serve
