#pragma once
/// \file model_store.hpp
/// \brief Versioned golden-model retention, surgical weight repair, and
/// OTA updates with automatic rollback.
///
/// The ModelStore is the recovery half of the silent-data-corruption
/// defense (ROADMAP item 4: "OTA updates of sealed model packages with
/// rollback on a failed golden check"):
///
///  * it retains the verified golden package (graph/package.hpp, format v2
///    with its digest table) per deployed model, plus the previous version
///    for rollback;
///  * when the WeightScrubber localizes corruption to (node, tensor)
///    pairs, repair() re-materializes only those tensors into the live
///    graph — no full reload, no service interruption beyond the
///    quarantine window;
///  * push() stages an over-the-air update and verifies it end to end
///    before the atomic swap: package digests + the vedliot_analysis IR
///    verifier (both inside unpack_model) and a golden-input canary run
///    whose outputs must match what the publisher declared at pack time.
///    A corrupted payload or a canary divergence is rejected with the old
///    version still serving; rollback() reverts a committed update whose
///    freshly-written image turns out corrupt (post-swap scrub failure).

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/package.hpp"
#include "safety/scrub.hpp"
#include "util/thread_safety.hpp"

namespace vedliot::safety {

/// Terminal outcome of one OTA interaction.
enum class OtaOutcome {
  kCommitted,   ///< verified and swapped in atomically
  kRejected,    ///< failed pre-swap verification; old version keeps serving
  kRolledBack,  ///< post-swap failure; previous version restored
};

std::string_view ota_outcome_name(OtaOutcome o);

/// An over-the-air model update: the v2 package plus the publisher-declared
/// canary outputs a healthy device must reproduce bit-for-bit (within
/// tolerance) before committing the swap.
struct OtaPackage {
  std::vector<std::uint8_t> package;     ///< pack_model bytes (v2)
  std::uint64_t canary_seed = 0xCAA1Bull;
  std::size_t canary_inputs = 2;         ///< seeded golden inputs to re-run
  std::vector<float> canary_output;      ///< declared outputs, concatenated
};

/// Build an update bundle from a weights-materialized graph: packs it and
/// runs the canary inputs through the float reference executor to record
/// the outputs the receiving device must reproduce.
OtaPackage make_ota_package(const Graph& g, std::uint64_t canary_seed = 0xCAA1Bull,
                            std::size_t canary_inputs = 2);

class ModelStore {
 public:
  struct Config {
    double canary_tolerance = 1e-4;  ///< max |declared - observed| per element
  };

  ModelStore();
  explicit ModelStore(Config config);

  /// One retained model version: the verified package, whose digest table
  /// materialize() checks on every unpack.
  struct Version {
    std::uint32_t version = 0;
    std::vector<std::uint8_t> package;
  };

  struct OtaReport {
    OtaOutcome outcome = OtaOutcome::kRejected;
    std::uint32_t from_version = 0;
    std::uint32_t to_version = 0;
    std::string detail;
  };

  /// Register the verified golden package for \p name (version 1). The
  /// graph must carry materialized weights; it is packed, re-verified and
  /// retained. Throws InvalidArgument when the name is already installed.
  std::uint32_t install(const std::string& name, const Graph& g);

  bool has(const std::string& name) const;
  const Version& current(const std::string& name) const;
  std::uint32_t version(const std::string& name) const;
  bool can_rollback(const std::string& name) const;

  /// Unpack a fresh deployable graph from the current golden package
  /// (digest-verified on the way out).
  Graph materialize(const std::string& name) const;

  /// Re-materialize exactly the corrupted tensors named by \p hits into the
  /// live graph and verify their digests afterwards. Returns the number of
  /// tensors rewritten. Throws on a hit that does not exist in the golden
  /// model or whose repaired bits still mismatch (storage is actively bad).
  std::size_t repair(const std::string& name, Graph& live,
                     std::span<const WeightScrubber::Hit> hits) const;

  /// Re-materialize every weight tensor from the golden package (recovery
  /// path when corruption is detected but not localized). Returns the
  /// number of tensors rewritten.
  std::size_t restore(const std::string& name, Graph& live) const;

  /// Stage + verify + atomically swap an OTA update. On kCommitted the
  /// previous version is retained for rollback(); on kRejected nothing
  /// changes. Never throws on a bad payload — the report carries the
  /// verifier/digest/canary failure in detail.
  OtaReport push(const std::string& name, const OtaPackage& update);

  /// Revert to the retained previous version (post-swap failure policy).
  /// Returns kRolledBack with the restored version, or kRejected when
  /// there is nothing to roll back to.
  OtaReport rollback(const std::string& name);

 private:
  struct Slot {
    Version current;
    std::optional<Version> previous;
    std::uint32_t next_version = 2;
  };

  const Slot& slot(const std::string& name) const VEDLIOT_REQUIRES(mutex_);

  Config cfg_;
  // One store may back several serving surfaces at once (a fleet's scrub
  // ticks plus an out-of-band OTA push); the mutex serializes the version
  // map. The reference current() returns is only stable until the next
  // push()/rollback() for that name — callers snapshot what they need
  // rather than holding it across updates.
  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_ VEDLIOT_GUARDED_BY(mutex_);
};

}  // namespace vedliot::safety
