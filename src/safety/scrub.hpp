#pragma once
/// \file scrub.hpp
/// \brief Incremental weight scrubbing against a per-tensor CRC-32 baseline.
///
/// The RobustnessService (robustness.hpp) detects model corruption by
/// golden re-execution of sampled outputs — strong but expensive and
/// non-localizing. The WeightScrubber is its cheap complement: it hashes
/// every weight tensor of the deployed graph once (on construction and on
/// rebaseline(), over bits a loader has just verified) and re-hashes a few
/// tensors per control tick, so a silent bit flip (SEU, DMA scribble, bad
/// flash sector) is detected within one sweep and localized to the exact
/// (node, tensor) pair — which lets the safety::ModelStore re-materialize
/// just the corrupted tensors instead of reloading the whole model.
///
/// Detection latency is bounded by construction: every weight tensor is
/// re-hashed at least once per ticks_per_sweep() ticks.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/package.hpp"

namespace vedliot::safety {

/// Round-robin CRC-32 re-hasher over one deployed graph's weight tensors.
/// The graph must outlive the scrubber; repairs mutate the graph in place,
/// after which rebaseline() (or a successful repair verify) re-trusts it.
class WeightScrubber {
 public:
  struct Config {
    std::size_t tensors_per_tick = 4;  ///< scrub budget per tick (>= 1)
  };

  /// One localized corruption: the deployed tensor whose bits no longer
  /// match the golden digest.
  struct Hit {
    NodeId node = -1;
    std::string node_name;
    std::size_t tensor = 0;        ///< index into Node::weights
    std::uint32_t expected = 0;    ///< golden CRC-32
    std::uint32_t actual = 0;      ///< CRC-32 of the deployed bits
  };

  /// Baseline = the graph's current bits, assumed verified golden (loaders
  /// get that guarantee from unpack_model's digest check).
  explicit WeightScrubber(const Graph& deployed);
  WeightScrubber(const Graph& deployed, Config config);

  /// Re-hash the next tensors_per_tick tensors (round-robin over the whole
  /// table); returns the corrupted ones, empty when all clean.
  std::vector<Hit> tick();

  /// Re-hash every tensor now (OTA post-swap verification, repair checks).
  std::vector<Hit> full_scan();

  /// Re-trust the graph's current bits after a repair or reload.
  void rebaseline();

  /// Number of weight tensors under scrub.
  std::size_t entries() const { return entries_.size(); }

  /// Ticks for one complete pass over the table — the guaranteed detection
  /// latency bound, in control ticks: ceil(entries / tensors_per_tick),
  /// minimum 1.
  std::size_t ticks_per_sweep() const;

  std::size_t ticks() const { return ticks_; }
  std::size_t tensors_scanned() const { return scanned_; }
  std::size_t hits() const { return hits_; }

 private:
  struct Entry {
    NodeId node = -1;
    std::size_t tensor = 0;
    std::uint32_t crc = 0;
  };

  Hit make_hit(const Entry& e, std::uint32_t actual) const;
  bool scan_one(const Entry& e, std::vector<Hit>& out);

  const Graph* graph_;
  Config cfg_;
  std::vector<Entry> entries_;
  std::size_t cursor_ = 0;
  std::size_t ticks_ = 0;
  std::size_t scanned_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace vedliot::safety
