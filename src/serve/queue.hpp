#pragma once
/// \file queue.hpp
/// \brief Bounded admission queue with priority classes and
/// earliest-deadline-first dispatch.
///
/// The serving front-end's only buffer: a fixed-capacity set of tickets.
/// pop() serves strict priority first and earliest absolute deadline within
/// a class (FIFO, then id, break remaining ties, so the order is total and
/// deterministic); tickets waiting out a retry backoff (not_before) are
/// skipped until their gate passes. When the queue is full a strictly
/// higher-priority arrival may displace() the worst lower-priority ticket
/// instead of being shed. Capacity is a hard bound — push() into a full
/// queue throws, so an overload bug cannot grow the queue silently.

#include <cstdint>
#include <optional>
#include <vector>

namespace vedliot::serve {

/// One queued request, reduced to what dispatch ordering needs.
struct Ticket {
  std::uint64_t id = 0;
  int priority = 0;         ///< higher serves first (strict classes)
  double deadline_s = 0;    ///< absolute; past-deadline tickets expire
  double not_before_s = 0;  ///< retry backoff gate; 0 = dispatchable now
  double enqueued_s = 0;    ///< FIFO tie-break within a class
};

struct QueueConfig {
  std::size_t capacity = 64;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(QueueConfig config);

  std::size_t depth() const { return tickets_.size(); }
  bool full() const { return tickets_.size() >= cfg_.capacity; }
  bool empty() const { return tickets_.empty(); }

  /// Throws Error when full — callers must shed or displace first.
  void push(Ticket t);

  /// Best dispatchable ticket at \p now (not_before passed): max priority,
  /// then earliest deadline, then earliest enqueue, then smallest id.
  /// Empty when nothing is dispatchable yet.
  std::optional<Ticket> pop(double now);

  /// Remove and return every ticket whose deadline has passed (they can no
  /// longer be served in time and would only hold queue slots).
  std::vector<Ticket> expire(double now);

  /// Remove and return the worst ticket of any class strictly below
  /// \p priority: lowest priority, then latest deadline, then latest
  /// enqueue, then largest id. Empty when no lower-priority ticket exists.
  std::optional<Ticket> displace(int priority);

  /// All queued tickets in insertion order (for lane counts and gates).
  const std::vector<Ticket>& tickets() const { return tickets_; }

 private:
  QueueConfig cfg_;
  std::vector<Ticket> tickets_;
};

}  // namespace vedliot::serve
