// The serving engine's request queue and its admission policy (DESIGN.md
// §5h): per-class FIFOs with strict priority across classes, the shared
// `max_queue` bound and per-class quotas, queue-delay load shedding, and
// same-length sealing of micro-batches. It publishes the serve.queue_depth
// gauges and accounts queued payloads in mem.serve_queue.
//
// Not thread-safe: the engine calls it under its own mutex. Time is an
// argument (Pending::enqueued, shed_overdue's `now`), so a test drives it
// with synthetic time points and no threads.
#pragma once

#include <array>
#include <deque>
#include <vector>

#include "serve/types.hpp"

namespace bpar::serve {

class AdmissionQueue {
 public:
  explicit AdmissionQueue(const EngineOptions& options);

  /// Moves `pending` into its class FIFO. Returns false, leaving `pending`
  /// untouched, when `max_queue` or the class quota is full.
  bool admit(Pending& pending);

  /// Removes the requests to answer kShed at `now`: while the backlog
  /// exceeds one micro-batch, overdue kBatch then kNormal requests, oldest
  /// first. kHigh is never shed.
  std::vector<Pending> shed_overdue(Clock::time_point now);

  /// Extracts up to `cap` queued requests with `steps` timesteps, classes
  /// in priority order, FIFO within a class.
  std::vector<Pending> seal(int steps, int cap);

  /// Front of the highest non-empty class; nullptr when empty.
  [[nodiscard]] const Pending* head() const;
  /// Queued requests with `steps` timesteps, all classes.
  [[nodiscard]] std::size_t count_steps(int steps) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Per-class backlog, indexed by Priority.
  [[nodiscard]] std::array<std::size_t, kNumPriorities> depths() const;

 private:
  void publish_depths() const;

  std::size_t max_queue_;
  std::array<std::size_t, kNumPriorities> quota_{};
  std::size_t shed_backlog_;           // max_batch
  std::chrono::microseconds shed_wait_;
  std::array<std::deque<Pending>, kNumPriorities> queues_;
};

}  // namespace bpar::serve
