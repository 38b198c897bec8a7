#include "serve/admission.hpp"

#include <string>

#include "obs/memory.hpp"
#include "util/check.hpp"

namespace bpar::serve {

namespace {

/// The payload bytes a queued request pins (mem.serve_queue).
std::uint64_t pending_bytes(const Pending& pending) {
  return static_cast<std::uint64_t>(sizeof(Pending)) +
         pending.request.features.size() * sizeof(float) +
         pending.request.labels.size() * sizeof(int);
}

}  // namespace

AdmissionQueue::AdmissionQueue(const EngineOptions& options)
    : max_queue_(options.max_queue),
      shed_backlog_(static_cast<std::size_t>(options.max_batch)),
      shed_wait_(options.shed_wait_us != 0 ? options.shed_wait_us
                                           : 16U * options.max_delay_us) {
  BPAR_CHECK(max_queue_ >= 1, "max_queue must be >= 1");
  for (std::size_t cls = 0; cls < quota_.size(); ++cls) {
    quota_[cls] = options.class_quota[cls] != 0 ? options.class_quota[cls]
                                                : max_queue_;
  }
}

bool AdmissionQueue::admit(Pending& pending) {
  const auto cls = static_cast<std::size_t>(pending.request.priority);
  if (size() >= max_queue_ || queues_[cls].size() >= quota_[cls]) {
    return false;
  }
  obs::serve_queue_memory().on_alloc(pending_bytes(pending));
  queues_[cls].push_back(std::move(pending));
  publish_depths();
  return true;
}

std::vector<Pending> AdmissionQueue::shed_overdue(Clock::time_point now) {
  std::vector<Pending> shed;
  // Lowest class first; kHigh (class 0) is never shed. Stop as soon as the
  // backlog fits in one micro-batch again — shedding is a pressure valve,
  // not a purge.
  for (std::size_t cls = kNumPriorities - 1; cls >= 1; --cls) {
    auto& queue = queues_[cls];
    while (!queue.empty() && size() > shed_backlog_ &&
           now - queue.front().enqueued > shed_wait_) {
      obs::serve_queue_memory().on_free(pending_bytes(queue.front()));
      shed.push_back(std::move(queue.front()));
      queue.pop_front();
    }
  }
  if (!shed.empty()) publish_depths();
  return shed;
}

std::vector<Pending> AdmissionQueue::seal(int steps, int cap) {
  const auto limit = static_cast<std::size_t>(cap);
  std::vector<Pending> taken;
  taken.reserve(limit);
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end() && taken.size() < limit;) {
      if (it->request.steps == steps) {
        obs::serve_queue_memory().on_free(pending_bytes(*it));
        taken.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  publish_depths();
  return taken;
}

const Pending* AdmissionQueue::head() const {
  for (const auto& queue : queues_) {
    if (!queue.empty()) return &queue.front();
  }
  return nullptr;
}

std::size_t AdmissionQueue::count_steps(int steps) const {
  std::size_t n = 0;
  for (const auto& queue : queues_) {
    for (const Pending& p : queue) n += p.request.steps == steps ? 1 : 0;
  }
  return n;
}

std::size_t AdmissionQueue::size() const {
  std::size_t n = 0;
  for (const auto& queue : queues_) n += queue.size();
  return n;
}

std::array<std::size_t, kNumPriorities> AdmissionQueue::depths() const {
  std::array<std::size_t, kNumPriorities> out{};
  for (std::size_t cls = 0; cls < out.size(); ++cls) {
    out[cls] = queues_[cls].size();
  }
  return out;
}

void AdmissionQueue::publish_depths() const {
  auto& registry = obs::Registry::instance();
  registry.gauge("serve.queue_depth").set(static_cast<double>(size()));
  for (std::size_t cls = 0; cls < queues_.size(); ++cls) {
    registry
        .gauge(std::string("serve.queue_depth.") +
               priority_name(static_cast<Priority>(cls)))
        .set(static_cast<double>(queues_[cls].size()));
  }
}

}  // namespace bpar::serve
