// Shared plumbing of the benchmark program: run options, the metric report,
// timing, order statistics and input generation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rnn/batch.hpp"
#include "rnn/network.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The command line; main() requires every field but `git_sha`.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
};

/// Metrics in the order they were measured. The last stdout line of a run
/// is this report as JSON (see README.md for the contract).
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// One failed or passed output check; `attempted` counts operations.
  void count(std::size_t attempted, std::size_t failed);
  /// A check that is not an operation count (e.g. argmax agreement).
  void check(const std::string& what, bool ok);

  /// Graph pass signature of the program under test (provenance).
  std::string pass_signature = "none";

  [[nodiscard]] std::string json() const;
  void print_table() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Builds the system under test repeatedly (releasing the previous one
/// first) and keeps the last: at least 5 times and for about a second, so
/// the median set-up time in `seconds` does not hang on one slow
/// first-touch construction.
template <class Make>
auto timed_setups(Make&& make, std::vector<double>& seconds) {
  decltype(make()) sut;
  const auto start = Clock::now();
  while (seconds.size() < 5 ||
         (seconds.size() < 25 && seconds_since(start) < 1.0)) {
    sut = {};
    const auto t0 = Clock::now();
    sut = make();
    seconds.push_back(seconds_since(t0));
  }
  return sut;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Slices of a run's samples in the sliced estimates below.
inline constexpr std::size_t kSlices = 5;

/// Quantile q of each of kSlices equal slices of consecutive samples, and
/// the median of those: a burst of host noise inside one slice does not
/// decide the run.
[[nodiscard]] double sliced_quantile(const std::vector<double>& v, double q);

/// Process peak resident set so far (getrusage), MiB.
[[nodiscard]] double peak_rss_mb();

/// Worker count of a closed-loop workload: every core the process may use.
[[nodiscard]] int host_cores();

/// A batch of `rows` sequences of `steps` timesteps with uniform features
/// in [-1, 1] and uniform labels, drawn from `rng`.
[[nodiscard]] bpar::rnn::BatchData random_batch(
    const bpar::rnn::NetworkConfig& cfg, int rows, int steps,
    bpar::util::Rng& rng);

/// The machine's CPU time so far, from the first line of /proc/stat, in
/// clock ticks: all of it, and the part stolen by the hypervisor.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] CpuTimes cpu_times();

/// Prints the provenance line (host, build, seed, and the share of CPU
/// time the hypervisor took from this machine since `start`) to stdout.
void print_provenance(const RunOptions& opts, const Report& report,
                      const CpuTimes& start);

}  // namespace perfbench
