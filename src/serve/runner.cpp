#include "serve/runner.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "kernels/backend.hpp"
#include "obs/trace.hpp"
#include "taskrt/export.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace bpar::serve {

namespace {

/// Numerically stable log(sum(exp(logits))).
double logsumexp(std::span<const float> logits) {
  double hi = logits[0];
  for (const float v : logits) hi = std::max(hi, static_cast<double>(v));
  double sum = 0.0;
  for (const float v : logits) sum += std::exp(static_cast<double>(v) - hi);
  return hi + std::log(sum);
}

}  // namespace

int BatchRunner::bucket_rows(int rows, int max_batch) {
  BPAR_CHECK(rows >= 1, "empty micro-batch");
  int bucket = 1;
  while (bucket < rows) bucket *= 2;
  return std::min(bucket, std::max(rows, max_batch));
}

BatchRunner::BatchRunner(rnn::Network& net, const EngineOptions& options,
                         Sink& sink)
    : net_(net),
      options_(options),
      sink_(sink),
      native_backend_(kernels::active_backend_name()),
      executor_(make_executor(options.quantized)) {
  BPAR_CHECK(options_.max_batch >= 1, "max_batch must be >= 1");
  BPAR_CHECK(options_.max_batch_retries >= 0,
             "max_batch_retries must be >= 0");
  // Degradation ladder, most valuable acceleration first: each rung keeps
  // the flags of the previous one and switches one more thing off.
  ladder_.push_back(DegradeStep{});  // level 0: full service
  DegradeStep rung;
  if (options_.quantized) {
    rung.name = "fp32";
    rung.disable_quantized = true;
    ladder_.push_back(rung);
  }
  if (native_backend_ != "scalar") {
    rung.name = "scalar-backend";
    rung.scalar_backend = true;
    ladder_.push_back(rung);
  }
  if (options_.enable_batching && options_.max_batch > 1) {
    rung.name = "batch-1";
    rung.batch_one = true;
    ladder_.push_back(rung);
  }
}

std::unique_ptr<exec::BParExecutor> BatchRunner::make_executor(
    bool quantized) const {
  return std::make_unique<exec::BParExecutor>(
      net_, exec::BParOptions{.common = options_.executor,
                              .record_trace = options_.record_trace,
                              .quantized_inference = quantized});
}

const BatchRunner::DegradeStep& BatchRunner::step() const {
  return ladder_[static_cast<std::size_t>(degrade_level())];
}

int BatchRunner::batch_cap() const {
  return options_.enable_batching && !step().batch_one ? options_.max_batch
                                                       : 1;
}

exec::BParExecutor& BatchRunner::active_executor() {
  if (!step().disable_quantized) return *executor_;
  if (fp32_executor_ == nullptr) fp32_executor_ = make_executor(false);
  return *fp32_executor_;
}

void BatchRunner::mark(const std::vector<Pending>& group, RequestStage stage,
                       std::int32_t arg) {
  for (const Pending& p : group) sink_.event(p.id, stage, arg);
}

std::string BatchRunner::try_execute(const rnn::BatchData& batch,
                                     bool need_logits, int steps, int rows,
                                     exec::InferResult& result) {
  try {
    exec::BParExecutor& executor = active_executor();
    result = executor.infer(batch, {.want_logits = need_logits});
    if (options_.record_trace && &executor == executor_.get()) {
      std::lock_guard<std::mutex> lock(trace_mu_);
      last_traced_program_ = &executor.infer_program(steps, rows);
      last_traced_stats_ = result.stats;
    }
  } catch (const taskrt::WatchdogError& e) {
    return std::string("watchdog: ") + e.what();
  } catch (const taskrt::InjectedFault& e) {
    return std::string("injected fault: ") + e.what();
  } catch (const std::exception& e) {
    return e.what();
  }
  if (!result.finite()) {
    return "non-finite outputs (NaN/Inf guard)";
  }
  return {};
}

void BatchRunner::run(std::vector<Pending> group, Clock::time_point sealed,
                      int depth) {
  static obs::HistogramCell& form_histogram =
      latency_histogram("serve.batch_form_us");
  static obs::HistogramCell& exec_histogram =
      latency_histogram("serve.exec_us");
  static obs::HistogramCell& rows_histogram =
      obs::Registry::instance().histogram(
          "serve.batch_rows", {1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5});
  const auto& cfg = net_.config();
  const int real_rows = static_cast<int>(group.size());
  const int rows =
      batch_cap() > 1 ? bucket_rows(real_rows, options_.max_batch) : real_rows;
  const int steps = group.front().request.steps;
  const int outputs = cfg.many_to_many ? steps : 1;
  bool need_logits = false;
  for (const Pending& p : group) {
    need_logits |= p.request.want_logits || !p.request.labels.empty();
  }

  // Form the padded batch. Matrix buffers are zero-initialized, so padding
  // rows are all-zero inputs with label 0; their outputs are never read.
  rnn::BatchData batch;
  batch.x.resize(static_cast<std::size_t>(steps));
  for (auto& m : batch.x) m.resize(rows, cfg.input_size);
  batch.labels.assign(static_cast<std::size_t>(outputs) *
                          static_cast<std::size_t>(rows),
                      0);
  for (int r = 0; r < real_rows; ++r) {
    const Request& request = group[static_cast<std::size_t>(r)].request;
    for (int t = 0; t < steps; ++t) {
      const auto row = batch.x[static_cast<std::size_t>(t)].view().row(r);
      std::copy_n(request.features.data() +
                      static_cast<std::size_t>(t) * cfg.input_size,
                  static_cast<std::size_t>(cfg.input_size), row.begin());
    }
    for (std::size_t t = 0; t < request.labels.size(); ++t) {
      batch.labels[t * static_cast<std::size_t>(rows) +
                   static_cast<std::size_t>(r)] = request.labels[t];
    }
  }
  const Clock::time_point formed = Clock::now();
  mark(group, RequestStage::kFormed, rows);

  // Bounded retries: fault schedules decorrelate across runtime sessions,
  // so a re-run of the same batch usually clears transient injected (or
  // genuine) faults. Deterministic failures fall through to bisection.
  exec::InferResult result;
  std::string error;
  mark(group, RequestStage::kExecBegin, 0);
  for (int attempt = 0; attempt <= options_.max_batch_retries; ++attempt) {
    if (attempt == 0) {
      error = try_execute(batch, need_logits, steps, rows, result);
    } else {
      BPAR_SPAN("serve.retry");
      sink_.count(Counter::kRetries, 1);
      mark(group, RequestStage::kRetry, attempt);
      sink_.progress();
      if (active_executor().runtime().poisoned()) rebuild_executor();
      error = try_execute(batch, need_logits, steps, rows, result);
    }
    if (error.empty()) break;
    BPAR_LOG_WARN << "serve: batch of " << real_rows << " (attempt "
                  << attempt + 1 << "/" << options_.max_batch_retries + 1
                  << ") failed: " << error;
  }
  const Clock::time_point done = Clock::now();
  mark(group, RequestStage::kExecEnd, error.empty() ? 0 : 1);

  const double form_us = us_between(sealed, formed);
  const double exec_us = us_between(formed, done);
  sink_.count(Counter::kBatches, 1);
  sink_.count(Counter::kPaddedRows,
              static_cast<std::uint64_t>(rows - real_rows));
  form_histogram.add(form_us);
  exec_histogram.add(exec_us);
  rows_histogram.add(static_cast<double>(real_rows));
  const auto response_for = [&](const Pending& p) {
    Response response;
    response.batch_rows = rows;
    response.real_rows = real_rows;
    response.queue_us = us_between(p.enqueued, sealed);
    response.batch_form_us = form_us;
    response.exec_us = exec_us;
    return response;
  };

  if (!error.empty()) {
    note_failure();
    // A watchdog error means the runtime itself stalled mid-graph — the
    // most valuable moment to capture, and one retries often erase.
    if (error.rfind("watchdog: ", 0) == 0) sink_.dump("watchdog-error");
    if (real_rows > 1) {
      // Bisection: split the batch and serve each half independently. A
      // deterministically poisoned request ends up alone, answers
      // kInternalError, and its batchmates succeed (per-row results are
      // bit-identical across row buckets, so they lose nothing).
      BPAR_SPAN("serve.bisect");
      sink_.count(Counter::kBisections, 1);
      mark(group, RequestStage::kBisect, depth);
      const auto mid =
          group.begin() + static_cast<std::ptrdiff_t>(group.size() / 2);
      std::vector<Pending> first(std::make_move_iterator(group.begin()),
                                 std::make_move_iterator(mid));
      std::vector<Pending> second(std::make_move_iterator(mid),
                                  std::make_move_iterator(group.end()));
      run(std::move(first), sealed, depth + 1);
      run(std::move(second), sealed, depth + 1);
      return;
    }
    Response response = response_for(group.front());
    response.status = Status::kInternalError;
    response.error = error;
    sink_.answer(group.front(), std::move(response));
    return;
  }

  note_success();
  for (int r = 0; r < real_rows; ++r) {
    Pending& p = group[static_cast<std::size_t>(r)];
    const std::vector<int>& labels = p.request.labels;
    Response response = response_for(p);
    double loss = 0.0;
    for (int t = 0; t < outputs; ++t) {
      response.predictions.push_back(result.prediction(t, r));
      if (!p.request.want_logits && labels.empty()) continue;
      const auto row = result.logits_row(t, r);
      if (p.request.want_logits) {
        response.logits.insert(response.logits.end(), row.begin(), row.end());
      }
      // Exact per-request loss from this row's logits — the batch-mean loss
      // would smear padding and neighbours into it.
      if (!labels.empty()) {
        const auto label = static_cast<std::size_t>(
            labels[static_cast<std::size_t>(t)]);
        loss += logsumexp(row) - static_cast<double>(row[label]);
      }
    }
    if (!labels.empty()) response.loss = loss / outputs;
    sink_.answer(p, std::move(response));
  }
}

void BatchRunner::note_success() {
  consecutive_failures_ = 0;
  const int level = degrade_level();
  if (level == 0) {
    sink_.set_health(Health::kHealthy);
    return;
  }
  // Half-open recovery probe: a long enough run of clean batches at the
  // degraded level earns one step back up the ladder. A failure at the
  // restored level trips the breaker again (and the probe run restarts).
  if (++consecutive_successes_ >= options_.breaker_recovery) {
    consecutive_successes_ = 0;
    sink_.count(Counter::kRecovered, 1);
    apply_degrade_level(level - 1);
  }
}

void BatchRunner::note_failure() {
  consecutive_successes_ = 0;
  sink_.set_health(Health::kDegraded);
  if (options_.breaker_threshold <= 0) return;
  const int level = degrade_level();
  if (++consecutive_failures_ >= options_.breaker_threshold &&
      level + 1 < static_cast<int>(ladder_.size())) {
    consecutive_failures_ = 0;
    sink_.count(Counter::kDegraded, 1);
    apply_degrade_level(level + 1);
    // The breaker just tripped: snapshot the evidence (last spans, task
    // rows, request events, metrics) while it is still in the rings.
    sink_.dump("breaker-trip");
  }
}

void BatchRunner::apply_degrade_level(int level) {
  BPAR_SPAN("serve.degrade");
  const DegradeStep& from = step();
  const DegradeStep& to = ladder_[static_cast<std::size_t>(level)];
  BPAR_LOG_WARN << "serve: degradation ladder " << from.name << " -> "
                << to.name << " (level " << level << ")";
  if (to.scalar_backend) {
    (void)kernels::set_backend("scalar");
  } else if (from.scalar_backend) {
    (void)kernels::set_backend(native_backend_);
  }
  degrade_level_.store(level, std::memory_order_relaxed);
  obs::Registry::instance().gauge("serve.degrade_level").set(
      static_cast<double>(level));
  sink_.set_health(level > 0 ? Health::kDegraded : Health::kHealthy);
}

void BatchRunner::restore_backend() {
  if (degrade_level() > 0) (void)kernels::set_backend(native_backend_);
}

void BatchRunner::rebuild_executor() {
  sink_.count(Counter::kExecutorRebuilds, 1);
  BPAR_LOG_ERROR << "serve: runtime poisoned by an unrecovered watchdog "
                    "failure; rebuilding the executor";
  {
    // The traced program pointer aims into the executor being replaced.
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_traced_program_ = nullptr;
  }
  if (fp32_executor_ != nullptr && fp32_executor_->runtime().poisoned()) {
    fp32_executor_.reset();
  }
  if (executor_->runtime().poisoned()) {
    executor_ = make_executor(options_.quantized);
  }
}

void BatchRunner::release_stalls() {
  for (exec::BParExecutor* executor : {executor_.get(), fp32_executor_.get()}) {
    if (executor == nullptr) continue;
    if (auto* injector = executor->runtime().fault_injector()) {
      injector->release_stalls();
    }
  }
}

bool BatchRunner::write_trace(std::ostream& os,
                              const obs::ExtraEventEmitter& extra) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  if (last_traced_program_ == nullptr) return false;
  taskrt::write_unified_trace(last_traced_program_->graph(),
                              last_traced_stats_, os, extra);
  return true;
}

}  // namespace bpar::serve
