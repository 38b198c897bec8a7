#include "serve/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/memory.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace bpar::serve {

namespace {

constexpr Clock::time_point kNoDeadline{};

/// Registry name, /statz "engine" key and EngineStats field of each
/// Counter, indexed by Counter.
struct CounterName {
  const char* metric;
  const char* statz;
  std::uint64_t EngineStats::*field;
};
constexpr std::array<CounterName, kNumCounters> kCounterNames = {{
    {"serve.requests", "submitted", &EngineStats::submitted},
    {"serve.completed", "completed", &EngineStats::completed},
    {"serve.rejected", "rejected", &EngineStats::rejected},
    {"serve.shed", "shed", &EngineStats::shed},
    {"serve.deadline_exceeded", "expired", &EngineStats::expired},
    {"serve.failed", "failed", &EngineStats::failed},
    {"serve.internal_errors", "internal_errors",
     &EngineStats::internal_errors},
    {"serve.batches", "batches", &EngineStats::batches},
    {"serve.padded_rows", "padded_rows", &EngineStats::padded_rows},
    {"serve.retries", "retries", &EngineStats::retries},
    {"serve.bisections", "bisections", &EngineStats::bisections},
    {"serve.degraded", "degraded_steps", &EngineStats::degraded_steps},
    {"serve.recovered", "recovered_steps", &EngineStats::recovered_steps},
    {"serve.watchdog_fires", "watchdog_fires", &EngineStats::watchdog_fires},
    {"serve.executor_rebuilds", "executor_rebuilds",
     &EngineStats::executor_rebuilds},
}};

/// JSON object fields: keys and already-encoded values, in order.
using JsonFields = std::vector<std::pair<std::string, std::string>>;

std::string json_object(const JsonFields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += obs::json_quote(key) + ": " + value;
  }
  return out + "}";
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Value of `key=value` inside an HTTP query string ("" when absent).
std::string query_param(std::string_view query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string_view::npos) end = query.size();
    const std::string_view pair = query.substr(pos, end - pos);
    if (pair.size() > key.size() + 1 &&
        pair.substr(0, key.size()) == key && pair[key.size()] == '=') {
      return std::string(pair.substr(key.size() + 1));
    }
    pos = end + 1;
  }
  return {};
}

}  // namespace

InferenceEngine::InferenceEngine(const rnn::NetworkConfig& config,
                                 EngineOptions options)
    : net_(config),
      options_(std::move(options)),
      started_(Clock::now()),
      slo_(options_.slo),
      runner_(net_, options_, *this),
      queue_(options_) {
  for (std::size_t c = 0; c < metrics_.size(); ++c) {
    metrics_[c] = &obs::Registry::instance().counter(kCounterNames[c].metric);
  }
  start_telemetry();
  progress();
  if (options_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void InferenceEngine::start_telemetry() {
  if (options_.enable_profiler) {
    profiler_ = std::make_unique<obs::SpanProfiler>(
        obs::ProfilerOptions{.period_us = options_.profiler_period_us});
    profiler_->start();
  }
  if (!options_.dump_dir.empty()) {
    flight_ = std::make_unique<obs::FlightRecorder>(obs::FlightRecorderOptions{
        .dir = options_.dump_dir,
        .max_bundles = options_.dump_max_bundles,
        .max_total_bytes = options_.dump_max_total_bytes,
        .debounce_ms = options_.dump_debounce_ms});
    // Dump traces: the last traced micro-batch's task slices (the rows
    // `bpar_prof analyze` needs) + spans + request markers; without a
    // traced batch (record_trace off, or nothing served yet) spans and
    // request markers still make a timeline Perfetto opens.
    flight_->set_trace_writer([this](std::ostream& os) {
      const obs::ExtraEventEmitter emit_requests = request_marker_emitter();
      if (!runner_.write_trace(os, emit_requests)) {
        obs::write_trace_json(os, emit_requests);
      }
      return true;
    });
    flight_->set_state_json([this] { return statz_json(); });
    flight_->set_profile_text([this] {
      return profiler_ != nullptr ? profiler_->folded_text() : std::string();
    });
    if (!flight_->install_fatal_handler()) {
      BPAR_LOG_WARN << "serve: fatal-signal dump marker unavailable "
                       "(another recorder owns the handlers?)";
    }
    BPAR_LOG_INFO << "serve: flight recorder armed, dumping to "
                  << options_.dump_dir;
  }

  if (options_.stats_port < 0) return;
  // /statz windows need time series behind them: the listener brings the
  // sampler along.
  obs::SamplerOptions sampler_options;
  sampler_options.period_ms = options_.sampler_period_ms;
  sampler_options.rate_series = {"serve.requests", "serve.completed"};
  sampler_ = std::make_unique<obs::MetricsSampler>(sampler_options);
  sampler_->start();
  stats_server_ = std::make_unique<obs::StatsServer>();
  stats_server_->handle("/healthz", [](std::string_view) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  stats_server_->handle("/metrics", [](std::string_view) {
    return obs::HttpResponse{
        200, "text/plain; version=0.0.4; charset=utf-8",
        obs::prometheus_text(
            obs::Registry::instance().snapshot(/*include_series=*/false))};
  });
  stats_server_->handle("/statz", [this](std::string_view) {
    return obs::HttpResponse{200, "application/json", statz_json()};
  });
  // Manual flight dump: GET /debug/dump[?reason=<slug>]. Debounced like
  // every other trigger so a curl loop cannot flood the directory.
  stats_server_->handle("/debug/dump", [this](std::string_view query) {
    std::string reason = query_param(query, "reason");
    if (reason.empty()) reason = "manual";
    const obs::DumpResult result = trigger_dump(reason);
    std::string body = "{\"written\": ";
    body += result.written ? "true" : "false";
    body += ", \"reason\": " + obs::json_quote(result.reason);
    if (!result.skipped.empty()) {
      body += ", \"skipped\": " + obs::json_quote(result.skipped);
    }
    if (result.written) {
      body += ", \"trace\": " + obs::json_quote(result.trace_path);
      body += ", \"report\": " + obs::json_quote(result.report_path);
    }
    body += "}\n";
    return obs::HttpResponse{result.written ? 200 : 503,
                             "application/json", body};
  });
  // Live profile window: GET /profilez?seconds=N returns collapsed
  // flamegraph text. Blocks the (single-connection) stats thread for the
  // window, which is exactly what a "profile the next N seconds" call
  // means.
  stats_server_->handle("/profilez", [this](std::string_view query) {
    double seconds = 2.0;
    if (const std::string v = query_param(query, "seconds"); !v.empty()) {
      seconds = std::strtod(v.c_str(), nullptr);
    }
    seconds = std::clamp(seconds, 0.1, 30.0);
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             profile_folded(seconds)};
  });
  if (stats_server_->start(
          static_cast<std::uint16_t>(options_.stats_port))) {
    BPAR_LOG_INFO << "serve: stats endpoint listening on port "
                  << stats_server_->port()
                  << " (/metrics /statz /healthz /profilez /debug/dump)";
  } else {
    BPAR_LOG_WARN << "serve: could not bind stats port "
                  << options_.stats_port << "; serving without endpoint";
    stats_server_.reset();
  }
}

InferenceEngine::~InferenceEngine() { shutdown(); }

void InferenceEngine::load_weights(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BPAR_CHECK(in.good(), "cannot open ", path);
  net_.load(in);
  runner_.executor().refresh_quantized_weights();
}

void InferenceEngine::warmup(std::span<const int> seq_lengths) {
  BPAR_SPAN("serve.warmup");
  for (const int steps : seq_lengths) {
    for (int rows = 1; rows <= options_.max_batch; rows *= 2) {
      (void)executor().infer_program(steps, rows);
    }
    if (!options_.enable_batching) {
      (void)executor().infer_program(steps, 1);
    }
  }
}

std::string InferenceEngine::validate(const Request& request) const {
  const auto& cfg = net_.config();
  if (request.steps < 1) return "request has no timesteps";
  const auto want = static_cast<std::size_t>(request.steps) *
                    static_cast<std::size_t>(cfg.input_size);
  if (request.features.size() != want) {
    return "feature count " + std::to_string(request.features.size()) +
           " != steps*input_size = " + std::to_string(want);
  }
  const std::size_t outputs =
      cfg.many_to_many ? static_cast<std::size_t>(request.steps) : 1U;
  if (!request.labels.empty() && request.labels.size() != outputs) {
    return "label count " + std::to_string(request.labels.size()) +
           " != outputs = " + std::to_string(outputs);
  }
  for (const int label : request.labels) {
    if (label < 0 || label >= cfg.num_classes) return "label out of range";
  }
  return {};
}

std::future<Response> InferenceEngine::submit(Request request) {
  BPAR_SPAN("serve.submit");
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = Clock::now();
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<Response> future = pending.promise.get_future();
  const std::uint64_t id = pending.id;
  count(Counter::kRequests, 1);
  event(id, RequestStage::kSubmitted, 0);

  Response immediate;
  if (std::string error = validate(pending.request); !error.empty()) {
    immediate.status = Status::kFailed;
    immediate.error = std::move(error);
  } else if (pending.request.deadline != kNoDeadline &&
             pending.enqueued > pending.request.deadline) {
    // An already-expired deadline never earns a queue slot: answering now
    // keeps dead requests from delaying live ones through the bounded queue.
    immediate.status = Status::kDeadlineExceeded;
  } else {
    const auto cls = static_cast<std::int32_t>(pending.request.priority);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      immediate.status = Status::kShutdown;
    } else if (!queue_.admit(pending)) {
      immediate.status = Status::kRejected;
    } else {
      event(id, RequestStage::kQueued, cls);
      cv_.notify_all();
      return future;
    }
  }
  answer(pending, std::move(immediate));
  return future;
}

Response InferenceEngine::infer(Request request) {
  return submit(std::move(request)).get();
}

void InferenceEngine::answer(Pending& pending, Response response) {
  static obs::HistogramCell& queue_histogram =
      latency_histogram("serve.queue_us");
  static obs::HistogramCell& request_histogram =
      latency_histogram("serve.request_us");
  response.id = pending.id;
  // kRejected / kShutdown / kFailed are not SLO-eligible: they are client
  // errors or the client's own backpressure signal, not service failures.
  switch (response.status) {
    case Status::kOk: {
      const double request_us = us_between(pending.enqueued, Clock::now());
      queue_histogram.add(response.queue_us);
      request_histogram.add(request_us);
      slo_.record(true, request_us);
      count(Counter::kCompleted, 1);
      break;
    }
    case Status::kShed:
      slo_.record(false, 0.0);
      count(Counter::kShed, 1);
      break;
    case Status::kDeadlineExceeded:
      slo_.record(false, 0.0);
      count(Counter::kDeadlineExceeded, 1);
      break;
    case Status::kInternalError:
      slo_.record(false, 0.0);
      count(Counter::kInternalErrors, 1);
      break;
    case Status::kRejected:
      count(Counter::kRejected, 1);
      break;
    case Status::kFailed:
      count(Counter::kFailed, 1);
      break;
    case Status::kShutdown:
      break;
  }
  event(pending.id, RequestStage::kResponded,
        static_cast<std::int32_t>(response.status));
  pending.promise.set_value(std::move(response));
}

void InferenceEngine::count(Counter counter, std::uint64_t n) {
  const auto c = static_cast<std::size_t>(counter);
  counts_[c].fetch_add(n, std::memory_order_relaxed);
  metrics_[c]->add(n);
}

void InferenceEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed) &&
        !dispatcher_.joinable()) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
    set_health(Health::kDraining);
  }
  cv_.notify_all();
  watchdog_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (watchdog_.joinable()) watchdog_.join();
  // A degraded engine may have switched the process-global kernel backend
  // to scalar; leaving that behind would slow every later user.
  runner_.restore_backend();
  // Observability plane last: /statz handlers read stats(), so the
  // listener must not outlive anything it snapshots.
  if (stats_server_ != nullptr) stats_server_->stop();
  if (sampler_ != nullptr) sampler_->stop();
  if (profiler_ != nullptr) profiler_->stop();
}

void InferenceEngine::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> shed;
    std::vector<Pending> taken;
    Clock::time_point sealed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      progress();
      if (queue_.empty()) return;  // stopping && drained

      shed = queue_.shed_overdue(Clock::now());
      if (const Pending* head = queue_.head(); head != nullptr) {
        // Strict priority: the head comes from the highest non-empty class
        // and defines the micro-batch's shape group. BRNN outputs depend on
        // the whole sequence, so only requests with the SAME length
        // coalesce (the batch dimension pads; timesteps never do).
        const int steps = head->request.steps;
        const int cap = runner_.batch_cap();
        const Clock::time_point flush_at =
            head->enqueued + std::chrono::microseconds(options_.max_delay_us);
        while (!stopping_.load(std::memory_order_relaxed) &&
               queue_.count_steps(steps) < static_cast<std::size_t>(cap) &&
               Clock::now() < flush_at) {
          cv_.wait_until(lock, flush_at);
        }
        sealed = Clock::now();
        taken = queue_.seal(steps, cap);
        for (const Pending& p : taken) {
          event(p.id, RequestStage::kSealed,
                static_cast<std::int32_t>(taken.size()));
        }
      }
    }
    if (!shed.empty()) {
      BPAR_SPAN("serve.shed");
      const Clock::time_point now = Clock::now();
      for (Pending& p : shed) {
        Response response;
        response.status = Status::kShed;
        response.queue_us = us_between(p.enqueued, now);
        answer(p, std::move(response));
      }
    }
    if (taken.empty()) continue;
    in_flight_.store(true, std::memory_order_relaxed);
    serve_batch(std::move(taken), sealed);
    in_flight_.store(false, std::memory_order_relaxed);
    progress();
  }
}

void InferenceEngine::serve_batch(std::vector<Pending> taken,
                                  Clock::time_point sealed) {
  BPAR_SPAN("serve.batch");
  // Expired requests answer without executing.
  std::vector<Pending> live;
  live.reserve(taken.size());
  for (Pending& p : taken) {
    if (p.request.deadline != kNoDeadline && sealed > p.request.deadline) {
      Response response;
      response.status = Status::kDeadlineExceeded;
      response.queue_us = us_between(p.enqueued, sealed);
      answer(p, std::move(response));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  runner_.run(std::move(live), sealed);
  // Dump on the rising edge of SLO both-window alerting only: a sustained
  // alert is one incident, not one dump per batch (the debounce would eat
  // most of them anyway, but edge detection keeps suppressed() meaningful).
  const bool alerting = slo_.snapshot().alerting;
  if (alerting && !slo_alerting_prev_) (void)trigger_dump("slo-alert");
  slo_alerting_prev_ = alerting;

  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - started_).count();
  if (elapsed_s > 0.0) {
    const auto completed = counts_[static_cast<std::size_t>(
        Counter::kCompleted)].load(std::memory_order_relaxed);
    obs::Registry::instance().gauge("serve.throughput_rps")
        .set(static_cast<double>(completed) / elapsed_s);
  }
}


void InferenceEngine::set_health(Health health) {
  if (health != Health::kDraining &&
      stopping_.load(std::memory_order_relaxed)) {
    return;
  }
  const int value = static_cast<int>(health);
  const int previous = health_.exchange(value, std::memory_order_relaxed);
  if (previous == value) return;
  auto& registry = obs::Registry::instance();
  registry.gauge("serve.health").set(static_cast<double>(value));
  registry.counter("serve.health_transitions").add();
  BPAR_LOG_INFO << "serve: health "
                << health_name(static_cast<Health>(previous)) << " -> "
                << health_name(health);
}

void InferenceEngine::progress() {
  last_progress_ns_.store(steady_ns(), std::memory_order_relaxed);
}

void InferenceEngine::watchdog_loop() {
  const auto period = std::chrono::milliseconds(
      std::max<std::uint32_t>(1, options_.watchdog_ms / 4));
  const auto deadline_ns =
      static_cast<std::uint64_t>(options_.watchdog_ms) * 1'000'000ULL;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, period);
    const bool busy =
        in_flight_.load(std::memory_order_relaxed) || !queue_.empty();
    if (!busy) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      continue;
    }
    const std::uint64_t idle =
        steady_ns() - last_progress_ns_.load(std::memory_order_relaxed);
    if (idle < deadline_ns) continue;

    // The dispatcher has work but made no progress for a full watchdog
    // period. The only recoverable cause we can act on from here is an
    // injected stall the runtime watchdog is not armed to catch: release
    // it so the blocked infer() completes. Everything else just gets
    // counted and logged loudly.
    count(Counter::kWatchdogFires, 1);
    set_health(Health::kDegraded);
    BPAR_LOG_ERROR << "serve: engine watchdog fired after "
                   << options_.watchdog_ms
                   << " ms without dispatcher progress (queued="
                   << queue_.size() << ", in_flight="
                   << in_flight_.load(std::memory_order_relaxed)
                   << "); releasing injected stalls";
    lock.unlock();
    runner_.release_stalls();
    // mu_ is released here, so the dump's statz snapshot cannot deadlock
    // against the stalled dispatcher.
    (void)trigger_dump("engine-watchdog");
    progress();  // rate-limit: one fire per silent period
    lock.lock();
  }
}

void InferenceEngine::event(std::uint64_t id, RequestStage stage,
                            std::int32_t arg) {
  if (!options_.trace_requests) return;
  RequestEvent ev;
  ev.id = id;
  ev.ts_ns = steady_ns();
  ev.stage = stage;
  ev.arg = arg;
  const std::lock_guard<std::mutex> lock(req_mu_);
  while (request_events_.size() >= kMaxRequestEvents) {
    request_events_.pop_front();
    ++request_events_dropped_;
  }
  request_events_.push_back(ev);
}

std::vector<RequestEvent> InferenceEngine::request_events() const {
  const std::lock_guard<std::mutex> lock(req_mu_);
  return {request_events_.begin(), request_events_.end()};
}

std::uint64_t InferenceEngine::request_events_dropped() const {
  const std::lock_guard<std::mutex> lock(req_mu_);
  return request_events_dropped_;
}

int InferenceEngine::stats_port() const {
  return stats_server_ != nullptr ? stats_server_->port() : -1;
}

std::string InferenceEngine::statz_json() const {
  const EngineStats s = stats();
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const auto num = [](double v) { return obs::json_number(v); };

  JsonFields engine;
  for (const CounterName& c : kCounterNames) {
    engine.emplace_back(c.statz, u64(s.*c.field));
  }
  JsonFields depths = {{"total", u64(s.queue_depth)}};
  for (std::size_t cls = 0; cls < s.queue_depths.size(); ++cls) {
    depths.emplace_back(priority_name(static_cast<Priority>(cls)),
                        u64(s.queue_depths[cls]));
  }
  engine.emplace_back("degrade_level", std::to_string(s.degrade_level));
  engine.emplace_back("health", obs::json_quote(health_name(s.health)));
  engine.emplace_back("queue_depth", json_object(depths));

  const std::string slo = json_object(
      {{"eligible", u64(s.slo.eligible)},
       {"errors", u64(s.slo.errors)},
       {"latency_misses", u64(s.slo.latency_misses)},
       {"availability", num(s.slo.availability)},
       {"latency_attainment", num(s.slo.latency_attainment)},
       {"budget_consumed", num(s.slo.budget_consumed)},
       {"burn_short", num(s.slo.burn_short)},
       {"burn_long", num(s.slo.burn_long)},
       {"alerting", s.slo.alerting ? "true" : "false"},
       {"availability_objective",
        num(slo_.options().availability_objective)},
       {"latency_target_us", num(slo_.options().latency_target_us)}});

  // Memory observability (DESIGN.md §5j): subsystem trackers + a fresh
  // /proc/self sample, so bpar_top and dump bundles see where the heap is.
  const auto tracker = [&u64](const obs::MemTracker& t) {
    return json_object({{"bytes", u64(t.current_bytes())},
                        {"peak_bytes", u64(t.peak_bytes())},
                        {"total_bytes", u64(t.total_bytes())},
                        {"allocs", u64(t.allocs())},
                        {"frees", u64(t.frees())}});
  };
  std::string proc = "null";
  if (const obs::ProcSelfStats p = obs::read_proc_self(); p.valid) {
    proc = json_object({{"rss_bytes", num(p.rss_bytes)},
                        {"vm_bytes", num(p.vm_bytes)},
                        {"minor_faults", num(p.minor_faults)},
                        {"major_faults", num(p.major_faults)},
                        {"threads", num(p.threads)},
                        {"ctx_voluntary", num(p.ctx_voluntary)},
                        {"ctx_involuntary", num(p.ctx_involuntary)}});
  }
  const std::string memory =
      json_object({{"tensor", tracker(obs::tensor_memory())},
                   {"program_cache", tracker(obs::program_cache_memory())},
                   {"serve_queue", tracker(obs::serve_queue_memory())},
                   {"proc", proc}});

  std::string flight = "null";
  if (flight_ != nullptr) {
    flight = json_object({{"dumps", u64(flight_->dumps())},
                          {"suppressed", u64(flight_->suppressed())},
                          {"dir", obs::json_quote(flight_->options().dir)}});
  }
  std::string profiler = "null";
  if (profiler_ != nullptr) {
    profiler =
        json_object({{"samples", u64(profiler_->samples())},
                     {"sweeps", u64(profiler_->sweeps())},
                     {"torn", u64(profiler_->torn())},
                     {"truncations", u64(obs::span_stack_truncations())}});
  }
  std::string sampler = "null";
  if (sampler_ != nullptr) {
    constexpr double kWindowS = 10.0;
    JsonFields counters;
    for (const std::string& name : sampler_->counter_names()) {
      if (name.rfind("serve.", 0) != 0) continue;
      const auto w = sampler_->counter_window(name, kWindowS);
      if (!w.valid) continue;
      counters.emplace_back(
          name, json_object({{"rate_per_s", num(w.rate_per_s)},
                             {"delta", num(w.delta)},
                             {"seconds", num(w.seconds)}}));
    }
    JsonFields histograms;
    for (const std::string& name : sampler_->histogram_names()) {
      if (name.rfind("serve.", 0) != 0) continue;
      const auto w = sampler_->histogram_window(name, kWindowS);
      if (!w.valid) continue;
      histograms.emplace_back(
          name, json_object({{"count", num(w.count)},
                             {"mean", num(w.mean)},
                             {"p50", num(w.p50)},
                             {"p95", num(w.p95)},
                             {"p99", num(w.p99)}}));
    }
    sampler = json_object(
        {{"period_ms", std::to_string(sampler_->period_ms())},
         {"samples", std::to_string(sampler_->samples())},
         {"ticks", u64(sampler_->ticks())},
         {"window_s", num(kWindowS)},
         {"windows", json_object({{"counters", json_object(counters)},
                                  {"histograms", json_object(histograms)}})}});
  }

  return json_object(
      {{"type", obs::json_quote("statz")},
       {"schema_version", "1"},
       {"uptime_s",
        num(std::chrono::duration<double>(Clock::now() - started_).count())},
       {"engine", json_object(engine)},
       {"slo", slo},
       {"memory", memory},
       {"flight", flight},
       {"profiler", profiler},
       {"sampler", sampler},
       {"metrics", obs::metrics_json(obs::Registry::instance().snapshot())}});
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    s.*kCounterNames[c].field = counts_[c].load(std::memory_order_relaxed);
  }
  s.degrade_level = degrade_level();
  s.health = health();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depths = queue_.depths();
    s.queue_depth = queue_.size();
  }
  s.slo = slo_.snapshot();
  return s;
}

Health InferenceEngine::health() const {
  return static_cast<Health>(health_.load(std::memory_order_relaxed));
}

obs::ExtraEventEmitter InferenceEngine::request_marker_emitter() const {
  // Request stage markers ride along as instants on their own row (tid 99,
  // below the worker rows, beside the obs ring rows at 100+): one
  // "req.<stage>" marker per event with {req, arg[, status]} args so
  // `bpar_prof request <id>` can rebuild any request's timeline. Events
  // are captured by value: the emitter must stay valid after this returns.
  return [events = request_events()](obs::ChromeTraceWriter& writer,
                                     std::uint64_t base_ns) {
    constexpr int kPid = 1;
    constexpr int kRequestTid = 99;
    if (events.empty()) return;
    writer.thread_name(kPid, kRequestTid, "requests");
    for (const RequestEvent& event : events) {
      const std::uint64_t ts =
          event.ts_ns > base_ns ? event.ts_ns - base_ns : 0;
      std::string args = "{\"req\": " + std::to_string(event.id) +
                         ", \"arg\": " + std::to_string(event.arg);
      if (event.stage == RequestStage::kResponded) {
        args += ", \"status\": " +
                obs::json_quote(status_name(
                    static_cast<Status>(event.arg)));
      }
      args += "}";
      writer.instant_args(
          std::string("req.") + request_stage_name(event.stage), ts, kPid,
          kRequestTid, args);
    }
  };
}

void InferenceEngine::write_unified_trace(const std::string& path) {
  BPAR_CHECK(options_.record_trace,
             "write_unified_trace requires EngineOptions::record_trace");
  std::ofstream os(path);
  BPAR_CHECK(os.good(), "cannot open ", path);
  BPAR_CHECK(runner_.write_trace(os, request_marker_emitter()),
             "no micro-batch has been served yet");
}

obs::DumpResult InferenceEngine::trigger_dump(std::string_view reason) {
  if (flight_ == nullptr) {
    obs::DumpResult result;
    result.reason = std::string(reason);
    result.skipped = "no flight recorder (EngineOptions::dump_dir empty)";
    return result;
  }
  return flight_->trigger(reason);
}

std::string InferenceEngine::profile_folded(double seconds) {
  const auto window = std::chrono::duration<double>(seconds);
  if (profiler_ != nullptr) {
    // Continuous profiler: a windowed delta of its running aggregates.
    const std::vector<obs::SpanProfiler::Fold> before = profiler_->folded();
    std::this_thread::sleep_for(window);
    return obs::folded_to_text(obs::fold_delta(before, profiler_->folded()));
  }
  // No continuous profiler: spin one up just for the window.
  obs::ProfilerOptions po;
  po.period_us =
      options_.profiler_period_us != 0 ? options_.profiler_period_us : 2000;
  obs::SpanProfiler ephemeral(po);
  ephemeral.start();
  std::this_thread::sleep_for(window);
  ephemeral.stop();
  return ephemeral.folded_text();
}

std::size_t InferenceEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace bpar::serve
