// Flight recorder suite (DESIGN.md §5j): bundle round-trip through the
// report schema, trigger debouncing, rotation by count and by bytes, the
// async-signal-safe fatal record, and the engine integrations — a
// breaker trip writing a dump automatically, /debug/dump and /profilez
// over HTTP, and a dump whose trace feeds bpar_prof's analysis model.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/stats_server.hpp"
#include "rnn/network.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace bpar {
namespace {

namespace fs = std::filesystem;

using obs::FlightRecorder;
using obs::FlightRecorderOptions;
using serve::EngineOptions;
using serve::InferenceEngine;
using serve::Request;
using serve::Response;
using serve::Status;

std::string fresh_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / "bpar_flight" / leaf;
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

FlightRecorderOptions fast_options(const std::string& dir) {
  FlightRecorderOptions options;
  options.dir = dir;
  options.stem = "t";
  options.debounce_ms = 0;
  return options;
}

TEST(FlightRecorder, TriggerWritesParseableBundle) {
  FlightRecorder rec(fast_options(fresh_dir("roundtrip")));
  rec.set_trace_writer([](std::ostream& os) {
    os << "{\"traceEvents\": []}";
    return true;
  });
  rec.set_state_json([] { return std::string("{\"type\": \"statz\"}"); });
  rec.set_profile_text([] { return std::string("a;b 3\n"); });

  const auto result = rec.trigger("Unit Test!");
  ASSERT_TRUE(result.written) << result.skipped;
  EXPECT_EQ(result.reason, "unit-test");  // sanitized
  ASSERT_TRUE(fs::exists(result.trace_path));
  ASSERT_TRUE(fs::exists(result.report_path));
  EXPECT_EQ(rec.dumps(), 1U);

  const obs::JsonValue report = obs::json_parse(slurp(result.report_path));
  EXPECT_EQ(report.at("type").str, "flight_dump");
  EXPECT_EQ(report.at("schema_version").number, 1.0);
  EXPECT_EQ(report.at("reason").str, "unit-test");
  EXPECT_GE(report.at("seq").number, 0.0);
  EXPECT_TRUE(report.at("seq").is_number());
  ASSERT_TRUE(report.at("trace_file").is_string());
  EXPECT_EQ(report.at("trace_file").str,
            fs::path(result.trace_path).filename().string());
  EXPECT_EQ(report.at("state").at("type").str, "statz");
  EXPECT_EQ(report.at("profile_folded").str, "a;b 3\n");
  ASSERT_NE(report.find("metrics"), nullptr);

  const obs::JsonValue trace = obs::json_parse(slurp(result.trace_path));
  EXPECT_TRUE(trace.at("traceEvents").is_array());
}

TEST(FlightRecorder, BundleRecordsNullTraceWhenWriterDeclines) {
  FlightRecorder rec(fast_options(fresh_dir("notrace")));
  rec.set_trace_writer([](std::ostream&) { return false; });
  const auto result = rec.trigger("manual");
  ASSERT_TRUE(result.written) << result.skipped;
  EXPECT_TRUE(result.trace_path.empty());
  const obs::JsonValue report = obs::json_parse(slurp(result.report_path));
  EXPECT_TRUE(report.at("trace_file").is_null());
}

TEST(FlightRecorder, DebounceSuppressesRapidTriggers) {
  FlightRecorderOptions options = fast_options(fresh_dir("debounce"));
  options.debounce_ms = 60'000;
  FlightRecorder rec(options);

  ASSERT_TRUE(rec.trigger("first").written);
  const auto second = rec.trigger("second");
  EXPECT_FALSE(second.written);
  EXPECT_EQ(second.skipped, "debounced");
  EXPECT_EQ(rec.dumps(), 1U);
  EXPECT_EQ(rec.suppressed(), 1U);
  EXPECT_EQ(rec.bundle_reports().size(), 1U);
}

TEST(FlightRecorder, RotationKeepsNewestBundlesByCount) {
  FlightRecorderOptions options = fast_options(fresh_dir("rotate_count"));
  options.max_bundles = 3;
  FlightRecorder rec(options);

  for (int i = 0; i < 6; ++i) {
    // append(), not "r" + to_string(): GCC 12 warns a false -Wrestrict
    // inside <string> for literal + temporary.
    const std::string reason = std::string("r").append(std::to_string(i));
    ASSERT_TRUE(rec.trigger(reason).written);
  }
  EXPECT_EQ(rec.dumps(), 6U);
  const auto reports = rec.bundle_reports();
  ASSERT_EQ(reports.size(), 3U);
  // Oldest first; the survivors are the three newest triggers.
  EXPECT_NE(reports[0].find("-r3."), std::string::npos) << reports[0];
  EXPECT_NE(reports[1].find("-r4."), std::string::npos) << reports[1];
  EXPECT_NE(reports[2].find("-r5."), std::string::npos) << reports[2];
}

TEST(FlightRecorder, RotationByBytesNeverPrunesTheNewBundle) {
  FlightRecorderOptions options = fast_options(fresh_dir("rotate_bytes"));
  options.max_bundles = 100;
  options.max_total_bytes = 1;  // any two bundles exceed this
  FlightRecorder rec(options);

  ASSERT_TRUE(rec.trigger("first").written);
  const auto second = rec.trigger("second");
  ASSERT_TRUE(second.written);
  const auto reports = rec.bundle_reports();
  ASSERT_EQ(reports.size(), 1U);
  EXPECT_EQ(reports[0], second.report_path);
  ASSERT_TRUE(fs::exists(second.trace_path) || second.trace_path.empty());
}

TEST(FlightRecorder, FatalRecordWritesPreSerializedMarker) {
  FlightRecorder rec(fast_options(fresh_dir("fatal")));
  ASSERT_TRUE(rec.install_fatal_handler());
  ASSERT_FALSE(rec.fatal_path().empty());
  // A second recorder cannot steal the process-wide handlers.
  FlightRecorder other(fast_options(fresh_dir("fatal_other")));
  EXPECT_FALSE(other.install_fatal_handler());

  // Exactly what the signal handler write()s, minus the re-raise.
  rec.write_fatal_record(11);
  const std::string marker = slurp(rec.fatal_path());
  EXPECT_NE(marker.find("\"type\": \"flight_fatal\""), std::string::npos)
      << marker;
  EXPECT_NE(marker.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(marker.find("signal 11"), std::string::npos);
}

// ---- engine integration ----

rnn::NetworkConfig small_config() {
  rnn::NetworkConfig cfg;
  cfg.cell = rnn::CellType::kLstm;
  cfg.input_size = 5;
  cfg.hidden_size = 8;
  cfg.num_layers = 2;
  cfg.seq_length = 6;
  cfg.batch_size = 4;
  cfg.num_classes = 4;
  return cfg;
}

EngineOptions dump_options(const std::string& dir) {
  EngineOptions options;
  options.executor.num_workers = 2;
  options.executor.num_replicas = 2;
  options.max_batch = 4;
  options.shed_wait_us = 10'000'000;  // keep the shed valve out of play
  options.dump_dir = dir;
  options.dump_debounce_ms = 0;
  return options;
}

// The headline acceptance path: a fault-induced breaker trip must leave a
// dump bundle behind without anyone asking for one.
TEST(FlightEngine, BreakerTripWritesDumpBundleAutomatically) {
  const auto cfg = small_config();
  EngineOptions options = dump_options(fresh_dir("breaker"));
  options.max_batch_retries = 0;
  options.breaker_threshold = 1;  // first failed batch trips
  InferenceEngine engine(cfg, options);
  ASSERT_NE(engine.flight_recorder(), nullptr);

  Request poison = serve::make_request(cfg, cfg.seq_length, 1, true);
  poison.features[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(engine.infer(poison).status, Status::kInternalError);
  EXPECT_GE(engine.degrade_level(), 1);

  ASSERT_GE(engine.flight_recorder()->dumps(), 1U);
  // With the debounce at 0 the 100%-error SLO alert may add a second
  // bundle right behind the trip; find the breaker's.
  const auto reports = engine.flight_recorder()->bundle_reports();
  ASSERT_FALSE(reports.empty());
  std::string trip_report;
  for (const auto& path : reports) {
    if (path.find("breaker-trip") != std::string::npos) trip_report = path;
  }
  ASSERT_FALSE(trip_report.empty()) << reports.front();
  const obs::JsonValue report = obs::json_parse(slurp(trip_report));
  EXPECT_EQ(report.at("type").str, "flight_dump");
  EXPECT_EQ(report.at("reason").str, "breaker-trip");
  // The engine wires statz_json in as the state provider; the dump fires
  // right after the breaker steps down, so the captured state shows it.
  EXPECT_EQ(report.at("state").at("type").str, "statz");
  EXPECT_GE(report.at("state").at("engine").at("degrade_level").number, 1.0);
}

TEST(FlightEngine, DebugDumpEndpointAndProfilezServeOverHttp) {
  const auto cfg = small_config();
  EngineOptions options = dump_options(fresh_dir("http"));
  options.stats_port = 0;
  InferenceEngine engine(cfg, options);
  const int port = engine.stats_port();
  ASSERT_GT(port, 0);

  const auto dump = obs::http_get("127.0.0.1",
                                  static_cast<std::uint16_t>(port),
                                  "/debug/dump?reason=itest");
  ASSERT_TRUE(dump.ok) << dump.error;
  ASSERT_EQ(dump.status, 200) << dump.body;
  const obs::JsonValue body = obs::json_parse(dump.body);
  EXPECT_TRUE(body.at("written").boolean);
  EXPECT_EQ(body.at("reason").str, "itest");
  EXPECT_EQ(engine.flight_recorder()->dumps(), 1U);
  ASSERT_TRUE(fs::exists(body.at("report").str));

  // /profilez spins an ephemeral profiler over the window; keep the engine
  // busy meanwhile so the folded stacks name real span paths.
  std::thread load([&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(900);
    std::uint64_t seed = 1;
    while (std::chrono::steady_clock::now() < until) {
      (void)engine.infer(serve::make_request(cfg, cfg.seq_length, ++seed,
                                             /*with_labels=*/true));
    }
  });
  const auto prof = obs::http_get("127.0.0.1",
                                  static_cast<std::uint16_t>(port),
                                  "/profilez?seconds=0.5");
  load.join();
  ASSERT_TRUE(prof.ok) << prof.error;
  ASSERT_EQ(prof.status, 200);
  EXPECT_FALSE(prof.body.empty());
  // Collapsed-flamegraph shape: every line is "stack count".
  std::istringstream lines(prof.body);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_NE(line.rfind(' '), std::string::npos) << line;
  }
}

// A dump taken from a record_trace engine after real traffic must feed the
// same analysis model bpar_prof analyze builds from a trace file.
TEST(FlightEngine, DumpTraceFeedsAnalysisModel) {
  const auto cfg = small_config();
  EngineOptions options = dump_options(fresh_dir("analyze"));
  options.record_trace = true;
  InferenceEngine engine(cfg, options);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ASSERT_EQ(engine.infer(serve::make_request(cfg, cfg.seq_length, seed,
                                               /*with_labels=*/true))
                  .status,
              Status::kOk);
  }
  const auto result = engine.trigger_dump("manual");
  ASSERT_TRUE(result.written) << result.skipped;
  ASSERT_FALSE(result.trace_path.empty());

  const obs::JsonValue trace = obs::json_parse(slurp(result.trace_path));
  const auto model = obs::analysis::model_from_trace_json(trace);
  EXPECT_FALSE(model.tasks.empty());
  EXPECT_GT(model.num_workers, 0);
}

TEST(FlightEngine, TriggerDumpWithoutDumpDirSaysWhy) {
  const auto cfg = small_config();
  EngineOptions options = dump_options("");
  options.dump_dir.clear();
  InferenceEngine engine(cfg, options);
  EXPECT_EQ(engine.flight_recorder(), nullptr);
  const auto result = engine.trigger_dump("manual");
  EXPECT_FALSE(result.written);
  EXPECT_NE(result.skipped.find("dump_dir"), std::string::npos);
}

}  // namespace
}  // namespace bpar
