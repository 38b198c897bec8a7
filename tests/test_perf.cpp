// perf subsystem tests: histograms, timers, perf_event wrapper fallback,
// and the analytic GPU model's calibrated shape.
#include <gtest/gtest.h>

#include <thread>

#include "obs/histogram.hpp"
#include "perf/gpu_model.hpp"
#include "perf/perf_events.hpp"
#include "perf/timer.hpp"

namespace bpar::perf {
namespace {

using obs::Histogram;

TEST(Histogram, BinningAndFractions) {
  Histogram h({1.0, 2.0, 3.0});
  h.add(0.5, 2.0);   // bin 0
  h.add(1.5, 1.0);   // bin 1
  h.add(2.0, 1.0);   // bin 2 (>= edge goes right)
  h.add(10.0, 4.0);  // bin 3
  EXPECT_EQ(h.bins(), 4U);
  EXPECT_EQ(h.bin_weight(0), 2.0);
  EXPECT_EQ(h.bin_weight(1), 1.0);
  EXPECT_EQ(h.bin_weight(2), 1.0);
  EXPECT_EQ(h.bin_weight(3), 4.0);
  EXPECT_NEAR(h.bin_fraction(3), 0.5, 1e-12);
  EXPECT_NEAR(h.mean(), (0.5 * 2 + 1.5 + 2.0 + 10.0 * 4) / 8.0, 1e-12);
}

TEST(Histogram, Labels) {
  Histogram h({1.5, 2.0});
  EXPECT_EQ(h.bin_label(0), "<1.5");
  EXPECT_EQ(h.bin_label(1), "1.5-2.0");
  EXPECT_EQ(h.bin_label(2), ">=2.0");
}

TEST(Histogram, EmptyHistogramSafe) {
  Histogram h({1.0});
  EXPECT_EQ(h.bin_fraction(0), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.elapsed_ms(), 15.0);
  EXPECT_LT(timer.elapsed_ms(), 5000.0);
  timer.reset();
  EXPECT_LT(timer.elapsed_ms(), 15.0);
}

TEST(PerfCounters, GracefulWhenUnavailable) {
  PerfCounters counters;
  counters.start();
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  const auto sample = counters.stop();
  if (counters.available()) {
    ASSERT_TRUE(sample.has_value());
    EXPECT_GT(sample->instructions, 0U);
    EXPECT_GT(sample->ipc(), 0.0);
  } else {
    EXPECT_FALSE(sample.has_value());
  }
}

TEST(GpuModel, ParamCountMatchesPaper) {
  GpuWorkload w{.gates = 4,
                .input_size = 256,
                .hidden_size = 256,
                .batch_size = 1,
                .seq_length = 2,
                .layers = 6};
  EXPECT_NEAR(brnn_param_count(w) / 1e6, 6.3, 0.15);
  w.gates = 3;
  EXPECT_NEAR(brnn_param_count(w) / 1e6, 4.7, 0.15);
}

TEST(GpuModel, SmallSequencesAreLatencyBound) {
  // Paper: for batch 1 / seq 2, GPU ≈ 24 ms regardless of compute — the
  // regime where B-Par on CPU wins (Table III row 256/256/1/2).
  const auto params = keras_v100();
  GpuWorkload tiny{.gates = 4,
                   .input_size = 256,
                   .hidden_size = 256,
                   .batch_size = 1,
                   .seq_length = 2,
                   .layers = 6};
  const auto t = gpu_batch_time_ms(params, tiny);
  ASSERT_TRUE(t.has_value());
  EXPECT_GT(*t, 20.0);
  EXPECT_LT(*t, 30.0);
}

TEST(GpuModel, LargeBatchesAreThroughputBound) {
  // Table III row 64/1024/256/100: K-GPU ≈ 1277 ms. The model should land
  // within ~2x.
  const auto params = keras_v100();
  GpuWorkload big{.gates = 4,
                  .input_size = 64,
                  .hidden_size = 1024,
                  .batch_size = 256,
                  .seq_length = 100,
                  .layers = 6};
  const auto t = gpu_batch_time_ms(params, big);
  ASSERT_TRUE(t.has_value());
  EXPECT_GT(*t, 600.0);
  EXPECT_LT(*t, 2600.0);
}

TEST(GpuModel, PytorchLaunchOverheadDominatesLongSequences) {
  // Table III row 256/256/1/100: P-GPU ≈ 516 ms vs K-GPU ≈ 81 ms.
  GpuWorkload w{.gates = 4,
                .input_size = 256,
                .hidden_size = 256,
                .batch_size = 1,
                .seq_length = 100,
                .layers = 6};
  const auto keras = gpu_batch_time_ms(keras_v100(), w);
  const auto pytorch = gpu_batch_time_ms(pytorch_v100(), w);
  ASSERT_TRUE(keras.has_value());
  ASSERT_TRUE(pytorch.has_value());
  EXPECT_GT(*pytorch, *keras * 3.0);
}

TEST(GpuModel, PytorchHangsOnHugeModels) {
  // Tables III/IV leave P-GPU blank above ~90M parameters.
  GpuWorkload huge{.gates = 4,
                   .input_size = 64,
                   .hidden_size = 1024,
                   .batch_size = 256,
                   .seq_length = 100,
                   .layers = 6};
  EXPECT_FALSE(gpu_batch_time_ms(pytorch_v100(), huge).has_value());
  EXPECT_TRUE(gpu_batch_time_ms(keras_v100(), huge).has_value());
}

TEST(GpuModel, MonotoneInWork) {
  const auto params = keras_v100();
  GpuWorkload w{.gates = 4,
                .input_size = 64,
                .hidden_size = 128,
                .batch_size = 32,
                .seq_length = 10,
                .layers = 2};
  const auto base = gpu_batch_time_ms(params, w);
  w.seq_length = 40;
  const auto longer = gpu_batch_time_ms(params, w);
  w.seq_length = 10;
  w.layers = 8;
  const auto deeper = gpu_batch_time_ms(params, w);
  ASSERT_TRUE(base && longer && deeper);
  EXPECT_GT(*longer, *base);
  EXPECT_GT(*deeper, *base);
}

}  // namespace
}  // namespace bpar::perf
