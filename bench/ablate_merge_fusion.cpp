// Ablation (DESIGN.md §5.1) — why B-Par keeps merge cells as *separate*
// tasks. Fusing the merge into the forward-order cell makes every forward
// cell depend on its reverse counterpart, serializing the two directions
// (paper §III-A: "This separation permits B-Par to execute forward and
// reverse order cells in parallel").
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  bpar::util::ArgParser args("ablate_merge_fusion",
                             "separate merge tasks vs fused merges");
  bench::add_common_flags(args);
  args.add_int("batch", 128, "batch size");
  args.add_int("replicas", 8, "B-Par mini-batches");
  if (!args.parse(argc, argv)) return 1;

  bench::SimSetup setup;
  setup.calibration = bench::resolve_calibration(args);
  const int replicas = static_cast<int>(args.get_int("replicas"));

  bpar::util::Table table({"layers", "cores", "separate(ms)", "fused(ms)",
                           "fusion slowdown"});
  for (const int layers : {4, 8}) {
    const auto cfg = bench::table_network(
        bpar::rnn::CellType::kLstm, 256, 256,
        static_cast<int>(args.get_int("batch")), 100, layers);
    bpar::rnn::Network net(cfg, /*allocate_weights=*/false);
    for (const int cores : {8, 24, 48}) {
      bench::SimSetup s = setup;
      s.cores = cores;
      const double separate = bench::simulate_bpar(net, s, replicas);
      const double fused =
          bench::simulate_bpar(net, s, replicas, nullptr,
                               bpar::graph::Schedule::kFusedMerge);
      table.add_row({std::to_string(layers), std::to_string(cores),
                     bpar::util::fmt_ms(separate), bpar::util::fmt_ms(fused),
                     bpar::util::fmt_speedup(fused / separate)});
    }
  }
  table.print("Ablation: separate merge tasks vs merge fused into fwd cells");
  std::printf(
      "\nExpected shape: fusion hurts most at high core counts, where the\n"
      "lost fwd/rev overlap can no longer be hidden.\n");
  bench::emit_csv(args, table, "ablate_merge_fusion");
  return 0;
}
