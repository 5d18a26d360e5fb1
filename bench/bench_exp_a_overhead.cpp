// EXP-A (paper §5.1.3, "Fidelity Versus Scalability Tradeoff"):
// peak monitoring overhead of probing all C*S paths in parallel versus
// through the serial test sequencer.
//
// Paper's numbers for C=9, S=3, L=8192 B, P=30 ms:
//   parallel : C*S*(L/P) = 59 Mb/s  ("a single application is consuming a
//              significant percentage of the capacity of both the FDDI and
//              ATM networks")
//   sequenced: L/P = 2.18 Mb/s
//
// We reproduce both rows (plus a C,S sweep) and report the measured peak
// monitoring load on the wire; wire figures sit slightly above the paper's
// application-level formula because UDP/IP/frame overheads are real here.

#include <cstdio>

#include "apps/testbed.hpp"
#include "bench/bench_util.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "util/table.hpp"

using namespace netmon;

namespace {

struct Row {
  int clients;
  int servers;
  std::size_t concurrency;  // LaneScheduler::kUnlimited = parallel
  double peak_bps;
  double mean_bps;
};

Row run(int clients, int servers, std::size_t concurrency,
        sim::Duration window) {
  sim::Simulator sim;
  apps::TestbedOptions options;
  options.servers = servers;
  options.clients = clients;
  apps::Testbed bed(sim, options);

  core::HighFidelityMonitor::Config cfg;
  cfg.probe.message_length = 8192;
  cfg.probe.inter_send = sim::Duration::ms(30);
  // Bursts long enough that parallel mode keeps every path active for the
  // whole window.
  cfg.probe.message_count = static_cast<std::uint32_t>(
      window / cfg.probe.inter_send);
  cfg.scheduling.lanes = concurrency;
  core::HighFidelityMonitor monitor(bed.network(), cfg);

  core::MonitorRequest request;
  request.paths = bed.full_matrix({core::Metric::kThroughput});
  request.mode = core::MonitorRequest::Mode::kContinuous;
  monitor.director().submit(request, nullptr);

  bench::RateWatcher watcher(sim, bed.network(),
                             net::TrafficClass::kMonitoring);
  sim.run_for(window);
  return Row{clients, servers, concurrency, watcher.peak_bps(),
             watcher.mean_bps()};
}

}  // namespace

int main() {
  util::print_banner(
      "EXP-A: peak monitoring overhead, parallel vs sequenced (paper §5.1.3)");

  const double L = 8192.0, P = 0.030;
  std::printf("probe config: L=8192 B, P=30 ms (RTDS-mimicking, §5.1.2)\n");
  std::printf("paper formula: parallel=C*S*(L/P), sequenced=L/P\n\n");

  util::TextTable table({"C", "S", "mode", "paper (app-level)",
                         "measured peak (wire)", "measured mean (wire)"});
  struct Case {
    int c, s;
  };
  const Case cases[] = {{3, 1}, {9, 3}, {12, 4}};
  const auto window = sim::Duration::sec(10);
  for (const Case& k : cases) {
    const double paper_parallel = k.c * k.s * L * 8.0 / P;
    const double paper_seq = L * 8.0 / P;
    const Row parallel =
        run(k.c, k.s, core::LaneScheduler::kUnlimited, window);
    const Row seq = run(k.c, k.s, 1, window);
    table.add_row({std::to_string(k.c), std::to_string(k.s), "parallel",
                   bench::fmt_mbps(paper_parallel),
                   bench::fmt_mbps(parallel.peak_bps),
                   bench::fmt_mbps(parallel.mean_bps)});
    table.add_row({std::to_string(k.c), std::to_string(k.s), "sequenced",
                   bench::fmt_mbps(paper_seq), bench::fmt_mbps(seq.peak_bps),
                   bench::fmt_mbps(seq.mean_bps)});
  }
  table.print();

  std::printf(
      "\nheadline row (C=9,S=3): paper reports 59 Mb/s parallel vs 2.18 Mb/s\n"
      "sequenced; the sequencer trades this %0.0fx overhead reduction for\n"
      "senescence (EXP-B).\n",
      27.0);

  // Ablation: intermediate sequencer concurrency (design-choice sweep).
  util::print_banner("EXP-A ablation: sequencer concurrency k (C=9, S=3)");
  util::TextTable ablation({"max_concurrent", "peak (wire)", "mean (wire)"});
  for (std::size_t k : {std::size_t(1), std::size_t(3), std::size_t(9),
                        core::LaneScheduler::kUnlimited}) {
    const Row row = run(9, 3, k, window);
    ablation.add_row({k == core::LaneScheduler::kUnlimited
                          ? std::string("unlimited")
                          : std::to_string(k),
                      bench::fmt_mbps(row.peak_bps),
                      bench::fmt_mbps(row.mean_bps)});
  }
  ablation.print();
  return 0;
}
