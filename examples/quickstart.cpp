// Quickstart: build a small simulated network, stand up the high-fidelity
// network resource monitor, and ask it for (path, metric) tuples — the
// paper's Figure 2 in ~60 lines of user code.
//
//   $ ./quickstart

#include <cstdio>

#include "apps/testbed.hpp"
#include "core/high_fidelity_monitor.hpp"

using namespace netmon;

int main() {
  sim::Simulator sim;

  // A 2-server / 3-client slice of the HiPer-D testbed. The builder also
  // installs NTTCP sinks and echo responders (the measurement endpoints).
  apps::TestbedOptions options;
  options.servers = 2;
  options.clients = 3;
  apps::Testbed bed(sim, options);

  // The high-fidelity monitor: NTTCP probes configured with the monitored
  // application's message length L and inter-send period P (paper §5.1.2).
  core::HighFidelityMonitor::Config config;
  config.probe.message_length = 8192;                  // L
  config.probe.inter_send = sim::Duration::ms(30);     // P
  config.probe.message_count = 16;                     // burst length
  config.scheduling.lanes = 1;                         // the test sequencer
  core::HighFidelityMonitor monitor(bed.network(), config);

  // A monitoring request, as the resource manager would send it: the full
  // server x client path list with the metrics to collect on each path.
  core::MonitorRequest request;
  request.paths = bed.full_matrix(
      {core::Metric::kThroughput, core::Metric::kReachability});
  request.mode = core::MonitorRequest::Mode::kOnce;

  std::printf("path                                         metric            value\n");
  std::printf("-------------------------------------------- ----------------- ----------\n");
  monitor.director().submit(request, [](const core::PathMetricTuple& t) {
    std::string value;
    if (!t.value.valid) {
      value = "FAILED";
    } else if (t.metric == core::Metric::kThroughput) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f Mb/s", t.value.value / 1e6);
      value = buf;
    } else {
      value = t.value.value >= 0.5 ? "reachable" : "unreachable";
    }
    std::printf("%-44s %-17s %s\n", t.path.to_string().c_str(),
                core::to_string(t.metric), value.c_str());
  });

  sim.run_for(sim::Duration::sec(60));

  // The measurement database also holds everything for later queries.
  std::printf("\nmeasurement database: %llu records, %zu series\n",
              static_cast<unsigned long long>(
                  monitor.database().records_written()),
              monitor.database().tracked_series());
  std::printf("monitoring bytes injected on the wire: %llu\n",
              static_cast<unsigned long long>(
                  monitor.sensor().probe_bytes_on_wire()));
  return 0;
}
