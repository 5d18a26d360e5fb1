// EXP-J (paper §4.4, §6, §7): the evaluation-criteria matrix — fidelity,
// intrusiveness, scalability — for the three monitor implementations. The
// paper scores these subjectively ("the high fidelity implementation ...
// lacks scalability and is intrusive; the scalable ... implementation has
// the potential ... but [fidelity] concerns"; §7 proposes the hybrid).
// We make the comparison quantitative on one scenario:
//   fidelity      = throughput-estimate error vs ground truth, and the mean
//                   senescence of the database at steady state;
//   intrusiveness = monitoring + management bytes/s on the wire;
//   scalability   = how intrusiveness grows from 6 to 24 monitored paths.

#include <cmath>
#include <cstdio>

#include "apps/testbed.hpp"
#include "apps/traffic.hpp"
#include "bench/bench_util.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/hybrid_monitor.hpp"
#include "core/scalable_monitor.hpp"
#include "util/table.hpp"

using namespace netmon;

namespace {

constexpr double kAppRateBps = 8192.0 * 8.0 / 0.030;  // RTDS offered load

struct Score {
  double throughput_err;  // relative error vs ground truth
  double senescence_s;    // mean db age at end of run
  double overhead_bps;    // monitoring+management mean load
};

struct Scenario {
  sim::Simulator sim;
  std::unique_ptr<apps::Testbed> bed;
  std::vector<core::PathRequest> paths;
  std::vector<std::unique_ptr<apps::TrafficSink>> sinks;
  std::vector<std::unique_ptr<apps::CbrTraffic>> sources;

  explicit Scenario(int servers, int clients) {
    apps::TestbedOptions options;
    options.servers = servers;
    options.clients = clients;
    bed = std::make_unique<apps::Testbed>(sim, options);
    paths = bed->full_matrix({core::Metric::kThroughput});
    // Identical load for every implementation: each server runs the RTDS-
    // rate application stream toward client 0 plus 2 Mb/s of unrelated
    // cross-traffic toward the station. Counter-based estimators see both;
    // path probes see neither.
    sinks.push_back(std::make_unique<apps::TrafficSink>(bed->client(0)));
    sinks.push_back(std::make_unique<apps::TrafficSink>(bed->station()));
    for (int i = 0; i < servers; ++i) {
      apps::CbrTraffic::Config app_cfg;
      app_cfg.rate_bps = kAppRateBps;
      app_cfg.packet_bytes = 8192;
      sources.push_back(std::make_unique<apps::CbrTraffic>(
          bed->server(i), bed->client_ip(0), app_cfg));
      apps::CbrTraffic::Config cross_cfg;
      cross_cfg.rate_bps = 2e6;
      cross_cfg.packet_bytes = 1000;
      sources.push_back(std::make_unique<apps::CbrTraffic>(
          bed->server(i), bed->station().primary_ip(), cross_cfg));
    }
    for (auto& src : sources) src->start();
  }

  // Offered RTDS-like load on every monitored path's source: approximated
  // by CBR from each server to its first client (keeps ground truth
  // simple: the probe should report ~the app rate on an uncongested
  // switched fabric).
  Score finish(core::MeasurementDatabase& db, bench::RateWatcher& monitoring,
               bench::RateWatcher& management) {
    util::Accumulator age, err;
    for (const auto& pr : paths) {
      auto last = db.last_known(pr.path, core::Metric::kThroughput);
      auto sen = db.senescence(pr.path, core::Metric::kThroughput, sim.now());
      if (sen) age.add(sen->to_seconds());
      if (last && last->value.value > 0) {
        err.add(std::abs(last->value.value - kAppRateBps) / kAppRateBps);
      } else {
        err.add(1.0);  // never measured = 100% error
      }
    }
    return Score{err.mean(), age.mean(),
                 monitoring.mean_bps() + management.mean_bps()};
  }
};

Score run_high_fidelity(int servers, int clients) {
  Scenario s(servers, clients);
  core::HighFidelityMonitor::Config cfg;
  cfg.probe.message_length = 8192;
  cfg.probe.inter_send = sim::Duration::ms(30);
  cfg.probe.message_count = 8;
  cfg.scheduling.lanes = 1;
  core::HighFidelityMonitor monitor(s.bed->network(), cfg);
  core::MonitorRequest request;
  request.paths = s.paths;
  request.mode = core::MonitorRequest::Mode::kContinuous;
  monitor.director().submit(request, nullptr);
  bench::RateWatcher mon(s.sim, s.bed->network(),
                         net::TrafficClass::kMonitoring);
  bench::RateWatcher mgmt(s.sim, s.bed->network(),
                          net::TrafficClass::kManagement);
  s.sim.run_for(sim::Duration::sec(60));
  return s.finish(monitor.database(), mon, mgmt);
}

Score run_scalable(int servers, int clients) {
  Scenario s(servers, clients);
  core::ScalableMonitor monitor(s.bed->network(), s.bed->station());
  core::MonitorRequest request;
  request.paths = s.paths;
  request.mode = core::MonitorRequest::Mode::kPeriodic;
  request.period = sim::Duration::sec(5);
  monitor.director().submit(request, nullptr);
  bench::RateWatcher mon(s.sim, s.bed->network(),
                         net::TrafficClass::kMonitoring);
  bench::RateWatcher mgmt(s.sim, s.bed->network(),
                          net::TrafficClass::kManagement);
  s.sim.run_for(sim::Duration::sec(60));
  return s.finish(monitor.database(), mon, mgmt);
}

Score run_hybrid(int servers, int clients) {
  Scenario s(servers, clients);
  core::HybridMonitor::Config cfg;
  cfg.probe.message_length = 8192;
  cfg.probe.inter_send = sim::Duration::ms(30);
  cfg.probe.message_count = 8;
  cfg.background_period = sim::Duration::sec(5);
  core::HybridMonitor monitor(s.bed->network(), s.bed->station(), cfg);
  monitor.start(s.paths, nullptr);
  // Targeted refresh sweep every 20 s (within the 30 s fidelity-authority
  // window): the hybrid keeps high-fidelity data fresh for a fraction of
  // the always-on probing cost.
  auto sweep = [&monitor, &s] {
    for (const auto& pr : s.paths) {
      monitor.probe_now(pr.path, core::Metric::kThroughput);
    }
  };
  sweep();
  sim::PeriodicTask refresher(s.sim, sim::Duration::sec(20), sweep);
  bench::RateWatcher mon(s.sim, s.bed->network(),
                         net::TrafficClass::kMonitoring);
  bench::RateWatcher mgmt(s.sim, s.bed->network(),
                          net::TrafficClass::kManagement);
  s.sim.run_for(sim::Duration::sec(60));
  auto score = s.finish(monitor.database(), mon, mgmt);
  monitor.stop();
  return score;
}

}  // namespace

int main() {
  util::print_banner(
      "EXP-J: criteria matrix — fidelity / intrusiveness / scalability "
      "(paper §4.4, §6, §7)");
  std::printf("scenario: S x C path matrix on the switched testbed; RTDS\n"
              "offered load %.2f Mb/s per path source.\n\n", kAppRateBps / 1e6);

  struct Impl {
    const char* name;
    Score (*run)(int, int);
  };
  const Impl impls[] = {{"high-fidelity (NTTCP, serial)", run_high_fidelity},
                        {"scalable (SNMP poll 5 s)", run_scalable},
                        {"hybrid (SNMP + targeted NTTCP)", run_hybrid}};

  util::TextTable table({"implementation", "throughput err (6 paths)",
                         "senescence 6 / 24 paths", "overhead (6 paths)",
                         "overhead (24 paths)"});
  for (const Impl& impl : impls) {
    const Score small = impl.run(2, 3);   // 6 paths
    const Score large = impl.run(4, 6);   // 24 paths
    table.add_row(
        {impl.name, util::TextTable::fmt_percent(small.throughput_err),
         util::TextTable::fmt(small.senescence_s, 1) + " s / " +
             util::TextTable::fmt(large.senescence_s, 1) + " s",
         bench::fmt_mbps(small.overhead_bps),
         bench::fmt_mbps(large.overhead_bps)});
  }
  table.print();
  std::printf(
      "\nexpected shape (paper §6): high fidelity -> accurate but intrusive\n"
      "and slow to cover many paths; scalable -> cheap but inaccurate\n"
      "(counter semantics, clock granularity); hybrid (§7) -> near-NTTCP\n"
      "fidelity at near-SNMP steady-state overhead.\n");
  return 0;
}
