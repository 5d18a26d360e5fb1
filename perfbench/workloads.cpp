#include "workloads.hpp"

#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "apps/fabric.hpp"
#include "apps/rtds.hpp"
#include "apps/testbed.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/measurement_db.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fed/child.hpp"
#include "fed/parent.hpp"
#include "manager/resource_manager.hpp"
#include "nttcp/nttcp.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

using namespace netmon;
using Clock = std::chrono::steady_clock;
using core::Metric;
using sim::Duration;
using sim::TimePoint;

// Simulated span of fabric_budgeted: two full sweeps of the 10k matrix.
constexpr std::int64_t kFabricSpanS = 80;

TimePoint at(Duration d) { return TimePoint::from_nanos(d.nanos()); }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// FNV-1a over 64-bit words, byte by byte.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Stable identity of a (path, metric) series: endpoint addresses and ports,
// not Path::hash(), so the digest survives a change of hash function.
std::uint64_t series_key(const core::Path& path, Metric metric) {
  Fnv f;
  for (const core::ProcessEndpoint& e : path.endpoints()) {
    f.mix(static_cast<std::uint64_t>(e.host.raw()) << 16 | e.port);
  }
  f.mix(static_cast<std::uint64_t>(metric));
  return f.value();
}

void mix_tuple(Fnv& f, const core::PathMetricTuple& t) {
  f.mix(series_key(t.path, t.metric));
  f.mix(static_cast<std::uint64_t>(t.value.valid) |
        static_cast<std::uint64_t>(t.value.quality) << 8);
  f.mix(t.value.value);
  f.mix(static_cast<std::uint64_t>(t.value.measured_at.nanos()));
}

// Peak monitoring-class wire rate over the meter's 100 ms ticks, in Mbit/s.
double monitoring_peak_mbps(const obs::IntrusivenessMeter& meter) {
  return meter.peak_bps(net::TrafficClass::kMonitoring) / 1e6;
}

// Age of a series' newest sample as the consumer sees it, taken each time
// the consumer receives the series' next sample.
class SenescenceTracker {
 public:
  void delivered(std::uint64_t series, TimePoint now) {
    auto [it, fresh] = last_ns_.try_emplace(series, now.nanos());
    if (!fresh) {
      ages_s_.add(static_cast<double>(now.nanos() - it->second) / 1e9);
      it->second = now.nanos();
    }
  }
  void observe(double age_s) { ages_s_.add(age_s); }
  double p99() const { return ages_s_.quantile(0.99); }

 private:
  std::unordered_map<std::uint64_t, std::int64_t> last_ns_;
  util::SampleSet ages_s_;
};

// Everything a traced run needs; inert (null tracer) when untraced.
struct Trace {
  explicit Trace(bool on) : tracer(on ? &storage : nullptr) {}
  Tracer storage;
  Tracer* tracer;
  JobLedger ledger;
  SimSamples samples;
  std::uint64_t profile_calls = 0;
};

// Runs the simulator to `until` inside the root span; host seconds.
double run_root(sim::Simulator& sim, Trace& trace, TimePoint until) {
  const auto t0 = Clock::now();
  {
    ScopedSpan root(trace.tracer, Layer::kSimRun, 0);
    sim.run_until(until);
  }
  return seconds_since(t0);
}

// Folds the spans into per-layer self-time samples and checks that every
// span nests inside a run_until root. Nested spans partition their roots,
// so the self times then sum to the run_until spans exactly.
void finish_trace(const Trace& trace, const RunOptions& options,
                  RunResult& r) {
  if (trace.tracer == nullptr) return;
  const Tracer& t = *trace.tracer;
  std::int64_t sim_self_ns = 0;
  std::uint64_t stray = 0;
  auto& cold = r.timings["net.profile_cold_us"];
  auto& warm = r.timings["net.profile_warm_ns"];
  auto& launch = r.timings["nttcp.launch_us"];
  auto& complete = r.timings["sensor_director.complete_us"];
  auto& record = r.timings["measurement_db.record_ns"];
  for (const Span& s : t.spans()) {
    const std::int64_t self = s.self_ns();
    switch (s.layer) {
      case Layer::kSimRun:
        if (s.parent != 0) ++stray;
        sim_self_ns += self;
        break;
      case Layer::kProfileCold: cold.add(self / 1e3); break;
      case Layer::kProfileWarm: warm.add(static_cast<double>(self)); break;
      case Layer::kLaunch: launch.add(self / 1e3); break;
      case Layer::kComplete: complete.add(self / 1e3); break;
      case Layer::kRecord: record.add(static_cast<double>(self)); break;
      case Layer::kCount: break;
    }
    if (s.layer != Layer::kSimRun && s.parent == 0) ++stray;
  }
  r.timings["nttcp.probe_ms"] = trace.samples.probe_ms;
  r.timings["lane_scheduler.wait_ms"] = trace.samples.wait_ms;
  r.counts["sim.self_s"] = static_cast<double>(sim_self_ns) / 1e9;
  r.counts["net.profile_calls"] = static_cast<double>(trace.profile_calls);
  r.counts["trace.spans"] = static_cast<double>(t.spans().size());
  if (t.open_spans() != 0 || stray != 0) {
    r.failures.push_back("spans outside a run_until root");
  }
  if (t.misnested() != 0) {
    r.failures.push_back("spans ended out of nesting order");
  }
  if (!options.span_file.empty() && !t.write(options.span_file)) {
    r.failures.push_back("could not write " + options.span_file);
  }
}

void count_director(core::SensorDirector& director, RunResult& r) {
  const core::DirectorStats& ds = director.stats();
  r.counts["sensor_director.measurements"] =
      static_cast<double>(ds.measurements_completed);
  r.counts["sensor_director.retries"] = static_cast<double>(ds.retries);
  r.counts["sensor_director.timeouts"] = static_cast<double>(ds.timeouts);
  r.ops_attempted = ds.measurements_completed;
  r.ops_delivered = ds.measurements_completed - ds.measurements_failed;

  const core::SchedulerStats& ss = director.sequencer().scheduler_stats();
  r.counts["lane_scheduler.admitted"] = static_cast<double>(ss.admitted);
  r.counts["lane_scheduler.deferred_budget"] =
      static_cast<double>(ss.deferred_budget);
  r.counts["lane_scheduler.deferred_disjoint"] =
      static_cast<double>(ss.deferred_disjoint);
  r.counts["lane_scheduler.wake_tests"] = static_cast<double>(ss.wake_tests);
  r.counts["lane_scheduler.futile_wakeups"] =
      static_cast<double>(ss.futile_wakeups);
}

void count_db(const core::MeasurementDatabase& db, RunResult& r) {
  r.counts["measurement_db.records"] += static_cast<double>(db.records_written());
  r.counts["measurement_db.pool_pages"] +=
      static_cast<double>(db.tiered().stats().pool_pages);
  r.counts["measurement_db.evictions"] +=
      static_cast<double>(db.tiered().evictions());
}

void count_sensor(const core::NttcpSensor& sensor, RunResult& r) {
  r.counts["nttcp.launches"] = static_cast<double>(sensor.probes_launched());
  r.counts["nttcp.bytes_on_wire"] =
      static_cast<double>(sensor.probe_bytes_on_wire());
}

}  // namespace

// --- paper_bed_failover ----------------------------------------------------
// examples/rtds_failover: the 9x3 HiPer-D bed, RTDS over TCP, K=1 continuous
// reachability, the resource manager on the matrix, server 0 killed at 10 s,
// 70 simulated seconds in all.

RunResult paper_bed_failover(const RunOptions& options) {
  const auto t0 = Clock::now();
  RunResult r;
  Trace trace(options.trace);
  Fnv digest;
  SenescenceTracker senescence;
  std::vector<mgr::ReconfigurationEvent> reconfigs;
  const Duration kill_at = Duration::sec(10);

  sim::Simulator sim;
  apps::TestbedOptions bed_options;
  bed_options.servers = 3;
  bed_options.clients = 9;
  bed_options.seed = options.seed;
  apps::Testbed bed(sim, bed_options);

  std::vector<std::unique_ptr<apps::RtdsServer>> servers;
  for (int s = 0; s < bed.server_count(); ++s) {
    servers.push_back(std::make_unique<apps::RtdsServer>(
        bed.server(s), apps::RtdsServer::Config{}));
  }
  servers[0]->start();
  std::vector<std::unique_ptr<apps::RtdsClient>> clients;
  for (int c = 0; c < bed.client_count(); ++c) {
    clients.push_back(std::make_unique<apps::RtdsClient>(
        bed.client(c), apps::RtdsClient::Config{}));
    clients.back()->connect(bed.server_ip(0));
  }

  core::HighFidelityMonitor::Config mon_cfg;
  mon_cfg.probe.message_length = 8192;
  mon_cfg.probe.inter_send = Duration::ms(5);
  mon_cfg.probe.message_count = 4;
  mon_cfg.probe.result_timeout = Duration::ms(500);
  std::unique_ptr<TimingSensor> timing;  // outlives the director
  core::HighFidelityMonitor monitor(bed.network(), mon_cfg);
  if (trace.tracer != nullptr) {
    timing = std::make_unique<TimingSensor>(monitor.sensor(), sim,
                                            *trace.tracer, trace.ledger,
                                            trace.samples);
    monitor.director().register_sensor(Metric::kReachability, timing.get());
  }

  mgr::ResourceManager::Config rm_cfg;
  rm_cfg.metrics = {Metric::kReachability};
  rm_cfg.strikes = 2;
  mgr::ResourceManager manager(monitor.director(), rm_cfg);

  mgr::ManagedApplication app;
  app.name = "rtds";
  for (int s = 0; s < bed.server_count(); ++s) {
    app.server_pool.push_back(bed.server_ip(s));
  }
  for (int c = 0; c < bed.client_count(); ++c) {
    app.client_pool.push_back(bed.client_ip(c));
  }
  app.port = apps::kRtdsPort;

  manager.set_reconfiguration_callback(
      [&](const mgr::ReconfigurationEvent& event) {
        reconfigs.push_back(event);
        for (int s = 0; s < bed.server_count(); ++s) {
          if (bed.server_ip(s) == event.new_server) {
            servers[s]->start();
          } else {
            servers[s]->stop();
          }
        }
        for (auto& client : clients) client->connect(event.new_server);
      });
  manager.set_tuple_observer(
      [&](const std::string&, const core::PathMetricTuple& tuple) {
        mix_tuple(digest, tuple);
        senescence.delivered(series_key(tuple.path, tuple.metric), sim.now());
      });
  obs::Registry registry;
  obs::IntrusivenessMeter meter(sim, bed.network(), registry);
  sim.schedule_at(TimePoint{}, [&] { manager.manage(app, bed.server_ip(0)); });
  sim.schedule_at(at(kill_at), [&] { bed.server(0).set_up(false); });
  r.setup_s = seconds_since(t0);
  if (options.setup_only) return r;

  r.wall_s = run_root(sim, trace, at(Duration::sec(70)));

  r.events = sim.events_executed();
  r.tuples = manager.tuples_consumed();
  r.senescence_p99_s = senescence.p99();
  r.monitor_peak_mbps = monitoring_peak_mbps(meter);
  r.digest = digest.value();
  count_director(monitor.director(), r);
  count_db(monitor.database(), r);
  count_sensor(monitor.sensor(), r);
  r.counts["manager.tuples_consumed"] =
      static_cast<double>(manager.tuples_consumed());
  r.counts["manager.reconfigurations"] =
      static_cast<double>(manager.reconfigurations());
  if (!reconfigs.empty()) {
    r.counts["manager.failover_s"] =
        (reconfigs.front().at - at(kill_at)).to_seconds();
  }
  r.counts["net.octets_total"] =
      static_cast<double>(bed.network().total_octets());

  if (reconfigs.size() != 1 || manager.reconfigurations() != 1) {
    r.failures.push_back("expected exactly one failover, saw " +
                         std::to_string(reconfigs.size()));
  } else if (reconfigs[0].old_server != bed.server_ip(0) ||
             reconfigs[0].new_server == bed.server_ip(0) ||
             manager.active_server("rtds") == bed.server_ip(0)) {
    r.failures.push_back("failover did not move away from server 0");
  }
  finish_trace(trace, options, r);
  return r;
}

// --- fabric_budgeted -------------------------------------------------------
// The 10k-path leaf/spine fabric (40 x 250) under continuous NTTCP
// throughput sweeps, configured as the 10k scale soak configures it: K=4
// lanes, B = 4.2 x one probe's declared load, link-disjoint gate, striped
// sweep, 2 s supervision deadline.

RunResult fabric_budgeted(const RunOptions& options) {
  const auto t0 = Clock::now();
  RunResult r;
  Trace trace(options.trace);
  Fnv digest;
  SenescenceTracker senescence;

  nttcp::NttcpConfig probe;
  probe.message_length = 8192;
  probe.inter_send = Duration::ms(5);
  probe.message_count = 2;
  probe.result_timeout = Duration::sec(1);
  // Every server->client route crosses exactly one spine router: 2 L3 hops.
  const double offered_bps = 2.0 * nttcp::NttcpProbe::peak_load_bps(probe);
  const double budget_bps = 4.2 * offered_bps;

  sim::Simulator sim;
  apps::FabricOptions fabric_options;
  fabric_options.seed = options.seed;
  apps::FabricTestbed bed(sim, fabric_options);

  core::HighFidelityMonitor::Config cfg;
  cfg.probe = probe;
  cfg.scheduling.lanes = 4;
  cfg.scheduling.budget_bps = budget_bps;
  cfg.scheduling.link_disjoint = true;
  cfg.scheduling.starvation_limit_ns = Duration::sec(60).nanos();
  cfg.supervision.deadline = Duration::sec(2);
  std::unique_ptr<TimingSensor> timing;  // outlives the director
  core::HighFidelityMonitor monitor(bed.network(), cfg);
  if (trace.tracer != nullptr) {
    monitor.director().set_probe_profiler(timed_profiler(
        core::make_route_profiler(bed.network(), probe), sim, *trace.tracer,
        trace.ledger, &trace.profile_calls));
    timing = std::make_unique<TimingSensor>(monitor.sensor(), sim,
                                            *trace.tracer, trace.ledger,
                                            trace.samples);
    monitor.director().register_sensor(Metric::kThroughput, timing.get());
  }

  core::MonitorRequest request;
  request.paths =
      bed.full_matrix({Metric::kThroughput}, core::ProbeClass::kNormal,
                      apps::FabricTestbed::SweepOrder::kStriped);
  request.mode = core::MonitorRequest::Mode::kContinuous;
  request.reporting = core::MonitorRequest::Reporting::kSynchronous;
  const std::size_t path_count = request.paths.size();
  obs::Registry registry;
  obs::IntrusivenessMeter meter(sim, bed.network(), registry);
  sim.schedule_at(TimePoint{}, [&] {
    monitor.director().submit(
        std::move(request), [&](const core::PathMetricTuple& tuple) {
          ++r.tuples;
          mix_tuple(digest, tuple);
          senescence.delivered(series_key(tuple.path, tuple.metric),
                               sim.now());
        });
  });
  r.setup_s = seconds_since(t0);
  if (options.setup_only) return r;

  r.wall_s = run_root(sim, trace, at(Duration::sec(kFabricSpanS)));

  r.events = sim.events_executed();
  r.senescence_p99_s = senescence.p99();
  r.monitor_peak_mbps = monitoring_peak_mbps(meter);
  r.digest = digest.value();
  count_director(monitor.director(), r);
  count_db(monitor.database(), r);
  count_sensor(monitor.sensor(), r);
  r.counts["net.octets_total"] =
      static_cast<double>(bed.network().total_octets());

  try {
    monitor.director().sequencer().check_consistency();
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("scheduler consistency: ") + e.what());
  }
  if (r.monitor_peak_mbps <= 0.0 ||
      r.monitor_peak_mbps > 1.2 * budget_bps / 1e6) {
    r.failures.push_back("metered monitoring peak outside (0, 1.2 B]");
  }
  if (r.tuples < 2 * path_count) {
    r.failures.push_back("fewer than two full sweeps delivered");
  }
  finish_trace(trace, options, r);
  return r;
}

// --- fed_two_zone ------------------------------------------------------------
// The federation soak's plan: two 500-path zone monitors record on a
// simulated-time schedule into their own databases and replicate to one
// parent over simulated TCP; zone b is partitioned long enough to shed
// spool pages, zone a is crashed and restarted.

RunResult fed_two_zone(const RunOptions& options) {
  const auto t0 = Clock::now();
  RunResult r;
  Trace trace(options.trace);
  SenescenceTracker senescence;

  sim::Simulator sim;
  apps::FabricOptions fab;
  fab.spines = 2;
  fab.client_edges = 2;
  fab.clients_per_edge = 13;  // 26 clients; the zones use the first 25
  fab.server_edges = 5;
  fab.servers_per_edge = 8;  // 40 servers, split 20/20 across the zones
  fab.seed = options.seed;
  fab.install_sinks = false;  // no probing, only replication
  apps::FabricTestbed fabric(sim, fab);

  std::vector<core::Path> paths_a;
  std::vector<core::Path> paths_b;
  for (int s = 0; s < 20; ++s) {
    for (int c = 0; c < 25; ++c) {
      paths_a.push_back(fabric.path(s, c));
      paths_b.push_back(fabric.path(20 + s, c));
    }
  }

  core::TieredStorageConfig zone_tiers;
  zone_tiers.page_points = 8;
  zone_tiers.rollup_factor = 4;
  zone_tiers.tiers = 2;
  core::TieredStorageConfig parent_tiers;
  parent_tiers.page_points = 64;
  parent_tiers.rollup_factor = 8;
  parent_tiers.tiers = 2;
  parent_tiers.max_pages = 16384;
  // The constructor takes the ring depth before the tier config: pass the
  // library's default, as the monitors use it.
  const std::size_t depth = core::HighFidelityMonitor::Config{}.history_depth;
  core::MeasurementDatabase parent_db(depth, parent_tiers);
  core::MeasurementDatabase db_a(depth, zone_tiers);
  core::MeasurementDatabase db_b(depth, zone_tiers);

  fed::FedParent parent(fabric.station(), parent_db, {});
  auto child_config = [&](const std::string& zone) {
    fed::FedChildConfig cfg;
    cfg.zone = zone;
    cfg.parent_ip = fabric.station().primary_ip();
    cfg.spool_max_pages = 800;  // the partition burst overflows this
    cfg.retry_max = Duration::sec(5);
    cfg.ack_timeout = Duration::sec(2);
    cfg.delta_min_gap = Duration::sec(5);
    return cfg;
  };
  fed::FedChild child_a(fabric.server(0), db_a, child_config("zone-a"));
  fed::FedChild child_b(fabric.server(20), db_b, child_config("zone-b"));
  parent.start();
  child_a.start();
  child_b.start();

  // Every 500 ms each live zone records one value per path, 240 ticks.
  int tick = 0;
  bool zone_a_alive = true;
  const std::uint64_t salt = options.seed * 31;
  auto record_zone = [&](core::MeasurementDatabase& db,
                         const std::vector<core::Path>& paths,
                         std::uint64_t zone_salt) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const double v = static_cast<double>(
          (p * 7 + static_cast<std::size_t>(tick) * 13 + zone_salt + salt) %
          997);
      ScopedSpan span(trace.tracer, Layer::kRecord,
                      trace.tracer ? trace.tracer->mint() : 0);
      db.record(paths[p], Metric::kThroughput,
                core::MetricValue::of(v, sim.now()));
    }
  };
  sim::EventHandle recorder = sim.schedule_periodic(Duration::ms(500), [&] {
    ++tick;
    if (zone_a_alive) record_zone(db_a, paths_a, 0);
    record_zone(db_b, paths_b, 1);
  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(120).nanos() + 250000),
                  [&] { recorder.cancel(); });

  fault::FaultInjector injector(sim);
  injector.register_host("child-a", fabric.server(0));
  injector.register_host("child-b", fabric.server(20));
  fault::FaultPlan plan;
  plan.partition(Duration::sec(30), "child-b", Duration::sec(10));
  plan.host_crash(Duration::sec(50), "child-a");
  plan.host_restart(Duration::sec(60), "child-a");
  injector.arm(plan);
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(50).nanos() + 1000000),
                  [&] {
                    child_a.crash();
                    zone_a_alive = false;
                  });
  sim.schedule_at(TimePoint::from_nanos(Duration::sec(60).nanos() + 1000000),
                  [&] {
                    child_a.restart();
                    zone_a_alive = true;
                  });

  // Parent-side senescence of every 25th series of each zone, once a
  // simulated second while the zones record, as a consumer reading the
  // parent would see it.
  sim::PeriodicTask sampler(sim, Duration::sec(1), [&] {
    if (sim.now() > at(Duration::sec(120))) return;
    auto sample = [&](const std::string& zone,
                      const std::vector<core::Path>& paths) {
      for (std::size_t k = 0; k < paths.size(); k += 25) {
        const core::PathId pid = parent_db.find(paths[k]);
        if (pid == core::kInvalidPathId) continue;
        const auto age =
            parent.zone_senescence(zone, pid, Metric::kThroughput, sim.now());
        if (age) senescence.observe(age->to_seconds());
      }
    };
    sample("zone-a", paths_a);
    sample("zone-b", paths_b);
  });
  obs::Registry registry;
  obs::IntrusivenessMeter meter(sim, fabric.network(), registry);
  r.setup_s = seconds_since(t0);
  if (options.setup_only) return r;

  r.wall_s = run_root(sim, trace, at(Duration::sec(220)));

  const auto& pa = parent.stats();
  const auto& ca = child_a.stats();
  const auto& cb = child_b.stats();
  const std::uint64_t spooled = ca.points_spooled + cb.points_spooled;
  r.events = sim.events_executed();
  r.tuples = pa.points_merged;
  r.ops_attempted = spooled;
  r.ops_delivered = pa.points_merged;
  r.senescence_p99_s = senescence.p99();
  r.monitor_peak_mbps = monitoring_peak_mbps(meter);

  Fnv digest;
  for (std::uint64_t v :
       {pa.sessions, pa.resumes, pa.series_declared, pa.pages_merged,
        pa.points_merged, pa.duplicates_skipped, pa.deltas_applied,
        pa.gap_reports, pa.gaps_applied, pa.points_lost,
        pa.implicit_gap_pages, pa.heartbeats, pa.acks_sent,
        pa.protocol_errors, parent.zone_points_lost("zone-a"),
        parent.zone_points_lost("zone-b"), ca.points_spooled,
        cb.points_spooled, parent_db.records_written(),
        parent_db.tiered().stats().imported_points}) {
    digest.mix(v);
  }
  r.digest = digest.value();

  count_db(db_a, r);
  count_db(db_b, r);
  count_db(parent_db, r);
  r.counts["fed.pages_spooled"] =
      static_cast<double>(ca.pages_spooled + cb.pages_spooled);
  r.counts["fed.pages_sent"] = static_cast<double>(ca.pages_sent + cb.pages_sent);
  r.counts["fed.pages_resent"] =
      static_cast<double>(ca.pages_resent + cb.pages_resent);
  r.counts["fed.pages_shed"] = static_cast<double>(ca.pages_shed + cb.pages_shed);
  r.counts["fed.points_merged"] = static_cast<double>(pa.points_merged);
  r.counts["fed.points_lost"] = static_cast<double>(pa.points_lost);
  r.counts["fed.deltas_applied"] = static_cast<double>(pa.deltas_applied);
  r.counts["net.octets_total"] =
      static_cast<double>(fabric.network().total_octets());

  if (pa.points_merged + pa.points_lost != spooled) {
    r.failures.push_back("federation ledger: merged + lost != spooled");
  }
  if (pa.implicit_gap_pages != 0) {
    r.failures.push_back("federation ledger: implicit gap pages");
  }
  if (child_a.spool_pages() != 0 || child_b.spool_pages() != 0) {
    r.failures.push_back("spools not drained at quiesce");
  }
  if (cb.pages_shed == 0) {
    r.failures.push_back("partitioned zone never shed (plan too short)");
  }
  finish_trace(trace, options, r);
  return r;
}

}  // namespace perfbench
