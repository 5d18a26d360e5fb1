// Property-based tests for the budgeted multi-lane scheduler (DESIGN.md
// §11): under seeded random workloads, topologies, fault plans, and
// priority mixes the scheduler must (1) keep the aggregate offered — and
// metered — load within the budget B, (2) keep in-flight probes
// link-disjoint, (3) admit every entry within the starvation bound, and
// (4) produce an identical admission trace for an identical seed. The
// single-lane default configuration must stay plain FIFO — the paper's
// serial test sequencer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <vector>

#include "apps/fabric.hpp"
#include "core/high_fidelity_monitor.hpp"
#include "core/lane_scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "nttcp/nttcp.hpp"
#include "obs/intrusiveness.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace netmon {
namespace {

using core::AdmissionRecord;
using core::LaneScheduler;
using core::LinkKey;
using core::ProbeClass;
using core::ProbeProfile;
using core::SchedulerConfig;
using sim::Duration;

// -------------------------------------------------------------------------
// Randomized synthetic workloads driven on a simulator.

struct Workload {
  SchedulerConfig config;
  int tasks = 200;
  std::uint64_t seed = 1;
  int link_pool = 12;      // distinct LinkKeys footprints draw from
  double max_offered = 0;  // per-probe offered load (0: no declared load)
  bool mixed_priorities = false;
};

struct WorkloadRun {
  std::vector<AdmissionRecord> trace;
  double max_committed_bps = 0.0;
  std::uint64_t disjoint_violations = 0;
  bool drained = false;
};

WorkloadRun run_workload(const Workload& w) {
  sim::Simulator sim;
  LaneScheduler sched(w.config);
  sched.set_clock([&sim] { return sim.now().nanos(); });
  sched.record_admissions(static_cast<std::size_t>(w.tasks) + 1);
  util::Rng rng(w.seed);

  WorkloadRun run;
  std::unordered_set<LinkKey> live_links;  // test-side view of in-flight

  for (int i = 0; i < w.tasks; ++i) {
    ProbeProfile profile;
    profile.tag = static_cast<std::uint64_t>(i);
    if (w.mixed_priorities) {
      profile.priority = static_cast<ProbeClass>(rng.uniform_int(0, 2));
    }
    if (w.max_offered > 0) {
      profile.offered_bps = rng.uniform(0.1, 1.0) * w.max_offered;
    }
    if (w.config.link_disjoint) {
      const int footprint = static_cast<int>(rng.uniform_int(1, 3));
      std::unordered_set<LinkKey> keys;
      while (static_cast<int>(keys.size()) < footprint) {
        keys.insert(static_cast<LinkKey>(
            rng.uniform_int(1, w.link_pool)));
      }
      profile.footprint.assign(keys.begin(), keys.end());
    }
    const auto enqueue_at = Duration::ms(rng.uniform_int(0, 500));
    const auto hold_for = Duration::ms(rng.uniform_int(1, 80));
    const auto footprint = profile.footprint;
    sim.schedule_in(enqueue_at, [&sim, &sched, &run, &live_links, profile,
                                 footprint, hold_for] {
      sched.enqueue(
          [&sim, &sched, &run, &live_links, footprint,
           hold_for](LaneScheduler::Done done) {
            run.max_committed_bps =
                std::max(run.max_committed_bps, sched.committed_bps());
            for (const LinkKey key : footprint) {
              if (!live_links.insert(key).second) ++run.disjoint_violations;
            }
            sim.schedule_in(hold_for, [&live_links, footprint,
                                       done = std::move(done)] {
              for (const LinkKey key : footprint) live_links.erase(key);
              done();
            });
          },
          profile);
    });
  }

  sim.run_for(Duration::sec(3600));
  sched.check_consistency();
  run.drained = sched.idle() && sched.completed() ==
                                    static_cast<std::uint64_t>(w.tasks);
  run.trace = sched.admissions();
  return run;
}

ProbeProfile tagged(ProbeClass priority, std::uint64_t tag) {
  ProbeProfile p;
  p.priority = priority;
  p.tag = tag;
  return p;
}

bool traces_equal(const std::vector<AdmissionRecord>& a,
                  const std::vector<AdmissionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].admit_seq != b[i].admit_seq || a[i].at_ns != b[i].at_ns ||
        a[i].entry_seq != b[i].entry_seq || a[i].tag != b[i].tag ||
        a[i].priority != b[i].priority ||
        a[i].offered_bps != b[i].offered_bps ||
        a[i].in_flight_after != b[i].in_flight_after) {
      return false;
    }
  }
  return true;
}

TEST(LaneScheduler, SingleLaneDefaultConfigIsFifo) {
  Workload w;
  w.config = SchedulerConfig{};  // lanes = 1, no gates: the paper's sequencer
  w.tasks = 120;
  const WorkloadRun run = run_workload(w);
  ASSERT_TRUE(run.drained);
  ASSERT_EQ(run.trace.size(), 120u);
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    // Admission strictly in enqueue order, one at a time.
    EXPECT_EQ(run.trace[i].entry_seq, i);
    EXPECT_EQ(run.trace[i].in_flight_after, 1u);
  }
}

TEST(LaneScheduler, CommittedLoadNeverExceedsBudget) {
  for (const std::uint64_t seed : {1ull, 17ull, 99ull}) {
    SCOPED_TRACE(seed);
    Workload w;
    w.config.lanes = 6;
    w.config.budget_bps = 10e6;
    w.seed = seed;
    w.max_offered = 4e6;  // every probe fits the budget alone
    w.mixed_priorities = true;
    const WorkloadRun run = run_workload(w);
    ASSERT_TRUE(run.drained);
    EXPECT_LE(run.max_committed_bps, w.config.budget_bps * (1.0 + 1e-6));
    EXPECT_GT(run.max_committed_bps, 0.0);
  }
}

TEST(LaneScheduler, InFlightProbesAreLinkDisjoint) {
  for (const std::uint64_t seed : {3ull, 21ull, 77ull}) {
    SCOPED_TRACE(seed);
    Workload w;
    w.config.lanes = 8;
    w.config.link_disjoint = true;
    w.seed = seed;
    w.link_pool = 10;  // small pool forces contention
    w.mixed_priorities = true;
    const WorkloadRun run = run_workload(w);
    ASSERT_TRUE(run.drained);
    EXPECT_EQ(run.disjoint_violations, 0u);
  }
}

TEST(LaneScheduler, SameSeedProducesIdenticalAdmissionTrace) {
  for (const std::uint64_t seed : {5ull, 42ull, 1234ull}) {
    SCOPED_TRACE(seed);
    Workload w;
    w.config.lanes = 4;
    w.config.budget_bps = 8e6;
    w.config.link_disjoint = true;
    w.config.starvation_limit_ns = Duration::sec(5).nanos();
    w.seed = seed;
    w.max_offered = 3e6;
    w.mixed_priorities = true;
    const WorkloadRun first = run_workload(w);
    const WorkloadRun second = run_workload(w);
    ASSERT_TRUE(first.drained);
    ASSERT_FALSE(first.trace.empty());
    EXPECT_TRUE(traces_equal(first.trace, second.trace));
  }
}

TEST(LaneScheduler, PriorityClassesRankUnderContention) {
  sim::Simulator sim;
  LaneScheduler sched{SchedulerConfig{.lanes = 1}};
  sched.set_clock([&sim] { return sim.now().nanos(); });
  sched.record_admissions(8);
  std::vector<LaneScheduler::Done> pending;
  auto hold = [&pending](LaneScheduler::Done done) {
    pending.push_back(std::move(done));
  };
  sched.enqueue(hold, tagged(ProbeClass::kNormal, 0));  // admitted at once
  sched.enqueue(hold, tagged(ProbeClass::kBackground, 1));
  sched.enqueue(hold, tagged(ProbeClass::kNormal, 2));
  sched.enqueue(hold, tagged(ProbeClass::kCritical, 3));
  while (!pending.empty()) {
    auto done = std::move(pending.back());
    pending.pop_back();
    done();
  }
  const auto& trace = sched.admissions();
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[1].tag, 3u);  // critical outranks...
  EXPECT_EQ(trace[2].tag, 2u);  // ...normal outranks...
  EXPECT_EQ(trace[3].tag, 1u);  // ...background
  EXPECT_GE(sched.scheduler_stats().priority_inversions, 2u);
  sched.check_consistency();
}

TEST(LaneScheduler, StarvationBoundHoldsUnderCriticalPressure) {
  sim::Simulator sim;
  SchedulerConfig config;
  config.lanes = 1;
  config.aging_quantum_ns = Duration::ms(250).nanos();
  config.starvation_limit_ns = Duration::sec(2).nanos();
  LaneScheduler sched(config);
  sched.set_clock([&sim] { return sim.now().nanos(); });
  sched.record_admissions(512);

  // Sustained critical pressure: five critical probes always queued, each
  // holding the lane 50 ms; five background probes enqueued at t=0 compete.
  constexpr auto kHold = Duration::ms(50);
  int critical_left = 200;
  std::function<void()> feed_critical = [&] {
    if (critical_left-- <= 0) return;
    sched.enqueue(
        [&sim, &feed_critical, kHold](LaneScheduler::Done done) {
          sim.schedule_in(kHold, [&feed_critical, done = std::move(done)] {
            done();
            feed_critical();
          });
        },
        tagged(ProbeClass::kCritical, 999));
  };
  for (int i = 0; i < 5; ++i) feed_critical();
  for (int i = 0; i < 5; ++i) {
    sched.enqueue(
        [&sim, kHold](LaneScheduler::Done done) {
          sim.schedule_in(kHold, [done = std::move(done)] { done(); });
        },
        tagged(ProbeClass::kBackground, static_cast<std::uint64_t>(i)));
  }
  sim.run_for(Duration::sec(60));
  sched.check_consistency();

  // Every background probe was admitted within the starvation limit plus
  // the serial drain of the starving cohort: all five hit the limit
  // together, starving entries are served oldest-first, and an in-flight
  // probe cannot be preempted — so the last one waits up to
  // limit + 5·hold (plus one hold of slack for phase alignment).
  const std::int64_t bound_ns =
      config.starvation_limit_ns + 6 * kHold.nanos();
  int background_admitted = 0;
  for (const AdmissionRecord& r : sched.admissions()) {
    if (r.priority != ProbeClass::kBackground) continue;
    ++background_admitted;
    EXPECT_LE(r.at_ns, bound_ns) << "background tag " << r.tag;
  }
  EXPECT_EQ(background_admitted, 5);
  EXPECT_GT(sched.scheduler_stats().starvation_picks, 0u);
}

// -------------------------------------------------------------------------
// Topology-derived footprints: the generated fabric must expose genuinely
// link-disjoint path sets for the scheduler to exploit.

apps::FabricOptions small_fabric() {
  apps::FabricOptions options;
  options.spines = 2;
  options.client_edges = 2;
  options.clients_per_edge = 3;
  options.server_edges = 2;
  options.servers_per_edge = 2;
  return options;
}

TEST(FabricFootprints, StandbyMatrixProvisionsSwappableAlternateRoutes) {
  sim::Simulator sim;
  apps::FabricTestbed bed(sim, small_fabric());
  const auto options = small_fabric();
  const std::size_t servers = static_cast<std::size_t>(options.server_edges) *
                              options.servers_per_edge;
  const std::size_t clients = static_cast<std::size_t>(options.client_edges) *
                              options.clients_per_edge;
  EXPECT_EQ(bed.provision_standby_matrix(), servers * clients);

  // Each endpoint holds a standby /32 toward its peer, invisible until
  // swapped; the swap is its own inverse (control-plane failover contract).
  net::Host& s0 = bed.server(0);
  net::Host& c0 = bed.client(0);
  const net::Prefix to_client(c0.primary_ip(), 32);
  const net::Prefix to_server(s0.primary_ip(), 32);
  ASSERT_TRUE(s0.routing().has_standby(to_client));
  ASSERT_TRUE(c0.routing().has_standby(to_server));
  const auto primary = s0.routing().lookup(c0.primary_ip());
  ASSERT_TRUE(primary.has_value());
  ASSERT_TRUE(s0.routing().swap_standby(to_client));
  const auto standby = s0.routing().lookup(c0.primary_ip());
  ASSERT_TRUE(standby.has_value());
  EXPECT_NE(primary->gateway, standby->gateway);
  ASSERT_TRUE(s0.routing().swap_standby(to_client));
  EXPECT_EQ(s0.routing().lookup(c0.primary_ip())->gateway, primary->gateway);
}

// A control-plane failover swaps both endpoints onto the alternate spine;
// the profiler must price the path on the route it now takes, and on the
// primary again after the rollback swap.
TEST(FabricFootprints, ProfilerFootprintFollowsStandbySwap) {
  sim::Simulator sim;
  apps::FabricTestbed bed(sim, small_fabric());
  bed.provision_standby(0, 0);
  nttcp::NttcpConfig probe;
  auto profiler = core::make_route_profiler(bed.network(), probe);
  const core::Path path = bed.path(0, 0);
  net::Host& s0 = bed.server(0);
  net::Host& c0 = bed.client(0);
  auto swap_both = [&] {
    ASSERT_TRUE(s0.routing().swap_standby(net::Prefix(c0.primary_ip(), 32)));
    ASSERT_TRUE(c0.routing().swap_standby(net::Prefix(s0.primary_ip(), 32)));
  };

  const auto primary = profiler(path, core::Metric::kThroughput);
  ASSERT_FALSE(primary.footprint.empty());
  swap_both();
  const auto standby = profiler(path, core::Metric::kThroughput);
  EXPECT_NE(standby.footprint, primary.footprint);
  EXPECT_EQ(standby.offered_bps, primary.offered_bps);  // still one spine
  swap_both();
  EXPECT_EQ(profiler(path, core::Metric::kThroughput).footprint,
            primary.footprint);
}

TEST(FabricFootprints, RouteMediaSeparatesSpinesAndSharesLeafLinks) {
  sim::Simulator sim;
  apps::FabricTestbed bed(sim, small_fabric());
  auto media_between = [&bed](int server, int client) {
    const auto path = bed.path(server, client);
    return bed.network().route_media(path.source().host,
                                     path.destination().host);
  };
  // client edge 0 -> spine0, client edge 1 -> spine1: reverse direction of
  // the probe (client->server leg here, since Path is server<-...->client)
  // differs per edge; same server from clients on different edges shares
  // only the server's own access link.
  const auto a = media_between(0, 0);   // client 0 (edge 0) -> server 0
  const auto b = media_between(0, 3);   // client 3 (edge 1) -> server 0
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Both reach the same server, so the footprints intersect (the server
  // access link at least), but the client-side media differ.
  std::size_t shared = 0;
  for (const net::Medium* m : a) {
    for (const net::Medium* n : b) {
      if (m == n) ++shared;
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_LT(shared, a.size());

  // Different servers on different edges from clients on different edges:
  // fully disjoint forward routes.
  const auto c = media_between(0, 0);  // server edge 0 via client edge 0
  const auto d = media_between(2, 3);  // server edge 1 via client edge 1
  for (const net::Medium* m : c) {
    for (const net::Medium* n : d) {
      EXPECT_NE(m, n);
    }
  }
}

// -------------------------------------------------------------------------
// End-to-end property: a budgeted monitor on a seeded random fabric under a
// fault plan keeps the metered monitoring peak within B, exercises the
// admission gates, and replays the same admission trace for the same seed.

struct FabricRun {
  std::vector<AdmissionRecord> trace;
  double metered_peak_bps = 0.0;
  core::SchedulerStats stats;
  std::uint64_t tuples = 0;
};

FabricRun run_budgeted_fabric(std::uint64_t seed, double budget_bps,
                              const nttcp::NttcpConfig& probe) {
  sim::Simulator sim;
  apps::FabricOptions options = small_fabric();
  options.seed = seed;
  apps::FabricTestbed bed(sim, options);

  obs::Registry registry;
  core::HighFidelityMonitor::Config cfg;
  cfg.probe = probe;
  cfg.scheduling.lanes = 3;
  cfg.scheduling.budget_bps = budget_bps;
  cfg.scheduling.link_disjoint = true;
  cfg.scheduling.starvation_limit_ns = Duration::sec(10).nanos();
  cfg.supervision.deadline = Duration::ms(1500);
  core::HighFidelityMonitor monitor(bed.network(), cfg);
  monitor.director().sequencer().record_admissions(4096);
  obs::IntrusivenessMeter meter(sim, bed.network(), registry,
                                "net.intrusiveness", Duration::ms(100));

  // A seeded fault plan: flap one client access link mid-run.
  fault::FaultInjector injector(sim);
  for (const auto& link : bed.network().links()) {
    injector.register_link(link->name(), *link);
  }
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.link_flap(Duration::sec(2), "client1<->cedge0", 2, Duration::ms(200),
                 Duration::ms(500));
  injector.arm(plan);

  // Mixed priorities across the matrix.
  core::MonitorRequest request;
  request.paths = bed.full_matrix({core::Metric::kThroughput});
  for (std::size_t i = 0; i < request.paths.size(); ++i) {
    request.paths[i].priority = static_cast<ProbeClass>(i % 3);
  }
  request.mode = core::MonitorRequest::Mode::kContinuous;

  FabricRun result;
  monitor.director().submit(
      request, [&](const core::PathMetricTuple&) { ++result.tuples; });
  sim.run_for(Duration::sec(12));

  monitor.director().sequencer().check_consistency();
  result.trace = monitor.director().sequencer().admissions();
  result.metered_peak_bps = meter.peak_bps(net::TrafficClass::kMonitoring);
  result.stats = monitor.director().sequencer().scheduler_stats();
  return result;
}

TEST(FabricScheduling, MeteredPeakStaysUnderBudgetAndTraceIsDeterministic) {
  nttcp::NttcpConfig probe;
  probe.message_length = 8192;
  probe.inter_send = Duration::ms(30);
  probe.message_count = 4;
  probe.result_timeout = Duration::sec(1);
  // Every fabric probe crosses one spine router (2 L3 hops), so its
  // declared load in meter units is 2·L/P. Budget two concurrent probes
  // but not three: the budget gate must bind.
  const double budget = 2.1 * 2.0 * nttcp::NttcpProbe::peak_load_bps(probe);

  const FabricRun first = run_budgeted_fabric(11, budget, probe);
  ASSERT_GT(first.tuples, 0u);
  ASSERT_FALSE(first.trace.empty());

  // (1) metered peak <= B: declared loads are honest wire peaks, so the
  // admitted sum bounds what the meter can see up to tick quantization — a
  // 100 ms tick can catch ⌈tick/P⌉+1 = 4 messages of a 30 ms-period probe,
  // 4/3.33 ≈ 1.2× the declared rate — plus the small result report. 25%
  // slack covers both.
  EXPECT_GT(first.metered_peak_bps, 0.0);
  EXPECT_LE(first.metered_peak_bps, budget * 1.25)
      << "metered monitoring peak exceeds the intrusiveness budget";

  // The gates actually worked for their living.
  EXPECT_GT(first.stats.deferred_budget + first.stats.deferred_disjoint, 0u);

  // (4) same seed => identical admission trace.
  const FabricRun second = run_budgeted_fabric(11, budget, probe);
  EXPECT_TRUE(traces_equal(first.trace, second.trace));
}

// -------------------------------------------------------------------------
// Incremental wake-up vs the ranking policy (DESIGN.md §15): waking an
// entry must restore it to ready *order*, never hand it the lane directly.
// These pin the promotion rules down at the single-admission level.

// Tiny harness: manual clock, Dones parked by tag so the test controls
// exactly when each lane frees.
struct WakeHarness {
  LaneScheduler sched;
  std::int64_t now = 0;
  std::map<std::uint64_t, LaneScheduler::Done> running;

  explicit WakeHarness(const SchedulerConfig& cfg) : sched(cfg) {
    sched.set_clock([this] { return now; });
    sched.record_admissions(64);
  }
  void enqueue(std::uint64_t tag, ProbeClass cls,
               std::vector<LinkKey> footprint) {
    ProbeProfile p;
    p.tag = tag;
    p.priority = cls;
    p.footprint = std::move(footprint);
    sched.enqueue(
        [this, tag](LaneScheduler::Done done) {
          running.emplace(tag, std::move(done));
        },
        p);
  }
  void complete(std::uint64_t tag) {
    auto it = running.find(tag);
    ASSERT_NE(it, running.end()) << "tag " << tag << " not in flight";
    auto done = std::move(it->second);
    running.erase(it);
    done();
  }
  std::vector<std::uint64_t> admitted_tags() const {
    std::vector<std::uint64_t> tags;
    for (const AdmissionRecord& r : sched.admissions()) {
      tags.push_back(r.tag);
    }
    return tags;
  }
};

TEST(IncrementalWakeup, WakeOrderNeverPromotesPastBlockedCritical) {
  SchedulerConfig cfg;
  cfg.lanes = 2;
  cfg.link_disjoint = true;
  WakeHarness h(cfg);
  const LinkKey kTrunk = 7;

  h.enqueue(0, ProbeClass::kNormal, {kTrunk});      // admitted, holds trunk
  h.enqueue(1, ProbeClass::kBackground, {kTrunk});  // parks on trunk
  h.enqueue(2, ProbeClass::kCritical, {kTrunk});    // parks on trunk
  EXPECT_EQ(h.sched.in_flight(), 1u);
  EXPECT_EQ(h.sched.parked_on_links(), 2u);
  h.sched.check_consistency();

  // Freeing the trunk wakes BOTH waiters; the critical entry must win the
  // lane even though the background one is older and woke in the same
  // pass — promotion by class rank, never by wake-order accident. The
  // loser re-tests, fails against the new holder, and re-parks: exactly
  // one futile wakeup.
  h.complete(0);
  ASSERT_EQ(h.sched.in_flight(), 1u);
  EXPECT_EQ(h.admitted_tags(), (std::vector<std::uint64_t>{0, 2}));
  EXPECT_EQ(h.sched.scheduler_stats().wake_tests, 2u);
  EXPECT_EQ(h.sched.scheduler_stats().futile_wakeups, 1u);
  EXPECT_EQ(h.sched.parked_on_links(), 1u);
  // Admitting critical over the older background entry is a (counted)
  // priority inversion of plain FIFO order.
  EXPECT_EQ(h.sched.scheduler_stats().priority_inversions, 1u);
  h.sched.check_consistency();

  h.complete(2);
  EXPECT_EQ(h.admitted_tags(), (std::vector<std::uint64_t>{0, 2, 1}));
  EXPECT_EQ(h.sched.scheduler_stats().wake_tests, 3u);
  EXPECT_EQ(h.sched.scheduler_stats().deferred_disjoint, 3u);
  h.complete(1);
  EXPECT_TRUE(h.sched.idle());
  h.sched.check_consistency();
}

TEST(IncrementalWakeup, BackgroundBeatsFreshCriticalOnlyViaStarvationBound) {
  for (const bool bounded : {true, false}) {
    SchedulerConfig cfg;
    cfg.lanes = 1;
    cfg.starvation_limit_ns = bounded ? 100 * 1'000'000 : 0;
    WakeHarness h(cfg);

    h.enqueue(0, ProbeClass::kNormal, {});      // occupies the single lane
    h.enqueue(1, ProbeClass::kBackground, {});  // waits from t = 0
    h.now = 150 * 1'000'000;                    // background now starving
    h.enqueue(2, ProbeClass::kCritical, {});    // fresh
    h.complete(0);

    if (bounded) {
      // Past the hard bound the oldest entry front-runs any class.
      EXPECT_EQ(h.admitted_tags(), (std::vector<std::uint64_t>{0, 1}));
      EXPECT_EQ(h.sched.scheduler_stats().starvation_picks, 1u);
    } else {
      // Without the bound (and below the aging crossover) class order
      // holds: background is never promoted by queue position alone.
      EXPECT_EQ(h.admitted_tags(), (std::vector<std::uint64_t>{0, 2}));
      EXPECT_EQ(h.sched.scheduler_stats().starvation_picks, 0u);
    }
    h.complete(bounded ? 1 : 2);
    h.complete(bounded ? 2 : 1);
    EXPECT_TRUE(h.sched.idle());
    h.sched.check_consistency();
  }
}

TEST(IncrementalWakeup, AgingPromotesBackgroundExactlyAtTheQuantaCrossover) {
  // class gap = 2 classes · 8 quanta = 16 quanta of waiting. One quantum
  // under, critical still wins; at the crossover the tie breaks FIFO and
  // the aged background entry goes first.
  for (const std::int64_t release_ms : {155, 165}) {
    SchedulerConfig cfg;
    cfg.lanes = 1;
    cfg.aging_quantum_ns = 10 * 1'000'000;
    WakeHarness h(cfg);

    h.enqueue(0, ProbeClass::kNormal, {});
    h.enqueue(1, ProbeClass::kBackground, {});  // ages from t = 0
    h.now = release_ms * 1'000'000;
    h.enqueue(2, ProbeClass::kCritical, {});  // fresh: score 16
    h.complete(0);

    const std::vector<std::uint64_t> expect =
        release_ms < 160 ? std::vector<std::uint64_t>{0, 2}
                         : std::vector<std::uint64_t>{0, 1};
    EXPECT_EQ(h.admitted_tags(), expect) << "release at " << release_ms;
    h.complete(h.admitted_tags().back());
    while (!h.running.empty()) {
      auto it = h.running.begin();
      auto done = std::move(it->second);
      h.running.erase(it);
      done();
    }
    EXPECT_TRUE(h.sched.idle());
    h.sched.check_consistency();
  }
}

}  // namespace
}  // namespace netmon
