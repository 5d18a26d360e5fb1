#pragma once

// The benchmark's three scenario workloads. Each is one single-threaded
// discrete-event run of a fixed simulated span at a given seed; load is
// generated in simulated time, so host stalls cannot change what is
// offered. A run reports host cost (set-up and run seconds), the work it
// did (events, tuples delivered to the consumer), simulated-time fidelity
// numbers that must repeat exactly, a digest of what the consumer saw, and
// — when traced — per-layer counts and span timings.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  bool trace = false;
  bool setup_only = false;  // build the scenario, time it, tear it down
  std::string span_file;  // traced runs write their spans here at exit
};

struct RunResult {
  double setup_s = 0.0;
  double wall_s = 0.0;  // host seconds inside Simulator::run_until
  std::uint64_t events = 0;
  std::uint64_t tuples = 0;  // (path, metric) tuples the consumer received
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_delivered = 0;
  double senescence_p99_s = 0.0;   // simulated
  double monitor_peak_mbps = 0.0;  // simulated
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  // invariant checks that did not hold

  // Per-layer counts (always filled) and, when traced, span self times and
  // simulated-time samples, keyed by metric name.
  std::map<std::string, double> counts;
  std::map<std::string, netmon::util::SampleSet> timings;
};

using Workload = RunResult (*)(const RunOptions&);

RunResult paper_bed_failover(const RunOptions& options);
RunResult fabric_budgeted(const RunOptions& options);
RunResult fed_two_zone(const RunOptions& options);

// Host seconds for a fixed piece of standard-library work that no netmon
// change can alter: the yardstick for the host's current speed.
double reference_seconds(std::uint64_t* checksum);

}  // namespace perfbench
