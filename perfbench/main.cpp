// One run of one benchmark workload, in its own process so that set-up
// time and peak RSS belong to that workload alone.
//
//   perfbench --workload <name> --seed <n> [--trace 0|1] [--span-file <f>]
//   perfbench --workload reference
//
// Prints one JSON object on stdout. perfbench/run.py runs this repeatedly
// for the measured window and aggregates.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;
using perfbench::Workload;

struct Named {
  const char* name;
  Workload run;
};
constexpr Named kWorkloads[] = {
    {"paper_bed_failover", perfbench::paper_bed_failover},
    {"fabric_budgeted", perfbench::fabric_budgeted},
    {"fed_two_zone", perfbench::fed_two_zone},
};

constexpr int kSetups = 5;

// Median, the highest percentile with at least ten samples beyond it, and
// the sample count.
void print_timing(const std::string& name, const netmon::util::SampleSet& v,
                  bool first) {
  const double p50 = v.median();
  double tail = p50;
  double tail_pct = 50.0;
  for (double pct : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(v.count()) * (1.0 - pct / 100.0) >= 10.0) {
      tail = v.quantile(pct / 100.0);
      tail_pct = pct;
      break;
    }
  }
  std::printf("%s\"%s\":{\"p50\":%.17g,\"tail\":%.17g,\"tail_pct\":%g,"
              "\"n\":%zu}",
              first ? "" : ",", name.c_str(), p50, tail, tail_pct, v.count());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> [--trace 0|1] "
               "[--span-file <file>]\n"
               "       perfbench --workload reference\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--span-file") {
      options.span_file = value;
    } else {
      return usage();
    }
  }
  if (workload == "reference") {
    std::uint64_t checksum = 0;
    const double seconds = perfbench::reference_seconds(&checksum);
    std::printf("{\"reference_s\":%.17g,\"checksum\":%" PRIu64 "}\n",
                seconds, checksum);
    return 0;
  }
  const Named* chosen = nullptr;
  for (const Named& w : kWorkloads) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr) return usage();

  // Set-up is short next to host noise: build the scenario several times
  // and report the median, running only the last one.
  netmon::util::SampleSet setups;
  for (int i = 1; i < kSetups; ++i) {
    RunOptions setup_only = options;
    setup_only.setup_only = true;
    setups.add(chosen->run(setup_only).setup_s);
  }
  RunResult r = chosen->run(options);
  setups.add(r.setup_s);
  r.setup_s = setups.median();
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"trace\":%d",
              chosen->name, options.seed, options.trace ? 1 : 0);
  std::printf(",\"setup_s\":%.17g,\"wall_s\":%.17g", r.setup_s, r.wall_s);
  std::printf(",\"events\":%" PRIu64 ",\"tuples\":%" PRIu64, r.events,
              r.tuples);
  std::printf(",\"ops_attempted\":%" PRIu64 ",\"ops_delivered\":%" PRIu64,
              r.ops_attempted, r.ops_delivered);
  std::printf(",\"peak_rss_mib\":%.17g",
              static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  std::printf(",\"senescence_p99_s\":%.17g,\"monitor_peak_mbps\":%.17g",
              r.senescence_p99_s, r.monitor_peak_mbps);
  std::printf(",\"digest\":\"%016" PRIx64 "\"", r.digest);
  std::printf(",\"failures\":[");
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", r.failures[i].c_str());
  }
  std::printf("],\"counts\":{");
  bool first = true;
  for (const auto& [name, value] : r.counts) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("},\"timings\":{");
  first = true;
  for (const auto& [name, samples] : r.timings) {
    print_timing(name, samples, first);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
