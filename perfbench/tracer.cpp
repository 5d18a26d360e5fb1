#include "tracer.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <utility>

namespace perfbench {

using netmon::core::Metric;
using netmon::core::MetricValue;
using netmon::core::Path;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimRun: return "sim.run_until";
    case Layer::kProfileCold: return "net.profile_cold";
    case Layer::kProfileWarm: return "net.profile_warm";
    case Layer::kLaunch: return "nttcp.launch";
    case Layer::kComplete: return "sensor_director.complete";
    case Layer::kRecord: return "measurement_db.record";
    case Layer::kCount: break;
  }
  return "?";
}

bool Tracer::write(const std::string& file) const {
  std::FILE* f = std::fopen(file.c_str(), "wb");
  if (f == nullptr) return false;
  // Header: layer names in enum order, then the record layout.
  std::fprintf(f, "perfbench-spans v1 layers=");
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    std::fprintf(f, "%s%s", l ? "," : "", layer_name(static_cast<Layer>(l)));
  }
  std::fprintf(f,
               " record=start_ns:i64,end_ns:i64,child_ns:i64,corr:u64,"
               "parent:u32,layer:u8,pad:3 count=%zu\n",
               spans_.size());
  bool ok = true;
  for (const Span& s : spans_) {
    unsigned char rec[40] = {};
    std::memcpy(rec + 0, &s.start_ns, 8);
    std::memcpy(rec + 8, &s.end_ns, 8);
    std::memcpy(rec + 16, &s.child_ns, 8);
    std::memcpy(rec + 24, &s.corr, 8);
    std::memcpy(rec + 32, &s.parent, 4);
    rec[36] = static_cast<unsigned char>(s.layer);
    ok = ok && std::fwrite(rec, sizeof rec, 1, f) == 1;
  }
  return std::fclose(f) == 0 && ok;
}

void TimingSensor::measure(const Path& path, Metric metric, Done done) {
  JobLedger::Pending job;
  const std::int64_t now = sim_.now().nanos();
  if (ledger_.launched(path, &job)) {
    samples_.wait_ms.add(static_cast<double>(now - job.enqueued_ns) / 1e6);
  } else {
    job.corr = tracer_.mint();  // no profiler: the job starts at launch
  }
  const std::uint64_t corr = job.corr;
  ScopedSpan span(&tracer_, Layer::kLaunch, corr);
  inner_.measure(
      path, metric,
      [this, corr, launched_ns = now,
       done = std::move(done)](MetricValue value) {
        samples_.probe_ms.add(
            static_cast<double>(sim_.now().nanos() - launched_ns) / 1e6);
        ScopedSpan complete(&tracer_, Layer::kComplete, corr);
        done(std::move(value));
      });
}

netmon::core::SensorDirector::ProbeProfiler timed_profiler(
    netmon::core::SensorDirector::ProbeProfiler inner,
    netmon::sim::Simulator& sim, Tracer& tracer, JobLedger& ledger,
    std::uint64_t* calls) {
  auto seen = std::make_shared<std::unordered_set<Path>>();
  return [inner = std::move(inner), &sim, &tracer, &ledger, calls,
          seen](const Path& path, Metric metric) {
    ++*calls;
    const std::uint64_t corr = tracer.mint();
    ledger.enqueued(path, {corr, sim.now().nanos()});
    const bool cold = seen->insert(path).second;
    ScopedSpan span(&tracer, cold ? Layer::kProfileCold : Layer::kProfileWarm,
                    corr);
    return inner(path, metric);
  };
}

}  // namespace perfbench
