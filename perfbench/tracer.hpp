#pragma once

// Bench-side tracer. Spans are recorded only from the benchmark's own
// files, around the public calls into each layer: the simulator's run, a
// timing NetworkSensor decorator, a wrapper around the route profiler, a
// wrapper around each sensor Done, and direct database record calls. Spans
// stay in memory and are written once, at exit.
//
// A span's self time is its duration minus the time its direct children
// cover, so the self times of every span under a root add up to the root's
// duration exactly (integer nanoseconds) — an identity as long as spans
// nest, which end() checks.

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sensor_director.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace perfbench {

// One value per instrumented layer boundary; names match src/ modules.
enum class Layer : std::uint8_t {
  kSimRun,        // Simulator::run_until — the root span
  kProfileCold,   // route profiler, first call for a path
  kProfileWarm,   // route profiler, cached path
  kLaunch,        // NetworkSensor::measure (synchronous launch)
  kComplete,      // a sensor's Done, as the director handles it
  kRecord,        // MeasurementDatabase::record, called directly
  kCount,
};
const char* layer_name(Layer layer);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // covered by direct children
  std::uint64_t corr = 0;     // one id per measurement job / record call
  std::uint32_t parent = 0;   // index + 1 into spans(); 0 = none
  Layer layer = Layer::kSimRun;

  std::int64_t self_ns() const { return end_ns - start_ns - child_ns; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  std::uint32_t begin(Layer layer, std::uint64_t corr) {
    Span s;
    s.layer = layer;
    s.corr = corr;
    s.parent = open_.empty() ? 0 : open_.back() + 1;
    s.start_ns = now_ns();
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size() - 1);
    open_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    Span& s = spans_[id];
    s.end_ns = now_ns();
    if (open_.empty() || open_.back() != id) {
      ++misnested_;  // not the innermost open span: parent links are wrong
    } else {
      open_.pop_back();
    }
    if (s.parent != 0) spans_[s.parent - 1].child_ns += s.end_ns - s.start_ns;
  }

  std::uint64_t mint() { return ++last_corr_; }
  const std::deque<Span>& spans() const { return spans_; }
  std::size_t open_spans() const { return open_.size(); }
  std::uint64_t misnested() const { return misnested_; }

  // Binary dump: a header line, then fixed 40-byte records.
  bool write(const std::string& file) const;

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::deque<Span> spans_;  // chunked: no copy-on-grow of millions of spans
  std::vector<std::uint32_t> open_;
  std::uint64_t last_corr_ = 0;
  std::uint64_t misnested_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, std::uint64_t corr)
      : tracer_(tracer), id_(tracer ? tracer->begin(layer, corr) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

// Simulated-time samples the decorators collect next to host spans.
struct SimSamples {
  netmon::util::SampleSet probe_ms;  // launch -> Done, simulated
  netmon::util::SampleSet wait_ms;   // enqueue (profiler call) -> launch
};

// Links a measurement job across the profiler call (at enqueue), the
// sensor launch and the sensor's Done: per path, a FIFO of the correlation
// ids and enqueue times of jobs not yet launched.
class JobLedger {
 public:
  struct Pending {
    std::uint64_t corr = 0;
    std::int64_t enqueued_ns = 0;
  };
  void enqueued(const netmon::core::Path& path, Pending p) {
    auto& q = queues_[path];
    q.items.push_back(p);
  }
  bool launched(const netmon::core::Path& path, Pending* out) {
    auto it = queues_.find(path);
    if (it == queues_.end() || it->second.head == it->second.items.size()) {
      return false;
    }
    auto& q = it->second;
    *out = q.items[q.head++];
    if (q.head == q.items.size()) {
      q.items.clear();
      q.head = 0;
    }
    return true;
  }

 private:
  struct Queue {
    std::vector<Pending> items;
    std::size_t head = 0;
  };
  std::unordered_map<netmon::core::Path, Queue> queues_;
};

// Timing decorator registered in place of the monitor's own sensor.
class TimingSensor : public netmon::core::NetworkSensor {
 public:
  TimingSensor(netmon::core::NetworkSensor& inner, netmon::sim::Simulator& sim,
               Tracer& tracer, JobLedger& ledger, SimSamples& samples)
      : inner_(inner), sim_(sim), tracer_(tracer), ledger_(ledger),
        samples_(samples) {}

  std::string name() const override { return inner_.name(); }
  bool supports(netmon::core::Metric metric) const override {
    return inner_.supports(metric);
  }
  void measure(const netmon::core::Path& path, netmon::core::Metric metric,
               Done done) override;

 private:
  netmon::core::NetworkSensor& inner_;
  netmon::sim::Simulator& sim_;
  Tracer& tracer_;
  JobLedger& ledger_;
  SimSamples& samples_;
};

// Wraps a route profiler: one span per call, cold on a path's first call.
netmon::core::SensorDirector::ProbeProfiler timed_profiler(
    netmon::core::SensorDirector::ProbeProfiler inner,
    netmon::sim::Simulator& sim, Tracer& tracer, JobLedger& ledger,
    std::uint64_t* calls);

}  // namespace perfbench
