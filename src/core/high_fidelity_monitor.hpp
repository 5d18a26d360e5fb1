#pragma once

// High-fidelity monitor implementation (paper §5.1): NTTCP-based active
// probing at the Application & Support layer. Probes launch *from the
// path's source host* (the "RTDS server simulator" of Figure 5) and mimic
// the monitored application's message length L and inter-send period P.
// The director's test sequencer bounds concurrency: one lane is the paper's
// serial sequencer.

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/sensor_director.hpp"
#include "net/topology.hpp"
#include "nttcp/nttcp.hpp"
#include "nttcp/reachability.hpp"

namespace netmon::core {

// Installs and owns the measurement endpoints (NTTCP sinks + echo
// responders — the "RTDS client simulators") on target hosts.
class SinkSet {
 public:
  void install(net::Host& host, std::uint16_t nttcp_port = nttcp::kNttcpPort,
               std::uint16_t echo_port = nttcp::kEchoPort);
  std::size_t size() const { return sinks_.size(); }

 private:
  std::vector<std::unique_ptr<nttcp::NttcpSink>> sinks_;
  std::vector<std::unique_ptr<nttcp::EchoResponder>> responders_;
};

// Application-layer sensor for all three metrics via active probing.
// Multi-leg paths are measured leg by leg: latency sums, throughput takes
// the minimum, reachability requires every leg.
class NttcpSensor : public NetworkSensor {
 public:
  NttcpSensor(net::Network& network, nttcp::NttcpConfig probe_config,
              nttcp::ReachabilityProbe::Config reach_config = {});

  std::string name() const override { return "nttcp"; }
  bool supports(Metric metric) const override;
  void measure(const Path& path, Metric metric, Done done) override;

  nttcp::NttcpConfig& probe_config() { return probe_config_; }
  nttcp::ReachabilityProbe::Config& reach_config() { return reach_config_; }
  std::uint64_t probes_launched() const { return probes_launched_; }
  std::uint64_t probe_bytes_on_wire() const { return probe_bytes_on_wire_; }

 private:
  struct LegAccumulator {
    double latency_sum_s = 0.0;
    double min_throughput_bps = 0.0;
    bool have_throughput = false;
    bool all_ok = true;
  };

  void measure_leg(const Path& path, Metric metric, std::size_t leg_index,
                   std::shared_ptr<LegAccumulator> acc, Done done);
  void cleanup_later(std::uint64_t token);

  net::Network& network_;
  nttcp::NttcpConfig probe_config_;
  nttcp::ReachabilityProbe::Config reach_config_;
  std::uint64_t next_token_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<nttcp::NttcpProbe>>
      active_probes_;
  std::unordered_map<std::uint64_t, std::unique_ptr<nttcp::ReachabilityProbe>>
      active_reach_;
  std::uint64_t probes_launched_ = 0;
  std::uint64_t probe_bytes_on_wire_ = 0;
};

// Builds a SensorDirector::ProbeProfiler from the live topology: offered
// load from the probe's wire footprint (NttcpProbe::peak_load_bps — the
// paper's L/P applied to wire sizes — times the data direction's L3 hop
// count, so declared loads share units with octets_by_class() and the
// IntrusivenessMeter the budget B is asserted against; reachability probes
// declare `reach_offered_bps`, negligible by default) and the
// link-disjointness footprint from Network::route_media over every path leg
// in both directions (data flows out, results flow back; asymmetric routes
// make the directions differ). Every call reads the live routing and switch
// tables, so a footprint follows route changes such as swap_standby().
SensorDirector::ProbeProfiler make_route_profiler(
    net::Network& network, const nttcp::NttcpConfig& probe,
    double reach_offered_bps = 0.0);

class HighFidelityMonitor {
 public:
  // The director's settings (scheduling, supervision, database) plus the
  // probes'. With a budget or the disjointness gate active, each probe's
  // offered load and link footprint come from the topology
  // (make_route_profiler); director().set_probe_profiler() replaces that.
  struct Config : DirectorConfig {
    nttcp::NttcpConfig probe;
    nttcp::ReachabilityProbe::Config reach;
  };

  HighFidelityMonitor(net::Network& network, Config config);

  SensorDirector& director() { return director_; }
  MeasurementDatabase& database() { return director_.database(); }
  NttcpSensor& sensor() { return sensor_; }

 private:
  // The director must be destroyed before the sensor it drives: tearing the
  // sensor down first destroys its in-flight Done callbacks, and the
  // sequencer would pump the next queued measurement into a half-dead
  // sensor. Director-last keeps teardown a no-op (the sequencer's liveness
  // guard is already gone when the sensor's callbacks unwind).
  NttcpSensor sensor_;
  SensorDirector director_;
};

}  // namespace netmon::core
