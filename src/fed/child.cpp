#include "fed/child.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/backoff.hpp"

namespace netmon::fed {

namespace {

// FNV-1a over the zone name: the stable identity half of the backoff jitter
// key (the attempt number is the varying half).
std::uint64_t zone_key(const std::string& zone) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : zone) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

FedChild::FedChild(net::Host& host, core::MeasurementDatabase& db,
                   FedChildConfig config)
    : sim_(host.simulator()), host_(host), db_(db), config_(std::move(config)) {
  if (config_.spool_max_pages == 0) {
    throw std::invalid_argument("FedChild: spool_max_pages must be >= 1");
  }
  if (config_.window_pages == 0) {
    throw std::invalid_argument("FedChild: window_pages must be >= 1");
  }
}

FedChild::~FedChild() { stop(); }

void FedChild::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  db_.tiered().set_seal_hook(
      [this](std::uint32_t series, std::size_t tier,
             const core::TierPoint* points, std::size_t n) {
        on_seal(series, tier, points, n);
      });
  db_.set_record_hook([this](core::PathId id, core::Metric metric,
                             const core::MetricValue& value) {
    on_record(id, metric, value);
  });
  log_.append(sim_.now(), "child " + config_.zone + " start");
  connect();
}

void FedChild::stop() {
  if (!started_) return;
  started_ = false;
  running_ = false;
  session_up_ = false;
  db_.tiered().set_seal_hook(nullptr);
  db_.set_record_hook(nullptr);
  retry_timer_.cancel();
  heartbeat_timer_.cancel();
  if (conn_) {
    conn_->set_close_handler(nullptr);
    conn_->set_receive_handler(nullptr);
    conn_->abort();
    conn_.reset();
  }
  detach_observability();
}

void FedChild::crash() {
  ++stats_.crashes;
  running_ = false;
  session_up_ = false;
  retry_timer_.cancel();
  heartbeat_timer_.cancel();
  if (conn_) {
    // A crashed process sends nothing; just drop our end. The RST of
    // abort() dies on the (also crashed) host's down interfaces.
    conn_->set_close_handler(nullptr);
    conn_->set_receive_handler(nullptr);
    conn_->abort();
    conn_.reset();
  }
  parser_.reset();
  declared_.clear();
  last_delta_ns_.clear();
  mark_all_unsent();
  attempt_ = 0;
  log_.append(sim_.now(), "child " + config_.zone + " crash");
}

void FedChild::restart() {
  if (running_ || !started_) return;
  ++incarnation_;
  ++stats_.restarts;
  running_ = true;
  log_.append(sim_.now(), "child " + config_.zone + " restart incarnation=" +
                              std::to_string(incarnation_));
  connect();
}

void FedChild::on_seal(std::uint32_t series, std::size_t tier,
                       const core::TierPoint* points, std::size_t n) {
  if (tier != 0 || n == 0) return;  // only raw pages travel; rollups are local
  SeriesState& state = series_[series];
  const std::uint64_t seq = ++state.next_seq;
  ++stats_.pages_spooled;
  stats_.points_spooled += n;
  while (spool_.size() >= config_.spool_max_pages) shed_oldest();
  state.pages.push_back(spool_.insert(
      spool_.end(),
      SpooledPage{series, seq, false, false,
                  std::vector<core::TierPoint>(points, points + n)}));
  ready_.insert(series);
  log_.append(sim_.now(), "spool series=" + std::to_string(series) + " seq=" +
                              std::to_string(seq) + " points=" +
                              std::to_string(n));
  if (session_up_) pump();
}

void FedChild::shed_oldest() {
  // Shed the oldest page not currently in flight (preserves per-series
  // seq ordering of what the parent will observe); only a spool smaller
  // than the send window can force an in-flight page out. The scan skips
  // at most the in-flight pages, and none while the session is down.
  auto victim = std::find_if(spool_.begin(), spool_.end(),
                             [](const SpooledPage& p) { return !p.sent; });
  if (victim == spool_.end()) victim = spool_.begin();
  if (victim->sent && in_flight_ > 0) --in_flight_;
  ++stats_.pages_shed;
  stats_.points_shed += victim->points.size();
  SeriesState& state = series_.at(victim->series);
  state.gaps.push_back(PendingGap{victim->page_seq, victim->page_seq,
                                  victim->points.size(), false});
  std::erase(state.pages, victim);
  ready_.insert(victim->series);
  log_.append(sim_.now(), "shed series=" + std::to_string(victim->series) +
                              " seq=" + std::to_string(victim->page_seq) +
                              " points=" +
                              std::to_string(victim->points.size()));
  spool_.erase(victim);
}

void FedChild::on_record(core::PathId id, core::Metric metric,
                         const core::MetricValue& value) {
  if (!session_up_) {
    ++stats_.deltas_suppressed;
    return;
  }
  const std::uint32_t series =
      static_cast<std::uint32_t>(db_.series_slot(id, metric));
  const std::int64_t at_ns = value.measured_at.nanos();
  if (config_.delta_min_gap.nanos() > 0) {
    auto it = last_delta_ns_.find(series);
    if (it != last_delta_ns_.end() &&
        at_ns - it->second < config_.delta_min_gap.nanos()) {
      ++stats_.deltas_suppressed;
      return;
    }
  }
  declare_series(series);
  send_message(DeltaMsg{series, at_ns, value.value, value.valid});
  last_delta_ns_[series] = at_ns;
  ++stats_.deltas_sent;
}

void FedChild::connect() {
  if (!running_ || conn_) return;
  ++stats_.connects;
  log_.append(sim_.now(), "connect attempt=" + std::to_string(attempt_ + 1));
  conn_ = host_.tcp().connect(config_.parent_ip, config_.parent_port);
  conn_->set_traffic_class(net::TrafficClass::kMonitoring);
  conn_->set_established_handler([this] {
    parser_.reset();
    send_message(HelloMsg{config_.zone, incarnation_, 1});
  });
  conn_->set_receive_handler(
      [this](std::span<const std::byte> data) { on_receive(data); });
  conn_->set_close_handler([this] { session_lost("connection closed"); });
}

void FedChild::schedule_reconnect() {
  ++attempt_;
  const sim::Duration delay = util::jittered_backoff(
      config_.retry_base, config_.retry_max, attempt_,
      zone_key(config_.zone) ^ static_cast<std::uint64_t>(attempt_));
  log_.append(sim_.now(), "backoff attempt=" + std::to_string(attempt_) +
                              " delay=" + delay.to_string());
  retry_timer_ = sim_.schedule_in(delay, [this] {
    conn_.reset();  // safe here: not inside a connection callback
    connect();
  });
}

void FedChild::session_lost(const char* why) {
  if (!running_) return;
  if (!session_up_) {
    ++stats_.connect_failures;
  }
  session_up_ = false;
  heartbeat_timer_.cancel();
  parser_.reset();
  declared_.clear();
  mark_all_unsent();
  log_.append(sim_.now(), std::string("session lost: ") + why);
  schedule_reconnect();
}

void FedChild::mark_all_unsent() {
  in_flight_ = 0;
  for (SpooledPage& p : spool_) p.sent = false;
  for (auto& [series, state] : series_) {
    for (PendingGap& g : state.gaps) g.sent = false;
    if (!state.pages.empty() || !state.gaps.empty()) {
      ready_.insert(ready_.end(), series);
    }
  }
}

void FedChild::on_session_up(const HelloAckMsg& ack) {
  if (ack.incarnation != incarnation_) return;  // stale ack of a former life
  attempt_ = 0;
  session_up_ = true;
  ++stats_.sessions;
  last_ack_progress_ = sim_.now();
  for (const SeriesWatermark& w : ack.watermarks) {
    std::uint64_t& a = series_[w.series].acked;
    a = std::max(a, w.page_seq);
  }
  // Prune to the parent's watermarks: everything at or below is durably
  // merged (acked in a previous session, possibly after we crashed).
  std::size_t pruned = 0;
  for (auto& [series, state] : series_) pruned += drop_acked(state);
  log_.append(sim_.now(),
              "session up incarnation=" + std::to_string(incarnation_) +
                  " pruned=" + std::to_string(pruned) +
                  " spool=" + std::to_string(spool_.size()));
  heartbeat_timer_ = sim_.schedule_periodic(config_.heartbeat_period,
                                            [this] { heartbeat_tick(); });
  pump();
}

void FedChild::on_receive(std::span<const std::byte> data) {
  parser_.feed(data);
  try {
    while (auto m = parser_.next()) {
      if (const auto* ack = std::get_if<HelloAckMsg>(&*m)) {
        on_session_up(*ack);
      } else if (const auto* ack = std::get_if<AckMsg>(&*m)) {
        on_ack(*ack);
      }
      // Anything else from the parent is ignored (forward compatibility).
    }
  } catch (const WireError& e) {
    log_.append(sim_.now(), std::string("wire error: ") + e.what());
    parser_.reset();
    if (conn_) conn_->abort();  // close handler drives the reconnect
  }
}

void FedChild::on_ack(const AckMsg& ack) {
  SeriesState& state = series_[ack.series];
  state.acked = std::max(state.acked, ack.page_seq);
  last_ack_progress_ = sim_.now();
  drop_acked(state);
  pump();
}

std::size_t FedChild::drop_acked(SeriesState& state) {
  // The series' pages are in seq order, so the acked ones are a prefix.
  std::size_t dropped = 0;
  for (const Spool::iterator p : state.pages) {
    ++stats_.spool_scans;
    if (p->page_seq > state.acked) break;
    if (p->sent && in_flight_ > 0) --in_flight_;
    spool_.erase(p);
    ++dropped;
  }
  state.pages.erase(state.pages.begin(),
                    state.pages.begin() + static_cast<std::ptrdiff_t>(dropped));
  stats_.pages_acked += dropped;
  stats_.spool_scans += state.gaps.size();
  std::erase_if(state.gaps,
                [&](const PendingGap& g) { return g.to_seq <= state.acked; });
  return dropped;
}

void FedChild::declare_series(std::uint32_t series) {
  if (declared_.count(series) != 0) return;
  const core::PathId id = db_.slot_path(series);
  const core::Path& path = db_.path_of(id);
  SeriesDeclMsg decl;
  decl.series = series;
  decl.metric = static_cast<std::uint8_t>(db_.slot_metric(series));
  decl.endpoints.reserve(path.endpoints().size());
  for (const core::ProcessEndpoint& e : path.endpoints()) {
    decl.endpoints.push_back(WireEndpoint{e.process, e.host.raw(), e.port});
  }
  send_message(decl);
  declared_.insert(series);
}

void FedChild::pump() {
  if (!session_up_) return;
  // Ready series in ascending id; within one, a walk in seq order over its
  // spooled pages and pending gaps, so the parent always observes each
  // series' sequence contiguously: a gap report never overtakes the pages
  // sealed before it. A series leaves the ready set once it sent it all.
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  for (auto it = ready_.begin(); it != ready_.end(); it = ready_.erase(it)) {
    const std::uint32_t series = *it;
    SeriesState& state = series_.at(series);
    std::vector<PendingGap>& gaps = state.gaps;
    const std::vector<Spool::iterator>& pages = state.pages;
    std::size_t gi = 0;
    std::size_t pi = 0;
    for (;;) {
      const std::uint64_t gseq = gi < gaps.size() ? gaps[gi].from_seq : kNone;
      const std::uint64_t pseq = pi < pages.size() ? pages[pi]->page_seq : kNone;
      if (gseq == kNone && pseq == kNone) break;
      ++stats_.spool_scans;
      if (gseq < pseq) {
        PendingGap& g = gaps[gi++];
        if (g.sent) continue;
        declare_series(series);
        send_message(GapMsg{series, g.from_seq, g.to_seq, g.points});
        g.sent = true;
        ++stats_.gap_reports;
        log_.append(sim_.now(), "gap series=" + std::to_string(series) +
                                    " seqs=[" + std::to_string(g.from_seq) +
                                    "," + std::to_string(g.to_seq) +
                                    "] points=" + std::to_string(g.points));
      } else {
        const Spool::iterator p = pages[pi++];
        if (p->sent) continue;
        if (in_flight_ >= config_.window_pages) return;  // window full
        declare_series(series);
        send_message(PageMsg{series, p->page_seq, 0, p->points});
        p->sent = true;
        if (p->ever_sent) ++stats_.pages_resent;
        p->ever_sent = true;
        ++stats_.pages_sent;
        ++in_flight_;
      }
    }
  }
}

void FedChild::heartbeat_tick() {
  if (!session_up_) return;
  if (in_flight_ > 0 &&
      sim_.now() - last_ack_progress_ > config_.ack_timeout) {
    log_.append(sim_.now(), "ack timeout, aborting session");
    if (conn_) conn_->abort();  // close handler drives the reconnect
    return;
  }
  send_message(HeartbeatMsg{sim_.now().nanos()});
}

void FedChild::send_message(const Message& m) {
  const std::vector<std::byte> frame = encode(m);
  conn_->send(std::span<const std::byte>(frame.data(), frame.size()));
}

std::uint64_t FedChild::watermark_lag_pages() const {
  // Pages sealed but not yet known-merged by the parent (shed ones
  // included until their gap is acknowledged past).
  std::uint64_t lag = 0;
  for (const auto& [series, state] : series_) {
    lag += state.next_seq - std::min(state.next_seq, state.acked);
  }
  return lag;
}

void FedChild::attach_observability(obs::Registry& registry,
                                    const std::string& prefix) {
  if constexpr (!obs::kCompiledIn) {
    (void)registry;
    (void)prefix;
    return;
  }
  detach_observability();
  obs_registry_ = &registry;
  obs_prefix_ = prefix;
  registry.gauge_fn(prefix + ".spool.pages",
                    [this] { return static_cast<double>(spool_.size()); });
  registry.gauge_fn(prefix + ".spool.points", [this] {
    std::uint64_t points = 0;
    for (const SpooledPage& p : spool_) points += p.points.size();
    return static_cast<double>(points);
  });
  registry.gauge_fn(prefix + ".watermark_lag_pages", [this] {
    return static_cast<double>(watermark_lag_pages());
  });
  registry.gauge_fn(prefix + ".session_up",
                    [this] { return session_up_ ? 1.0 : 0.0; });
  registry.gauge_fn(prefix + ".incarnation", [this] {
    return static_cast<double>(incarnation_);
  });
  registry.gauge_fn(prefix + ".pages_spooled", [this] {
    return static_cast<double>(stats_.pages_spooled);
  });
  registry.gauge_fn(prefix + ".pages_shed", [this] {
    return static_cast<double>(stats_.pages_shed);
  });
  registry.gauge_fn(prefix + ".pages_sent", [this] {
    return static_cast<double>(stats_.pages_sent);
  });
  registry.gauge_fn(prefix + ".pages_acked", [this] {
    return static_cast<double>(stats_.pages_acked);
  });
  registry.gauge_fn(prefix + ".deltas_sent", [this] {
    return static_cast<double>(stats_.deltas_sent);
  });
  registry.gauge_fn(prefix + ".gap_reports", [this] {
    return static_cast<double>(stats_.gap_reports);
  });
  registry.gauge_fn(prefix + ".sessions", [this] {
    return static_cast<double>(stats_.sessions);
  });
}

void FedChild::detach_observability() {
  if (obs_registry_ == nullptr) return;
  obs_registry_->remove_prefix(obs_prefix_);
  obs_registry_ = nullptr;
}

}  // namespace netmon::fed
