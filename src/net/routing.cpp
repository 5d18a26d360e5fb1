#include "net/routing.hpp"

#include <algorithm>

#include "net/nic.hpp"

namespace netmon::net {

void RoutingTable::add(Prefix prefix, IpAddr gateway, Nic* out) {
  routes_.push_back(Route{prefix, gateway, out});
  if (indexed_) index_route(static_cast<std::uint32_t>(routes_.size() - 1));
}

void RoutingTable::remove(Prefix prefix) {
  routes_.erase(std::remove_if(routes_.begin(), routes_.end(),
                               [&](const Route& r) { return r.prefix == prefix; }),
                routes_.end());
  indexed_ = false;
}

void RoutingTable::add_standby(Prefix prefix, IpAddr gateway, Nic* out) {
  standby_.push_back(Route{prefix, gateway, out});
}

bool RoutingTable::has_standby(Prefix prefix) const {
  return std::any_of(standby_.begin(), standby_.end(),
                     [&](const Route& r) { return r.prefix == prefix; });
}

bool RoutingTable::swap_standby(Prefix prefix) {
  std::vector<Route> now_standby;
  std::vector<Route> now_active;
  for (const Route& r : routes_) {
    if (r.prefix == prefix) now_standby.push_back(r);
  }
  for (const Route& r : standby_) {
    if (r.prefix == prefix) now_active.push_back(r);
  }
  // The swap is an involution even when one side is empty: a standby /32
  // over a default route swaps in leaving no standby entry, and the swap
  // back returns it. Only a prefix known to neither side is refused.
  if (now_standby.empty() && now_active.empty()) return false;
  remove(prefix);
  standby_.erase(std::remove_if(standby_.begin(), standby_.end(),
                                [&](const Route& r) { return r.prefix == prefix; }),
                 standby_.end());
  routes_.insert(routes_.end(), now_active.begin(), now_active.end());
  standby_.insert(standby_.end(), now_standby.begin(), now_standby.end());
  return true;
}

void RoutingTable::index_route(std::uint32_t pos) const {
  const Prefix& prefix = routes_[pos].prefix;
  if (prefix.length() == 32) {
    host_routes_[prefix.network().raw()] = pos;  // later /32s override
  } else {
    short_routes_.push_back(pos);
  }
}

void RoutingTable::build_index() const {
  host_routes_.clear();
  host_routes_.reserve(routes_.size());
  short_routes_.clear();
  for (std::uint32_t pos = 0; pos < routes_.size(); ++pos) index_route(pos);
  indexed_ = true;
}

std::optional<Route> RoutingTable::lookup(IpAddr dst) const {
  const Route* best = nullptr;
  auto consider = [&best, dst](const Route& r) {
    if (!r.prefix.contains(dst)) return;
    if (best == nullptr || r.prefix.length() >= best->prefix.length()) {
      best = &r;  // >= lets later equal-length entries override earlier ones
    }
  };
  if (routes_.size() <= kScanMax) {
    for (const Route& r : routes_) consider(r);
  } else {
    if (!indexed_) build_index();
    // A matching /32 is the longest prefix there is.
    if (auto it = host_routes_.find(dst.raw()); it != host_routes_.end()) {
      return routes_[it->second];
    }
    for (std::uint32_t pos : short_routes_) consider(routes_[pos]);
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::string RoutingTable::to_string() const {
  std::string out;
  for (const Route& r : routes_) {
    out += r.prefix.to_string();
    out += " via ";
    out += r.gateway.is_unspecified() ? "direct" : r.gateway.to_string();
    if (r.out != nullptr) {
      out += " dev ";
      out += r.out->name();
    }
    out += '\n';
  }
  return out;
}

}  // namespace netmon::net
