#pragma once

// Static IP routing table with longest-prefix match. Tables are normally
// filled by Network::auto_route(); individual entries can be overridden to
// create asymmetric routes (paper §4.3: "In an environment where asymmetric
// routes exist between two hosts, information may flow in one direction but
// not in the other").

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"

namespace netmon::net {

class Nic;

struct Route {
  Prefix prefix;
  // Unspecified gateway means the destination is directly attached.
  IpAddr gateway;
  Nic* out = nullptr;
};

class RoutingTable {
 public:
  // Later insertions win among routes of equal prefix length.
  void add(Prefix prefix, IpAddr gateway, Nic* out);
  // Removes every route whose prefix equals `prefix` exactly.
  void remove(Prefix prefix);
  void clear() {
    routes_.clear();
    standby_.clear();
    indexed_ = false;
  }

  // Longest-prefix match (DESIGN.md §16). A table of more than kScanMax
  // routes answers a /32 with one hash probe and scans only its shorter
  // prefixes; a smaller one is scanned whole, which is as fast as the probe
  // and never pays for building the index.
  std::optional<Route> lookup(IpAddr dst) const;
  static constexpr std::size_t kScanMax = 16;
  std::size_t size() const { return routes_.size(); }
  const std::vector<Route>& routes() const { return routes_; }
  std::string to_string() const;

  // Pre-provisioned alternate routes (DESIGN.md §12). A standby entry is
  // invisible to lookup() until swap_standby() exchanges it with the active
  // entries of the exact same prefix, so a control-plane failover — and its
  // rollback, which is the same swap again — changes one table atomically
  // and never leaves the prefix unrouted.
  void add_standby(Prefix prefix, IpAddr gateway, Nic* out);
  bool has_standby(Prefix prefix) const;
  // Swaps the active and standby route sets for `prefix`. Either side may
  // be empty (a standby /32 over a default route swaps in leaving nothing
  // behind; the swap back restores it), so the operation is always its own
  // inverse. Returns false (and changes nothing) only when neither side
  // holds an entry for the prefix.
  bool swap_standby(Prefix prefix);
  std::size_t standby_size() const { return standby_.size(); }
  const std::vector<Route>& standby_routes() const { return standby_; }

 private:
  void build_index() const;
  void index_route(std::uint32_t pos) const;

  std::vector<Route> routes_;
  std::vector<Route> standby_;
  // Lookup index over routes_, built by the first indexed lookup after
  // clear(), remove() or swap_standby(). add() extends a built index in
  // place and leaves an unbuilt one alone, so filling a table costs no
  // hashing.
  mutable bool indexed_ = false;
  // /32 address -> position in routes_ of its last-added route.
  mutable std::unordered_map<std::uint32_t, std::uint32_t> host_routes_;
  // Positions in routes_ of every shorter prefix, in insertion order.
  mutable std::vector<std::uint32_t> short_routes_;
};

}  // namespace netmon::net
