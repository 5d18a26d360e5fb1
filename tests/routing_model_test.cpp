// Differential model test for the indexed routing table (DESIGN.md §16):
// seeded random streams of add (/0, /8–/31, /32 with many duplicates) /
// remove / add_standby / swap_standby / clear, with lookups interleaved on
// addresses both inside and outside the installed prefixes, run against
// net::RoutingTable (past kScanMax routes a /32 hash plus a scan of the
// shorter prefixes, built lazily after remove/swap_standby/clear and
// extended in place by add; a whole-table scan below that) and a naive
// reference that keeps the pre-index table: one flat vector scanned
// linearly with `>=`, so the longest prefix wins and a later route of equal
// length overrides an earlier one. Every lookup must agree exactly (prefix,
// gateway, egress interface), as must every swap_standby verdict and the
// active and standby route lists; the same seed must give the same trace
// hash.
//
// Lookups are interleaved at random rather than after every op, so the
// streams also fill tables while the index is unbuilt (the auto_route
// pattern) as well as while it is built (runtime overrides), and tables
// cross kScanMax in both directions.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/nic.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"

namespace netmon {
namespace {

using net::IpAddr;
using net::Nic;
using net::Prefix;
using net::Route;

// ---------------------------------------------------------------------------
// Naive reference: the routing table before the index, kept verbatim.

class NaiveTable {
 public:
  void add(Prefix prefix, IpAddr gateway, Nic* out) {
    routes_.push_back(Route{prefix, gateway, out});
  }
  void remove(Prefix prefix) { erase_prefix(routes_, prefix); }
  void clear() {
    routes_.clear();
    standby_.clear();
  }
  void add_standby(Prefix prefix, IpAddr gateway, Nic* out) {
    standby_.push_back(Route{prefix, gateway, out});
  }
  bool swap_standby(Prefix prefix) {
    std::vector<Route> now_standby;
    std::vector<Route> now_active;
    for (const Route& r : routes_) {
      if (r.prefix == prefix) now_standby.push_back(r);
    }
    for (const Route& r : standby_) {
      if (r.prefix == prefix) now_active.push_back(r);
    }
    if (now_standby.empty() && now_active.empty()) return false;
    erase_prefix(routes_, prefix);
    erase_prefix(standby_, prefix);
    routes_.insert(routes_.end(), now_active.begin(), now_active.end());
    standby_.insert(standby_.end(), now_standby.begin(), now_standby.end());
    return true;
  }
  std::optional<Route> lookup(IpAddr dst) const {
    const Route* best = nullptr;
    for (const Route& r : routes_) {
      if (!r.prefix.contains(dst)) continue;
      if (best == nullptr || r.prefix.length() >= best->prefix.length()) {
        best = &r;
      }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }
  const std::vector<Route>& routes() const { return routes_; }
  const std::vector<Route>& standby_routes() const { return standby_; }

 private:
  static void erase_prefix(std::vector<Route>& v, Prefix prefix) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&](const Route& r) { return r.prefix == prefix; }),
            v.end());
  }

  std::vector<Route> routes_;
  std::vector<Route> standby_;
};

// ---------------------------------------------------------------------------
// Op stream, generated once per seed and replayed against both tables.

struct Op {
  enum Kind { kAdd, kRemove, kAddStandby, kSwap, kClear, kLookup } kind;
  Prefix prefix;
  IpAddr gateway;
  int out = 0;     // index into the interface pool
  IpAddr dst;      // kLookup
};

struct StreamShape {
  std::size_t ops = 25'000;  // table mutations; lookups come on top
  double host_route_share = 0.45;  // of adds: /32
  double default_share = 0.05;     // of adds: /0 (the rest /8–/31)
  double clear_rate = 0.002;
};

// Addresses cluster in 10.0–3.0–7.0–31 so /32 duplicates, overrides and
// hits are frequent; a tenth lie in 172.16/12 or anywhere at all.
IpAddr draw_address(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.9) {
    return IpAddr(10, static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 7)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 31)));
  }
  if (roll < 0.95) {
    return IpAddr(172, static_cast<std::uint8_t>(rng.uniform_int(16, 31)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                  static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  return IpAddr(static_cast<std::uint32_t>(rng.next()));
}

Prefix draw_prefix(util::Rng& rng, const StreamShape& shape) {
  const double roll = rng.uniform();
  if (roll < shape.host_route_share) return Prefix(draw_address(rng), 32);
  if (roll < shape.host_route_share + shape.default_share) {
    return Prefix(IpAddr{}, 0);
  }
  return Prefix(draw_address(rng),
                static_cast<int>(rng.uniform_int(8, 31)));
}

// An address inside `prefix`: its network with random host bits.
IpAddr inside(const Prefix& prefix, util::Rng& rng) {
  const int host_bits = 32 - prefix.length();
  const std::uint32_t mask = host_bits == 32 ? ~0u : (1u << host_bits) - 1u;
  return IpAddr(prefix.network().raw() |
                (static_cast<std::uint32_t>(rng.next()) & mask));
}

std::vector<Op> make_ops(std::uint64_t seed, const StreamShape& shape) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  // Prefixes installed so far (active or standby, possibly long gone):
  // remove/swap targets and the source of in-prefix lookup addresses.
  std::vector<Prefix> known;
  auto known_or_fresh = [&](double known_share) {
    if (!known.empty() && rng.uniform() < known_share) {
      return known[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(known.size()) - 1))];
    }
    return draw_prefix(rng, shape);
  };
  for (std::size_t i = 0; i < shape.ops; ++i) {
    Op op{};
    const double roll = rng.uniform();
    if (roll < shape.clear_rate) {
      op.kind = Op::kClear;
      known.clear();
    } else if (roll < 0.60) {
      op.kind = Op::kAdd;
      op.prefix = known_or_fresh(0.15);  // re-adds: equal-length overrides
    } else if (roll < 0.70) {
      op.kind = Op::kRemove;
      op.prefix = known_or_fresh(0.9);
    } else if (roll < 0.84) {
      op.kind = Op::kAddStandby;
      op.prefix = known_or_fresh(0.6);  // mostly over an active prefix
    } else {
      op.kind = Op::kSwap;
      op.prefix = known_or_fresh(0.9);
    }
    if (op.kind == Op::kAdd || op.kind == Op::kAddStandby) {
      op.gateway = draw_address(rng);
      op.out = static_cast<int>(rng.uniform_int(0, 3));
      known.push_back(op.prefix);
    }
    ops.push_back(op);

    // Interleaved lookups, in bursts or not at all, inside and outside the
    // installed prefixes.
    if (rng.uniform() < 0.4) continue;
    const int lookups = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < lookups; ++k) {
      Op lookup{};
      lookup.kind = Op::kLookup;
      lookup.dst = !known.empty() && rng.uniform() < 0.6
                       ? inside(known_or_fresh(1.0), rng)
                       : draw_address(rng);
      ops.push_back(lookup);
    }
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Replay.

// FNV-1a over 64-bit words, byte by byte.
class TraceHash {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct Outcome {
  std::uint64_t hash = 0;
  std::size_t host_hits = 0;   // answered by a /32
  std::size_t short_hits = 0;  // answered by a shorter prefix
  std::size_t misses = 0;
  std::size_t swaps = 0;  // swap_standby calls that changed the table
  std::size_t scanned = 0;  // lookups in tables of at most kScanMax routes
};

struct InterfacePool {
  InterfacePool()
      : nics{Nic("if0", net::MacAddr(1)), Nic("if1", net::MacAddr(2)),
             Nic("if2", net::MacAddr(3)), Nic("if3", net::MacAddr(4))} {}
  std::array<Nic, 4> nics;
};

int interface_index(const InterfacePool& pool, const Nic* nic) {
  for (std::size_t i = 0; i < pool.nics.size(); ++i) {
    if (&pool.nics[i] == nic) return static_cast<int>(i);
  }
  return -1;
}

void mix_route(TraceHash& h, const InterfacePool& pool,
               const std::optional<Route>& r) {
  h.mix(r.has_value());
  if (!r) return;
  h.mix(r->prefix.network().raw());
  h.mix(static_cast<std::uint64_t>(r->prefix.length()));
  h.mix(r->gateway.raw());
  h.mix(static_cast<std::uint64_t>(interface_index(pool, r->out)));
}

std::string describe(const std::optional<Route>& r) {
  if (!r) return "none";
  return r->prefix.to_string() + " via " + r->gateway.to_string();
}

bool same_route(const Route& a, const Route& b) {
  return a.prefix == b.prefix && a.gateway == b.gateway && a.out == b.out;
}

bool same_routes(const std::vector<Route>& a, const std::vector<Route>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_route);
}

// Runs `ops` against the indexed table and, when `reference` is set, checks
// it against the naive table at every step. Fills `out` with the indexed
// table's trace.
void replay(const std::vector<Op>& ops, bool reference, Outcome& out) {
  InterfacePool pool;
  net::RoutingTable table;
  NaiveTable naive;
  TraceHash hash;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Nic* nic = &pool.nics[static_cast<std::size_t>(op.out)];
    switch (op.kind) {
      case Op::kAdd:
        table.add(op.prefix, op.gateway, nic);
        if (reference) naive.add(op.prefix, op.gateway, nic);
        break;
      case Op::kRemove:
        table.remove(op.prefix);
        if (reference) naive.remove(op.prefix);
        break;
      case Op::kAddStandby:
        table.add_standby(op.prefix, op.gateway, nic);
        if (reference) naive.add_standby(op.prefix, op.gateway, nic);
        break;
      case Op::kSwap: {
        const bool swapped = table.swap_standby(op.prefix);
        if (reference) {
          EXPECT_EQ(swapped, naive.swap_standby(op.prefix)) << "op " << i;
        }
        out.swaps += swapped ? 1 : 0;
        hash.mix(swapped);
        break;
      }
      case Op::kClear:
        table.clear();
        if (reference) naive.clear();
        break;
      case Op::kLookup: {
        const std::optional<Route> got = table.lookup(op.dst);
        if (table.size() <= net::RoutingTable::kScanMax) ++out.scanned;
        if (reference) {
          const std::optional<Route> want = naive.lookup(op.dst);
          const bool agree = got.has_value() == want.has_value() &&
                             (!got || same_route(*got, *want));
          EXPECT_TRUE(agree) << "op " << i << " lookup " << op.dst.to_string()
                             << ": indexed " << describe(got) << ", naive "
                             << describe(want);
          if (!agree) return;
        }
        if (!got) {
          ++out.misses;
        } else if (got->prefix.length() == 32) {
          ++out.host_hits;
        } else {
          ++out.short_hits;
        }
        mix_route(hash, pool, got);
        break;
      }
    }
    if (reference && (op.kind != Op::kLookup || i % 512 == 0)) {
      ASSERT_EQ(table.size(), naive.routes().size()) << "op " << i;
      ASSERT_EQ(table.standby_size(), naive.standby_routes().size())
          << "op " << i;
      if (i % 512 == 0) {
        ASSERT_TRUE(same_routes(table.routes(), naive.routes())) << "op " << i;
        ASSERT_TRUE(same_routes(table.standby_routes(), naive.standby_routes()))
            << "op " << i;
      }
    }
  }
  out.hash = hash.value();
}

void expect_equivalent(std::uint64_t seed, const StreamShape& shape) {
  const std::vector<Op> ops = make_ops(seed, shape);
  Outcome checked;
  replay(ops, /*reference=*/true, checked);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Same seed, same trace: regenerate the stream and replay it again.
  Outcome again;
  replay(make_ops(seed, shape), /*reference=*/false, again);
  EXPECT_EQ(checked.hash, again.hash);

  // The stream exercised every answer the index can give.
  EXPECT_GT(checked.host_hits, 1000u);
  EXPECT_GT(checked.short_hits, 1000u);
  EXPECT_GT(checked.misses, 100u);
  EXPECT_GT(checked.swaps, 500u);
  const std::size_t lookups =
      checked.host_hits + checked.short_hits + checked.misses;
  EXPECT_GT(checked.scanned, 100u);
  EXPECT_GT(lookups - checked.scanned, 1000u);
}

TEST(RoutingModel, IndexedLookupMatchesLinearScanOnHostRouteHeavyTables) {
  StreamShape shape;
  shape.ops = 25'000;
  shape.host_route_share = 0.7;  // auto_route-like: mostly /32s
  shape.default_share = 0.03;
  expect_equivalent(0x5EEDull, shape);
}

TEST(RoutingModel, IndexedLookupMatchesLinearScanOnPrefixHeavyTables) {
  StreamShape shape;
  shape.ops = 25'000;
  shape.host_route_share = 0.3;
  shape.default_share = 0.08;
  shape.clear_rate = 0.0005;  // longer-lived, larger tables
  expect_equivalent(0xC1DAull, shape);
}

TEST(RoutingModel, LookupMatchesLinearScanAcrossTheScanLimit) {
  StreamShape shape;
  shape.ops = 25'000;
  shape.host_route_share = 0.5;
  shape.clear_rate = 0.03;  // tables hover around kScanMax routes
  expect_equivalent(0x5CA7ull, shape);
}

// Pinned cases the random streams reach only by chance.
TEST(RoutingModel, EqualLengthOverrideSurvivesIndexBuildAndIncrementalAdd) {
  InterfacePool pool;
  net::RoutingTable table;
  // Enough other host routes that lookups go through the index.
  for (std::size_t i = 0; i < net::RoutingTable::kScanMax; ++i) {
    table.add(Prefix(IpAddr(10, 9, 0, static_cast<std::uint8_t>(i)), 32),
              IpAddr(9, 9, 9, 9), &pool.nics[0]);
  }
  const Prefix host(IpAddr(10, 0, 0, 1), 32);
  table.add(host, IpAddr(1, 1, 1, 1), &pool.nics[0]);
  table.add(host, IpAddr(2, 2, 2, 2), &pool.nics[1]);  // unbuilt index
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(2, 2, 2, 2));
  table.add(host, IpAddr(3, 3, 3, 3), &pool.nics[2]);  // built index
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(3, 3, 3, 3));
  table.add(Prefix(IpAddr{}, 0), IpAddr(4, 4, 4, 4), &pool.nics[3]);
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(3, 3, 3, 3));
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 2))->gateway, IpAddr(4, 4, 4, 4));
  table.remove(host);
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(4, 4, 4, 4));
}

TEST(RoutingModel, StandbyStaysInvisibleUntilSwappedAndSwapIsAnInvolution) {
  InterfacePool pool;
  net::RoutingTable table;
  const Prefix host(IpAddr(10, 0, 0, 1), 32);
  table.add(Prefix(IpAddr{}, 0), IpAddr(1, 1, 1, 1), &pool.nics[0]);
  table.add_standby(host, IpAddr(2, 2, 2, 2), &pool.nics[1]);
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(1, 1, 1, 1));
  ASSERT_TRUE(table.swap_standby(host));
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(2, 2, 2, 2));
  EXPECT_EQ(table.standby_size(), 0u);
  ASSERT_TRUE(table.swap_standby(host));
  EXPECT_EQ(table.lookup(IpAddr(10, 0, 0, 1))->gateway, IpAddr(1, 1, 1, 1));
  EXPECT_TRUE(table.has_standby(host));
  EXPECT_FALSE(table.swap_standby(Prefix(IpAddr(10, 0, 0, 9), 32)));
  table.clear();
  EXPECT_FALSE(table.lookup(IpAddr(10, 0, 0, 1)).has_value());
}

}  // namespace
}  // namespace netmon
