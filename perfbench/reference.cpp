#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

// A fixed amount of work shaped like a simulator's, built from the standard
// library only, so no change to netmon can change it: a timestamp-ordered
// event heap, a hash table keyed by id, and pointer chasing across a working
// set far larger than the caches. run.py times it next to every workload
// run and scales host times by it, so the host's speed drifting under its
// neighbours' load cancels out.
double reference_seconds(std::uint64_t* checksum) {
  const auto t0 = std::chrono::steady_clock::now();
  constexpr std::uint32_t kSlots = 1u << 22;  // 16 MiB of links
  constexpr int kSteps = 2'000'000;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  auto next_random = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  // Sattolo's shuffle: one cycle through every slot.
  std::vector<std::uint32_t> link(kSlots);
  std::iota(link.begin(), link.end(), 0u);
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(link[i], link[next_random() % i]);
  }

  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    at = link[at];
    acc += at;
    events.emplace(acc ^ (static_cast<std::uint64_t>(i) << 20), at);
    if (events.size() > 4096) {
      const Event e = events.top();
      events.pop();
      table[e.second & 0xFFFF] += e.first;
    }
  }
  *checksum = acc ^ table.size();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
