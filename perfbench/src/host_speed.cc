#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

double ReferenceLoopSeconds() {
  constexpr int kKeys = 150000;
  const auto t0 = std::chrono::steady_clock::now();
  std::mt19937_64 rng(1988);
  std::map<uint64_t, std::string> ordered;
  std::unordered_map<uint64_t, uint64_t> hashed;
  std::vector<uint64_t> keys;
  keys.reserve(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    const uint64_t key = rng();
    ordered.emplace(key, std::to_string(key));
    hashed[key % 65537] += key;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  uint64_t sum = keys.front() + hashed.size();
  for (const auto& entry : ordered) sum += entry.second.size();
  // Keeps the loop's result alive, so the compiler cannot drop the work.
  volatile uint64_t sink = sum;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
