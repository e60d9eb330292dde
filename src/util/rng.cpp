#include "util/rng.hpp"

#include <cassert>

namespace dfly {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // xoshiro256** requires a nonzero state; SplitMix64 output of any seed is
  // astronomically unlikely to be all zero, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next() : uniform(span));
}

double Rng::uniform_double(double lo, double hi) {
  return lo + (hi - lo) * uniform_double();
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the parent's next output with the tag through SplitMix64 so that
  // forked streams do not overlap the parent sequence.
  SplitMix64 sm(next() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
  return Rng(sm.next());
}

Rng Rng::stream(std::uint64_t index) const {
  // Fold all four state words with the index through SplitMix64 so streams of
  // distinct indices (and the parent itself) are statistically independent.
  SplitMix64 sm(s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 47) ^
                (index * 0xd1342543de82ef95ULL + 0x9e3779b97f4a7c15ULL));
  sm.next();  // decorrelate from the raw state fold
  return Rng(sm.next());
}

}  // namespace dfly
