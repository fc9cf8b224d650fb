// Deterministic SLO-aware trace sampling (fleet-scale telemetry tier 1).
//
// At fleet scale the full per-request lifecycle span set either drops its
// tail silently or eats gigabytes. The sampler keeps 100% of SLO-violating
// request lifecycles (they are the interesting exemplars and the attribution
// input) and a deterministic 1-in-N of compliant ones.
//
// The keep/drop decision is a pure function of (request id, seed) — never
// wall clock, thread id, or arrival order — so the sampled trace is
// byte-identical across --threads, exactly like the unsampled exports.
// Exact request counts are preserved out-of-band: the Tracer tallies every
// sampled-out completion per (model, node) and flushes the tallies into its
// counter registry as "sampled_out:<model>:<node>", which the report
// analyzer adds back so attribution/compliance/calibration stay exact while
// span volume drops by the sample rate.
#pragma once

#include <cstdint>

namespace paldia::obs {

/// Fixed default hash seed. Changing it reshuffles which compliant requests
/// are retained (every choice is equally representative); runs comparing
/// sampled exports byte-for-byte must share it.
inline constexpr std::uint64_t kDefaultSamplerSeed = 0x5ca1ab1e0ddba11ull;

class TraceSampler {
 public:
  TraceSampler() = default;
  explicit TraceSampler(std::uint32_t sample_rate,
                        std::uint64_t seed = kDefaultSamplerSeed)
      : rate_(sample_rate == 0 ? 1 : sample_rate), seed_(seed) {}

  /// 1 = keep everything (sampling disabled).
  std::uint32_t rate() const { return rate_; }
  std::uint64_t seed() const { return seed_; }
  bool pass_through() const { return rate_ <= 1; }

  /// splitmix64 finalizer: full-avalanche integer mix, so consecutive
  /// request ids land uniformly across the modulus classes.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Deterministic 1-in-rate decision for a compliant request.
  bool keep_compliant(std::int64_t request_id) const {
    if (rate_ <= 1) return true;
    return mix(static_cast<std::uint64_t>(request_id) ^ seed_) % rate_ == 0;
  }

  /// The sampling policy: violators always, compliant 1-in-rate.
  bool keep(std::int64_t request_id, bool violated) const {
    if (rate_ <= 1 || violated) return true;
    return keep_compliant(request_id);
  }

 private:
  std::uint32_t rate_ = 1;
  std::uint64_t seed_ = kDefaultSamplerSeed;
};

}  // namespace paldia::obs
