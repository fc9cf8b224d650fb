// Builds the evaluated schemes (Section V) as SchedulerPolicy objects.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "src/common/thread_pool.hpp"
#include "src/core/scheduler_policy.hpp"
#include "src/exp/scenario.hpp"

namespace paldia::exp {

enum class SchemeId {
  kPaldia,
  kInflessLlamaCost,   // INFless/Llama ($)
  kInflessLlamaPerf,   // INFless/Llama (P)
  kMoleculeCost,       // Molecule (beta) ($)
  kMoleculePerf,       // Molecule (beta) (P)
  kOracle,
  kOfflineHybrid,      // Fig. 1: fixed M60, offline-swept split
  kMpsOnlyPerf,        // Fig. 1: MPS Only (P) — pinned V100, all spatial
  kMpsOnlyCost,        // Fig. 1: MPS Only ($) — pinned M60, all spatial
  kTimeSharedPerf,     // Fig. 1: Time Shared Only (P)
  kTimeSharedCost,     // Fig. 1: Time Shared Only ($)
};

std::string scheme_name(SchemeId id);

/// The paper's five main-evaluation schemes in figure order.
std::vector<SchemeId> main_schemes();

struct SchemeFactoryOptions {
  /// Split for Offline Hybrid (determined by the offline sweep).
  double offline_spatial_fraction = 0.5;
  /// Scheduler-side contention coefficient for Paldia/Oracle.
  double tmax_beta = 0.2;
  /// Pool request-path buffers in the per-repetition arena. false = same
  /// block API, every buffer dropped on release — exports stay
  /// byte-identical either way (Runner.PooledVsBypassBitIdentical).
  bool request_pool = true;
  /// Lifecycle trace sampling (--sample-rate): keep every SLO-violating
  /// request plus a deterministic 1-in-N of compliant ones (1 = keep all).
  /// Report counts stay exact via sampled_out counters; the sampled exports
  /// stay byte-identical across --threads.
  std::uint32_t sample_rate = 1;
  /// SLO objective for the health engine's error budget (--slo-target):
  /// budget = 1 - slo_target; burn rate = violation fraction / budget.
  double slo_target = 0.999;
  /// Burn-rate alert windows (--burn-windows=fast,slow in ms): the SRE-style
  /// multi-window rule fires only when both breach the threshold.
  DurationMs burn_fast_ms = 60'000.0;
  DurationMs burn_slow_ms = 600'000.0;
};

class SchemeFactory {
 public:
  SchemeFactory(const models::Zoo& zoo, const hw::Catalog& catalog,
                const models::ProfileTable& profile, ThreadPool* pool = nullptr,
                SchemeFactoryOptions options = {});

  std::unique_ptr<core::SchedulerPolicy> make(SchemeId id) const;

  /// Starting node for the scheme (P variants start on the V100; the rest
  /// on the cheapest CPU node, converging via their selection policy).
  hw::NodeType initial_node(SchemeId id) const;

  const SchemeFactoryOptions& options() const { return options_; }

 private:
  const models::Zoo* zoo_;
  const hw::Catalog* catalog_;
  const models::ProfileTable* profile_;
  ThreadPool* pool_;
  SchemeFactoryOptions options_;
};

}  // namespace paldia::exp
