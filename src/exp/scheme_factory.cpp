#include "src/exp/scheme_factory.hpp"

#include "src/baselines/infless_llama.hpp"
#include "src/baselines/molecule.hpp"
#include "src/baselines/offline_hybrid.hpp"
#include "src/baselines/oracle.hpp"
#include "src/core/paldia_policy.hpp"

namespace paldia::exp {

std::string scheme_name(SchemeId id) {
  switch (id) {
    case SchemeId::kPaldia: return "Paldia";
    case SchemeId::kInflessLlamaCost: return "INFless/Llama ($)";
    case SchemeId::kInflessLlamaPerf: return "INFless/Llama (P)";
    case SchemeId::kMoleculeCost: return "Molecule (beta) ($)";
    case SchemeId::kMoleculePerf: return "Molecule (beta) (P)";
    case SchemeId::kOracle: return "Oracle";
    case SchemeId::kOfflineHybrid: return "Offline Hybrid";
    case SchemeId::kMpsOnlyPerf: return "MPS Only (P)";
    case SchemeId::kMpsOnlyCost: return "MPS Only ($)";
    case SchemeId::kTimeSharedPerf: return "Time Shared Only (P)";
    case SchemeId::kTimeSharedCost: return "Time Shared Only ($)";
  }
  return "?";
}

std::vector<SchemeId> main_schemes() {
  return {SchemeId::kMoleculePerf, SchemeId::kInflessLlamaPerf,
          SchemeId::kMoleculeCost, SchemeId::kInflessLlamaCost, SchemeId::kPaldia};
}

SchemeFactory::SchemeFactory(const models::Zoo& zoo, const hw::Catalog& catalog,
                             const models::ProfileTable& profile, ThreadPool* pool,
                             SchemeFactoryOptions options)
    : zoo_(&zoo), catalog_(&catalog), profile_(&profile), pool_(pool),
      options_(options) {}

std::unique_ptr<core::SchedulerPolicy> SchemeFactory::make(SchemeId id) const {
  using baselines::InflessLlamaPolicy;
  using baselines::MoleculePolicy;
  using baselines::Variant;
  const hw::NodeType top_gpu =
      catalog_->most_performant_gpu().value_or(catalog_->by_cost_ascending().back());
  const hw::NodeType cheap_gpu = hw::NodeType::kG3s_xlarge;  // M60 in Table II

  switch (id) {
    case SchemeId::kPaldia: {
      core::PaldiaPolicyConfig config;
      config.tmax_beta = options_.tmax_beta;
      return std::make_unique<core::PaldiaPolicy>(*zoo_, *catalog_, *profile_, pool_,
                                                  config);
    }
    case SchemeId::kInflessLlamaCost:
      return std::make_unique<InflessLlamaPolicy>(*zoo_, *catalog_, *profile_,
                                                  Variant::kCostEffective);
    case SchemeId::kInflessLlamaPerf:
      return std::make_unique<InflessLlamaPolicy>(*zoo_, *catalog_, *profile_,
                                                  Variant::kPerformance);
    case SchemeId::kMoleculeCost:
      return std::make_unique<MoleculePolicy>(*zoo_, *catalog_, *profile_,
                                              Variant::kCostEffective);
    case SchemeId::kMoleculePerf:
      return std::make_unique<MoleculePolicy>(*zoo_, *catalog_, *profile_,
                                              Variant::kPerformance);
    case SchemeId::kOracle:
      return std::make_unique<baselines::OraclePolicy>(*zoo_, *catalog_, *profile_,
                                                       pool_, options_.tmax_beta);
    case SchemeId::kOfflineHybrid:
      return std::make_unique<baselines::OfflineHybridPolicy>(
          *zoo_, *catalog_, *profile_, cheap_gpu, options_.offline_spatial_fraction);
    case SchemeId::kMpsOnlyPerf:
      return std::make_unique<InflessLlamaPolicy>(*zoo_, *catalog_, *profile_,
                                                  Variant::kPerformance, top_gpu);
    case SchemeId::kMpsOnlyCost:
      return std::make_unique<InflessLlamaPolicy>(*zoo_, *catalog_, *profile_,
                                                  Variant::kCostEffective, cheap_gpu);
    case SchemeId::kTimeSharedPerf:
      return std::make_unique<MoleculePolicy>(*zoo_, *catalog_, *profile_,
                                              Variant::kPerformance, top_gpu);
    case SchemeId::kTimeSharedCost:
      return std::make_unique<MoleculePolicy>(*zoo_, *catalog_, *profile_,
                                              Variant::kCostEffective, cheap_gpu);
  }
  return nullptr;
}

hw::NodeType SchemeFactory::initial_node(SchemeId id) const {
  switch (id) {
    case SchemeId::kInflessLlamaPerf:
    case SchemeId::kMoleculePerf:
    case SchemeId::kMpsOnlyPerf:
    case SchemeId::kTimeSharedPerf:
      return catalog_->most_performant_gpu().value_or(
          catalog_->by_cost_ascending().back());
    case SchemeId::kMpsOnlyCost:
    case SchemeId::kTimeSharedCost:
    case SchemeId::kOfflineHybrid:
      return hw::NodeType::kG3s_xlarge;
    default:
      return hw::NodeType::kC6i_2xlarge;  // cheapest broadly-capable CPU
  }
}

}  // namespace paldia::exp
