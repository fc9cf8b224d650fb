#include "src/core/hardware_selection.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/catalog_gen.hpp"

namespace paldia::core {
namespace {

class HardwareSelectionTest : public ::testing::Test {
 protected:
  HardwareSelectionTest()
      : profile_(hw::Catalog::instance()),
        optimizer_(perfmodel::TmaxModel(0.2)),
        selection_(models::Zoo::instance(), hw::Catalog::instance(), profile_,
                   optimizer_) {}

  static DemandSnapshot demand(models::ModelId model, Rps rate, int backlog = 0) {
    DemandSnapshot snapshot;
    snapshot.model = model;
    snapshot.observed_rps = rate;
    snapshot.predicted_rps = rate;
    snapshot.smoothed_rps = rate;
    snapshot.backlog = backlog;
    return snapshot;
  }

  models::ProfileTable profile_;
  perfmodel::YOptimizer optimizer_;
  HardwareSelection selection_;
};

TEST_F(HardwareSelectionTest, LowRateChoosesCpu) {
  // ~10 rps of ResNet 50: a CPU node suffices and short-circuits
  // (Algorithm 1's break).
  const auto choice = selection_.choose({demand(models::ModelId::kResNet50, 10.0)});
  EXPECT_FALSE(hw::Catalog::instance().spec(choice.node).is_gpu());
  EXPECT_TRUE(choice.feasible);
}

TEST_F(HardwareSelectionTest, MediumRateChoosesCheapGpu) {
  // 100 rps exceeds every CPU node; the M60 is the cheapest capable GPU.
  const auto choice = selection_.choose({demand(models::ModelId::kResNet50, 100.0)});
  EXPECT_EQ(choice.node, hw::NodeType::kG3s_xlarge);
  EXPECT_TRUE(choice.feasible);
}

TEST_F(HardwareSelectionTest, SaturatingRateEscalatesToV100) {
  // ~700 rps of GoogleNet: only the V100 can keep T_max near the SLO
  // (the Fig. 13a regime).
  const auto choice = selection_.choose({demand(models::ModelId::kGoogleNet, 700.0)});
  EXPECT_EQ(choice.node, hw::NodeType::kP3_2xlarge);
}

TEST_F(HardwareSelectionTest, LanguageModelSkipsCpu) {
  // BERT at even 2 rps cannot be served by any CPU node within the SLO.
  const auto choice = selection_.choose({demand(models::ModelId::kBert, 2.0)});
  EXPECT_TRUE(hw::Catalog::instance().spec(choice.node).is_gpu());
}

TEST_F(HardwareSelectionTest, ZeroDemandPicksCheapestCapableNode) {
  const auto choice = selection_.choose({demand(models::ModelId::kResNet50, 0.0)});
  EXPECT_TRUE(choice.feasible);
  // With no demand every capable node is feasible; cheapest-first wins.
  EXPECT_LE(hw::Catalog::instance().spec(choice.node).price_per_hour, 0.75);
}

TEST_F(HardwareSelectionTest, BacklogForcesEscalation) {
  // Low rate but a large accumulated backlog: CPU drain bound fails.
  const auto choice =
      selection_.choose({demand(models::ModelId::kResNet50, 5.0, 500)});
  EXPECT_TRUE(hw::Catalog::instance().spec(choice.node).is_gpu());
}

TEST_F(HardwareSelectionTest, EvaluateCpuFeasibility) {
  const auto feasible =
      selection_.evaluate(hw::NodeType::kC6i_4xlarge,
                          {demand(models::ModelId::kResNet50, 10.0)});
  EXPECT_TRUE(feasible.feasible);
  const auto infeasible =
      selection_.evaluate(hw::NodeType::kC6i_4xlarge,
                          {demand(models::ModelId::kResNet50, 120.0)});
  EXPECT_FALSE(infeasible.feasible);
}

TEST_F(HardwareSelectionTest, EvaluateGpuReportsSplit) {
  const auto choice =
      selection_.evaluate(hw::NodeType::kG3s_xlarge,
                          {demand(models::ModelId::kResNet50, 200.0)});
  EXPECT_TRUE(choice.feasible);
  EXPECT_GE(choice.best_y, 0);
  EXPECT_GT(choice.t_max_ms, 0.0);
}

TEST_F(HardwareSelectionTest, MultiModelDemandTakesWorstCase) {
  const auto light = selection_.evaluate(
      hw::NodeType::kG3s_xlarge, {demand(models::ModelId::kSeNet18, 50.0)});
  const auto combined = selection_.evaluate(
      hw::NodeType::kG3s_xlarge, {demand(models::ModelId::kSeNet18, 50.0),
                                  demand(models::ModelId::kDenseNet121, 150.0)});
  EXPECT_GE(combined.t_max_ms, light.t_max_ms);
}

TEST_F(HardwareSelectionTest, PerformanceBandPrefersCheaperGpu) {
  // At a rate the M60 comfortably serves, its T_max lands within the 50 ms
  // band of the V100's, so the cheaper node must win despite being slower.
  const auto m60 = selection_.evaluate(hw::NodeType::kG3s_xlarge,
                                       {demand(models::ModelId::kResNet50, 150.0)});
  const auto v100 = selection_.evaluate(hw::NodeType::kP3_2xlarge,
                                        {demand(models::ModelId::kResNet50, 150.0)});
  ASSERT_TRUE(m60.feasible);
  ASSERT_TRUE(v100.feasible);
  ASSERT_LE(m60.t_max_ms, v100.t_max_ms + 50.0);
  const auto choice = selection_.choose({demand(models::ModelId::kResNet50, 150.0)});
  EXPECT_EQ(choice.node, hw::NodeType::kG3s_xlarge);
}

TEST_F(HardwareSelectionTest, NestedYSweepOnSharedPoolCompletes) {
  // choose() evaluates the candidates in cost order on its calling thread,
  // and every GPU candidate's y-sweep fans its probes out on the pool. Here
  // choose() itself runs in pool tasks, as a Runner's parallel repetitions
  // call it, so the y-sweep's parallel_for nests inside the same pool. With
  // the old global-counter executor this deadlocked; it must finish and
  // match the fully-serial answer.
  ThreadPool pool(4);
  perfmodel::YOptimizer pooled_optimizer(perfmodel::TmaxModel(0.2), &pool);
  HardwareSelection nested(models::Zoo::instance(), hw::Catalog::instance(),
                           profile_, pooled_optimizer);
  // Heavy demand so GPU candidates sweep a wide y range (>= 64 splits):
  // a large backlog drives N = coexisting_requests into the hundreds.
  const std::vector<DemandSnapshot> heavy = {
      demand(models::ModelId::kGoogleNet, 700.0, 1500)};
  ASSERT_GE(nested.coexisting_requests(heavy[0], 200.0), 200);
  const auto serial = selection_.choose(heavy);
  std::vector<HardwareChoice> parallel(2);
  pool.parallel_for(parallel.size(),
                    [&](std::size_t i) { parallel[i] = nested.choose(heavy); });
  for (const auto& choice : parallel) {
    EXPECT_EQ(choice.node, serial.node);
    EXPECT_EQ(choice.best_y, serial.best_y);
    EXPECT_EQ(choice.t_max_ms, serial.t_max_ms);
  }
}

TEST_F(HardwareSelectionTest, NegativePerformanceBandClampedToZero) {
  // A negative band used to make every feasible choice fail the band test,
  // leaving winner null and choose() dereferencing it. Clamped to 0 it must
  // behave like "cheapest within 0 ms of the best T_max".
  HardwareSelectionConfig config;
  config.performance_band_ms = -50.0;
  HardwareSelection negative_band(models::Zoo::instance(), hw::Catalog::instance(),
                                  profile_, optimizer_, config);
  const auto choice =
      negative_band.choose({demand(models::ModelId::kResNet50, 150.0)});
  EXPECT_TRUE(choice.feasible);
  // Band 0 keeps only the most performant feasible candidate.
  HardwareSelectionConfig zero;
  zero.performance_band_ms = 0.0;
  HardwareSelection zero_band(models::Zoo::instance(), hw::Catalog::instance(),
                              profile_, optimizer_, zero);
  const auto baseline = zero_band.choose({demand(models::ModelId::kResNet50, 150.0)});
  EXPECT_EQ(choice.node, baseline.node);
}

TEST_F(HardwareSelectionTest, SweepListsEveryPoolMemberCheapestFirst) {
  // Algorithm 1 evaluates the whole capable pool, cheapest first, whether
  // or not the caller records it: 10 rps ends on a CPU short-circuit, 150
  // rps in choose_best_HW over the GPUs, 20000 rps in the escalation.
  const auto& catalog = hw::Catalog::instance();
  const auto& model = models::Zoo::instance().spec(models::ModelId::kResNet50);
  for (Rps rate : {10.0, 150.0, 20000.0}) {
    const std::vector<DemandSnapshot> load = {demand(models::ModelId::kResNet50, rate)};
    SelectionSweep sweep;
    const auto recorded = selection_.choose(load, &sweep);
    const auto unrecorded = selection_.choose(load);
    EXPECT_EQ(recorded.node, unrecorded.node) << "rate " << rate;
    EXPECT_EQ(recorded.t_max_ms, unrecorded.t_max_ms) << "rate " << rate;

    std::vector<hw::NodeType> capable;
    for (hw::NodeType node : catalog.by_cost_ascending()) {
      if (profile_.lookup(model, node, 1).solo_ms <= model.slo_ms) {
        capable.push_back(node);
      }
    }
    EXPECT_EQ(sweep.pool_size, static_cast<int>(sweep.candidates.size()));
    ASSERT_EQ(sweep.candidates.size(), capable.size()) << "rate " << rate;
    for (std::size_t i = 0; i < capable.size(); ++i) {
      const auto& candidate = sweep.candidates[i];
      EXPECT_EQ(candidate.node, capable[i]) << "rate " << rate << " position " << i;
      const auto evaluated = selection_.evaluate(capable[i], load);
      EXPECT_EQ(candidate.t_max_ms, evaluated.t_max_ms);
      EXPECT_EQ(candidate.feasible, evaluated.feasible);
      if (i > 0) {
        EXPECT_LE(catalog.spec(sweep.candidates[i - 1].node).price_per_hour,
                  catalog.spec(candidate.node).price_per_hour);
      }
    }
    EXPECT_EQ(sweep.cpu_short_circuit, rate == 10.0) << "rate " << rate;
    EXPECT_EQ(sweep.best_feasible_gpu_t_max_ms > 0.0, rate == 150.0) << "rate " << rate;
  }
}

TEST(HardwareSelection, CpuOnlyCatalogDegradesInsteadOfAborting) {
  const auto& zoo = models::Zoo::instance();
  hw::CatalogGenConfig config;
  config.node_count = 12;
  config.gpu_fraction = 0.0;
  config.seed = 5;
  const hw::Catalog catalog = hw::generate_catalog(config);
  ASSERT_FALSE(catalog.most_performant_gpu().has_value());
  const models::ProfileTable profile(catalog);
  const perfmodel::YOptimizer optimizer{perfmodel::TmaxModel(0.2)};
  const HardwareSelection selection(zoo, catalog, profile, optimizer);
  DemandSnapshot light;
  light.model = models::ModelId::kResNet50;
  light.observed_rps = light.predicted_rps = light.smoothed_rps = 4.0;
  // Light demand: a CPU node serves it.
  auto choice = selection.choose({light});
  EXPECT_FALSE(catalog.spec(choice.node).is_gpu());
  EXPECT_TRUE(choice.feasible);
  // Hopeless demand: no GPU to escalate to, so the least-bad CPU (minimum
  // T_max, the cheapest on ties) comes back marked infeasible rather than
  // aborting.
  DemandSnapshot hopeless;
  hopeless.model = models::ModelId::kBert;
  hopeless.observed_rps = hopeless.predicted_rps = hopeless.smoothed_rps = 2000.0;
  hopeless.backlog = 512;
  SelectionSweep sweep;
  choice = selection.choose({hopeless}, &sweep);
  EXPECT_FALSE(catalog.spec(choice.node).is_gpu());
  EXPECT_FALSE(choice.feasible);
  ASSERT_FALSE(sweep.candidates.empty());
  for (const auto& candidate : sweep.candidates) {
    EXPECT_FALSE(candidate.feasible);
    EXPECT_GE(candidate.t_max_ms, choice.t_max_ms);
    if (candidate.t_max_ms == choice.t_max_ms) {
      EXPECT_GE(catalog.spec(candidate.node).price_per_hour,
                catalog.spec(choice.node).price_per_hour);
    }
  }
}

// Sweep: the chosen node's price must be monotone (non-decreasing) in the
// offered rate for a given model — more load never selects cheaper
// hardware.
class RateSweep : public ::testing::TestWithParam<int> {};

TEST_P(RateSweep, ChosenPriceMonotoneInRate) {
  models::ProfileTable profile(hw::Catalog::instance());
  perfmodel::YOptimizer optimizer(perfmodel::TmaxModel(0.2));
  HardwareSelection selection(models::Zoo::instance(), hw::Catalog::instance(),
                              profile, optimizer);
  const auto model = models::ModelId(GetParam());
  double previous_price = 0.0;
  for (Rps rate : {1.0, 10.0, 40.0, 120.0, 300.0, 600.0}) {
    DemandSnapshot snapshot;
    snapshot.model = model;
    snapshot.observed_rps = snapshot.predicted_rps = snapshot.smoothed_rps = rate;
    const auto choice = selection.choose({snapshot});
    const double price = hw::Catalog::instance().spec(choice.node).price_per_hour;
    EXPECT_GE(price, previous_price - 1e-9)
        << models::model_id_name(model) << " at " << rate << " rps";
    previous_price = price;
  }
}

INSTANTIATE_TEST_SUITE_P(VisionModels, RateSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 8, 10));

}  // namespace
}  // namespace paldia::core
