// Long-horizon randomized soak: every strategy (including the extensions)
// is driven through the same seeded workloads with result verification at
// every access, across several seeds and both procedure models.  This is
// the repository's strongest end-to-end invariant: no strategy may ever
// serve a value different from a from-scratch recomputation.
#include <gtest/gtest.h>

#include <memory>

#include "proc/hybrid.h"
#include "proc/update_cache_avm.h"
#include "proc/update_cache_rvm.h"
#include "sim/simulator.h"

namespace procsim::sim {
namespace {

using cost::ProcModel;
using cost::Strategy;

cost::Params SoakParams() {
  cost::Params p;
  p.N = 3000;
  p.N1 = 12;
  p.N2 = 12;
  p.k = 40;
  p.q = 40;
  p.l = 8;
  p.f = 0.008;
  p.f2 = 0.3;
  p.SF = 0.6;
  p.Z = 0.1;  // skewed accesses
  return p;
}

struct SoakCase {
  uint64_t seed;
  ProcModel model;
};

class SoakTest : public ::testing::TestWithParam<SoakCase> {};

TEST_P(SoakTest, BuiltinStrategiesNeverServeStaleResults) {
  for (Strategy strategy :
       {Strategy::kAlwaysRecompute, Strategy::kCacheInvalidate,
        Strategy::kUpdateCacheAvm, Strategy::kUpdateCacheRvm}) {
    Simulator::Options options;
    options.params = SoakParams();
    options.model = GetParam().model;
    options.seed = GetParam().seed;
    options.verify_results = true;
    Result<SimulationResult> result = Simulator::Run(strategy, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().verification_failures, 0u)
        << cost::StrategyName(strategy) << " seed " << GetParam().seed;
  }
}

TEST_P(SoakTest, ExtensionStrategiesNeverServeStaleResults) {
  Simulator::Options options;
  options.params = SoakParams();
  options.model = GetParam().model;
  options.seed = GetParam().seed;
  options.verify_results = true;

  for (int variant = 0; variant < 3; ++variant) {
    Result<SimulationResult> result = Simulator::RunWithFactory(
        [&](Database* db,
            proc::CacheBudget* budget) -> std::unique_ptr<proc::Strategy> {
          const auto bytes = static_cast<std::size_t>(options.params.S);
          switch (variant) {
            case 0:
              return std::make_unique<proc::UpdateCacheAvmStrategy>(
                  db->catalog.get(), db->executor.get(), &db->meter, bytes,
                  budget, 0.3, 3);
            case 1:
              return std::make_unique<proc::HybridStrategy>(
                  db->catalog.get(), db->executor.get(), &db->meter,
                  options.params, options.model, budget);
            default:
              return std::make_unique<proc::UpdateCacheRvmStrategy>(
                  db->catalog.get(), db->executor.get(), &db->meter, bytes,
                  budget, rete::ReteNetwork::JoinShape::kLeftDeep);
          }
        },
        options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().verification_failures, 0u)
        << "variant " << variant << " seed " << GetParam().seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModels, SoakTest,
    ::testing::Values(SoakCase{101, ProcModel::kModel1},
                      SoakCase{202, ProcModel::kModel1},
                      SoakCase{303, ProcModel::kModel2},
                      SoakCase{404, ProcModel::kModel2}),
    [](const ::testing::TestParamInfo<SoakCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_model" +
             std::to_string(static_cast<int>(info.param.model));
    });

}  // namespace
}  // namespace procsim::sim
