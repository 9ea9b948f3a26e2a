// Empirical validation of the paper's §4.2 locality analysis: the analytic
// probability IP that an access finds its cached value invalid — derived
// from the two-class locality model via X, Y, Z1, Z2 — is compared with
// the measured invalid-access fraction of a real CacheInvalidate run.
#include <gtest/gtest.h>

#include "proc/cache_invalidate.h"
#include "sim/simulator.h"

namespace procsim::sim {
namespace {

struct IpCase {
  double p;      // update probability
  double z;      // locality skew
};

class IpValidationTest : public ::testing::TestWithParam<IpCase> {};

TEST_P(IpValidationTest, MeasuredInvalidFractionTracksAnalyticIp) {
  cost::Params params;
  params.N = 8000;
  params.N1 = 30;
  params.N2 = 30;
  params.f = 0.004;   // ~32-tuple objects
  params.f2 = 0.25;
  params.l = 10;
  params.q = 600;     // enough accesses for a stable fraction
  params.Z = GetParam().z;
  params.SetUpdateProbability(GetParam().p);

  // Analytic prediction at these exact parameters.
  cost::AnalyticModel analytic(params, cost::ProcModel::kModel1);
  const double predicted_ip = analytic.InvalidProbability();

  // Measured: drive a real CacheInvalidate strategy; a probe subclass
  // copies the counters out at destruction (the strategy dies inside
  // RunWithFactory).
  Simulator::Options options;
  options.params = params;
  options.seed = 20260704;
  std::size_t accesses = 0;
  std::size_t invalid = 0;
  Result<SimulationResult> rerun = Simulator::RunWithFactory(
      [&](Database* db, proc::CacheBudget* budget) {
        struct Probe : proc::CacheInvalidateStrategy {
          using CacheInvalidateStrategy::CacheInvalidateStrategy;
          std::size_t* accesses_out = nullptr;
          std::size_t* invalid_out = nullptr;
          ~Probe() override {
            if (accesses_out != nullptr) *accesses_out = access_count();
            if (invalid_out != nullptr) *invalid_out = invalid_access_count();
          }
        };
        auto strategy = std::make_unique<Probe>(
            db->catalog.get(), db->executor.get(), &db->meter,
            static_cast<std::size_t>(params.S), budget, params.C_inval);
        strategy->accesses_out = &accesses;
        strategy->invalid_out = &invalid;
        return strategy;
      },
      options);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ASSERT_GT(accesses, 0u);
  const double measured_ip =
      static_cast<double>(invalid) / static_cast<double>(accesses);

  // The analysis makes independence approximations, so expect agreement in
  // band, not equality: within 0.12 absolute or 35% relative.
  const double abs_err = std::abs(measured_ip - predicted_ip);
  EXPECT_TRUE(abs_err < 0.12 || abs_err < predicted_ip * 0.35)
      << "P=" << GetParam().p << " Z=" << GetParam().z
      << " predicted IP=" << predicted_ip << " measured=" << measured_ip;
}

INSTANTIATE_TEST_SUITE_P(
    Points, IpValidationTest,
    ::testing::Values(IpCase{0.1, 0.2}, IpCase{0.3, 0.2}, IpCase{0.6, 0.2},
                      IpCase{0.3, 0.05}, IpCase{0.3, 0.45}),
    [](const ::testing::TestParamInfo<IpCase>& info) {
      std::string name = "p";
      name += std::to_string(static_cast<int>(info.param.p * 100));
      name += "_z";
      name += std::to_string(static_cast<int>(info.param.z * 100));
      return name;
    });

}  // namespace
}  // namespace procsim::sim
