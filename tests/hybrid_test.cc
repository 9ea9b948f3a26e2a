#include "proc/hybrid.h"

#include <gtest/gtest.h>

#include <numeric>

#include "cost/advisor.h"
#include "sim/simulator.h"

namespace procsim::proc {
namespace {

cost::Params SmallParams() {
  cost::Params p;
  p.N = 2000;
  p.N1 = 10;
  p.N2 = 10;
  p.k = 20;
  p.q = 20;
  p.l = 5;
  p.f = 0.01;
  p.f2 = 0.2;
  return p;
}

TEST(AdvisorTest, HighUpdateRateRecommendsRecompute) {
  cost::Params p;
  p.SetUpdateProbability(0.95);
  const cost::Recommendation rec =
      cost::RecommendStrategy(p, cost::ProcModel::kModel1);
  EXPECT_EQ(rec.strategy, cost::Strategy::kAlwaysRecompute);
  EXPECT_FALSE(rec.rationale.empty());
  ASSERT_EQ(rec.ranking.size(), 4u);
  EXPECT_LE(rec.ranking[0].second, rec.ranking[1].second);
  EXPECT_LE(rec.ranking[2].second, rec.ranking[3].second);
}

TEST(AdvisorTest, LowUpdateRateRecommendsUpdateCache) {
  cost::Params p;
  p.SetUpdateProbability(0.05);
  p.f = 0.01;  // large objects
  const cost::Recommendation rec =
      cost::RecommendStrategy(p, cost::ProcModel::kModel1);
  EXPECT_TRUE(rec.strategy == cost::Strategy::kUpdateCacheAvm ||
              rec.strategy == cost::Strategy::kUpdateCacheRvm);
}

TEST(AdvisorTest, SafetyMarginPrefersCacheInvalidate) {
  // Small objects: CI is within a whisker of UC; the safety margin should
  // flip the recommendation (the paper's "CI is safer" guidance).
  cost::Params p;
  p.SetUpdateProbability(0.2);
  p.f = 0.0001;
  const cost::Recommendation strict =
      cost::RecommendStrategy(p, cost::ProcModel::kModel1, 1.0);
  const cost::Recommendation safe =
      cost::RecommendStrategy(p, cost::ProcModel::kModel1, 2.0);
  EXPECT_TRUE(strict.strategy == cost::Strategy::kUpdateCacheAvm ||
              strict.strategy == cost::Strategy::kUpdateCacheRvm);
  EXPECT_EQ(safe.strategy, cost::Strategy::kCacheInvalidate);
}

TEST(AdvisorTest, PerTypeRecommendationRestrictsPopulation) {
  cost::Params p;
  p.SetUpdateProbability(0.1);
  const cost::Recommendation p1_only = cost::RecommendForProcedureType(
      p, cost::ProcModel::kModel1, /*is_join_procedure=*/false);
  const cost::Recommendation p2_only = cost::RecommendForProcedureType(
      p, cost::ProcModel::kModel1, /*is_join_procedure=*/true);
  // Both should be Update Cache variants at P = 0.1, but evaluated on
  // different populations (no crash, sane costs).
  EXPECT_GT(p1_only.expected_cost_ms, 0.0);
  EXPECT_GT(p2_only.expected_cost_ms, 0.0);
}

TEST(AdvisorTest, DeploymentAdviceMentionsAllStages) {
  cost::Params p;
  const std::string advice =
      cost::DeploymentAdvice(p, cost::ProcModel::kModel1);
  EXPECT_NE(advice.find("Always Recompute"), std::string::npos);
  EXPECT_NE(advice.find("Cache and Invalidate"), std::string::npos);
  EXPECT_NE(advice.find("Update Cache"), std::string::npos);
}

TEST(HybridTest, RoutesAndAnswersCorrectly) {
  sim::Simulator::Options options;
  options.params = SmallParams();
  options.seed = 5;
  options.verify_results = true;
  Result<sim::SimulationResult> result = sim::Simulator::RunWithFactory(
      [&](sim::Database* db, CacheBudget* budget) {
        return std::make_unique<HybridStrategy>(
            db->catalog.get(), db->executor.get(), &db->meter,
            options.params, cost::ProcModel::kModel1, budget);
      },
      options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().verification_failures, 0u);
}

TEST(HybridTest, SingleRouteChargesEqualTheRoutedStrategy) {
  // With one procedure type per database, Hybrid routes every procedure to
  // one sub-strategy and must charge exactly what that strategy charges
  // when run alone: its sub-strategies are built as MakeStrategy builds
  // them, and the idle ones charge nothing.
  struct Case {
    const char* name;
    bool joins;  ///< joins only (N1 = 0), else selections only (N2 = 0)
    cost::ProcModel model;
    double update_probability;
    cost::Strategy route;
  };
  const Case cases[] = {
      {"selections, model 1, P=0.1", false, cost::ProcModel::kModel1, 0.1,
       cost::Strategy::kCacheInvalidate},
      {"selections, model 1, P=0.6", false, cost::ProcModel::kModel1, 0.6,
       cost::Strategy::kAlwaysRecompute},
      {"joins, model 1, P=0.1", true, cost::ProcModel::kModel1, 0.1,
       cost::Strategy::kUpdateCacheAvm},
      {"joins, model 2, P=0.1", true, cost::ProcModel::kModel2, 0.1,
       cost::Strategy::kUpdateCacheRvm},
  };
  for (const Case& c : cases) {
    sim::Simulator::Options options;
    options.params.N = 4000;
    options.params.f = 0.005;
    options.params.q = 60;
    options.params.N1 = c.joins ? 0 : 20;
    options.params.N2 = c.joins ? 20 : 0;
    options.params.SetUpdateProbability(c.update_probability);
    options.model = c.model;
    options.seed = 11;
    ASSERT_EQ(cost::RecommendForProcedureType(options.params, c.model,
                                              c.joins,
                                              HybridStrategy::kSafetyMargin)
                  .strategy,
              c.route)
        << c.name;

    Result<sim::SimulationResult> hybrid = sim::Simulator::RunWithFactory(
        [&](sim::Database* db, CacheBudget* budget) {
          return std::make_unique<HybridStrategy>(
              db->catalog.get(), db->executor.get(), &db->meter,
              options.params, c.model, budget);
        },
        options);
    Result<sim::SimulationResult> routed =
        sim::Simulator::Run(c.route, options);
    ASSERT_TRUE(hybrid.ok()) << c.name << ": " << hybrid.status().ToString();
    ASSERT_TRUE(routed.ok()) << c.name << ": " << routed.status().ToString();
    const sim::SimulationResult& h = hybrid.ValueOrDie();
    const sim::SimulationResult& r = routed.ValueOrDie();
    EXPECT_GT(r.total_ms, 0.0) << c.name;
    EXPECT_EQ(h.total_ms, r.total_ms) << c.name;
    EXPECT_EQ(h.disk_reads, r.disk_reads) << c.name;
    EXPECT_EQ(h.disk_writes, r.disk_writes) << c.name;
    EXPECT_EQ(h.screens, r.screens) << c.name;
  }
}

TEST(HybridTest, AssignmentsCoverAllProcedures) {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  rel::Catalog catalog(&disk);
  rel::Executor executor(&catalog, &meter);
  rel::Relation::Options options;
  options.tuple_width_bytes = 100;
  options.btree_column = 0;
  rel::Relation* r1 =
      catalog
          .CreateRelation("R1",
                          rel::Schema({{"key", rel::ValueType::kInt64}}),
                          options)
          .ValueOrDie();
  for (int64_t i = 0; i < 50; ++i) {
    (void)r1->Insert(rel::Tuple({rel::Value(i)}));
  }

  cost::Params params = SmallParams();
  params.SetUpdateProbability(0.1);
  CacheBudget budget(0);
  HybridStrategy hybrid(&catalog, &executor, &meter, params,
                        cost::ProcModel::kModel1, &budget);
  for (ProcId id = 0; id < 6; ++id) {
    DatabaseProcedure procedure;
    procedure.id = id;
    procedure.name = "P";
    procedure.name += std::to_string(id);
    procedure.query.base = rel::BaseSelection{
        "R1", static_cast<int64_t>(id) * 5,
        static_cast<int64_t>(id) * 5 + 4, rel::Conjunction{}};
    ASSERT_TRUE(hybrid.AddProcedure(procedure).ok());
  }
  ASSERT_TRUE(hybrid.Prepare().ok());
  const std::vector<std::size_t> counts = hybrid.AssignmentCounts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
            6u);
  for (ProcId id = 0; id < 6; ++id) {
    EXPECT_EQ(hybrid.Access(id).ValueOrDie().size(), 5u);
    EXPECT_EQ(hybrid.AssignmentFor(id), hybrid.AssignmentFor(0));
  }
}

TEST(HybridTest, HighUpdateEnvironmentRoutesToRecompute) {
  CostMeter meter;
  storage::SimulatedDisk disk(4000, &meter);
  rel::Catalog catalog(&disk);
  rel::Executor executor(&catalog, &meter);
  rel::Relation::Options options;
  options.tuple_width_bytes = 100;
  options.btree_column = 0;
  rel::Relation* r1 =
      catalog
          .CreateRelation("R1",
                          rel::Schema({{"key", rel::ValueType::kInt64}}),
                          options)
          .ValueOrDie();
  (void)r1->Insert(rel::Tuple({rel::Value(int64_t{0})}));

  cost::Params params;
  params.SetUpdateProbability(0.95);
  CacheBudget budget(0);
  HybridStrategy hybrid(&catalog, &executor, &meter, params,
                        cost::ProcModel::kModel1, &budget);
  DatabaseProcedure procedure;
  procedure.id = 0;
  procedure.name = "P";
  procedure.query.base = rel::BaseSelection{"R1", 0, 0, rel::Conjunction{}};
  ASSERT_TRUE(hybrid.AddProcedure(procedure).ok());
  EXPECT_EQ(hybrid.AssignmentFor(0), cost::Strategy::kAlwaysRecompute);
}

}  // namespace
}  // namespace procsim::proc
