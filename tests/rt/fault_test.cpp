// FaultInjector is a process-wide singleton; gtest_discover_tests runs
// every TEST in its own process, so arming a plan here cannot leak into
// other tests. Each test still clears the injector on entry for safety
// when the binary is run manually without a filter.
#include "rt/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace gnnbridge::rt {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().clear(); }
  void TearDown() override { FaultInjector::instance().clear(); }
};

TEST_F(FaultTest, KnownSeamsAreKnown) {
  for (const SeamInfo& info : kSeamTable) EXPECT_TRUE(known_seam(info.name));
  EXPECT_FALSE(known_seam("made_up_seam"));
  EXPECT_FALSE(known_seam(""));
}

TEST_F(FaultTest, UnarmedSeamNeverFires) {
  EXPECT_FALSE(FaultInjector::instance().armed(kSeamSimLaunch));
  EXPECT_FALSE(fire_fault(kSeamSimLaunch).has_value());
}

TEST_F(FaultTest, SingleShotFiresOnceThenPasses) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan("las_cluster"));
  EXPECT_TRUE(inj.armed(kSeamLasCluster));
  const auto fault = inj.fire(kSeamLasCluster);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->code(), StatusCode::kFaultInjected);
  EXPECT_NE(fault->message().find("las_cluster"), std::string::npos);
  // The shot is consumed.
  EXPECT_FALSE(inj.armed(kSeamLasCluster));
  EXPECT_FALSE(inj.fire(kSeamLasCluster).has_value());
}

TEST_F(FaultTest, CountedShotsDecrement) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan("tuner_probe=3"));
  EXPECT_EQ(inj.plan_string(), "tuner_probe=3");
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(inj.fire(kSeamTunerProbe).has_value()) << "shot " << i;
  }
  EXPECT_FALSE(inj.fire(kSeamTunerProbe).has_value());
}

TEST_F(FaultTest, StarArmsForever) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan("metrics_write=*"));
  EXPECT_EQ(inj.plan_string(), "metrics_write=*");
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(inj.fire(kSeamMetricsWrite).has_value());
  }
  EXPECT_TRUE(inj.armed(kSeamMetricsWrite));
}

TEST_F(FaultTest, MultiSeamPlansParse) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan(" sim_launch = 2 , fusion_pass "));
  EXPECT_TRUE(inj.armed(kSeamSimLaunch));
  EXPECT_TRUE(inj.armed(kSeamFusionPass));
  EXPECT_EQ(inj.plan_string(), "fusion_pass,sim_launch=2");
}

TEST_F(FaultTest, BadPlansAreRejectedAndKeepThePreviousPlan) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan("dataset_load"));
  const Status unknown = inj.set_plan("warp_drive");
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  const Status bad_count = inj.set_plan("dataset_load=zero");
  EXPECT_EQ(bad_count.code(), StatusCode::kInvalidArgument);
  const Status negative = inj.set_plan("dataset_load=-1");
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);
  // The previous good plan survives the failed installs.
  EXPECT_TRUE(inj.armed(kSeamDatasetLoad));
}

TEST_F(FaultTest, BadPlanDiagnosticsNameEntryPositionAndOffendingText) {
  auto& inj = FaultInjector::instance();
  struct Row {
    std::string_view plan;
    std::string_view want_fragment;  // must appear in Status::message()
  };
  // The bad-input matrix: each malformed plan yields kInvalidArgument with
  // a message carrying the 1-based entry position, the offending entry
  // text, and (for unknown seams) the list of valid seams.
  const Row kBadPlans[] = {
      {"=5", "fault plan entry 1 ('=5'): empty seam name"},
      {"sim_launch,=3", "fault plan entry 2 ('=3'): empty seam name"},
      {"warp_drive", "fault plan entry 1 ('warp_drive'): unknown seam 'warp_drive'"},
      {"sim_launch,warp_drive=2",
       "fault plan entry 2 ('warp_drive=2'): unknown seam 'warp_drive'"},
      {"dataset_load=zero",
       "fault plan entry 1 ('dataset_load=zero'): bad count 'zero'"},
      {"dataset_load=-1", "bad count '-1'"},
      {"dataset_load=0", "bad count '0'"},
      {"dataset_load=1000001", "bad count '1000001'"},
      {"dataset_load=3x", "bad count '3x'"},
      {"dataset_load=", "bad count ''"},
      {"dataset_load=**", "bad count '**'"},
      // Empty entries are skipped but still counted: "b" below is entry 3.
      {"sim_launch,,warp_drive", "fault plan entry 3 ('warp_drive')"},
  };
  for (const Row& row : kBadPlans) {
    const Status s = inj.set_plan(row.plan);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "plan: " << row.plan;
    EXPECT_NE(s.message().find(row.want_fragment), std::string::npos)
        << "plan: " << row.plan << "\nmessage: " << s.message();
  }
  // Unknown-seam diagnostics enumerate the valid seams.
  const Status unknown = inj.set_plan("warp_drive");
  EXPECT_NE(unknown.message().find("known: "), std::string::npos) << unknown.message();
  for (const SeamInfo& info : kSeamTable) {
    EXPECT_NE(unknown.message().find(info.name), std::string::npos)
        << "seam " << info.name << " missing from: " << unknown.message();
  }
}

TEST_F(FaultTest, EmptyPlanDisarmsEverything) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan("las_cluster=*,sim_launch"));
  ASSERT_TRUE(inj.set_plan(""));
  EXPECT_EQ(inj.plan_string(), "");
  for (const SeamInfo& info : kSeamTable) EXPECT_FALSE(inj.armed(info.name));
}

TEST_F(FaultTest, RaiseIfArmedThrowsStageFailure) {
  ASSERT_TRUE(FaultInjector::instance().set_plan("sim_launch"));
  try {
    raise_if_armed(kSeamSimLaunch, "unit test site");
    FAIL() << "expected StageFailure";
  } catch (const StageFailure& f) {
    EXPECT_EQ(f.seam(), "sim_launch");
    EXPECT_EQ(f.status().code(), StatusCode::kFaultInjected);
    ASSERT_FALSE(f.status().context().empty());
    EXPECT_EQ(f.status().context()[0], "unit test site");
  }
  // Disarmed after the single shot: no throw.
  raise_if_armed(kSeamSimLaunch, "unit test site");
}

TEST_F(FaultTest, SeamTableCoversEveryKnownSeam) {
  for (const SeamInfo& info : kSeamTable) {
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_TRUE(known_seam(info.name)) << info.name;
  }
  EXPECT_FALSE(known_seam("no_such_seam"));
}

// A job plan's listener: appends "<seam>#<shot>" to the vector at `ctx`.
void record_shot(void* ctx, std::string_view seam, int shot) {
  static_cast<std::vector<std::string>*>(ctx)->push_back(std::string(seam) + "#" +
                                                        std::to_string(shot));
}

TEST_F(FaultTest, FireListenerObservesEveryConsumedShot) {
  auto& inj = FaultInjector::instance();
  ASSERT_TRUE(inj.set_plan("shard_compute"));
  std::vector<std::string> shots;
  {
    FaultInjector::ScopedJobPlan job("shard_compute=2,sim_launch", record_shot, &shots);
    EXPECT_TRUE(inj.fire(kSeamShardCompute).has_value());
    EXPECT_TRUE(inj.fire(kSeamSimLaunch).has_value());
    EXPECT_TRUE(inj.fire(kSeamShardCompute).has_value());
    // Spent or never armed in the job's plan: no shot, no callback, and the
    // global plan stays out of reach inside the scope.
    EXPECT_FALSE(inj.fire(kSeamShardCompute).has_value());
    EXPECT_FALSE(inj.fire(kSeamLasCluster).has_value());
  }
  // Outside any job scope the global plan's shot fires and reaches no
  // listener.
  EXPECT_TRUE(inj.fire(kSeamShardCompute).has_value());
  EXPECT_EQ(shots,
            (std::vector<std::string>{"shard_compute#0", "sim_launch#0", "shard_compute#1"}));
}

TEST_F(FaultTest, NestedJobPlansRestoreOuterArmsAndListener) {
  auto& inj = FaultInjector::instance();
  std::vector<std::string> outer_shots, inner_shots;
  FaultInjector::ScopedJobPlan outer("sim_launch=2", record_shot, &outer_shots);
  EXPECT_TRUE(inj.fire(kSeamSimLaunch).has_value());
  {
    FaultInjector::ScopedJobPlan inner("sim_launch,fusion_pass", record_shot, &inner_shots);
    EXPECT_TRUE(inj.fire(kSeamSimLaunch).has_value());
    EXPECT_TRUE(inj.fire(kSeamFusionPass).has_value());
    EXPECT_FALSE(inj.fire(kSeamSimLaunch).has_value()) << "the inner plan's one shot is spent";
  }
  // The outer scope's arms are back, with the one shot it had left.
  EXPECT_FALSE(inj.armed(kSeamFusionPass));
  EXPECT_TRUE(inj.fire(kSeamSimLaunch).has_value());
  EXPECT_FALSE(inj.fire(kSeamSimLaunch).has_value());
  EXPECT_EQ(outer_shots, (std::vector<std::string>{"sim_launch#0", "sim_launch#1"}));
  EXPECT_EQ(inner_shots, (std::vector<std::string>{"sim_launch#0", "fusion_pass#0"}));
}

}  // namespace
}  // namespace gnnbridge::rt
