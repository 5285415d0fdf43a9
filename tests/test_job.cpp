#include <gtest/gtest.h>

#include "sim/job.h"

namespace decima::sim {
namespace {

JobSpec diamond() {
  // Diamond: 0 -> {1, 2} -> 3.
  JobBuilder b("diamond");
  const int s0 = b.stage(2, 1.0);
  const int s1 = b.stage(4, 2.0, {s0});
  const int s2 = b.stage(1, 10.0, {s0});
  b.stage(3, 1.0, {s1, s2});
  return b.build();
}

TEST(JobSpec, TotalWork) {
  EXPECT_DOUBLE_EQ(JobShape::of(diamond())->total_work,
                   2 * 1.0 + 4 * 2.0 + 1 * 10.0 + 3 * 1.0);
}

TEST(JobSpec, ChildrenAdjacency) {
  const auto kids = JobShape::of(diamond())->children;
  EXPECT_EQ(kids[0], (std::vector<int>{1, 2}));
  EXPECT_EQ(kids[1], (std::vector<int>{3}));
  EXPECT_EQ(kids[2], (std::vector<int>{3}));
  EXPECT_TRUE(kids[3].empty());
}

TEST(JobSpec, TopoOrderRespectsDependencies) {
  const JobSpec j = diamond();
  const auto order = JobShape::of(j)->topo;
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < 4; ++i) {
    pos[static_cast<std::size_t>(order[i])] = i;
  }
  for (std::size_t v = 0; v < 4; ++v) {
    for (int p : j.stages[v].parents) {
      EXPECT_LT(pos[static_cast<std::size_t>(p)], pos[v]);
    }
  }
}

TEST(JobSpec, CriticalPathValues) {
  const auto cp = JobShape::of(diamond())->critical_path;
  // cp(3) = 3, cp(2) = 10 + 3 = 13, cp(1) = 8 + 3 = 11, cp(0) = 2 + 13 = 15.
  EXPECT_DOUBLE_EQ(cp[3], 3.0);
  EXPECT_DOUBLE_EQ(cp[2], 13.0);
  EXPECT_DOUBLE_EQ(cp[1], 11.0);
  EXPECT_DOUBLE_EQ(cp[0], 15.0);
}

TEST(JobSpec, CriticalPathDuration) {
  // Longest duration chain: 0 (1s) -> 2 (10s) -> 3 (1s) = 12s.
  EXPECT_DOUBLE_EQ(JobShape::of(diamond())->critical_path_duration, 12.0);
}

TEST(JobSpec, ValidateAcceptsDiamond) {
  std::string err;
  EXPECT_TRUE(diamond().validate(&err)) << err;
}

TEST(JobSpec, ValidateRejectsEmpty) {
  JobSpec j;
  j.name = "empty";
  std::string err;
  EXPECT_FALSE(j.validate(&err));
  EXPECT_NE(err.find("no stages"), std::string::npos);
}

TEST(JobSpec, ValidateRejectsCycle) {
  JobSpec j;
  j.name = "cycle";
  StageSpec a, b;
  a.num_tasks = 1;
  a.task_duration = 1;
  a.parents = {1};
  b.num_tasks = 1;
  b.task_duration = 1;
  b.parents = {0};
  j.stages = {a, b};
  std::string err;
  EXPECT_FALSE(j.validate(&err));
  EXPECT_NE(err.find("cycle"), std::string::npos);
}

TEST(JobSpec, ValidateRejectsBadParentIndex) {
  JobBuilder b("bad");
  b.stage(1, 1.0, {5});
  std::string err;
  EXPECT_FALSE(b.build().validate(&err));
}

TEST(JobSpec, ValidateRejectsSelfParent) {
  JobSpec j;
  j.name = "self";
  StageSpec s;
  s.num_tasks = 1;
  s.task_duration = 1;
  s.parents = {0};
  j.stages = {s};
  EXPECT_FALSE(j.validate());
}

TEST(JobSpec, ValidateRejectsNonPositiveTasksOrDuration) {
  {
    JobBuilder b("t");
    b.stage(0, 1.0);
    EXPECT_FALSE(b.build().validate());
  }
  {
    JobBuilder b("d");
    b.stage(1, 0.0);
    EXPECT_FALSE(b.build().validate());
  }
}

TEST(JobSpec, ValidateRejectsMemOutOfRange) {
  JobBuilder b("m");
  b.stage(1, 1.0, {}, 1.5);
  EXPECT_FALSE(b.build().validate());
}

TEST(JobBuilder, AssignsNamesAndIndices) {
  JobBuilder b("j");
  EXPECT_EQ(b.stage(1, 1.0), 0);
  EXPECT_EQ(b.stage(1, 1.0), 1);
  const JobSpec j = b.build();
  EXPECT_EQ(j.stages[1].name, "j/s1");
}

TEST(JobSpec, SingleStageChainCriticalPath) {
  JobBuilder b("chain");
  int prev = b.stage(1, 2.0);
  for (int i = 0; i < 4; ++i) prev = b.stage(1, 2.0, {prev});
  const auto shape = JobShape::of(b.build());
  EXPECT_DOUBLE_EQ(shape->critical_path[0], 10.0);  // 5 stages x 2s
  EXPECT_DOUBLE_EQ(shape->critical_path_duration, 10.0);
}

}  // namespace
}  // namespace decima::sim
