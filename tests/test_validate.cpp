// Tests of the trace validator itself: fabricated traces with specific
// violations must be rejected with the right diagnostic.
#include <gtest/gtest.h>

#include "sim/validate.h"

namespace decima::sim {
namespace {

// A completed one-job fixture: 1 stage with 2 tasks, plus a child stage with
// 1 task, run on 2 executors.
struct Fixture {
  std::vector<TaskRecord> trace;
  std::vector<JobState> jobs;
  std::vector<ExecutorClass> classes{{1.0, "default"}};
  std::vector<ExecutorState> executors;

  Fixture() {
    JobBuilder b("j");
    const int s0 = b.stage(2, 1.0);
    b.stage(1, 1.0, {s0});
    JobState job;
    job.spec = b.build();
    job.shape = JobShape::of(job.spec);
    job.arrival = 0.0;
    job.finish = 2.0;
    job.stages.resize(2);
    job.stages[0].finished = 2;
    job.stages[1].finished = 1;
    job.stages_complete = 2;
    job.arrived = true;
    jobs.push_back(std::move(job));

    executors.resize(2);
    executors[0].id = 0;
    executors[1].id = 1;

    auto task = [](int stage, int idx, int exec, double start, double end) {
      TaskRecord t;
      t.job = 0;
      t.stage = stage;
      t.task_index = idx;
      t.executor = exec;
      t.dispatched = start;
      t.start = start;
      t.end = end;
      return t;
    };
    trace = {task(0, 0, 0, 0.0, 1.0), task(0, 1, 1, 0.0, 1.0),
             task(1, 0, 0, 1.0, 2.0)};
  }

  bool valid(std::string* err = nullptr) const {
    return validate_trace_data(trace, jobs, classes, executors, err);
  }
};

TEST(Validator, AcceptsConsistentTrace) {
  Fixture f;
  std::string err;
  EXPECT_TRUE(f.valid(&err)) << err;
}

TEST(Validator, CatchesMissingTask) {
  Fixture f;
  f.trace.pop_back();  // stage 1 ran 0 of 1 tasks
  std::string err;
  EXPECT_FALSE(f.valid(&err));
  EXPECT_NE(err.find("expected"), std::string::npos);
}

TEST(Validator, CatchesExtraTask) {
  Fixture f;
  f.trace.push_back(f.trace.back());  // duplicate stage-1 task
  f.trace.back().dispatched = 5.0;    // avoid tripping the overlap check
  f.trace.back().start = 5.0;
  f.trace.back().end = 6.0;
  std::string err;
  EXPECT_FALSE(f.valid(&err));
}

TEST(Validator, CatchesExecutorDoubleBooking) {
  Fixture f;
  f.trace[1].executor = 0;  // both stage-0 tasks on executor 0 at [0,1)
  std::string err;
  EXPECT_FALSE(f.valid(&err));
  EXPECT_NE(err.find("double-booked"), std::string::npos);
}

TEST(Validator, CatchesDependencyViolation) {
  Fixture f;
  // Child task dispatched at t=0.5 while a parent task ends at 1.0. Use a
  // fresh executor so the overlap check does not mask the dependency error.
  f.executors.resize(3);
  f.executors[2].id = 2;
  f.trace[2].dispatched = 0.5;
  f.trace[2].start = 0.5;
  f.trace[2].end = 1.5;
  f.trace[2].executor = 2;
  f.jobs[0].finish = 1.5;
  std::string err;
  EXPECT_FALSE(f.valid(&err));
  EXPECT_NE(err.find("parent"), std::string::npos);
}

TEST(Validator, CatchesPreArrivalDispatch) {
  Fixture f;
  f.jobs[0].arrival = 0.5;  // stage-0 tasks were dispatched at 0.0
  std::string err;
  EXPECT_FALSE(f.valid(&err));
  EXPECT_NE(err.find("arrival"), std::string::npos);
}

TEST(Validator, CatchesFinishTimeMismatch) {
  Fixture f;
  f.jobs[0].finish = 10.0;
  std::string err;
  EXPECT_FALSE(f.valid(&err));
  EXPECT_NE(err.find("finish"), std::string::npos);
}

TEST(Validator, CatchesMemoryMisfit) {
  Fixture f;
  f.jobs[0].spec.stages[0].mem_req = 0.9;
  f.classes[0].mem = 0.5;
  std::string err;
  EXPECT_FALSE(f.valid(&err));
  EXPECT_NE(err.find("memory"), std::string::npos);
}

TEST(Validator, IgnoresUnfinishedJobsForCounts) {
  Fixture f;
  f.jobs[0].finish = -1.0;  // job marked incomplete
  f.jobs[0].stages_complete = 1;
  f.trace.pop_back();  // missing stage-1 task is fine: job not done
  std::string err;
  EXPECT_TRUE(f.valid(&err)) << err;
}

}  // namespace
}  // namespace decima::sim
