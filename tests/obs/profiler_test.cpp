// Simulator self-profiling (obs/profiler.hpp): phase accounting, rep
// merging, the nullptr-tolerant ScopedPhase, and summarize_profile's report
// rows. Wall-clock values are nondeterministic, so assertions cover counts
// and arithmetic, never absolute durations.
#include "src/obs/profiler.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/obs/report.hpp"
#include "src/obs/tracer.hpp"

namespace paldia::obs {
namespace {

TEST(Profiler, RecordAccumulatesPerPhase) {
  Profiler profiler;
  EXPECT_TRUE(profiler.empty());
  profiler.record(ProfilePhase::kSelectionSweep, 1000);
  profiler.record(ProfilePhase::kSelectionSweep, 3000);
  profiler.record(ProfilePhase::kDispatchTick, 500);
  EXPECT_FALSE(profiler.empty());

  const PhaseStats& sweep = profiler.phase(ProfilePhase::kSelectionSweep);
  EXPECT_EQ(sweep.calls, 2u);
  EXPECT_EQ(sweep.total_ns, 4000u);
  EXPECT_EQ(sweep.max_ns, 3000u);
  EXPECT_EQ(profiler.phase(ProfilePhase::kDispatchTick).calls, 1u);
  EXPECT_EQ(profiler.phase(ProfilePhase::kMonitorTick).calls, 0u);
}

TEST(Profiler, MergeSumsCallsAndTakesMaxOfMaxes) {
  Profiler a;
  a.record(ProfilePhase::kSelectionSweep, 100);
  a.record(ProfilePhase::kSelectionSweep, 900);
  Profiler b;
  b.record(ProfilePhase::kSelectionSweep, 400);
  b.record(ProfilePhase::kMonitorTick, 50);

  a.merge(b);
  const PhaseStats& sweep = a.phase(ProfilePhase::kSelectionSweep);
  EXPECT_EQ(sweep.calls, 3u);
  EXPECT_EQ(sweep.total_ns, 1400u);
  EXPECT_EQ(sweep.max_ns, 900u);
  EXPECT_EQ(a.phase(ProfilePhase::kMonitorTick).calls, 1u);
}

TEST(ScopedPhase, NullProfilerIsANoOp) {
  // The disabled path must tolerate nullptr (call sites hold a Profiler*
  // that is null when --profile is off).
  { ScopedPhase scope(nullptr, ProfilePhase::kSerialDrain); }
  SUCCEED();
}

TEST(ScopedPhase, RecordsOnePositiveSample) {
  Profiler profiler;
  {
    ScopedPhase scope(&profiler, ProfilePhase::kExportFlush);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  const PhaseStats& flush = profiler.phase(ProfilePhase::kExportFlush);
  EXPECT_EQ(flush.calls, 1u);
  EXPECT_EQ(flush.max_ns, flush.total_ns);
}

TEST(ProfilePhaseNames, AllPhasesHaveUniqueStableNames) {
  std::set<std::string> names;
  for (int i = 0; i < kProfilePhaseCount; ++i) {
    const auto name = profile_phase_name(static_cast<ProfilePhase>(i));
    EXPECT_FALSE(name.empty()) << i;
    names.insert(std::string(name));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kProfilePhaseCount));
  EXPECT_EQ(profile_phase_name(ProfilePhase::kSelectionSweep),
            "selection_sweep");
}

TEST(SummarizeProfile, MergesRepsIntoPhaseOrderedRows) {
  RunTrace trace;
  trace.profile = true;
  trace.profiles.push_back(std::make_unique<Profiler>());
  trace.profiles.push_back(std::make_unique<Profiler>());
  // Record out of phase order to confirm rows come back in enum order.
  trace.profiles[0]->record(ProfilePhase::kMonitorTick, 2'000'000);  // 2 ms
  trace.profiles[0]->record(ProfilePhase::kSelectionSweep, 1'000'000);
  trace.profiles[1]->record(ProfilePhase::kSelectionSweep, 3'000'000);

  const auto rows = summarize_profile(trace);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].phase, "selection_sweep");
  EXPECT_EQ(rows[0].calls, 2u);
  EXPECT_DOUBLE_EQ(rows[0].total_ms, 4.0);
  EXPECT_DOUBLE_EQ(rows[0].mean_us, 2000.0);
  EXPECT_DOUBLE_EQ(rows[0].max_us, 3000.0);
  EXPECT_EQ(rows[1].phase, "monitor_tick");
  EXPECT_EQ(rows[1].calls, 1u);
}

TEST(SummarizeProfile, EmptyWhenProfilingWasOff) {
  RunTrace trace;
  EXPECT_TRUE(summarize_profile(trace).empty());
  trace.profile = true;
  trace.profiles.push_back(std::make_unique<Profiler>());
  EXPECT_TRUE(summarize_profile(trace).empty());  // allocated but never used
}

}  // namespace
}  // namespace paldia::obs
