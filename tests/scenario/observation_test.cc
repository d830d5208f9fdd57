// ObservationRun: the one observation-phase driver every subcommand shares.
// Its three ways to advance must agree on where reductions land, and the
// reduction checks it owns must read the same in every mode.
#include "scenario/observation.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>

#include "scenario/scenario_parser.h"
#include "scenario/serve.h"
#include "scenario/trace.h"

namespace headroom::scenario {
namespace {

namespace fs = std::filesystem;
using telemetry::MetricKind;

ScenarioSpec one_day(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.days = 1;
  spec.steps = step_bit(PipelineStep::kMeasure);
  spec.service = std::string("B");
  spec.servers = 8;
  return spec;
}

ScenarioEvent reduction(double start_hour, std::size_t serving) {
  ScenarioEvent e;
  e.kind = ScenarioEventKind::kServingReduction;
  e.datacenter = 0;
  e.pool = 0;
  e.start_hour = start_hour;
  e.serving = serving;
  return e;
}

/// A trace directory whose scenario is `spec` and whose recording is one
/// window of pool (0, 0): enough to get past every file-level check.
fs::path write_trace(const ScenarioSpec& spec) {
  const fs::path dir =
      fs::temp_directory_path() / ("headroom_obs_" + spec.name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const std::string& text) {
    std::ofstream(dir / name, std::ios::binary) << text;
  };
  write("scenario.scn", serialize_scenario(spec));
  write("manifest.ini",
        "version = 1\n"
        "scenario = scenario.scn\n"
        "window_seconds = " + std::to_string(spec.window_seconds) + "\n"
        "horizon_seconds = " + std::to_string(spec.days * kDaySeconds) + "\n"
        "server_day_cpu = server_day_cpu.csv\n"
        "pool = 0 0 pool_0_0.csv\n");
  write("server_day_cpu.csv",
        "datacenter,pool,server,day,p5,p25,p50,p75,p95,mean,min,max,count\n");
  write("pool_0_0.csv", "window_start,rps,active_servers\n0,100,8\n");
  return dir;
}

std::string invalid_argument_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(nothing thrown)";
}

TEST(ObservationRun, ReductionErrorsReadTheSameInEveryMode) {
  struct Case {
    double start_hour;
    std::size_t serving;
    const char* message;
  };
  const Case cases[] = {
      {30.0, 4,
       "scenario: serving_reduction at hour 30.000000 is past the "
       "observation window"},
      {1.0, 9, "scenario: serving_reduction to 9 exceeds pool size 8"},
  };
  for (const Case& c : cases) {
    ScenarioSpec spec = one_day("bad_reduction");
    spec.events.push_back(reduction(c.start_hour, c.serving));
    EXPECT_EQ(invalid_argument_of([&] { (void)ScenarioRunner().run(spec); }),
              c.message)
        << "run";
    EXPECT_EQ(
        invalid_argument_of([&] { (void)ServeRunner().serve(spec, {}); }),
        c.message)
        << "serve";
    const fs::path dir = write_trace(spec);
    EXPECT_EQ(invalid_argument_of([&] { (void)replay_trace(dir.string()); }),
              c.message)
        << "replay";
    fs::remove_all(dir);
  }
}

TEST(ObservationRun, WindowSteppingLandsReductionsWhereTheBatchRunDoes) {
  // With 7000 s windows the horizon (86400 s) falls inside a window, and a
  // reduction at hour 23.9 starts inside that last window: both ways of
  // advancing must apply it at the overshot boundary t = 91000.
  ScenarioSpec spec = one_day("stepped");
  spec.window_seconds = 7000;
  spec.events.push_back(reduction(6.0, 6));
  spec.events.push_back(reduction(23.9, 5));

  ObservationRun batch(spec);
  batch.run_to_horizon();
  ObservationRun stepped(spec);
  while (stepped.observing()) (void)stepped.step_window();
  stepped.finish_observation();

  EXPECT_EQ(stepped.experiment_start(), 13 * 7000);
  EXPECT_EQ(batch.fleet().now(), batch.experiment_start());
  EXPECT_EQ(stepped.fleet().now(), batch.fleet().now());
  EXPECT_EQ(batch.fleet().serving_count(0, 0), 5u);
  EXPECT_EQ(stepped.fleet().serving_count(0, 0), 5u);
  const auto active = [](const ObservationRun& run) {
    const std::span<const double> v =
        run.fleet()
            .store()
            .pool_series(0, 0, MetricKind::kActiveServers)
            .values();
    return std::vector<double>(v.begin(), v.end());
  };
  EXPECT_EQ(active(stepped), active(batch));
  EXPECT_EQ(stepped.observed_result().metrics,
            batch.observed_result().metrics);
}

TEST(ObservationRun, RecordedRunAppliesReductionsWithoutStepping) {
  ScenarioSpec spec = one_day("recorded");
  spec.events.push_back(reduction(6.0, 6));
  ObservationRun recorded(spec, ObservationSource::kRecorded);
  EXPECT_EQ(recorded.fleet().now(), 0);
  EXPECT_EQ(recorded.fleet().serving_count(0, 0), 6u);
  EXPECT_EQ(recorded.fleet().store().sample_count(), 0u);
  EXPECT_THROW(recorded.run_to_horizon(), std::logic_error);
  EXPECT_THROW((void)recorded.step_window(), std::logic_error);

  // Recorded feeds check serving changes against the recording; simulated
  // ones drive the simulator that produces that column, so they do not.
  const core::LiveFeedBackend::Options opt =
      recorded.feed_options(recorded.experiment_start(), true, "replay");
  EXPECT_TRUE(opt.validate_serving);
  EXPECT_EQ(opt.serving, 6u);
  EXPECT_EQ(opt.pool_size, 8u);
  EXPECT_EQ(opt.start, kDaySeconds);
  EXPECT_FALSE(ObservationRun(spec).feed_options(0, false, "serve")
                   .validate_serving);
}

}  // namespace
}  // namespace headroom::scenario
