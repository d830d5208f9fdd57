// The observation phase: the one place a scenario's fleet is built and
// advanced through its observation window.
//
// The paper's method observes a pool's counters over an observation period
// — live, or from a recording — and only then runs its Measure, Optimize,
// Model and Validate steps over what was observed (§II). Every subcommand
// shares that first phase, so it lives here once: ObservationRun builds the
// fleet a spec describes, validates the serving reductions up front, and
// advances the fleet in one of three ways:
//
//   run_to_horizon()  batch (run, export-trace, bakeoff, plan): steps to
//                     each reduction boundary, then to the horizon.
//   step_window()     serve: one window per call; a reduction lands at the
//                     first window boundary at or after its start hour,
//                     exactly where run_to_horizon() pauses for it.
//   recorded          replay, follow, plan --trace: the fleet is a config
//                     oracle that is never stepped. Reductions move only
//                     the control variable (their telemetry is already in
//                     the recording), which leaves the recording's serving
//                     count at the horizon — the RSM planner's start.
//
// It also answers what every consumer asks of the phase: pool (0, 0)'s SLO
// and experiment-feed options, the environment metrics, the pipeline
// context, and the observation-phase slice of a recording.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/live_feed_backend.h"
#include "scenario/pipeline_session.h"
#include "scenario/scenario_spec.h"
#include "sim/fleet.h"
#include "sim/microservice.h"

namespace headroom::scenario {

enum class ObservationSource {
  kSimulated,  ///< The fleet is stepped; its store is the observation.
  kRecorded,   ///< Telemetry comes from a recording; never stepped.
};

class ObservationRun {
 public:
  /// Builds the fleet (ScenarioRunner::build_fleet) and validates every
  /// serving reduction. Throws std::invalid_argument for an invalid spec,
  /// a reduction at or past the horizon, or one above its pool's size. A
  /// recorded run applies the reductions at once.
  explicit ObservationRun(
      const ScenarioSpec& spec,
      ObservationSource source = ObservationSource::kSimulated);

  ObservationRun(const ObservationRun&) = delete;
  ObservationRun& operator=(const ObservationRun&) = delete;

  /// Batch: steps to each reduction boundary and applies it, steps to the
  /// horizon, and closes the last day. Call once, on a fresh simulated run.
  void run_to_horizon();

  /// Serve: applies the reductions due at now(), steps one window, and
  /// returns that window's start. Valid past the horizon too (serve's
  /// experiment and steady phases), where no reduction is left to apply.
  telemetry::SimTime step_window();

  /// True while a step_window() run has not yet reached the horizon.
  [[nodiscard]] bool observing() const noexcept {
    return fleet_.now() < horizon_;
  }

  /// Serve: ends the observation phase after the last step_window() —
  /// applies a reduction whose boundary is the horizon's own (a start hour
  /// inside the last window) and closes the last day.
  void finish_observation();

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const sim::MicroserviceCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] sim::FleetSimulator& fleet() noexcept { return fleet_; }
  [[nodiscard]] const sim::FleetSimulator& fleet() const noexcept {
    return fleet_;
  }
  /// End of the observation window: the spec's days.
  [[nodiscard]] telemetry::SimTime horizon() const noexcept {
    return horizon_;
  }
  /// Where the RSM experiment begins: the first window boundary at or
  /// after the horizon (a horizon that is not a window multiple is
  /// overshot by one partial step, as run_until does).
  [[nodiscard]] telemetry::SimTime experiment_start() const noexcept;

  /// The target pool (0, 0)'s latency SLO.
  [[nodiscard]] double latency_slo_ms() const;

  /// LiveFeedBackend options over pool (0, 0) from `start`, with the pool
  /// size and the fleet's current serving count. Recorded runs validate
  /// serving changes against the recorded active-servers column; simulated
  /// runs do not (their serving hook drives the simulator that produces
  /// that column).
  [[nodiscard]] core::LiveFeedBackend::Options feed_options(
      telemetry::SimTime start, bool sealed, std::string label) const;

  /// A result seeded with what the observation phase decides: the spec,
  /// the resolved thread count, pool (0, 0)'s SLO, and the environment
  /// metrics. Call once the phase is over — `serving_final` reads the
  /// serving count the reductions left.
  [[nodiscard]] ScenarioRunResult observed_result() const;

  /// The four pipeline steps' inputs over `store` (observation-phase
  /// telemetry), `server_days` (rows as of measure time) and `backend`.
  [[nodiscard]] PipelineContext pipeline_context(
      const telemetry::MetricStore& store,
      std::span<const sim::ServerDayCpu> server_days,
      core::PoolExperimentBackend& backend) const;

  /// The recording's observation phase: its store truncated at the
  /// horizon, and its per-server-day rows of days before it (the
  /// recording kept appending both during its RSM phase, which the
  /// measure step had not seen).
  [[nodiscard]] telemetry::MetricStore observation_store(
      const telemetry::MetricStore& recording) const;
  [[nodiscard]] std::vector<sim::ServerDayCpu> observation_days(
      std::span<const sim::ServerDayCpu> recording) const;

 private:
  /// Fleet-shape and event-timeline metrics: a pure function of the config
  /// and the demand oracle, so simulated, replayed and served runs agree.
  void environment_metrics(std::map<std::string, double>& metrics) const;
  void require_simulated(const char* what) const;
  void apply_reductions_due(telemetry::SimTime t);

  ScenarioSpec spec_;
  ObservationSource source_;
  sim::MicroserviceCatalog catalog_;
  sim::FleetSimulator fleet_;
  std::vector<ScenarioEvent> reductions_;  ///< sorted_reductions(spec)
  std::size_t next_reduction_ = 0;         ///< First not yet applied.
  telemetry::SimTime horizon_ = 0;
};

}  // namespace headroom::scenario
