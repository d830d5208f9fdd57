// Resumable pipeline stages shared by batch runs, trace replay, and serve.
//
// ScenarioRunner::run_pipeline_steps used to be one straight-line function:
// Measure -> Optimize (plan + RSM experiment) -> Model -> Validate. Serve
// mode needs the same stages cut at their observation points — measure and
// plan fire once at the observation horizon, the RSM experiment advances
// window-by-window as the feed grows, and model/validate run at
// finalization — without the batch path and the streaming path ever
// diverging. PipelineSession is that cut: the batch runner drives a session
// start-to-finish in one call, serve drives the identical session one
// window at a time, and both fill the same ScenarioRunResult fields in the
// same order, which is what keeps the streaming pipeline's final summary
// byte-identical to the batch goldens.
//
// The free functions are the runner internals serve also needs (the
// reduction timeline and assertion evaluation) — pure functions shared
// rather than duplicated. The observation phase itself lives in
// scenario/observation.h.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rsm_planner.h"
#include "scenario/scenario_runner.h"
#include "scenario/scenario_spec.h"
#include "sim/fleet.h"

namespace headroom::scenario {

/// Seconds per simulated day — the unit scenario horizons are written in.
inline constexpr telemetry::SimTime kDaySeconds = 86400;

[[nodiscard]] telemetry::SimTime hours_to_sim(double hours) noexcept;

/// Everything the four pipeline steps read. `store` holds observation-phase
/// telemetry only (in simulator mode that is the live store, which the RSM
/// phase has not yet extended; in replay it is the recording truncated at
/// the horizon); `server_days` are the per-server-day CPU rows as of
/// measure time; `backend` is the RSM planner's experiment surface.
struct PipelineContext {
  const telemetry::MetricStore* store = nullptr;
  std::span<const sim::ServerDayCpu> server_days;
  core::PoolExperimentBackend* backend = nullptr;
  double latency_slo_ms = 0.0;
  std::size_t datacenter_count = 1;
};

class PipelineSession {
 public:
  /// `ctx`'s pointers must outlive the session.
  PipelineSession(const ScenarioSpec& spec, PipelineContext ctx);

  /// Step 1 (Measure) plus the headroom plan half of step 2 — everything
  /// that reads only the observation phase. No-ops for steps the spec does
  /// not run. Call once, before the RSM phase.
  void run_measure_and_plan(ScenarioRunResult& result);

  /// Starts step 2's RSM experiment (a no-op when the spec does not run
  /// the optimize step). `seed` optionally pre-loads the session baseline
  /// from already-observed history (serve's reuse-baseline mode) — batch
  /// and replay leave it null so the experiment observes its own baseline,
  /// which is what the goldens pin.
  void start_rsm(const core::ExperimentObservations* seed = nullptr);

  /// Advances the RSM experiment as far as the backend's data allows.
  /// Returns true when the experiment is complete (immediately true when
  /// the optimize step is off). Backend exceptions propagate.
  [[nodiscard]] bool advance_rsm();

  /// Records the RSM outcome and runs steps 3 (Model) and 4 (Validate) —
  /// then the session is complete. Requires advance_rsm() to have
  /// returned true (throws std::logic_error otherwise). When the RSM
  /// experiment was ended by abort_rsm_failsafe(), additionally emits
  /// `rsm_failsafe = 1` so summaries (and assertions) can see the
  /// degraded outcome.
  void finalize(ScenarioRunResult& result);

  /// Failsafe abort of a pending RSM experiment (the degradation layer
  /// declared the pool's feed past its staleness budget): serving returns
  /// to the validated pre-experiment count and the session becomes
  /// finalizable. No-op when the experiment is not running.
  void abort_rsm_failsafe();

  /// The live RSM session, null before start_rsm() (or when optimize is
  /// off). Serve reads its pending state for progress reporting.
  [[nodiscard]] const core::RsmSession* rsm() const noexcept {
    return rsm_ ? &*rsm_ : nullptr;
  }

 private:
  ScenarioSpec spec_;
  PipelineContext ctx_;
  std::optional<core::RsmSession> rsm_;
  bool rsm_started_ = false;
};

/// Serving reductions sorted by start time (stable for equal times, which
/// validate() has already ruled out per pool).
[[nodiscard]] std::vector<ScenarioEvent> sorted_reductions(
    const ScenarioSpec& spec);

/// Checks every spec assertion against the flat metric map.
void evaluate_assertions(const ScenarioSpec& spec, ScenarioRunResult& result);

/// Resolves every `pool(DC,POOL).base` assertion target the spec uses into
/// `metrics`, computed over that pool's observation-phase series in
/// [0, horizon). Pure store reads (peak/mean of rps, cpu, p95 latency;
/// min/max active servers), so batch, replay, serve, and follow agree
/// byte-for-byte on the same store contents. Pools absent from the store
/// are left unresolved — the assertion then fails as NaN, like any
/// missing metric.
void compute_pool_assertion_metrics(const telemetry::MetricStore& store,
                                    const ScenarioSpec& spec,
                                    std::map<std::string, double>& metrics);

}  // namespace headroom::scenario
