#include "scenario/pipeline_session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/metric_validator.h"
#include "core/pool_model.h"
#include "core/server_grouper.h"
#include "stats/percentile.h"
#include "workload/synthetic.h"

namespace headroom::scenario {

telemetry::SimTime hours_to_sim(double hours) noexcept {
  return static_cast<telemetry::SimTime>(std::llround(hours * 3600.0));
}

std::vector<ScenarioEvent> sorted_reductions(const ScenarioSpec& spec) {
  std::vector<ScenarioEvent> reductions;
  for (const ScenarioEvent& e : spec.events) {
    if (e.kind == ScenarioEventKind::kServingReduction) reductions.push_back(e);
  }
  std::stable_sort(reductions.begin(), reductions.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.start_hour < b.start_hour;
                   });
  return reductions;
}

void evaluate_assertions(const ScenarioSpec& spec, ScenarioRunResult& result) {
  for (const ScenarioAssertion& assertion : spec.assertions) {
    AssertionOutcome outcome;
    outcome.assertion = assertion;
    const auto it = result.metrics.find(assertion.metric);
    if (it == result.metrics.end()) {
      outcome.observed = std::numeric_limits<double>::quiet_NaN();
      outcome.pass = false;
    } else {
      outcome.observed = it->second;
      outcome.pass = assertion.holds(it->second);
    }
    result.assertions_pass = result.assertions_pass && outcome.pass;
    result.assertions.push_back(outcome);
  }
}

void compute_pool_assertion_metrics(const telemetry::MetricStore& store,
                                    const ScenarioSpec& spec,
                                    std::map<std::string, double>& metrics) {
  using telemetry::MetricKind;
  const telemetry::SimTime horizon = spec.days * kDaySeconds;
  for (const ScenarioAssertion& assertion : spec.assertions) {
    std::string error;
    const std::optional<PoolMetricRef> ref =
        parse_pool_metric(assertion.metric, &error);
    if (!ref) continue;  // Flat registry metric; not ours to resolve.
    if (metrics.count(assertion.metric) != 0) continue;

    MetricKind kind = MetricKind::kRequestsPerSecond;
    enum class Agg { kPeak, kMean, kMin } agg = Agg::kPeak;
    if (ref->base == "peak_rps") {
      kind = MetricKind::kRequestsPerSecond;
    } else if (ref->base == "mean_rps") {
      kind = MetricKind::kRequestsPerSecond;
      agg = Agg::kMean;
    } else if (ref->base == "peak_cpu_pct") {
      kind = MetricKind::kCpuPercentAttributed;
    } else if (ref->base == "mean_cpu_pct") {
      kind = MetricKind::kCpuPercentAttributed;
      agg = Agg::kMean;
    } else if (ref->base == "peak_p95_ms") {
      kind = MetricKind::kLatencyP95Ms;
    } else if (ref->base == "mean_p95_ms") {
      kind = MetricKind::kLatencyP95Ms;
      agg = Agg::kMean;
    } else if (ref->base == "max_active_servers") {
      kind = MetricKind::kActiveServers;
    } else if (ref->base == "min_active_servers") {
      kind = MetricKind::kActiveServers;
      agg = Agg::kMin;
    } else {
      continue;  // validate() already rejected unknown bases.
    }

    const std::span<const double> values =
        store.pool_series(ref->datacenter, ref->pool, kind)
            .values_between(0, horizon);
    // A pool with no observation-phase samples stays unresolved and the
    // assertion fails as NaN, exactly like any other missing metric.
    if (values.empty()) continue;
    double out = values[0];
    if (agg == Agg::kMean) {
      double sum = 0.0;
      for (const double v : values) sum += v;
      out = sum / static_cast<double>(values.size());
    } else if (agg == Agg::kPeak) {
      for (const double v : values) out = std::max(out, v);
    } else {
      for (const double v : values) out = std::min(out, v);
    }
    metrics[assertion.metric] = out;
  }
}

PipelineSession::PipelineSession(const ScenarioSpec& spec, PipelineContext ctx)
    : spec_(spec), ctx_(ctx) {
  if (ctx_.store == nullptr) {
    throw std::invalid_argument("PipelineSession: null store");
  }
  if (ctx_.backend == nullptr) {
    throw std::invalid_argument("PipelineSession: null backend");
  }
}

void PipelineSession::run_measure_and_plan(ScenarioRunResult& result) {
  using telemetry::MetricKind;
  const telemetry::MetricStore& store = *ctx_.store;

  // --- Step 1: Measure ------------------------------------------------------
  if (spec_.runs(PipelineStep::kMeasure)) {
    const core::MetricValidator validator;
    const MetricKind resources[] = {MetricKind::kCpuPercentAttributed,
                                    MetricKind::kNetworkBytesPerSecond,
                                    MetricKind::kMemoryPagesPerSecond,
                                    MetricKind::kDiskQueueLength};
    result.assessments = validator.assess_all(
        store, 0, 0, MetricKind::kRequestsPerSecond, resources);
    result.metric_valid = validator.workload_metric_valid(result.assessments);
    result.metrics["metric_valid"] = result.metric_valid ? 1.0 : 0.0;
    const auto limiting = validator.limiting_resource(result.assessments);
    result.metrics["limiting_r2"] = limiting ? limiting->fit.r_squared : 0.0;

    std::int64_t last_day = 0;
    for (const auto& day : ctx_.server_days) {
      if (day.datacenter == 0 && day.pool == 0) {
        last_day = std::max(last_day, day.day);
      }
    }
    const auto snapshots = core::ServerGrouper::pool_snapshots(
        ctx_.server_days, 0, 0, last_day);
    result.grouping = core::ServerGrouper().group_servers(snapshots);
    result.metrics["server_groups"] =
        static_cast<double>(result.grouping.group_count);
    result.metrics["multimodal"] = result.grouping.multimodal() ? 1.0 : 0.0;
  }

  // --- Step 2a: Optimize — the headroom plan -------------------------------
  if (spec_.runs(PipelineStep::kOptimize)) {
    const auto model = core::PoolResponseModel::fit(
        store.pool_scatter(0, 0, MetricKind::kRequestsPerSecond,
                           MetricKind::kCpuPercentAttributed),
        store.pool_scatter(0, 0, MetricKind::kRequestsPerSecond,
                           MetricKind::kLatencyP95Ms));
    const auto rps =
        store.pool_series(0, 0, MetricKind::kRequestsPerSecond).values();
    const double p95_rps = stats::percentile(rps, 95.0);
    core::HeadroomPolicy policy;
    policy.qos.latency.p95_ms = ctx_.latency_slo_ms;
    policy.dr_headroom_fraction =
        ctx_.datacenter_count > 1
            ? 1.0 / static_cast<double>(ctx_.datacenter_count)
            : 0.125;
    const std::size_t current = ctx_.backend->serving_count();
    result.plan =
        core::HeadroomOptimizer(policy).plan(model, p95_rps, current);
    result.metrics["plan_current"] =
        static_cast<double>(result.plan.current_servers);
    result.metrics["plan_recommended"] =
        static_cast<double>(result.plan.recommended_servers);
    result.metrics["plan_savings_pct"] =
        result.plan.efficiency_savings() * 100.0;
    result.metrics["plan_stressed_latency_ms"] =
        result.plan.predicted_latency_stressed_ms;
  }
}

void PipelineSession::start_rsm(const core::ExperimentObservations* seed) {
  if (rsm_started_) {
    throw std::logic_error("PipelineSession::start_rsm: already started");
  }
  rsm_started_ = true;
  if (!spec_.runs(PipelineStep::kOptimize)) return;

  // --- Step 2b: Optimize — the RSM reduction experiment ---------------------
  core::RsmOptions rsm;
  rsm.latency_slo_ms = ctx_.latency_slo_ms;
  rsm.baseline_duration = kDaySeconds;
  rsm.iteration_duration = kDaySeconds;
  rsm.max_iterations = 4;
  rsm_.emplace(rsm, ctx_.backend);
  if (seed != nullptr) rsm_->seed_baseline(*seed);
}

bool PipelineSession::advance_rsm() {
  if (!rsm_started_) {
    throw std::logic_error("PipelineSession::advance_rsm: not started");
  }
  if (!rsm_) return true;
  return rsm_->advance();
}

void PipelineSession::abort_rsm_failsafe() {
  if (rsm_ && !rsm_->done()) rsm_->abort_failsafe();
}

void PipelineSession::finalize(ScenarioRunResult& result) {
  if (!rsm_started_ || (rsm_ && !rsm_->done())) {
    throw std::logic_error(
        "PipelineSession::finalize: RSM experiment not complete");
  }
  if (rsm_) {
    const bool failsafe = rsm_->aborted();
    result.rsm = rsm_->take_result();
    result.metrics["rsm_start"] =
        static_cast<double>(result.rsm.starting_serving);
    result.metrics["rsm_recommended"] =
        static_cast<double>(result.rsm.recommended_serving);
    result.metrics["rsm_reduction_pct"] =
        result.rsm.reduction_fraction() * 100.0;
    result.metrics["rsm_iterations"] =
        static_cast<double>(result.rsm.iterations.size());
    result.metrics["rsm_slo_limited"] =
        result.rsm.slo_limit_reached ? 1.0 : 0.0;
    // Emitted only on failsafe abort so fault-free summaries (and every
    // existing golden) are byte-identical to runs built before the
    // degradation layer existed.
    if (failsafe) result.metrics["rsm_failsafe"] = 1.0;
  }

  // --- Step 3: Model --------------------------------------------------------
  std::optional<workload::SyntheticWorkload> fitted;
  if (spec_.runs(PipelineStep::kModel) ||
      spec_.runs(PipelineStep::kValidate)) {
    workload::RequestType fetch;
    fetch.weight = 0.75;
    fetch.cost_mean = 1.0;
    fetch.cost_sigma = 0.25;
    workload::RequestType render;
    render.weight = 0.25;
    render.cost_mean = 3.2;
    render.cost_sigma = 0.4;
    render.dependency_latency_ms = 12.0;
    const workload::SyntheticWorkload production{
        workload::RequestMix({fetch, render})};
    const auto observed = production.generate(500.0, 120.0, spec_.seed + 6);
    fitted = workload::SyntheticWorkload::fit(observed, 2);
    if (spec_.runs(PipelineStep::kModel)) {
      const auto replay = fitted->generate(500.0, 120.0, spec_.seed + 8);
      result.model_cmp =
          workload::SyntheticWorkload::compare(replay, observed, 2);
      result.metrics["model_equivalent"] =
          result.model_cmp.equivalent ? 1.0 : 0.0;
      result.metrics["model_type_distance"] = result.model_cmp.type_distance;
    }
  }

  // --- Step 4: Validate -----------------------------------------------------
  if (spec_.runs(PipelineStep::kValidate) && fitted) {
    sim::RequestSimConfig pool;
    pool.servers = 4;
    pool.cores = 8.0;
    pool.base_service_ms = 4.0;
    pool.window_seconds = 10;
    sim::RequestSimConfig candidate = pool;
    candidate.defect.service_factor = 1.18;

    core::GateOptions gate_opt;
    gate_opt.nominal_rps_per_server = 500.0;
    gate_opt.step_duration_s = 20.0;
    result.gate =
        core::RegressionGate(gate_opt).evaluate(pool, candidate, *fitted);
    result.metrics["gate_blocked"] = result.gate.pass ? 0.0 : 1.0;
    result.metrics["gate_max_clean_rps"] = result.gate.max_clean_rps;
  }
}

}  // namespace headroom::scenario
