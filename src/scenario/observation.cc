#include "scenario/observation.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "workload/diurnal.h"

namespace headroom::scenario {

ObservationRun::ObservationRun(const ScenarioSpec& spec,
                               ObservationSource source)
    : spec_(spec), source_(source),
      fleet_(ScenarioRunner::build_fleet(spec, catalog_), catalog_),
      reductions_(sorted_reductions(spec)), horizon_(spec.days * kDaySeconds) {
  for (const ScenarioEvent& e : reductions_) {
    if (hours_to_sim(e.start_hour) >= horizon_) {
      throw std::invalid_argument(
          "scenario: serving_reduction at hour " +
          std::to_string(e.start_hour) + " is past the observation window");
    }
    const std::size_t pool_size = fleet_.pool_size(*e.datacenter, *e.pool);
    if (e.serving > pool_size) {
      throw std::invalid_argument(
          "scenario: serving_reduction to " + std::to_string(e.serving) +
          " exceeds pool size " + std::to_string(pool_size));
    }
  }
  if (source_ == ObservationSource::kRecorded) {
    apply_reductions_due(std::numeric_limits<telemetry::SimTime>::max());
  }
}

void ObservationRun::require_simulated(const char* what) const {
  if (source_ != ObservationSource::kSimulated) {
    throw std::logic_error(std::string("ObservationRun::") + what +
                           ": a recorded run is never stepped");
  }
}

void ObservationRun::apply_reductions_due(telemetry::SimTime t) {
  while (next_reduction_ < reductions_.size() &&
         hours_to_sim(reductions_[next_reduction_].start_hour) <= t) {
    const ScenarioEvent& e = reductions_[next_reduction_++];
    fleet_.set_serving_count(*e.datacenter, *e.pool, e.serving);
  }
}

void ObservationRun::run_to_horizon() {
  require_simulated("run_to_horizon");
  for (; next_reduction_ < reductions_.size(); ++next_reduction_) {
    const ScenarioEvent& e = reductions_[next_reduction_];
    fleet_.run_until(hours_to_sim(e.start_hour));
    fleet_.set_serving_count(*e.datacenter, *e.pool, e.serving);
  }
  fleet_.run_until(horizon_);
  fleet_.finish_day();
}

telemetry::SimTime ObservationRun::step_window() {
  require_simulated("step_window");
  const telemetry::SimTime t = fleet_.now();
  apply_reductions_due(t);
  fleet_.run_until(t + spec_.window_seconds);
  return t;
}

void ObservationRun::finish_observation() {
  require_simulated("finish_observation");
  apply_reductions_due(fleet_.now());
  fleet_.finish_day();
}

telemetry::SimTime ObservationRun::experiment_start() const noexcept {
  const telemetry::SimTime window = spec_.window_seconds;
  return (horizon_ + window - 1) / window * window;
}

double ObservationRun::latency_slo_ms() const {
  return catalog_.by_name(fleet_.config().datacenters[0].pools[0].service)
      .latency_slo_ms;
}

core::LiveFeedBackend::Options ObservationRun::feed_options(
    telemetry::SimTime start, bool sealed, std::string label) const {
  core::LiveFeedBackend::Options opt;
  opt.datacenter = 0;
  opt.pool = 0;
  opt.pool_size = fleet_.pool_size(0, 0);
  opt.serving = fleet_.serving_count(0, 0);
  opt.start = start;
  opt.window_seconds = spec_.window_seconds;
  opt.sealed = sealed;
  opt.validate_serving = source_ == ObservationSource::kRecorded;
  opt.label = std::move(label);
  return opt;
}

ScenarioRunResult ObservationRun::observed_result() const {
  ScenarioRunResult result;
  result.spec = spec_;
  result.thread_count = fleet_.thread_count();
  result.latency_slo_ms = latency_slo_ms();
  environment_metrics(result.metrics);
  return result;
}

PipelineContext ObservationRun::pipeline_context(
    const telemetry::MetricStore& store,
    std::span<const sim::ServerDayCpu> server_days,
    core::PoolExperimentBackend& backend) const {
  PipelineContext ctx;
  ctx.store = &store;
  ctx.server_days = server_days;
  ctx.backend = &backend;
  ctx.latency_slo_ms = latency_slo_ms();
  ctx.datacenter_count = fleet_.config().datacenters.size();
  return ctx;
}

telemetry::MetricStore ObservationRun::observation_store(
    const telemetry::MetricStore& recording) const {
  // Rebuilt through the same batched-merge write path the simulator
  // records through.
  telemetry::MetricStore out;
  telemetry::MetricBuffer buffer;
  for (const telemetry::SeriesKey& key : recording.keys()) {
    const telemetry::SeriesView view = recording.series(key).slice(
        std::numeric_limits<telemetry::SimTime>::min(), horizon_);
    for (std::size_t i = 0; i < view.size(); ++i) {
      buffer.record(key, view.time_at(i), view.value_at(i));
    }
    out.merge(buffer);
    buffer.clear();
  }
  return out;
}

std::vector<sim::ServerDayCpu> ObservationRun::observation_days(
    std::span<const sim::ServerDayCpu> recording) const {
  std::vector<sim::ServerDayCpu> days;
  days.reserve(recording.size());
  for (const sim::ServerDayCpu& day : recording) {
    if (day.day < spec_.days) days.push_back(day);
  }
  return days;
}

void ObservationRun::environment_metrics(
    std::map<std::string, double>& metrics) const {
  // Event-free baseline demand oracle the event metrics are measured
  // against. This is a pure function of the diurnal params and the DC
  // weights/timezones (exactly what FleetSimulator::regional_demands
  // computes when no event is active), so it needs no second simulator.
  const sim::FleetConfig& config = fleet_.config();
  std::vector<workload::DiurnalTraffic> baseline_traffic;
  baseline_traffic.reserve(config.datacenters.size());
  for (const sim::DatacenterConfig& dc : config.datacenters) {
    workload::DiurnalParams params = config.diurnal;
    params.peak_rps = config.diurnal.peak_rps * dc.demand_weight;
    params.timezone_offset_hours = dc.timezone_offset_hours;
    baseline_traffic.emplace_back(params);
  }

  metrics["datacenters"] = static_cast<double>(config.datacenters.size());
  metrics["total_pools"] = static_cast<double>(fleet_.total_pools());
  metrics["total_servers"] = static_cast<double>(fleet_.total_servers());
  metrics["serving_final"] = static_cast<double>(fleet_.serving_count(0, 0));

  double max_ratio = 1.0;
  std::vector<double> survivor_max_ratio(config.datacenters.size(), 0.0);
  bool any_outage_window = false;
  for (telemetry::SimTime t = 0; t < horizon_; t += spec_.window_seconds) {
    bool any_down = false;
    for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
      if (config.events.datacenter_down(t, d)) any_down = true;
    }
    for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
      const double base = baseline_traffic[d].demand(t);
      if (base <= 1e-9) continue;
      const double ratio = fleet_.datacenter_demand(t, d) / base;
      max_ratio = std::max(max_ratio, ratio);
      if (any_down && !config.events.datacenter_down(t, d)) {
        any_outage_window = true;
        survivor_max_ratio[d] = std::max(survivor_max_ratio[d], ratio);
      }
    }
  }
  metrics["max_traffic_ratio"] = max_ratio;
  double median_increase = 0.0;
  double max_increase = 0.0;
  if (any_outage_window) {
    std::vector<double> increases;
    for (const double ratio : survivor_max_ratio) {
      if (ratio > 0.0) increases.push_back((ratio - 1.0) * 100.0);
    }
    std::sort(increases.begin(), increases.end());
    if (!increases.empty()) {
      median_increase = increases[increases.size() / 2];
      max_increase = increases.back();
    }
  }
  metrics["median_survivor_increase_pct"] = median_increase;
  metrics["max_survivor_increase_pct"] = max_increase;
}

}  // namespace headroom::scenario
