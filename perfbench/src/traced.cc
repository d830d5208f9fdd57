// Traced run: per-layer numbers. The scenario-layer breakdowns come from
// one instrumented pass of serve and of plan over the library. The lower
// layers are timed on replicas: each library fleet is built again and stepped one window at a time
// (sim), its pool windows are read through query (query), folded into one
// rolling planner per pool (core), forecast under the plan sweep (core)
// and decomposed by a trend x season model of the benchmark's own (ml).
// Every replica is anchored to the real run it stands in for, and a
// broken anchor is a failed operation.
#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "core/capacity_forecast.h"
#include "core/degradation.h"
#include "core/rolling_plan.h"
#include "ml/trend_season.h"
#include "query/query_engine.h"
#include "scenario/fault.h"
#include "scenario/pipeline_session.h"
#include "scenario/planning.h"
#include "scenario/scenario_runner.h"
#include "scenario/serve.h"
#include "sim/failover.h"
#include "sim/fleet.h"
#include "sim/microservice.h"

namespace perfbench {

namespace {

namespace hs = headroom::scenario;
namespace sim = headroom::sim;
namespace core = headroom::core;
namespace telemetry = headroom::telemetry;
namespace query = headroom::query;
namespace ml = headroom::ml;

using telemetry::MetricKind;
using telemetry::SeriesKey;
using telemetry::SimTime;

constexpr std::size_t kConstructReps = 5;

/// Samples the replicas collect across every fleet of the workload.
struct LayerSamples {
  std::vector<double> step_us;
  double observe_ms = 0.0;
  double query_s = 0.0;
  std::size_t query_calls = 0;
  std::vector<double> rolling_us;
  std::vector<double> forecast_us;
  double ml_observe_s = 0.0;
  std::size_t ml_observe_calls = 0;
  double ml_predict_s = 0.0;
  std::size_t ml_predict_calls = 0;
};

// --- Instrumented scenario-layer passes --------------------------------------

struct ServeTrace {
  double wall_s = 0.0;
  std::vector<EmittedPlans> plans;
  std::vector<double> window_p50_us;
  double pipeline_ms = 0.0;
  double finalize_ms = 0.0;
  double resident = 0.0;
  double evicted = 0.0;
};

ServeTrace traced_serve(const Library& lib, bool golden, Ops& ops) {
  ServeTrace out;
  const std::size_t n = lib.specs.size();
  out.plans.resize(n);
  const hs::ServeRunner runner;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    EmitClock clock;
    const std::string what = "traced serve " + lib.names[i];
    try {
      const hs::ServeResult r =
          runner.serve(lib.specs[i], clock.emitter(&out.plans[i]));
      ops.check(!golden || (r.summary == lib.summary_pins[i] &&
                            r.health_report == lib.health_pins[i] &&
                            clock.digest() == lib.report_pins[i]),
                what + ": output differs from its pins");
      out.resident += static_cast<double>(r.resident_samples);
      out.evicted += static_cast<double>(r.evicted_samples);
    } catch (const std::exception& e) {
      ops.fail(what + ": " + e.what());
    }
    std::vector<double> window_us;
    clock.append_window_us(&window_us);
    out.window_p50_us.push_back(median(window_us));
    out.pipeline_ms += clock.pipeline_ms();
    out.finalize_ms += clock.finalize_ms();
  }
  out.wall_s = seconds_since(t0);
  return out;
}

struct PlanTrace {
  double wall_s = 0.0;
  std::vector<std::optional<hs::PlanResult>> results;
  std::vector<double> plan_ms;
  double format_ms = 0.0;
};

PlanTrace traced_plan(const Library& lib, bool golden, Ops& ops) {
  PlanTrace out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < lib.specs.size(); ++i) {
    const std::string what = "traced plan " + lib.names[i];
    out.results.emplace_back();
    try {
      Clock::time_point t = Clock::now();
      hs::PlanResult result = hs::run_plan(lib.specs[i]);
      out.plan_ms.push_back(seconds_since(t) * 1e3);
      t = Clock::now();
      const std::string report = hs::format_plan(result);
      out.format_ms += seconds_since(t) * 1e3;
      ops.check(!golden || report == lib.plan_pins[i],
                what + ": report differs from its golden pin");
      out.results.back() = std::move(result);
    } catch (const std::exception& e) {
      out.plan_ms.push_back(0.0);
      ops.fail(what + ": " + e.what());
    }
  }
  out.wall_s = seconds_since(t0);
  return out;
}

// --- Replicas ----------------------------------------------------------------

/// Serve's fault delivery, window by window: pool-scope samples pass the
/// injector into the health monitor, server-scope rows go straight to the
/// delivered store.
void deliver_window(const telemetry::MetricStore& source, SimTime t,
                    hs::FaultInjector& injector, core::HealthMonitor& monitor,
                    telemetry::MetricStore& delivered) {
  const std::vector<SeriesKey> keys = source.keys();
  const auto sample_at = [&](const SeriesKey& key, double* out) {
    const telemetry::TimeSeries& series = source.series(key);
    const std::size_t i = series.first_index_at_or_after(t);
    if (i >= series.size() || series.time_at(i) != t) return false;
    *out = series.value_at(i);
    return true;
  };
  std::vector<hs::DeliveredSample> samples;
  std::size_t i = 0;
  while (i < keys.size()) {
    double v = 0.0;
    if (keys[i].server != SeriesKey::kPoolScope) {
      if (sample_at(keys[i], &v)) delivered.record(keys[i], t, v);
      ++i;
      continue;
    }
    const std::uint32_t dc = keys[i].datacenter;
    const std::uint32_t pool = keys[i].pool;
    samples.clear();
    for (; i < keys.size() && keys[i].datacenter == dc &&
           keys[i].pool == pool && keys[i].server == SeriesKey::kPoolScope;
         ++i) {
      if (sample_at(keys[i], &v)) samples.push_back({keys[i], t, v});
    }
    injector.deliver(dc, pool, t, &samples);
    for (const hs::DeliveredSample& s : samples) {
      monitor.ingest(s.key, s.time, s.value);
    }
  }
}

struct PoolReplica {
  std::uint32_t dc = 0;
  std::uint32_t pool = 0;
  core::RollingPoolPlanner planner;
  std::array<double, 4> window{};  ///< rps, cpu, p95 latency, active
  bool lit = false;
};

/// Serve's rolling planners: one per pool, sized against its service SLO.
std::vector<PoolReplica> rolling_replicas(
    const sim::FleetConfig& config, const sim::MicroserviceCatalog& catalog) {
  const hs::ServeOptions defaults;
  core::RollingPoolPlanner::Options ropt;
  ropt.lookback_windows = defaults.rolling_lookback_windows;
  ropt.min_windows = defaults.rolling_min_windows;
  const std::size_t dcs = config.datacenters.size();
  std::vector<PoolReplica> out;
  for (std::uint32_t d = 0; d < dcs; ++d) {
    const auto& pools = config.datacenters[d].pools;
    for (std::uint32_t p = 0; p < pools.size(); ++p) {
      core::HeadroomPolicy policy;
      policy.qos.latency.p95_ms =
          catalog.by_name(pools[p].service).latency_slo_ms;
      policy.dr_headroom_fraction =
          dcs > 1 ? 1.0 / static_cast<double>(dcs) : 0.125;
      out.push_back({d, p, core::RollingPoolPlanner(policy, ropt), {}, false});
    }
  }
  return out;
}

/// Steps one fleet through its observation phase a window at a time, the
/// way serve does, feeding the rolling planners. Returns the stepped fleet.
std::unique_ptr<sim::FleetSimulator> replicate_observation(
    const hs::ScenarioSpec& spec, const sim::MicroserviceCatalog& catalog,
    const EmittedPlans& emitted, const std::string& name, LayerSamples& s,
    Ops& ops) {
  Clock::time_point t0 = Clock::now();
  auto fleet = std::make_unique<sim::FleetSimulator>(
      hs::ScenarioRunner::build_fleet(spec, catalog), catalog);
  double observe_s = seconds_since(t0);
  std::vector<PoolReplica> pools = rolling_replicas(fleet->config(), catalog);

  const SimTime window = spec.window_seconds;
  const hs::ServeOptions defaults;
  telemetry::MetricStore delivered;
  std::optional<hs::FaultInjector> injector;
  std::optional<core::HealthMonitor> monitor;
  if (!spec.faults.empty()) {
    injector.emplace(spec);
    core::DegradationOptions dopt;
    dopt.window_seconds = window;
    dopt.heal_budget_seconds = defaults.heal_budget_seconds;
    dopt.staleness_budget_seconds = defaults.staleness_budget_seconds;
    monitor.emplace(&delivered, dopt);
    for (const PoolReplica& p : pools) monitor->add_pool(p.dc, p.pool);
  }
  const telemetry::MetricStore& read_store =
      monitor ? delivered : fleet->store();

  const std::vector<hs::ScenarioEvent> reductions = hs::sorted_reductions(spec);
  std::size_t next_reduction = 0;
  std::size_t lit_windows = 0;
  std::size_t plan_mismatches = 0;
  const SimTime horizon = spec.days * hs::kDaySeconds;
  static constexpr std::array<MetricKind, 4> kKinds = {
      MetricKind::kRequestsPerSecond, MetricKind::kCpuPercentAttributed,
      MetricKind::kLatencyP95Ms, MetricKind::kActiveServers};
  while (fleet->now() < horizon) {
    const SimTime t = fleet->now();
    while (next_reduction < reductions.size() &&
           hs::hours_to_sim(reductions[next_reduction].start_hour) <= t) {
      const hs::ScenarioEvent& e = reductions[next_reduction++];
      fleet->set_serving_count(*e.datacenter, *e.pool, e.serving);
    }
    t0 = Clock::now();
    fleet->run_until(t + window);
    const double step_s = seconds_since(t0);
    s.step_us.push_back(step_s * 1e6);
    observe_s += step_s;
    if (monitor) {
      deliver_window(fleet->store(), t, *injector, *monitor, delivered);
      monitor->advance(t + window);
    }

    const query::QueryEngine engine(&read_store);
    t0 = Clock::now();
    for (PoolReplica& p : pools) {
      p.lit = true;
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        const std::optional<double> v = engine.window_value(
            {p.dc, p.pool, SeriesKey::kPoolScope, kKinds[k]}, t);
        p.lit = p.lit && v.has_value();
        p.window[k] = v.value_or(0.0);
      }
    }
    s.query_s += seconds_since(t0);
    s.query_calls += pools.size() * kKinds.size();

    for (PoolReplica& p : pools) {
      if (!p.lit) continue;
      const core::DegradationTracker* health =
          monitor ? monitor->find(p.dc, p.pool) : nullptr;
      const auto serving = static_cast<long long>(p.window[3]);
      t0 = Clock::now();
      p.planner.add_window(p.window[0], p.window[1], p.window[2],
                           health != nullptr && health->window_healed(t));
      const std::optional<core::HeadroomPlan> plan = p.planner.plan(
          serving > 0 ? static_cast<std::size_t>(serving) : 0);
      s.rolling_us.push_back(seconds_since(t0) * 1e6);
      ++lit_windows;
      const auto it = emitted.find(plan_key(t, p.dc, p.pool));
      const std::int64_t want =
          plan ? static_cast<std::int64_t>(plan->recommended_servers) : -1;
      if (it == emitted.end() || it->second != want) ++plan_mismatches;
    }
  }
  t0 = Clock::now();
  fleet->finish_day();
  observe_s += seconds_since(t0);
  s.observe_ms += observe_s * 1e3;

  ops.check(plan_mismatches == 0 && lit_windows == emitted.size(),
            "rolling planner replica of " + name + ": " +
                std::to_string(plan_mismatches) + " of " +
                std::to_string(lit_windows) +
                " observe windows differ from serve's plan= values (" +
                std::to_string(emitted.size()) + " emitted)");
  return fleet;
}

/// Distinct DCs the spec takes down, sorted: plan's outage cases.
std::vector<std::uint32_t> outage_targets(const hs::ScenarioSpec& spec) {
  std::vector<std::uint32_t> out;
  for (const hs::ScenarioEvent& e : spec.events) {
    if (e.kind == hs::ScenarioEventKind::kDatacenterOutage && e.datacenter) {
      out.push_back(*e.datacenter);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Per-DC demand multipliers when `failed` goes dark under `policy`.
std::vector<double> outage_stress(const sim::FleetConfig& config,
                                  sim::FailoverPolicyKind policy,
                                  std::uint32_t failed) {
  const std::size_t n = config.datacenters.size();
  std::vector<double> demand(n);
  std::vector<std::uint8_t> down(n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    demand[d] = config.datacenters[d].demand_weight;
  }
  down[failed] = 1;
  sim::make_failover_policy(policy, config.datacenters)
      ->redistribute(down, demand);
  std::vector<double> stress(n, 1.0);
  for (std::size_t d = 0; d < n; ++d) {
    const double weight = config.datacenters[d].demand_weight;
    if (d != failed && weight > 0.0) stress[d] = demand[d] / weight;
  }
  return stress;
}

/// Forecasts every pool of a stepped fleet under plan's default sweep
/// (growth x failover policy x outage target), timing each forecast_pool
/// call. When `expect` is given, each case's forecast lines must equal the
/// run_plan report's. Returns the baseline case (growth 1, no outage).
std::vector<core::PoolCapacityForecast> replicate_forecasts(
    const hs::ScenarioSpec& spec, const sim::FleetSimulator& fleet,
    const sim::MicroserviceCatalog& catalog, const hs::PlanResult* expect,
    const std::string& name, LayerSamples& s, Ops& ops) {
  const hs::PlanOptions options;
  std::vector<double> growths = options.growths;
  std::sort(growths.begin(), growths.end());
  growths.erase(std::unique(growths.begin(), growths.end()), growths.end());
  const std::vector<sim::FailoverPolicyKind> policies = {
      sim::FailoverPolicyKind::kNearestSurvivor,
      sim::FailoverPolicyKind::kLatencyAware,
      sim::FailoverPolicyKind::kCostAware};
  const std::vector<std::uint32_t> outages = outage_targets(spec);
  const sim::FleetConfig& config = fleet.config();
  const query::QueryEngine engine(&fleet.store());
  const SimTime history_end = spec.days * hs::kDaySeconds;

  std::vector<core::PoolCapacityForecast> baseline;
  std::size_t case_index = 0;
  std::size_t mismatched_cases = 0;
  for (const double growth : growths) {
    for (const sim::FailoverPolicyKind policy : policies) {
      for (std::size_t c = 0; c <= outages.size(); ++c) {
        const std::vector<double> stress =
            c == 0 ? std::vector<double>(config.datacenters.size(), 1.0)
                   : outage_stress(config, policy, outages[c - 1]);
        std::vector<core::PoolCapacityForecast> pools;
        for (std::uint32_t d = 0; d < config.datacenters.size(); ++d) {
          if (c > 0 && d == outages[c - 1]) continue;
          const auto& dc_pools = config.datacenters[d].pools;
          for (std::uint32_t p = 0; p < dc_pools.size(); ++p) {
            core::CapacityForecastOptions fopt;
            fopt.window_seconds = spec.window_seconds;
            fopt.horizon_seconds = options.horizon_seconds;
            fopt.critical_seconds =
                std::min<SimTime>(30 * 86400, options.horizon_seconds);
            fopt.growth_multiplier = growth * stress[d];
            const core::CapacityForecaster forecaster(&engine, fopt);
            core::CapacityForecaster::PoolSpec pool;
            pool.datacenter = d;
            pool.pool = p;
            pool.servers = dc_pools[p].servers;
            pool.target_rps_per_server =
                catalog.by_name(dc_pools[p].service).target_rps_per_server_p95;
            const Clock::time_point t0 = Clock::now();
            pools.push_back(forecaster.forecast_pool(pool, 0, history_end));
            s.forecast_us.push_back(seconds_since(t0) * 1e6);
          }
        }
        if (expect != nullptr &&
            (case_index >= expect->cases.size() ||
             core::format_capacity_forecasts(pools) !=
                 core::format_capacity_forecasts(
                     expect->cases[case_index].pools))) {
          ++mismatched_cases;
        }
        if (case_index == 0) baseline = pools;
        ++case_index;
      }
    }
  }
  if (expect != nullptr) {
    ops.check(mismatched_cases == 0 && case_index == expect->cases.size(),
              "forecast replica of " + name + ": " +
                  std::to_string(mismatched_cases) + " of " +
                  std::to_string(case_index) +
                  " cases differ from the run_plan report");
  }
  return baseline;
}

/// Feeds every pool's history, read through query, into a trend x season
/// decomposition of the benchmark's own and predicts over plan's horizon.
/// The predicted peak must equal the baseline forecast's.
void replicate_decomposition(
    const hs::ScenarioSpec& spec, const sim::FleetSimulator& fleet,
    const std::vector<core::PoolCapacityForecast>& baseline,
    const std::string& name, LayerSamples& s, Ops& ops) {
  const query::QueryEngine engine(&fleet.store());
  const SimTime window = spec.window_seconds;
  const SimTime history_end = spec.days * hs::kDaySeconds;
  const SimTime horizon_end = history_end + hs::PlanOptions().horizon_seconds;
  std::size_t mismatches = 0;
  std::vector<std::pair<SimTime, double>> history;
  for (const core::PoolCapacityForecast& f : baseline) {
    history.clear();
    for (SimTime t = 0; t < history_end; t += window) {
      const std::optional<double> rps = engine.window_value(
          {f.datacenter, f.pool, SeriesKey::kPoolScope,
           MetricKind::kRequestsPerSecond},
          t);
      const std::optional<double> servers = engine.window_value(
          {f.datacenter, f.pool, SeriesKey::kPoolScope,
           MetricKind::kActiveServers},
          t);
      if (rps && servers) history.emplace_back(t, *rps * *servers);
    }
    ml::TrendSeasonDecomposition decomposition{ml::TrendSeasonOptions{}};
    Clock::time_point t0 = Clock::now();
    for (const auto& [t, demand] : history) decomposition.observe(t, demand);
    s.ml_observe_s += seconds_since(t0);
    s.ml_observe_calls += history.size();

    double peak = 0.0;
    t0 = Clock::now();
    for (SimTime t = history_end; t < horizon_end; t += window) {
      peak = std::max(peak, decomposition.predict(t).value);
      ++s.ml_predict_calls;
    }
    s.ml_predict_s += seconds_since(t0);
    if (peak != f.peak_forecast_rps) ++mismatches;
  }
  ops.check(mismatches == 0,
            "trend x season replica of " + name + ": " +
                std::to_string(mismatches) + " of " +
                std::to_string(baseline.size()) +
                " pools predict a different peak than forecast_pool");
}

/// Median over reps of the simulator constructor time summed over fleets.
double construct_ms(const std::vector<hs::ScenarioSpec>& specs) {
  const sim::MicroserviceCatalog catalog;
  std::vector<double> reps;
  for (std::size_t r = 0; r < kConstructReps; ++r) {
    double total = 0.0;
    for (const hs::ScenarioSpec& spec : specs) {
      sim::FleetConfig config = hs::ScenarioRunner::build_fleet(spec, catalog);
      const Clock::time_point t0 = Clock::now();
      const sim::FleetSimulator fleet(std::move(config), catalog);
      total += seconds_since(t0);
    }
    reps.push_back(total * 1e3);
  }
  return median(reps);
}

}  // namespace

void run_traced(const Options& o, Metrics& m, Ops& ops) {
  if (o.workload != "serve_library" && o.workload != "plan_library") {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  const bool golden = o.seed == kGoldenSeed;
  const Library lib = load_library(o.seed);

  // Scenario layer: instrumented passes over the library.
  const ServeTrace serve = traced_serve(lib, golden, ops);
  const PlanTrace plan = traced_plan(lib, golden, ops);
  const double traced_wall =
      o.workload == "serve_library" ? serve.wall_s : plan.wall_s;

  // Lower layers: replicas of the library fleets.
  LayerSamples s;
  const double construct = construct_ms(lib.specs);
  const sim::MicroserviceCatalog catalog;
  for (std::size_t i = 0; i < lib.specs.size(); ++i) {
    const std::string& name = lib.names[i];
    try {
      const auto fleet = replicate_observation(lib.specs[i], catalog,
                                               serve.plans[i], name, s, ops);
      const hs::PlanResult* expect =
          plan.results[i] ? &*plan.results[i] : nullptr;
      const auto baseline = replicate_forecasts(lib.specs[i], *fleet, catalog,
                                                expect, name, s, ops);
      replicate_decomposition(lib.specs[i], *fleet, baseline, name, s, ops);
    } catch (const std::exception& e) {
      ops.fail("replica of " + name + ": " + e.what());
    }
  }

  m.add("sim.construct_ms", construct, "ms");
  m.add("sim.step_us_p50", percentile(s.step_us, 50.0), "us");
  m.add("sim.step_us_p98", percentile(s.step_us, 98.0), "us");
  m.add("sim.step_us_p99", percentile(s.step_us, 99.0), "us");
  m.add("sim.steps", static_cast<double>(s.step_us.size()), "count");
  m.add("sim.observe_ms", s.observe_ms, "ms");
  const auto per_call_ns = [](double seconds, std::size_t calls) {
    return seconds * 1e9 / static_cast<double>(std::max<std::size_t>(1, calls));
  };
  m.add("query.window_value_ns", per_call_ns(s.query_s, s.query_calls), "ns");
  m.add("query.window_value_calls", static_cast<double>(s.query_calls),
        "count");
  m.add("core.rolling_plan_us_p50", percentile(s.rolling_us, 50.0), "us");
  m.add("core.rolling_plan_us_p99", percentile(s.rolling_us, 99.0), "us");
  m.add("core.rolling_plan_calls", static_cast<double>(s.rolling_us.size()),
        "count");
  m.add("core.forecast_pool_us_p50", percentile(s.forecast_us, 50.0), "us");
  m.add("core.forecast_pool_us_p97", percentile(s.forecast_us, 97.0), "us");
  m.add("core.forecasts", static_cast<double>(s.forecast_us.size()), "count");
  m.add("ml.observe_ns", per_call_ns(s.ml_observe_s, s.ml_observe_calls),
        "ns");
  m.add("ml.predict_ns", per_call_ns(s.ml_predict_s, s.ml_predict_calls),
        "ns");
  m.add("ml.predict_calls", static_cast<double>(s.ml_predict_calls), "count");
  m.add("telemetry.resident_samples", serve.resident, "count");
  m.add("telemetry.evicted_samples", serve.evicted, "count");
  for (std::size_t i = 0; i < lib.names.size(); ++i) {
    m.add("scenario.serve_window_p50_us." + lib.names[i],
          serve.window_p50_us[i], "us");
  }
  m.add("scenario.serve_pipeline_ms", serve.pipeline_ms, "ms");
  m.add("scenario.serve_finalize_ms", serve.finalize_ms, "ms");
  for (std::size_t i = 0; i < lib.names.size(); ++i) {
    m.add("scenario.plan_ms." + lib.names[i], plan.plan_ms[i], "ms");
  }
  m.add("scenario.format_plan_ms", plan.format_ms, "ms");
  m.add("scenario.traced_wall_s", traced_wall, "s");
}

}  // namespace perfbench
