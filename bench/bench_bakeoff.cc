// Optimizer bake-off harness: the tournament's cost-vs-SLO frontier for
// the acceptance scenarios, plus per-planner decision latency measured
// over a long synthetic grid. Emits BENCH_bakeoff.json so the frontier
// positions and planner costs have a per-commit record; exits non-zero if
// a planner's plan_window() stops being cheap relative to a telemetry
// window or the RSM entrant loses its zero-violation frontier spot on the
// flash-crowd scenario.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/planner_roster.h"
#include "bench_util.h"
#include "core/capacity_planner.h"
#include "scenario/bakeoff.h"
#include "scenario/scenario_parser.h"

namespace {
using namespace headroom;
using Clock = std::chrono::steady_clock;

/// Diurnal demand grid for the decision-latency measurement: two synthetic
/// days of 120 s windows, sinusoidal with a mid-run spike so every planner
/// exercises both its scale-up and release paths.
std::vector<core::PlannerWindow> synthetic_grid(std::size_t windows) {
  std::vector<core::PlannerWindow> grid(windows);
  for (std::size_t i = 0; i < windows; ++i) {
    const double phase = static_cast<double>(i % 720) / 720.0;
    double rps = 3000.0 + 2000.0 * std::sin(phase * 6.283185307179586);
    if (i % 720 >= 300 && i % 720 < 320) rps *= 2.0;  // failover spike
    grid[i].start = static_cast<telemetry::SimTime>(i) * 120;
    grid[i].seconds = 120;
    grid[i].total_rps = rps;
  }
  return grid;
}

core::PoolResponseModel synthetic_surface() {
  stats::LinearFit cpu;
  cpu.slope = 0.08;
  cpu.intercept = 2.0;
  cpu.r_squared = 1.0;
  cpu.n = 1440;
  stats::PolynomialFit latency;
  latency.coeffs = {5.0, 0.0, 0.0005};
  latency.r_squared = 1.0;
  latency.n = 1440;
  return core::PoolResponseModel::from_fits(cpu, latency);
}

}  // namespace

int main() {
  bench::header("Optimizer bake-off — frontier + planner decision latency",
                "fixed headroom sized from the black-box fit holds the SLO "
                "at lower cost than the policies that chase demand (§I, "
                "§V); a plan decision must be negligible next to a 120 s "
                "telemetry window");

  bench::JsonObject out;
  bool ok = true;

  // --- Per-planner decision latency over a synthetic two-day grid --------
  const core::PoolResponseModel surface = synthetic_surface();
  core::PlannerContext context;
  context.model = &surface;
  context.latency_slo_ms = 50.0;
  context.pool_size = 64;
  context.window_seconds = 120;
  const auto grid = synthetic_grid(1440);

  bench::note("decision latency, 1440-window synthetic diurnal grid:");
  std::vector<bench::JsonObject> latency_records;
  for (const auto& planner : baseline::default_roster()) {
    const auto t0 = Clock::now();
    const core::PlannerScore score =
        core::replay_capacity_planner(*planner, grid, context, 16);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double ns_per_decision =
        seconds * 1e9 / static_cast<double>(grid.size());
    std::printf("  %-14s %10.0f ns/decision  (violations %5.1f%%, "
                "mean serving %5.1f)\n",
                planner->name().c_str(), ns_per_decision,
                score.violation_fraction() * 100.0, score.mean_serving());
    latency_records.push_back(bench::JsonObject()
                                  .str("planner", planner->name())
                                  .num("ns_per_decision", ns_per_decision)
                                  .num("violation_fraction",
                                       score.violation_fraction())
                                  .num("mean_serving", score.mean_serving()));
    // A window is 120 s; a decision beyond 10 ms means the planner is no
    // longer ignorable in the serve loop.
    if (ns_per_decision > 1e7) {
      std::printf("  FAIL: %s decision latency above 10 ms\n",
                  planner->name().c_str());
      ok = false;
    }
  }
  out.arr("decision_latency", latency_records);

  // --- The real frontier on the acceptance scenario ------------------------
  const std::string scenario_path =
      std::string(HEADROOM_SOURCE_DIR) +
      "/examples/scenarios/fig6_flash_crowd.scn";
  scenario::ParseResult parsed = scenario::load_scenario_file(scenario_path);
  if (!parsed.ok()) {
    std::printf("  FAIL: cannot load %s: %s\n", scenario_path.c_str(),
                parsed.error.c_str());
    return 1;
  }
  const auto t0 = Clock::now();
  const scenario::BakeoffResult result = scenario::run_bakeoff(parsed.spec);
  const double bakeoff_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  bench::note("");
  bench::note("frontier, " + parsed.spec.name + " (" +
              std::to_string(result.windows) + " windows):");
  std::vector<bench::JsonObject> frontier_records;
  double rsm_violation = -1.0;
  for (const core::PlannerScore& s : result.scores) {
    std::printf("  %-14s mean serving %6.2f  violations %5.1f%%  "
                "switches %4zu\n",
                s.planner.c_str(), s.mean_serving(),
                s.violation_fraction() * 100.0, s.switches);
    frontier_records.push_back(bench::JsonObject()
                                   .str("planner", s.planner)
                                   .num("server_seconds", s.server_seconds)
                                   .num("violation_seconds",
                                        s.violation_seconds)
                                   .num("violation_fraction",
                                        s.violation_fraction())
                                   .num("switched_servers",
                                        s.switched_servers)
                                   .num("switches", s.switches)
                                   .num("mean_serving", s.mean_serving()));
    if (s.planner == "rsm") rsm_violation = s.violation_fraction();
  }
  out.str("scenario", parsed.spec.name)
      .num("windows", result.windows)
      .num("rsm_recommended", result.rsm.recommended_serving)
      .num("bakeoff_seconds", bakeoff_seconds)
      .arr("frontier", frontier_records);

  // The paper's claim in one number: the RSM's fixed headroom never
  // violates the SLO on the flash-crowd day.
  if (rsm_violation != 0.0) {
    std::printf("  FAIL: rsm violation fraction %.4f (expected 0) — the "
                "fixed-headroom plan lost its frontier spot\n",
                rsm_violation);
    ok = false;
  }

  if (!out.write("BENCH_bakeoff.json")) {
    bench::note("warning: could not write BENCH_bakeoff.json");
  }
  bench::note("");
  bench::note(ok ? "bakeoff bench: all margins held"
                 : "bakeoff bench: FAILED (see above)");
  return ok ? 0 : 1;
}
