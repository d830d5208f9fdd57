// Untraced end-to-end runs of the two workloads. Each run repeats its
// set-up, then repeats whole passes over the workload until the run's
// measuring time is used. Every pass repeats identical work (its outputs are
// checked to be), so a pass is cut into the same segments every time: one
// per scenario call on plan, one per served window (and per phase boundary)
// on serve. A segment's cost is its fastest time over the passes, and a
// pass's cost is the sum of its segments' costs. Contention from other
// tenants of the host only ever adds time, and a short segment is likely to
// have run undisturbed in at least one pass, so a disturbance moves only the
// segments it overlapped, and only if it overlapped them in every pass.
// Every call's output is checked inside its timed interval (a string
// compare against the pins or the first pass); invariants that need extra
// pipeline runs are computed after the last pass, outside the timing.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "scenario/planning.h"
#include "scenario/scenario_runner.h"
#include "scenario/serve.h"
#include "sim/fleet.h"
#include "sim/microservice.h"

namespace perfbench {

namespace {

namespace hs = headroom::scenario;
namespace sim = headroom::sim;

// Set-up repeats before every pass, so that its samples spread over the
// run instead of landing in one burst of host noise.
constexpr std::size_t kLibrarySetupsPerPass = 13;  // ~0.1-0.5 ms each

/// Windows a spec's observation phase steps.
double observe_windows(const hs::ScenarioSpec& spec) {
  return static_cast<double>(spec.days * 86400 / spec.window_seconds);
}

/// Element-wise minimum of `pass` into `best` (the first pass is copied).
/// Every pass has the same length when its output matched the first pass;
/// should one differ (a failed operation), the common prefix is kept.
void keep_fastest(std::vector<double>& best, const std::vector<double>& pass) {
  if (best.empty()) {
    best = pass;
    return;
  }
  best.resize(std::min(best.size(), pass.size()));
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], pass[i]);
  }
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Samples of a run and the end-to-end metrics derived from them.
struct Passes {
  std::vector<double> setup_s;
  /// Fastest wall and CPU seconds of each segment over the passes so far.
  std::vector<double> best_wall_s;
  std::vector<double> best_cpu_s;
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
  double server_windows = 0.0;  ///< Servers x windows stepped per pass.

  void fold(const std::vector<double>& wall_s,
            const std::vector<double>& cpu_s) {
    keep_fastest(best_wall_s, wall_s);
    keep_fastest(best_cpu_s, cpu_s);
  }

  void report(Metrics& m) const {
    const double wall = sum(best_wall_s);
    m.add("setup_s", median(setup_s), "s");
    m.add("wall_s", wall, "s");
    m.add("cpu_s", sum(best_cpu_s), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
    m.add("server_windows_per_s", wall > 0.0 ? server_windows / wall : 0.0,
          "1/s");
    m.add("window_p50_us", window_p50_us, "us");
    m.add("window_p99_us", window_p99_us, "us");
  }
};

Library library_setup(std::uint64_t seed, Passes& p) {
  Library lib;
  for (std::size_t r = 0; r < kLibrarySetupsPerPass; ++r) {
    const Clock::time_point t0 = Clock::now();
    lib = load_library(seed);
    p.setup_s.push_back(seconds_since(t0));
  }
  return lib;
}

double fleet_servers(const hs::ScenarioSpec& spec) {
  const sim::MicroserviceCatalog catalog;
  const sim::FleetConfig config =
      hs::ScenarioRunner::build_fleet(spec, catalog);
  double servers = 0.0;
  for (const sim::DatacenterConfig& dc : config.datacenters) {
    for (const sim::PoolConfig& pool : dc.pools) {
      servers += static_cast<double>(pool.servers);
    }
  }
  return servers;
}

// --- serve_library ---------------------------------------------------------

void timed_serve(const Options& o, Metrics& m, Ops& ops) {
  Passes p;
  Library lib;
  const std::size_t n = library_names().size();
  const bool golden = o.seed == kGoldenSeed;
  const hs::ServeRunner runner;
  std::vector<double> best_window_us;
  std::vector<EmitClock> clocks(n);
  std::vector<std::string> first_summary(n);
  std::vector<std::string> first_health(n);
  std::vector<std::uint64_t> first_digest(n);
  std::vector<double> windows(n, 0.0);

  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(start) < o.seconds;
       ++pass) {
    lib = library_setup(o.seed, p);
    std::vector<std::string> summary(n);
    std::vector<std::string> health(n);
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string what = "serve " + lib.names[i];
      const std::int64_t start_cpu = cpu_now_ns();
      const std::int64_t start_wall = now_ns();
      try {
        hs::ServeResult r = runner.serve(lib.specs[i], clocks[i].emitter());
        summary[i] = std::move(r.summary);
        health[i] = std::move(r.health_report);
        windows[i] = static_cast<double>(r.windows);
        if (golden) {
          ops.check(summary[i] == lib.summary_pins[i] &&
                        health[i] == lib.health_pins[i] &&
                        clocks[i].digest() == lib.report_pins[i],
                    what + ": output differs from its pins");
        } else if (pass == 0) {
          // Checked against the batch run after the last pass.
          first_digest[i] = clocks[i].digest();
          ops.check(true, what);
        } else {
          ops.check(summary[i] == first_summary[i] &&
                        health[i] == first_health[i] &&
                        clocks[i].digest() == first_digest[i],
                    what + ": output differs from the first pass");
        }
      } catch (const std::exception& e) {
        ops.fail(what + ": " + e.what());
      }
      const std::int64_t end_wall = now_ns();
      const std::int64_t end_cpu = cpu_now_ns();
      clocks[i].append_segments(start_wall, start_cpu, end_wall, end_cpu,
                                &wall_s, &cpu_s);
    }
    p.fold(wall_s, cpu_s);
    std::vector<double> window_us;
    for (const EmitClock& c : clocks) c.append_window_us(&window_us);
    keep_fastest(best_window_us, window_us);
    if (pass == 0) {
      first_summary = summary;
      first_health = health;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    p.server_windows += fleet_servers(lib.specs[i]) * windows[i];
  }
  // Every pass serves the same windows, so a window's latency is its
  // fastest over the passes; p50 and p99 are taken over those figures.
  p.window_p50_us = percentile(best_window_us, 50.0);
  p.window_p99_us = percentile(best_window_us, 99.0);
  p.report(m);

  // Any seed: the streamed pipeline ends where the batch pipeline does.
  if (golden) return;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string what = "serve " + lib.names[i] + " vs batch run";
    try {
      const hs::ScenarioRunResult batch =
          hs::ScenarioRunner().run(lib.specs[i]);
      ops.check(hs::format_summary(batch) == first_summary[i],
                what + ": summaries differ");
    } catch (const std::exception& e) {
      ops.fail(what + ": " + e.what());
    }
  }
}

// --- plan_library ----------------------------------------------------------

void timed_plan(const Options& o, Metrics& m, Ops& ops) {
  Passes p;
  Library lib;
  const std::size_t n = library_names().size();
  const bool golden = o.seed == kGoldenSeed;
  std::vector<std::string> first(n);

  const Clock::time_point start = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(start) < o.seconds;
       ++pass) {
    lib = library_setup(o.seed, p);
    std::vector<std::string> report(n);
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    for (std::size_t i = 0; i < n; ++i) {
      const std::string what = "plan " + lib.names[i];
      const std::int64_t start_cpu = cpu_now_ns();
      const std::int64_t start_wall = now_ns();
      try {
        report[i] = hs::format_plan(hs::run_plan(lib.specs[i]));
        if (golden) {
          ops.check(report[i] == lib.plan_pins[i],
                    what + ": report differs from its golden pin");
        } else if (pass > 0) {
          ops.check(report[i] == first[i],
                    what + ": report differs from the first pass");
        } else {
          ops.check(report[i].rfind("plan = " + lib.names[i] + "\n", 0) == 0,
                    what + ": report header missing");
        }
      } catch (const std::exception& e) {
        ops.fail(what + ": " + e.what());
      }
      wall_s.push_back(static_cast<double>(now_ns() - start_wall) * 1e-9);
      cpu_s.push_back(static_cast<double>(cpu_now_ns() - start_cpu) * 1e-9);
    }
    p.fold(wall_s, cpu_s);
    if (pass == 0) first = report;
  }
  // No per-window hook: each window of a scenario is charged the
  // scenario's call time divided by the windows it steps, and p50 and p99
  // are taken over every window of the workload.
  std::vector<double> per_window_us;
  for (std::size_t i = 0; i < n && i < p.best_wall_s.size(); ++i) {
    const double windows = observe_windows(lib.specs[i]);
    p.server_windows += fleet_servers(lib.specs[i]) * windows;
    per_window_us.insert(per_window_us.end(),
                         static_cast<std::size_t>(windows),
                         p.best_wall_s[i] * 1e6 / windows);
  }
  p.window_p50_us = percentile(per_window_us, 50.0);
  p.window_p99_us = percentile(per_window_us, 99.0);
  p.report(m);

  // Any seed: the report does not depend on the stepping thread count.
  if (golden) return;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string what = "plan " + lib.names[i] + " at 2 threads";
    try {
      hs::ScenarioSpec threaded = lib.specs[i];
      threaded.threads = 2;
      ops.check(hs::format_plan(hs::run_plan(threaded)) == first[i],
                what + ": report differs from the serial report");
    } catch (const std::exception& e) {
      ops.fail(what + ": " + e.what());
    }
  }
}

}  // namespace

void run_timed(const Options& o, Metrics& m, Ops& ops) {
  if (o.workload == "serve_library") {
    timed_serve(o, m, ops);
  } else if (o.workload == "plan_library") {
    timed_plan(o, m, ops);
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
}

}  // namespace perfbench
