// Shared pieces of the benchmark driver: clocks, order statistics, the
// metric/operation ledger, the pinned scenario library, and the serve emit
// clock that turns report-line timestamps into per-window latencies.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "scenario/scenario_spec.h"
#include "scenario/serve.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The seed every golden file under tests/scenario/golden was pinned at.
inline constexpr std::uint64_t kGoldenSeed = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
};

[[nodiscard]] double seconds_since(Clock::time_point start);
[[nodiscard]] std::int64_t now_ns();
/// Process user + system CPU time, in ns.
[[nodiscard]] std::int64_t cpu_now_ns();
/// High-water resident set of this process since exec, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
/// Whole file contents; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);
/// Fixed integer loop timed in milliseconds: a host-speed reference that
/// is printed beside every run and never folded into a metric.
[[nodiscard]] double host_reference_ms();

/// Named metrics in insertion order, printed as the result's "metrics".
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Attempted / failed operation ledger. A failed check is reported on
/// stderr with what was being checked.
class Ops {
 public:
  bool check(bool ok, const std::string& what);
  void fail(const std::string& what);
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// The ten golden-pinned library scenarios (every shipped scenario except
/// the x100 smoke), parsed at the run's seed with single-threaded exact
/// stepping, plus the pins their outputs are checked against at the
/// golden seed.
struct Library {
  std::vector<std::string> names;
  std::vector<headroom::scenario::ScenarioSpec> specs;
  std::vector<std::string> summary_pins;  ///< golden/<name>.golden
  std::vector<std::string> health_pins;   ///< golden/health/<name>.health or ""
  std::vector<std::string> plan_pins;     ///< golden/plan/<name>.plan
  /// Digest of every line serve emits (perfbench/serve_reports.fnv): the
  /// per-window reports have no golden of their own.
  std::vector<std::uint64_t> report_pins;
};

[[nodiscard]] const std::vector<std::string>& library_names();
/// Parses one scenario file and overrides its seed and thread count.
/// Throws std::runtime_error on a parse or validation error.
[[nodiscard]] headroom::scenario::ScenarioSpec load_spec(
    const std::string& path, std::uint64_t seed, std::size_t threads);
/// Parses and validates the library; loads the pins at the golden seed.
[[nodiscard]] Library load_library(std::uint64_t seed);
/// Where load_library finds the serve report digests, relative to the
/// repository root.
inline constexpr const char* kReportPinFile = "perfbench/serve_reports.fnv";

/// Observe-phase `plan=` values of served report lines, keyed by
/// (window start, dc, pool); -1 for a lit line that carried no plan.
using EmittedPlans = std::unordered_map<std::int64_t, std::int64_t>;
[[nodiscard]] std::int64_t plan_key(std::int64_t t, std::uint32_t dc,
                                    std::uint32_t pool);

/// Timestamps one serve() call's emitted lines. A window's latency is the
/// time from the previous window's last report line to its own last line,
/// within one phase; the gap from the last observe window to the
/// experiment phase line (pipeline) and from the last window to the done
/// line (finalize) are kept apart. It also marks wall and CPU time at the
/// first line of every window and at every phase line: marks that cut one
/// call into segments which every pass of the same output repeats.
class EmitClock {
 public:
  /// The emitter for one serve() call; `plans` (optional) collects the
  /// observe-phase plan values for the replica anchors.
  [[nodiscard]] headroom::scenario::EmitFn emitter(
      EmittedPlans* plans = nullptr);
  void append_window_us(std::vector<double>* out) const;
  /// Wall and CPU seconds of each segment of the call that ran from
  /// `start` to `end` (ns; wall, then CPU), cut at the marks.
  void append_segments(std::int64_t start_wall, std::int64_t start_cpu,
                       std::int64_t end_wall, std::int64_t end_cpu,
                       std::vector<double>* wall_s,
                       std::vector<double>* cpu_s) const;
  /// FNV-1a digest of every emitted line, each followed by '\n'.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] double pipeline_ms() const noexcept { return pipeline_ms_; }
  [[nodiscard]] double finalize_ms() const noexcept { return finalize_ms_; }

 private:
  void on_line(const std::string& line, EmittedPlans* plans);

  std::vector<std::int64_t> ends_;  ///< ns of each window's last line
  std::vector<std::size_t> segment_starts_;
  std::vector<std::int64_t> mark_wall_;  ///< ns
  std::vector<std::int64_t> mark_cpu_;   ///< ns
  std::int64_t current_t_ = -1;
  bool observing_ = false;
  double pipeline_ms_ = 0.0;
  double finalize_ms_ = 0.0;
  std::uint64_t digest_ = 0;
};

// Workload entry points: each fills `metrics` and `ops` and returns
// normally; a missing input throws.
void run_timed(const Options& options, Metrics& metrics, Ops& ops);
void run_traced(const Options& options, Metrics& metrics, Ops& ops);

}  // namespace perfbench
