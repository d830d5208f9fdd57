#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "scenario/scenario_parser.h"

namespace perfbench {

namespace hs = headroom::scenario;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  // VmHWM starts afresh at exec; ru_maxrss would carry over the high-water
  // mark of the process that forked this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double host_reference_ms() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // one real iteration per trip
  }
  return seconds_since(start) * 1e3;
}

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(number, sizeof number, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + e.name + "\": {\"value\": " + number + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

bool Ops::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
  return ok;
}

void Ops::fail(const std::string& what) { check(false, what); }

const std::vector<std::string>& library_names() {
  static const std::vector<std::string> names = {
      "fault_clock_skew",   "fault_gap_heal",    "fault_nan_burst",
      "fault_stalled_feed", "fig45_dc_outage",   "fig6_flash_crowd",
      "flash_crowd_global", "hot_cool_fleet",    "maintenance_peak",
      "reduction_mid_run"};
  return names;
}

hs::ScenarioSpec load_spec(const std::string& path, std::uint64_t seed,
                           std::size_t threads) {
  const hs::ParseResult parsed = hs::parse_scenario(read_file(path), path);
  if (!parsed.ok()) throw std::runtime_error(parsed.error);
  hs::ScenarioSpec spec = parsed.spec;
  spec.seed = seed;
  spec.threads = threads;
  const std::string problem = hs::validate(spec);
  if (!problem.empty()) throw std::runtime_error(path + ": " + problem);
  return spec;
}

/// The pinned serve report digests, by scenario name.
std::unordered_map<std::string, std::uint64_t> report_pins() {
  std::unordered_map<std::string, std::uint64_t> pins;
  std::istringstream in(read_file(kReportPinFile));
  std::string digest;
  std::string name;
  while (in >> digest >> name) pins[name] = std::stoull(digest, nullptr, 16);
  return pins;
}

Library load_library(std::uint64_t seed) {
  const std::string golden = "tests/scenario/golden/";
  Library lib;
  const auto reports =
      seed == kGoldenSeed ? report_pins()
                          : std::unordered_map<std::string, std::uint64_t>();
  for (const std::string& name : library_names()) {
    lib.names.push_back(name);
    lib.specs.push_back(load_spec("examples/scenarios/" + name + ".scn", seed,
                                  /*threads=*/1));
    if (seed != kGoldenSeed) continue;
    lib.summary_pins.push_back(read_file(golden + name + ".golden"));
    lib.health_pins.push_back(
        lib.specs.back().faults.empty()
            ? std::string()
            : read_file(golden + "health/" + name + ".health"));
    lib.plan_pins.push_back(read_file(golden + "plan/" + name + ".plan"));
    const auto pin = reports.find(name);
    if (pin == reports.end()) {
      throw std::runtime_error(std::string(kReportPinFile) +
                               ": no digest for " + name);
    }
    lib.report_pins.push_back(pin->second);
  }
  return lib;
}

std::int64_t plan_key(std::int64_t t, std::uint32_t dc, std::uint32_t pool) {
  return (t * 1024 + dc) * 1024 + pool;
}

namespace {

/// Integer value of `key` (e.g. " dc=") in a report line; -1 when absent.
std::int64_t field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + std::char_traits<char>::length(key),
                      nullptr, 10);
}

}  // namespace

hs::EmitFn EmitClock::emitter(EmittedPlans* plans) {
  ends_.clear();
  segment_starts_.clear();
  current_t_ = -1;
  observing_ = false;
  pipeline_ms_ = 0.0;
  finalize_ms_ = 0.0;
  mark_wall_.clear();
  mark_cpu_.clear();
  digest_ = 1469598103934665603ULL;
  return [this, plans](const std::string& line) { on_line(line, plans); };
}

void EmitClock::on_line(const std::string& line, EmittedPlans* plans) {
  const std::int64_t now = now_ns();
  for (const char c : line) {
    digest_ = (digest_ ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  digest_ = (digest_ ^ '\n') * 1099511628211ULL;
  if (line.rfind("window t=", 0) == 0) {
    const std::int64_t t = std::strtoll(line.c_str() + 9, nullptr, 10);
    if (t != current_t_) {
      ends_.push_back(now);
      mark_wall_.push_back(now);
      mark_cpu_.push_back(cpu_now_ns());
      current_t_ = t;
    } else {
      ends_.back() = now;
    }
    if (plans != nullptr && observing_ &&
        line.find(" dark=1") == std::string::npos) {
      const std::int64_t key =
          plan_key(t, static_cast<std::uint32_t>(field(line, " dc=")),
                   static_cast<std::uint32_t>(field(line, " pool=")));
      (*plans)[key] = field(line, " plan=");
    }
    return;
  }
  if (line.rfind("serve phase=", 0) != 0) return;
  mark_wall_.push_back(now);
  mark_cpu_.push_back(cpu_now_ns());
  const double since_last_ms =
      ends_.empty() ? 0.0 : static_cast<double>(now - ends_.back()) * 1e-6;
  observing_ = line.rfind("serve phase=observe", 0) == 0;
  if (line.rfind("serve phase=experiment", 0) == 0) {
    pipeline_ms_ += since_last_ms;
  } else if (line.rfind("serve phase=done", 0) == 0) {
    finalize_ms_ += since_last_ms;
  }
  segment_starts_.push_back(ends_.size());
  current_t_ = -1;
}

void EmitClock::append_window_us(std::vector<double>* out) const {
  std::size_t next_segment = 0;
  for (std::size_t i = 1; i < ends_.size(); ++i) {
    while (next_segment < segment_starts_.size() &&
           segment_starts_[next_segment] < i) {
      ++next_segment;
    }
    // Window i opens a phase when a phase line arrived after window i-1.
    if (next_segment < segment_starts_.size() &&
        segment_starts_[next_segment] == i) {
      continue;
    }
    out->push_back(static_cast<double>(ends_[i] - ends_[i - 1]) * 1e-3);
  }
}

void EmitClock::append_segments(std::int64_t start_wall,
                                std::int64_t start_cpu, std::int64_t end_wall,
                                std::int64_t end_cpu,
                                std::vector<double>* wall_s,
                                std::vector<double>* cpu_s) const {
  std::int64_t wall = start_wall;
  std::int64_t cpu = start_cpu;
  for (std::size_t i = 0; i <= mark_wall_.size(); ++i) {
    const std::int64_t next_wall =
        i < mark_wall_.size() ? mark_wall_[i] : end_wall;
    const std::int64_t next_cpu = i < mark_cpu_.size() ? mark_cpu_[i] : end_cpu;
    wall_s->push_back(static_cast<double>(next_wall - wall) * 1e-9);
    cpu_s->push_back(static_cast<double>(next_cpu - cpu) * 1e-9);
    wall = next_wall;
    cpu = next_cpu;
  }
}

}  // namespace perfbench
