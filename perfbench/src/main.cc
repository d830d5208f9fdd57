// perfbench: end-to-end (untraced) and per-layer (traced) benchmark of the
// headroom libraries. Run from the repository root:
//
//   perfbench --workload serve_library|plan_library
//             --seed N --seconds S --trace 0|1
//   perfbench --report-digests
//
// Prints a host-speed reference line, then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}. Exit code 2 means
// bad arguments or missing inputs; no JSON is printed then.
// --report-digests prints the contents of perfbench/serve_reports.fnv: the
// digest of serve's report lines for each library scenario at seed 5.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "scenario/serve.h"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage("bad value for " + flag + ": '" + value + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

int print_report_digests() {
  const headroom::scenario::ServeRunner runner;
  for (const std::string& name : perfbench::library_names()) {
    perfbench::EmitClock clock;
    (void)runner.serve(
        perfbench::load_spec("examples/scenarios/" + name + ".scn",
                             perfbench::kGoldenSeed, 1),
        clock.emitter());
    std::printf("%016llx  %s\n",
                static_cast<unsigned long long>(clock.digest()), name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--report-digests") {
    try {
      return print_report_digests();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 2;
    }
  }
  const perfbench::Options options = parse(argc, argv);
  perfbench::Metrics metrics;
  perfbench::Ops ops;
  std::printf("perfbench: host_ref_ms=%.3f\n", perfbench::host_reference_ms());
  std::fflush(stdout);
  try {
    if (options.trace) {
      perfbench::run_traced(options, metrics, ops);
    } else {
      perfbench::run_timed(options, metrics, ops);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              ops.failed() == 0 && ops.attempted() > 0 ? "true" : "false",
              ops.attempted(), ops.failed(), metrics.json().c_str());
  return 0;
}
