// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--fault NAME] [--provenance JSON] [--spans-out PATH]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics the workload defines;
// with --trace 1 they are the per-layer metrics of every workload (the named
// workload's pass runs for the full --seconds, the others briefly), each
// workload's unattributed time and tracing overhead. Lines before it are
// diagnostics: a provenance stamp, the layer split, and any correctness
// problems.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"paper-socket", 4, paper_socket_e2e, paper_socket_layers},
      {"fleet", 1, fleet_e2e, fleet_layers},
      {"dataplane-swap", 4, nullptr, dataplane_layers},
      {"check-pair", 1, check_pair_e2e, check_pair_layers},
  };
  return all;
}

namespace {

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct && result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                json_escape(name).c_str(), value, json_escape(metric.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--fault NAME] [--provenance JSON] [--spans-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  std::string workload_name, provenance = "{}", spans_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value == "1";
      } else if (arg == "--fault") {
        opts.fault = value;
      } else if (arg == "--provenance") {
        provenance = value;
      } else if (arg == "--spans-out") {
        spans_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!(opts.seconds > 0)) return usage();

  const Workload* selected = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == workload_name) selected = &w;
  }
  if (selected == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", workload_name.c_str());
    return usage();
  }
  if (!opts.trace && selected->e2e == nullptr) {
    std::fprintf(stderr, "perfbench: %s runs only traced (--trace 1)\n", workload_name.c_str());
    return 2;
  }
  // A traced run also runs every other workload's pass, one after another.
  std::size_t threads = selected->threads;
  if (opts.trace) {
    for (const Workload& w : workloads()) threads = std::max(threads, w.threads);
  }
  const std::size_t cpus = cpu_count();
  if (threads > cpus) {
    std::fprintf(stderr, "perfbench: %s needs %zu threads but only %zu CPUs are available\n",
                 selected->name.c_str(), threads, cpus);
    return 3;
  }
  std::printf(
      "provenance: {\"build\": %s, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %zu, \"workload\": \"%s\", \"threads\": %zu, \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      provenance.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, cpus, selected->name.c_str(),
      threads, static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0);
  std::fflush(stdout);

  Result result;
  try {
    if (!opts.trace) {
      selected->e2e(opts, result);
      result.set("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      selected->layers(opts, /*primary=*/true, result);
      for (const Workload& w : workloads()) {
        if (&w != selected) w.layers(opts, /*primary=*/false, result);
      }
      if (!spans_out.empty() && !Tracer::instance().write_archive(spans_out)) {
        result.fail("cannot write spans to " + spans_out);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& problem : result.problems) std::printf("problem: %s\n", problem.c_str());
  if (result.failed > 0) {
    std::printf("problem: %llu of %llu operations failed their correctness gate\n",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted));
  }
  print_result(result);
  return 0;
}
