// The four perfbench workloads. Each has up to two entry points:
//
//   *_e2e     the untraced run: measures the end-to-end metrics the workload
//             defines for `opts.seconds` and gates every operation's output.
//             dataplane-swap has none; it runs only traced.
//   *_layers  one traced pass: per-layer metrics, the layer split of the
//             traced end-to-end time (`unattributed_us.<workload>`), and the
//             same loop untraced (`bench.trace_overhead_pct.<workload>`). The
//             primary pass (the workload named on the command line) runs for
//             `opts.seconds`; secondary passes run briefly so that every
//             traced run reports every layer.
//
// `threads` is the most threads a workload keeps runnable at once; main
// rejects a workload whose count exceeds the host's CPUs.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::size_t threads = 1;
  void (*e2e)(const RunOptions& opts, Result& result);  ///< null: traced only
  void (*layers)(const RunOptions& opts, bool primary, Result& result);
};

const std::vector<Workload>& workloads();

void paper_socket_e2e(const RunOptions& opts, Result& result);
void paper_socket_layers(const RunOptions& opts, bool primary, Result& result);

void fleet_e2e(const RunOptions& opts, Result& result);
void fleet_layers(const RunOptions& opts, bool primary, Result& result);

void dataplane_layers(const RunOptions& opts, bool primary, Result& result);

void check_pair_e2e(const RunOptions& opts, Result& result);
void check_pair_layers(const RunOptions& opts, bool primary, Result& result);

/// Traced-pass helper: `traced` and `untraced` are per-operation wall times
/// of the same loop with tracing on and off.
inline double overhead_pct(double traced, double untraced) {
  return untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

}  // namespace perfbench
