// Multi-process supervisor for the distributed (socket) deployment.
//
// The paper evaluated its protocol on real hosts (iPAQ / Toughbook over
// wireless); this module reproduces that deployment shape on one machine:
// the manager and each agent run as separate OS processes (`sa_node`
// binaries) talking over SocketTransport on 127.0.0.1, and the supervisor
//
//   * writes the JSON topology file and spawns every node,
//   * runs the endpoint exchange (each node binds an ephemeral port and
//     reports it in a `<name>.port` file; the supervisor collects them into
//     `endpoints.json`, which every node polls for before sending),
//   * executes FaultPlan Crash windows as REAL process faults: `kill -9` at
//     the window open, re-exec at the window close (the respawned agent
//     recovers §4.4-style from its on-disk journal),
//   * reaps children (no zombies), propagates nonzero exits, and collects
//     per-node artifacts: result.json, state files, and wall-clock-stamped
//     trace files merged into one cross-process conformance trace.
//
// The high-level entry point run_distributed_paper() drives the paper's §5
// scenario (1 manager + 3 agents) end to end and returns everything the
// campaign oracles need; sa_run --distributed and the socket fuzz backend
// are thin wrappers around it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "runtime/time.hpp"
#include "runtime/transport.hpp"

namespace sa::core {

/// Low-level child-process lifecycle: spawn / kill / reap. Used directly by
/// tests; run_distributed_paper() builds on it.
class Supervisor {
 public:
  Supervisor() = default;
  ~Supervisor();  ///< SIGKILLs and reaps anything still alive
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  struct Exit {
    pid_t pid = -1;
    std::string name;
    bool signaled = false;
    int code = 0;  ///< exit status, or the terminating signal when signaled
  };

  /// fork/execs `program` with `args` (argv[1..]), stdout+stderr appended to
  /// `log_path`. Returns the child pid; throws std::runtime_error when the
  /// fork fails (an exec failure surfaces as exit code 127).
  pid_t spawn(const std::string& program, const std::vector<std::string>& args,
              const std::string& name, const std::string& log_path);

  /// SIGKILL. True if the signal was delivered to a live child of ours.
  bool kill9(pid_t pid);

  /// Nonblocking reap of every exited child (waitpid WNOHANG loop); each
  /// exit is returned exactly once.
  std::vector<Exit> poll_exits();

  /// Blocking, deadline-bounded reap: waits until at least one live child
  /// has exited or `timeout` real time passes, then reaps like poll_exits().
  /// Empty only on timeout or when no child is live. The wait sleeps on each
  /// child's pidfd, so an exit wakes it at once; a child without one (kernel
  /// before Linux 5.3) is re-checked every millisecond instead.
  std::vector<Exit> wait_exits(runtime::Time timeout);

  /// True while the child exists and has not been reaped.
  bool alive(pid_t pid) const;

  /// Blocks until `pid` exits (reaping it) or `timeout` real time passes.
  /// Returns the Exit, or std::nullopt-like sentinel pid=-1 on timeout.
  Exit wait_exit(pid_t pid, runtime::Time timeout);

  /// SIGTERM every live child, wait `grace` for each, then SIGKILL + reap
  /// stragglers. Returns all exits (forced ones report signaled SIGKILL).
  std::vector<Exit> terminate_all(runtime::Time grace);

  std::size_t live_count() const { return live_.size(); }

 private:
  struct Child {
    std::string name;
    int pidfd = -1;  ///< readable once the child exits; -1 if unavailable
  };
  std::map<pid_t, Child> live_;
};

/// One Crash window translated to supervisor actions: kill -9 the named node
/// `start` after the run begins, re-exec it at `end`.
struct CrashWindow {
  runtime::Time start = 0;
  runtime::Time end = 0;
  std::string node;
};

struct DistributedOptions {
  std::uint64_t seed = 42;
  /// Path to the sa_node binary; empty = discover (SA_NODE env var, then
  /// next to /proc/self/exe).
  std::string sa_node;
  /// Working directory for topology/artifacts; empty = fresh mkdtemp.
  std::string workdir;
  /// Scenario forwarded to the manager; "paper" is the only distributed one.
  std::string scenario = "paper";
  /// FaultPlan JSON forwarded verbatim to every node (Crash events inside it
  /// are ignored by nodes — list them in `crashes` instead). Empty = no plan.
  std::string plan_json;
  std::vector<CrashWindow> crashes;
  /// Manager mutation-gate name (check::to_string(ManagerFault)); empty = none.
  std::string manager_fault;
  /// Cap on the manager process's lifetime (real time).
  runtime::Time max_wait = runtime::seconds(60);
  bool keep_workdir = false;
};

struct DistributedReport {
  /// Infrastructure verdict: spawns, exits, timeouts, artifact parsing. A
  /// run can be infra-clean and still violate protocol oracles (and vice
  /// versa); `infra_errors` feed the campaign as "supervisor:" violations.
  bool infra_ok = true;
  std::vector<std::string> infra_errors;

  // --- manager's result.json -------------------------------------------------
  std::string outcome;  ///< to_string(AdaptationOutcome), "" when missing
  std::uint64_t final_config_bits = 0;
  std::vector<std::string> committed_actions;
  std::uint64_t steps_committed = 0;
  std::uint64_t step_failures = 0;
  runtime::Time total_blocked = 0;

  /// name -> AgentState string from each agent's shutdown state file.
  std::map<std::string, std::string> agent_states;
  /// name -> recovery journal replays observed (respawn evidence).
  std::map<std::string, std::uint64_t> agent_recoveries;

  /// All nodes' delivered/dropped control messages, decoded and merged by
  /// wall-clock epoch — the input to the cross-process conformance check.
  std::vector<runtime::TraceEntry> merged_trace;

  std::uint64_t kills = 0;     ///< crash-window SIGKILLs executed
  std::uint64_t respawns = 0;  ///< crash-window re-execs executed
  double wall_ms = 0.0;
  std::string workdir;  ///< retained when keep_workdir or infra errors
};

/// Locates the sa_node binary: $SA_NODE, else "sa_node" beside the calling
/// executable, else "" (caller must error out).
std::string find_sa_node();

/// Node names used by the distributed paper scenario, in topology order:
/// {"manager", "server-agent", "handheld-agent", "laptop-agent"}. The name's
/// index IS its NodeId; agents map to processes 0..2 in order.
const std::vector<std::string>& distributed_paper_nodes();

/// Runs the paper's 1-manager/3-agent scenario as real processes end to end.
DistributedReport run_distributed_paper(const DistributedOptions& options);

}  // namespace sa::core
