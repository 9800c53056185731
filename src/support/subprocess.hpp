// Process-level crash isolation for mapper attempts.
//
// SafeMap (src/engine) converts thrown C++ exceptions into kInternal
// failures, but the survey's exact mappers can fail harder than that:
// a SIGSEGV in monomorphism enumeration, a stack overflow in recursive
// B&B, an allocation bomb in clause learning, or a hard infinite loop
// that ignores every StopToken poll. Any of those takes down the whole
// cgra_serve daemon and every in-flight request with it. RunInSandbox
// moves the isolation boundary to the process: one fork()ed worker per
// attempt, resource caps via setrlimit, a parent-side watchdog with a
// deadline kill, and a byte-payload pipe back to the parent.
//
// Deliberately exec-free: the child inherits the parent's memory image,
// so the work closure runs directly on the already-built Dfg /
// Architecture objects — no argv re-parsing, no re-serialisation of
// inputs, and the wire format on the pipe stays the caller's choice
// (the engine ships SerializeMapping bytes; see engine/sandbox.hpp).
//
// fork() in a threaded parent is restricted: only the forking thread
// survives, and another thread may hold a malloc/mutex lock at the
// fork instant. glibc reinitialises its allocator locks across fork,
// and the closure must not touch caller-provided locks that other
// parent threads use (the engine nulls out the observer before
// entering the child). The watchdog's SIGKILL is the
// backstop: a child that deadlocks anyway is classified kTimeout, not
// hung forever.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "support/stop_token.hpp"
#include "support/timer.hpp"

namespace cgra {

/// Resource caps applied inside the child before the work runs.
/// 0 = leave that limit untouched (inherit the parent's).
struct SandboxLimits {
  /// RLIMIT_CPU, seconds of CPU time. The kernel sends SIGXCPU at the
  /// soft limit and SIGKILL one second later at the hard limit; both
  /// are classified kTimeout.
  long cpu_seconds = 0;

  /// RLIMIT_AS, bytes of virtual address space. Linux does not enforce
  /// RLIMIT_RSS, so the address-space cap is the enforceable proxy for
  /// a resident-memory budget: an alloc bomb gets ENOMEM/bad_alloc
  /// instead of dragging the host into swap. Applied after fork(), so
  /// the parent's existing mappings (inherited copy-on-write) are
  /// never at risk.
  long memory_bytes = 0;

  /// RLIMIT_STACK, bytes. Turns runaway recursion into a clean
  /// SIGSEGV inside the child instead of silent stack corruption.
  long stack_bytes = 0;
};

/// How a sandboxed attempt ended, from the parent's point of view.
enum class SandboxCrash {
  kNone,         ///< clean exit 0 with a payload on the pipe
  kSignal,       ///< killed by a signal (SIGSEGV, SIGABRT, SIGBUS, ...)
  kOom,          ///< allocation failure (std::bad_alloc under the rlimit)
  kTimeout,      ///< watchdog wall-deadline kill, or the CPU rlimit fired
  kWireCorrupt,  ///< exited 0 but the payload is missing or undecodable
  kExit,         ///< nonzero exit status with no finer classification
  kCancelled,    ///< StopToken fired; the child was killed mid-attempt
  kSpawnFailed,  ///< fork()/pipe() itself failed (EAGAIN, EMFILE, ...)
};

/// Stable machine-readable name ("signal", "oom", ...), used by trace
/// serialisers, metrics labels and the chaos gate.
std::string_view SandboxCrashName(SandboxCrash crash);

/// "SIGSEGV" / "SIGXCPU" / ... for the common fatal signals, "SIG<n>"
/// otherwise.
std::string SignalName(int sig);

struct SandboxOutcome {
  SandboxCrash crash = SandboxCrash::kSpawnFailed;
  int signal = 0;       ///< terminating signal when kSignal/kTimeout
  int exit_code = -1;   ///< exit status when the child exited normally
  double seconds = 0.0; ///< child wall time (fork to reap)
  std::string payload;  ///< bytes the work closure returned, when kNone
  std::string detail;   ///< human-readable classification

  bool ok() const { return crash == SandboxCrash::kNone; }
};

/// Runs `work` in a fork()ed child under `limits`, shipping its
/// returned bytes back through a pipe. The parent drains the pipe with
/// a poll loop that doubles as the watchdog: when `deadline` expires
/// or `stop` fires the child is SIGKILLed and the outcome classified
/// kTimeout / kCancelled. A child that exits 0 without writing a
/// payload is kWireCorrupt (the pipe is the contract). Inside the
/// child, std::bad_alloc escaping `work` exits with a reserved code
/// the parent classifies kOom; any other escaping exception is a
/// distinct reserved code folded into kExit (the engine's closure
/// catches exceptions itself and encodes them in the payload, so that
/// path only triggers for broken closures).
SandboxOutcome RunInSandbox(const std::function<std::string()>& work,
                            const SandboxLimits& limits,
                            const Deadline& deadline, StopToken stop = {});

}  // namespace cgra
