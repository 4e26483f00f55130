// Structured fault-injection harness for the sharded worker fleet.
//
// The sharded engine's failure contract (sharded_epp.hpp) is only as good as
// the faults the tests can actually produce. The SEREEP_FAULT_PLAN
// environment variable (which replaced the single SEREEP_WORKER_FAIL_AFTER
// hook) carries a PLAN: a semicolon-separated list of directives, each
// binding one fault mode to one worker SPAWN ORDINAL — the 0-based order in
// which the supervisor dispatched jobs within one sweep, counting retry
// re-dispatches after the initial fan-out. The ordinal arrives in the job
// frame (ShardJob::spawn), and the worker child serving that connection
// reads the plan from the environment it inherited from its `sereep worker
// --listen` process, so a plan like
//
//   SEREEP_FAULT_PLAN="0:die-after-frames=1;3:hang"
//
// kills the first dispatch's worker after it streamed one result frame and
// hangs the fourth dispatch's (e.g. the second retry) forever, while every
// other worker runs clean. A sweep's local fleet inherits the plan from the
// sweeping process; remote workers must be started with it. Grammar
// (documented for test authors in tests/README.md):
//
//   plan       := directive (';' directive)*
//   directive  := spawn ':' mode ['=' arg]
//   spawn      := non-negative integer (global spawn ordinal, one sweep)
//   mode       := exit                  die right after reading the job
//                                       frame, before any response
//               | die-before-handshake  read the job, die before kHello
//               | die-after-frames=N    die after N streamed result frames
//               | die-before-done       stream everything, die before kDone
//               | hang[=N]              stop progressing after N result
//                                       frames (default 0) — SIGKILL bait
//                                       for the supervisor's deadline
//               | slow-stream=MS        sleep MS ms before each result frame
//               | corrupt-frame[=N]     after N clean result frames, emit a
//                                       garbage frame and die
//
// Parsing is strict: a malformed plan is an error the worker reports loudly
// (kError frame + non-zero exit), never a silently ignored typo — a fault
// schedule that does not run would make the fault tests vacuous.
//
// This is a TEST harness: production deployments simply leave the variable
// unset (the parse cost of an absent variable is zero).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sereep {

/// What a faulted worker does, and when.
enum class FaultMode : std::uint8_t {
  kExit,                ///< _exit right after reading the job
  kDieBeforeHandshake,  ///< read the job, _exit before the kHello frame
  kDieAfterFrames,      ///< _exit after `arg` streamed result frames
  kDieBeforeDone,       ///< stream every result frame, _exit before kDone
  kHang,                ///< stop progressing after `arg` result frames
  kSlowStream,          ///< sleep `arg` ms before each result frame
  kCorruptFrame,        ///< after `arg` clean frames, write garbage and _exit
};

/// One directive of a fault plan.
struct FaultSpec {
  unsigned spawn = 0;                    ///< dispatch ordinal this binds to
  FaultMode mode = FaultMode::kExit;
  long arg = 0;                          ///< frames / milliseconds, per mode
};

/// A parsed SEREEP_FAULT_PLAN value.
struct FaultPlan {
  std::vector<FaultSpec> directives;  ///< in plan order

  /// The directive bound to `spawn`, if any (first match wins).
  [[nodiscard]] std::optional<FaultSpec> for_spawn(unsigned spawn) const;
};

/// Parses a plan string. Throws std::runtime_error naming the offending
/// directive on any malformed input: unknown modes, missing / trailing /
/// non-numeric arguments, negative frame counts, duplicate spawn ordinals.
/// An empty string parses to an empty plan.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view text);

/// The plan the environment carries: SEREEP_FAULT_PLAN parsed, or an empty
/// plan when the variable is unset. Throws like parse_fault_plan on a
/// malformed value.
[[nodiscard]] FaultPlan fault_plan_from_env();

/// Canonical name of a mode ("die-after-frames", ...), for diagnostics.
[[nodiscard]] std::string_view fault_mode_name(FaultMode mode) noexcept;

}  // namespace sereep
