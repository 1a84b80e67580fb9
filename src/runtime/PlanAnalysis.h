//===- runtime/PlanAnalysis.h - Compile-phase plan analysis ----*- C++ -*-===//
///
/// \file
/// The compile phase of the execution engine: one sequential walk of a
/// Plan's bulk-synchronous structure computes everything data-independent —
/// the trace skeleton (messages with systolic relay detection, per-proc
/// work, peak memory) exactly as the Simulator sees it, and the per-task
/// gather program the execute phase replays. Runs once per CompiledPlan,
/// never on the steady-state path.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_RUNTIME_PLANANALYSIS_H
#define DISTAL_RUNTIME_PLANANALYSIS_H

#include <vector>

#include "runtime/CompiledPlan.h"

namespace distal {

/// Everything the compile phase derives from (Plan, Mapper).
struct PlanAnalysisResult {
  Trace Skeleton;
  std::vector<CompiledTask> Tasks;
  std::vector<std::vector<std::pair<IndexVar, Coord>>> StepVals;
};

PlanAnalysisResult analyzePlan(const Plan &P, const Mapper &Map);

/// One cross-statement dependency of a program task: the consumer task may
/// only start once this producer node has completed. Task == -1 names the
/// producer statement's writeback (End) node — required when the producer
/// merges its output through instance buffers; a producer task that writes
/// the region in place (program-aliased output) is depended on directly.
struct ProgramDep {
  int32_t Stmt = 0;
  int32_t Task = -1;
  bool operator<(const ProgramDep &O) const {
    return Stmt != O.Stmt ? Stmt < O.Stmt : Task < O.Task;
  }
  bool operator==(const ProgramDep &O) const {
    return Stmt == O.Stmt && Task == O.Task;
  }
};

/// Program-level overrides for one task of one member statement, derived by
/// producer/consumer residency linking (see analyzeProgramLinks).
struct ProgramTaskLinks {
  /// Aligned with CompiledTask::LaunchGathers: 1 downgrades the recorded
  /// copy to a zero-copy Region view (the rectangle is covered by the
  /// producer statement's output residency on this very processor).
  std::vector<uint8_t> LaunchView;
  /// Aligned with CompiledTask::StepGathers, same meaning per step.
  std::vector<std::vector<uint8_t>> StepView;
  /// 1: program-aliased output — the task's accumulator binds the output
  /// region in place and its writeback is elided (every external reader of
  /// the rectangle is a co-located, link-elided consumer task).
  uint8_t OutView = 0;
  /// Cross-statement read-after-write dependencies of this task.
  std::vector<ProgramDep> Deps;
};

/// Per-statement linking result.
struct ProgramStmtLinks {
  std::vector<ProgramTaskLinks> Tasks;
  /// Indices of earlier statements whose writeback (End) node must complete
  /// before this statement's output region may be zeroed (WAR/WAW hazards
  /// on the output tensor).
  std::vector<int32_t> ZeroDeps;
};

/// Everything program linking derives from an ordered statement chain.
struct ProgramLinkResult {
  std::vector<ProgramStmtLinks> Stmts;
  int64_t ElidedGathers = 0;        ///< Interior gathers downgraded to views.
  int64_t ElidedGatherBytes = 0;    ///< Bytes those gathers stop copying.
  int64_t ElidedWritebackTasks = 0; ///< Tasks whose writeback is elided.
  int64_t ElidedWritebackBytes = 0; ///< Bytes those writebacks stop merging.
};

/// Links an ordered chain of compiled statements by producer/consumer
/// residency: a consumer gather rectangle covered by the producing
/// statement's output residency on the same processor is downgraded to a
/// zero-copy view, an interior output whose readers are all co-located
/// link-elided consumers writes the region in place (writeback elided), and
/// every task receives the cross-statement dependencies that make the
/// program's task graph equivalent to sequential statement-by-statement
/// execution. Pure compile-time analysis; runs once per CompiledProgram.
ProgramLinkResult
analyzeProgramLinks(const std::vector<const CompiledPlan *> &Members);

/// True when every point of \p R lies in some rectangle of \p Cover.
bool coveredByUnion(const Rect &R, const std::vector<Rect> &Cover);

/// Messages needed to materialise rectangle \p R of tensor \p T in the
/// memory of \p DstProc, fetching each piece from the replica nearest the
/// destination (exposed for testing the communication analysis).
std::vector<Message> planGatherMessages(const Plan &P, const TensorVar &T,
                                        const Rect &R, const Point &DstProc);

} // namespace distal

#endif // DISTAL_RUNTIME_PLANANALYSIS_H
