//===- runtime/CompiledProgram.cpp ----------------------------*- C++ -*-===//
//
// Whole-program linking: the constructor runs the residency analysis
// (analyzeProgramLinks) over the member statements once, and the
// program's ExecEngine then walks every member's zero, task and end nodes
// as one dependency graph with two link-time overrides: a tier-A consumer
// gather binds the producer's region bytes as a zero-copy view instead of
// copying them, and a tier-B producer task binds the output region in
// place so its writeback merge vanishes. Both overrides are
// byte-transparent: Region storage is one dense row-major array whatever
// the distribution, a viewed rectangle reads the same bytes a copy would
// have snapshotted (the graph orders the read after the bytes are final),
// and an exclusive in-place writer over a pre-zeroed region produces the
// bytes the merge would have produced. With views off, execution uses the
// conservative barrier graph (every cross-statement edge through the
// producer's end node) and no overrides — the differential reference path.
//
//===----------------------------------------------------------------------===//

#include "runtime/CompiledProgram.h"

#include <algorithm>

#include "support/Error.h"

using namespace distal;

CompiledProgram::CompiledProgram(
    std::vector<std::shared_ptr<CompiledPlan>> Ms)
    : Members(std::move(Ms)) {
  if (Members.empty())
    throwError(ErrorCode::InvalidArgument,
               "CompiledProgram requires at least one statement");
  for (const std::shared_ptr<CompiledPlan> &M : Members)
    if (!M)
      throwError(ErrorCode::InvalidArgument,
                 "CompiledProgram member artifact is null");

  std::vector<const CompiledPlan *> Raw;
  Raw.reserve(Members.size());
  for (const std::shared_ptr<CompiledPlan> &M : Members)
    Raw.push_back(M.get());
  Link = analyzeProgramLinks(Raw);

  // Link stats: elision counts from the analysis; the dependency split
  // counts only pass-3 consumer edges (WAR/WAW zero edges are inherent in
  // both execution styles and are not a linking outcome).
  Links.ElidedGathers = Link.ElidedGathers;
  Links.ElidedGatherBytes = Link.ElidedGatherBytes;
  Links.ElidedWritebackTasks = Link.ElidedWritebackTasks;
  Links.ElidedWritebackBytes = Link.ElidedWritebackBytes;
  for (const ProgramStmtLinks &SL : Link.Stmts)
    for (const ProgramTaskLinks &TL : SL.Tasks)
      for (const ProgramDep &D : TL.Deps)
        ++(D.Task >= 0 ? Links.DirectDeps : Links.BarrierDeps);

  // Linked data-movement volume: member sums with the link-elided bytes
  // shifted into the elided buckets.
  for (const std::shared_ptr<CompiledPlan> &M : Members) {
    CompiledPlan::DataMovementStats D = M->dataMovementStats();
    Movement.GatheredBytes += D.GatheredBytes;
    Movement.ElidedBytes += D.ElidedBytes;
    Movement.WritebackBytes += D.WritebackBytes;
    Movement.WritebackElidedBytes += D.WritebackElidedBytes;
  }
  Movement.GatheredBytes -= Link.ElidedGatherBytes;
  Movement.ElidedBytes += Link.ElidedGatherBytes;
  Movement.WritebackBytes -= Link.ElidedWritebackBytes;
  Movement.WritebackElidedBytes += Link.ElidedWritebackBytes;

  // The unlinked per-statement skeleton, concatenated in program order.
  for (const std::shared_ptr<CompiledPlan> &M : Members) {
    const Trace &T = M->trace();
    Skeleton.Phases.insert(Skeleton.Phases.end(), T.Phases.begin(),
                           T.Phases.end());
    Skeleton.NumProcs = std::max(Skeleton.NumProcs, T.NumProcs);
    for (const auto &[Proc, Bytes] : T.PeakMemBytes) {
      int64_t &Slot = Skeleton.PeakMemBytes[Proc];
      Slot = std::max(Slot, Bytes);
    }
  }
  Engine.emplace(std::move(Raw), &Link, Skeleton);
}

CompiledProgram::~CompiledProgram() = default;

int64_t CompiledProgram::footprintBytes() const {
  // Linking overhead only: the member artifacts are charged by their own
  // cache entries, so a program entry adds just the graphs and link
  // records it built on top of them.
  int64_t Sum = static_cast<int64_t>(sizeof(*this)) +
                Engine->footprintBytes();
  for (const ProgramStmtLinks &SL : Link.Stmts)
    for (const ProgramTaskLinks &TL : SL.Tasks) {
      Sum += static_cast<int64_t>(sizeof(ProgramTaskLinks));
      Sum += static_cast<int64_t>(TL.Deps.size() * sizeof(ProgramDep));
      Sum += static_cast<int64_t>(TL.LaunchView.size());
      for (const auto &Step : TL.StepView)
        Sum += static_cast<int64_t>(Step.size());
    }
  return Sum;
}

void CompiledProgram::execute(const std::map<TensorVar, Region *> &Regions,
                              const ExecOptions &Opts) {
  Status S = tryExecute(Regions, Opts);
  if (!S.ok())
    throwStatus(std::move(S));
}

Status CompiledProgram::tryExecute(const std::map<TensorVar, Region *> &Regions,
                                   const ExecOptions &Opts) {
  return Engine->tryExecute(Regions, nullptr, Opts);
}
