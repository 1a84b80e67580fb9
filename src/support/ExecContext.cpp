//===- support/ExecContext.cpp --------------------------------*- C++ -*-===//

#include "support/ExecContext.h"

#include <algorithm>
#include <atomic>

#include "support/ThreadPool.h"

using namespace distal;

namespace {
std::atomic<int> ActiveExecs{0};
std::atomic<int> PeakExecs{0};
} // namespace

ExecutionSlot::ExecutionSlot()
    : Claimed(ActiveExecs.fetch_add(1, std::memory_order_relaxed) + 1) {
  int Peak = PeakExecs.load(std::memory_order_relaxed);
  while (Claimed > Peak &&
         !PeakExecs.compare_exchange_weak(Peak, Claimed,
                                          std::memory_order_relaxed))
    ;
}

ExecutionSlot::~ExecutionSlot() {
  ActiveExecs.fetch_sub(1, std::memory_order_relaxed);
}

int ExecutionSlot::budget(int ConfiguredThreads) const {
  return std::max(1, ConfiguredThreads / std::max(1, Claimed));
}

int ExecutionSlot::activeExecutions() {
  return ActiveExecs.load(std::memory_order_relaxed);
}

int ExecutionSlot::peakActiveExecutions() {
  return PeakExecs.load(std::memory_order_relaxed);
}

void ExecutionSlot::resetPeakActiveExecutions() {
  PeakExecs.store(ActiveExecs.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

ExecContext::ExecContext(int NumThreads)
    : NumThreads(NumThreads > 0 ? NumThreads : defaultExecutorThreads()) {
  if (this->NumThreads <= 1)
    return;
  if (this->NumThreads == defaultExecutorThreads()) {
    Resolved = &ThreadPool::global();
  } else {
    Owned = std::make_unique<ThreadPool>(this->NumThreads);
    Resolved = Owned.get();
  }
}

ExecContext::~ExecContext() = default;

ExecContext::Split ExecContext::splitFor(int64_t NumTasks) const {
  if (NumThreads <= 1 || NumTasks <= 0)
    return {};
  return {static_cast<int>(std::min<int64_t>(NumTasks, NumThreads)),
          NumThreads};
}
