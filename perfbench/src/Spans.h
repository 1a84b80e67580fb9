//===- perfbench/src/Spans.h - In-memory span recorder ---------*- C++ -*-===//
///
/// \file
/// Spans the benchmark records around its own calls into each layer of the
/// library: name, start, end, parent span and request id. They are kept in
/// memory and written at exit as Chrome trace-event JSON, which Perfetto or
/// chrome://tracing opens as a timeline. A layer's self time is its span
/// minus the spans nested in it.
///
/// Spans go to the recorder installed in ActiveRecorder; with none
/// installed (the untraced run) opening a Span costs one pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name;
  int64_t StartNs, EndNs;
  int64_t Id, Parent, Request; ///< Parent 0: a root span.
  int Thread;
};

/// Each recording thread appends to a buffer of its own, so client threads
/// never contend on the recorder. The read side (durations, export, the
/// self-time table) must run while no thread records.
class SpanRecorder {
public:
  void add(const SpanRecord &R);

  /// Durations in seconds of every span named \p Name.
  std::vector<double> durations(const std::string &Name) const;

  /// Writes every span as Chrome trace-event JSON ("X" events, times in
  /// microseconds); false when the file cannot be written.
  bool writeChromeTrace(const std::string &Path) const;

  /// Per span name: count, median duration, median self time and total
  /// self time.
  void printSelfTimes(FILE *Out) const;

private:
  std::vector<SpanRecord> all() const;

  mutable std::mutex Mu; ///< Guards Buffers (registration and reads).
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> Buffers;
};

/// Where spans go; null while tracing is off. Set only while no benchmark
/// thread runs (threads are started after and joined before a change).
extern SpanRecorder *ActiveRecorder;

/// Monotonic nanoseconds.
int64_t nowNs();

/// The request id that spans the calling thread opens from now on carry.
void setCurrentRequest(int64_t Id);

/// RAII span: opened at construction, closed and recorded at destruction.
/// Spans opened while it is alive on the same thread become its children.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecorder *Rec;
  const char *Name;
  int64_t Id = 0, Parent = 0, StartNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
