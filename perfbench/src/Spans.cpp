//===- perfbench/src/Spans.cpp --------------------------------*- C++ -*-===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>

#include "Stats.h"

using namespace perfbench;

SpanRecorder *perfbench::ActiveRecorder = nullptr;

namespace {

thread_local int64_t CurrentParent = 0;
thread_local int64_t CurrentRequest = 0;

int threadIndex() {
  static std::atomic<int> Next{0};
  thread_local int Index = Next++;
  return Index;
}

/// Unique across threads without a lock: thread index in the high bits.
int64_t nextSpanId() {
  thread_local int64_t Local = 0;
  return (static_cast<int64_t>(threadIndex() + 1) << 32) | ++Local;
}

/// The calling thread's buffer in the recorder it last recorded into.
thread_local const SpanRecorder *BufferOwner = nullptr;
thread_local std::vector<SpanRecord> *Buffer = nullptr;

} // namespace

int64_t perfbench::nowNs() {
  using namespace std::chrono;
  return duration_cast<nanoseconds>(steady_clock::now().time_since_epoch())
      .count();
}

void perfbench::setCurrentRequest(int64_t Id) { CurrentRequest = Id; }

void SpanRecorder::add(const SpanRecord &R) {
  if (BufferOwner != this) {
    std::lock_guard<std::mutex> Lock(Mu);
    Buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    Buffer = Buffers.back().get();
    BufferOwner = this;
  }
  Buffer->push_back(R);
}

std::vector<SpanRecord> SpanRecorder::all() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<SpanRecord> Out;
  for (const auto &B : Buffers)
    Out.insert(Out.end(), B->begin(), B->end());
  std::sort(Out.begin(), Out.end(),
            [](const SpanRecord &A, const SpanRecord &B) {
              return A.StartNs < B.StartNs;
            });
  return Out;
}

std::vector<double> SpanRecorder::durations(const std::string &Name) const {
  std::vector<double> Out;
  for (const SpanRecord &S : all())
    if (Name == S.Name)
      Out.push_back((S.EndNs - S.StartNs) * 1e-9);
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::vector<SpanRecord> Spans = all();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"request\":%lld}}%s\n",
                 S.Name, S.Thread, (S.StartNs - Origin) * 1e-3,
                 (S.EndNs - S.StartNs) * 1e-3, static_cast<long long>(S.Id),
                 static_cast<long long>(S.Parent),
                 static_cast<long long>(S.Request),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

void SpanRecorder::printSelfTimes(FILE *Out) const {
  std::vector<SpanRecord> Spans = all();
  // Children nest on their parent's thread, so they never overlap each
  // other and self time is the duration minus the children's durations.
  std::map<int64_t, int64_t> ChildNs;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      ByName;
  for (const SpanRecord &S : Spans) {
    double Dur = (S.EndNs - S.StartNs) * 1e-6;
    auto It = ChildNs.find(S.Id);
    double Self = Dur - (It == ChildNs.end() ? 0 : It->second * 1e-6);
    ByName[S.Name].first.push_back(Dur);
    ByName[S.Name].second.push_back(Self);
  }
  std::fprintf(Out, "  %-26s %8s %14s %14s %14s\n", "span", "count",
               "median_ms", "median_self_ms", "total_self_ms");
  for (const auto &[Name, D] : ByName) {
    double Total = 0;
    for (double S : D.second)
      Total += S;
    std::fprintf(Out, "  %-26s %8zu %14.4f %14.4f %14.2f\n", Name.c_str(),
                 D.first.size(), median(D.first), median(D.second), Total);
  }
}

Span::Span(const char *Name) : Rec(ActiveRecorder), Name(Name) {
  if (!Rec)
    return;
  Id = nextSpanId();
  Parent = CurrentParent;
  CurrentParent = Id;
  StartNs = nowNs();
}

Span::~Span() {
  if (!Rec)
    return;
  int64_t EndNs = nowNs();
  CurrentParent = Parent;
  Rec->add({Name, StartNs, EndNs, Id, Parent, CurrentRequest, threadIndex()});
}
