//===- machine/Machine.cpp ------------------------------------*- C++ -*-===//

#include "machine/Machine.h"

#include <sstream>

#include "support/Util.h"

using namespace distal;

std::string distal::toString(ProcessorKind Kind) {
  switch (Kind) {
  case ProcessorKind::CPUSocket:
    return "cpu";
  case ProcessorKind::GPU:
    return "gpu";
  }
  unreachable("unknown processor kind");
}

std::string distal::toString(MemoryKind Kind) {
  switch (Kind) {
  case MemoryKind::SystemMem:
    return "sysmem";
  case MemoryKind::GPUFrameBuffer:
    return "fbmem";
  }
  unreachable("unknown memory kind");
}

int64_t MachineLevel::size() const { return product(Dims); }

Machine::Machine(std::vector<MachineLevel> Levels) : Levels(std::move(Levels)) {
  DISTAL_ASSERT(!this->Levels.empty(), "machine must have at least one level");
  for (const MachineLevel &L : this->Levels) {
    DISTAL_ASSERT(!L.Dims.empty(), "machine level must have dimensions");
    for (int D : L.Dims)
      DISTAL_ASSERT(D > 0, "machine dimensions must be positive");
  }
}

Machine Machine::grid(std::vector<int> Dims, ProcessorKind Proc) {
  MachineLevel L;
  L.Dims = std::move(Dims);
  L.Proc = Proc;
  return Machine({L});
}

Machine Machine::gridWithNodeSize(std::vector<int> Dims, ProcessorKind Proc,
                                  int ProcsPerNode) {
  DISTAL_ASSERT(ProcsPerNode > 0, "node size must be positive");
  Machine M = grid(std::move(Dims), Proc);
  DISTAL_ASSERT(M.numProcessors() % ProcsPerNode == 0,
                "node size must divide the processor count");
  M.FlatProcsPerNode = ProcsPerNode;
  return M;
}

int64_t Machine::numProcessors() const {
  int64_t N = 1;
  for (const MachineLevel &L : Levels)
    N *= L.size();
  return N;
}

int64_t Machine::numNodes() const {
  if (Levels.size() == 1)
    return numProcessors() / FlatProcsPerNode;
  return Levels.front().size();
}

int Machine::dim() const {
  int D = 0;
  for (const MachineLevel &L : Levels)
    D += L.dim();
  return D;
}

int Machine::dimExtent(int I) const {
  DISTAL_ASSERT(I >= 0 && I < dim(), "machine dimension out of range");
  for (const MachineLevel &L : Levels) {
    if (I < L.dim())
      return L.Dims[I];
    I -= L.dim();
  }
  unreachable("dimension arithmetic mismatch");
}

std::vector<int> Machine::flatDims() const {
  std::vector<int> Dims;
  for (const MachineLevel &L : Levels)
    Dims.insert(Dims.end(), L.Dims.begin(), L.Dims.end());
  return Dims;
}

Rect Machine::processorSpace() const {
  std::vector<Coord> Extents;
  for (int D : flatDims())
    Extents.push_back(D);
  return Rect::forExtents(Extents);
}

int64_t Machine::linearize(const Point &ProcCoord) const {
  DISTAL_ASSERT(ProcCoord.dim() == dim(), "processor coordinate dim mismatch");
  std::vector<int> Dims = flatDims();
  int64_t Linear = 0;
  for (int I = 0; I < dim(); ++I) {
    DISTAL_ASSERT(ProcCoord[I] >= 0 && ProcCoord[I] < Dims[I],
                  "processor coordinate out of grid range");
    Linear = Linear * Dims[I] + ProcCoord[I];
  }
  return Linear;
}

Point Machine::delinearize(int64_t Linear) const {
  DISTAL_ASSERT(Linear >= 0 && Linear < numProcessors(),
                "linear processor id out of range");
  std::vector<int> Dims = flatDims();
  std::vector<Coord> Coords(Dims.size());
  for (int I = dim() - 1; I >= 0; --I) {
    Coords[I] = Linear % Dims[I];
    Linear /= Dims[I];
  }
  return Point(std::move(Coords));
}

int64_t Machine::nodeOf(const Point &ProcCoord) const {
  DISTAL_ASSERT(ProcCoord.dim() == dim(), "processor coordinate dim mismatch");
  if (Levels.size() == 1)
    return linearize(ProcCoord) / FlatProcsPerNode;
  const MachineLevel &L0 = Levels.front();
  int64_t Node = 0;
  for (int I = 0; I < L0.dim(); ++I)
    Node = Node * L0.Dims[I] + ProcCoord[I];
  return Node;
}

bool Machine::operator==(const Machine &O) const {
  if (Levels.size() != O.Levels.size() ||
      FlatProcsPerNode != O.FlatProcsPerNode)
    return false;
  for (size_t L = 0; L < Levels.size(); ++L)
    if (Levels[L].Dims != O.Levels[L].Dims || Levels[L].Proc != O.Levels[L].Proc)
      return false;
  return true;
}

std::string Machine::str() const {
  std::ostringstream OS;
  OS << "Machine(";
  for (size_t L = 0; L < Levels.size(); ++L) {
    if (L != 0)
      OS << " x ";
    OS << toString(Levels[L].Proc) << "Grid(" << join(Levels[L].Dims) << ")";
  }
  OS << ")";
  return OS.str();
}

MachineSpec MachineSpec::lassenCPU() {
  MachineSpec S;
  S.Name = "lassen-cpu";
  // One abstract processor per Power9 socket; 20 cores/socket at ~19
  // GFLOP/s each gives ~380 GFLOP/s/socket, ~760 GFLOP/s/node, matching the
  // paper's peak-utilization line of ~750 GFLOP/s per node.
  S.PeakFlopsPerProc = 380e9;
  S.GemmEfficiency = 0.92;
  S.MemBandwidthPerProc = 120e9;
  S.MemCapacityPerProc = 128e9;
  S.IntraNodeBandwidth = 60e9; // X-bus between sockets.
  S.IntraNodeAlpha = 1e-6;
  S.InterNodeBandwidth = 12.5e9; // EDR Infiniband per direction.
  S.InterNodeAlpha = 3e-6;
  S.NodeNicBandwidth = 25e9;
  S.OverlapFactor = 1.0; // Legion hides nearly all CPU communication.
  S.ComputeFraction = 36.0 / 40.0; // 4 cores/node run the Legion runtime.
  return S;
}

MachineSpec MachineSpec::lassenGPU() {
  MachineSpec S;
  S.Name = "lassen-gpu";
  // One abstract processor per V100: ~7.8 TFLOP/s fp64, 16 GB HBM2.
  S.PeakFlopsPerProc = 7.8e12;
  S.GemmEfficiency = 0.93;
  S.MemBandwidthPerProc = 850e9;
  S.MemCapacityPerProc = 16e9;
  S.IntraNodeBandwidth = 75e9; // NVLink 2.0 (3 bricks).
  S.IntraNodeAlpha = 2e-6;
  // Legion's DMA path achieves 18 of the 25 GB/s NIC bandwidth when data
  // lives in framebuffer memory (paper §7.1.2).
  S.InterNodeBandwidth = 9e9;
  S.InterNodeAlpha = 4e-6;
  S.NodeNicBandwidth = 18e9;
  S.OverlapFactor = 0.85; // GPU runs are communication sensitive.
  S.ComputeFraction = 1.0;
  return S;
}

MachineSpec MachineSpec::testSpec() {
  MachineSpec S;
  S.Name = "test";
  S.PeakFlopsPerProc = 1e9;
  S.GemmEfficiency = 1.0;
  S.MemBandwidthPerProc = 1e9;
  S.MemCapacityPerProc = 1e9;
  S.IntraNodeBandwidth = 1e9;
  S.IntraNodeAlpha = 0;
  S.InterNodeBandwidth = 1e9;
  S.InterNodeAlpha = 0;
  S.NodeNicBandwidth = 1e9;
  S.OverlapFactor = 0.0;
  return S;
}
