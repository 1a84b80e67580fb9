//===- machine/Machine.h - Hierarchical abstract machine model -*- C++ -*-===//
///
/// \file
/// DISTAL's machine abstraction (paper §3.1): a distributed machine is a
/// multi-dimensional grid of abstract processors, each with a local memory.
/// The abstraction is hierarchical: each processor of an outer level may
/// itself be a grid (e.g. a 2-d grid of nodes, each node a 1-d grid of
/// GPUs). A MachineSpec attaches a performance model (peak FLOP/s, memory
/// bandwidth, link alpha/beta, capacities) used by the Simulate backend.
///
//===----------------------------------------------------------------------===//

#ifndef DISTAL_MACHINE_MACHINE_H
#define DISTAL_MACHINE_MACHINE_H

#include <string>
#include <vector>

#include "support/Geometry.h"

namespace distal {

/// Kinds of abstract processors.
enum class ProcessorKind { CPUSocket, GPU };

/// Kinds of memories data may be placed in (paper Fig. 2 line 11).
enum class MemoryKind { SystemMem, GPUFrameBuffer };

std::string toString(ProcessorKind Kind);
std::string toString(MemoryKind Kind);

/// One level of the machine hierarchy: a grid of identical processors.
struct MachineLevel {
  std::vector<int> Dims;   ///< Grid extents for this level.
  ProcessorKind Proc = ProcessorKind::CPUSocket;

  int dim() const { return static_cast<int>(Dims.size()); }
  int64_t size() const;
};

/// A hierarchical grid of abstract processors.
///
/// A flat machine has one level. The evaluation machines arrange nodes in a
/// grid at level 0 and processors (sockets or GPUs) within a node at level 1.
/// A *processor coordinate* is the concatenation of per-level coordinates;
/// its total dimensionality is the sum of level dimensionalities.
class Machine {
public:
  Machine() = default;
  explicit Machine(std::vector<MachineLevel> Levels);

  /// Convenience: a flat machine Grid(d0, d1, ...).
  static Machine grid(std::vector<int> Dims,
                      ProcessorKind Proc = ProcessorKind::CPUSocket);

  /// A flat grid whose processors are grouped into physical nodes of
  /// \p ProcsPerNode consecutive (linearized) processors. Used to model
  /// e.g. a single logical 2-d grid over all GPUs of a cluster with four
  /// GPUs per node, so the simulator can distinguish NVLink from NIC
  /// traffic without a hierarchical schedule.
  static Machine gridWithNodeSize(std::vector<int> Dims, ProcessorKind Proc,
                                  int ProcsPerNode);

  const std::vector<MachineLevel> &levels() const { return Levels; }
  int numLevels() const { return static_cast<int>(Levels.size()); }
  const MachineLevel &level(int I) const { return Levels[I]; }

  /// Total number of processors across all levels.
  int64_t numProcessors() const;
  /// Number of level-0 grid cells (nodes, when hierarchical).
  int64_t numNodes() const;

  /// Total dimensionality of a full processor coordinate.
  int dim() const;
  /// Grid extent of dimension \p I of the full (flattened) coordinate space.
  int dimExtent(int I) const;
  /// All flattened grid extents.
  std::vector<int> flatDims() const;
  /// The full processor coordinate space as a rectangle.
  Rect processorSpace() const;

  /// Linearizes a full processor coordinate (row-major).
  int64_t linearize(const Point &ProcCoord) const;
  /// Inverse of linearize.
  Point delinearize(int64_t Linear) const;

  /// The node (level-0 cell) a processor coordinate belongs to, linearized.
  /// For a flat machine every processor is its own node.
  int64_t nodeOf(const Point &ProcCoord) const;

  /// Printed form of the levels and processor kinds. It omits flat node
  /// grouping, so two machines that print alike may still differ; compare
  /// machines with operator==.
  std::string str() const;

  /// Structural equality: the same levels (grid extents and processor
  /// kinds) and the same flat node grouping.
  bool operator==(const Machine &O) const;
  bool operator!=(const Machine &O) const { return !(*this == O); }

private:
  std::vector<MachineLevel> Levels;
  /// For single-level machines only: linearized processors are grouped into
  /// nodes of this many consecutive processors.
  int FlatProcsPerNode = 1;
};

/// Performance/capacity parameters for the Simulate backend. Defaults are a
/// small abstract machine; presets below model the Lassen supercomputer used
/// in the paper's evaluation (§7).
struct MachineSpec {
  std::string Name = "generic";

  /// Peak double-precision FLOP/s of one abstract processor.
  double PeakFlopsPerProc = 1e9;
  /// Fraction of peak achieved by compute-bound leaf kernels (GEMM).
  double GemmEfficiency = 0.9;
  /// Local memory bandwidth of one processor (bytes/s) bounding
  /// bandwidth-bound leaves.
  double MemBandwidthPerProc = 1e10;
  /// Local memory capacity of one processor (bytes). Exceeding it makes the
  /// simulator report out-of-memory, as the paper observes for 3D
  /// algorithms on GPUs.
  double MemCapacityPerProc = 1e12;

  /// Bandwidth (bytes/s) and latency (s) of links between processors within
  /// one node (e.g. NVLink 2.0, or shared memory between sockets).
  double IntraNodeBandwidth = 5e10;
  double IntraNodeAlpha = 2e-6;
  /// Bandwidth and latency between nodes (e.g. EDR Infiniband).
  double InterNodeBandwidth = 1.25e10;
  double InterNodeAlpha = 5e-6;
  /// Aggregate NIC bandwidth shared by all processors of one node, per
  /// direction. Models the 18/25 GB/s effect discussed in §7.1.2.
  double NodeNicBandwidth = 1.25e10;

  /// Fraction of communication hidden under computation (Legion overlaps
  /// aggressively; MPI-style blocking libraries do not).
  double OverlapFactor = 1.0;
  /// Fraction of per-processor compute throughput available to application
  /// work (DISTAL dedicates cores to the Legion runtime: 36/40 on Lassen).
  double ComputeFraction = 1.0;
  /// Extra per-hop cost factor applied to broadcast fan-out beyond one
  /// receiver; a pipelined binomial tree costs roughly (1 + Penalty*log2(f)).
  double BroadcastPenalty = 0.35;

  /// Lassen CPU configuration: one abstract processor per socket, 2 sockets
  /// per node, 40 cores/node. Calibrated so one node peaks near the paper's
  /// ~750 GFLOP/s/node utilization line.
  static MachineSpec lassenCPU();
  /// Lassen GPU configuration: one abstract processor per V100, 4 per node,
  /// NVLink 2.0 intra-node, 16 GB framebuffer each.
  static MachineSpec lassenGPU();
  /// A tiny spec for unit tests with round numbers.
  static MachineSpec testSpec();
};

} // namespace distal

#endif // DISTAL_MACHINE_MACHINE_H
