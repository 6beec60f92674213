// Planned-slot execution shared by every runtime.
//
// A mem::MemPlan lists, per (worker, sample) stream, the arena slot of each
// value that stream's kernels allocate. SlotTable regroups those slots by
// producing node into one flat table per stream, indexed by NodeId, so a
// task finds its planned outputs with two array reads. eval_planned runs one
// node with those slots primed into a SlotSink. The sequential, static,
// work-stealing and fleet-pipeline runtimes all execute kernels through it,
// so the sink protocol and its aliasing insurance live in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "mem/arena.h"
#include "mem/plan.h"
#include "tensor/tensor.h"

namespace ramiel {
struct OpContext;
}  // namespace ramiel

namespace ramiel::rt {

/// Arena placement of one planned output of a node: where the SlotSink
/// should put the kernel's allocation for it.
struct PlannedOut {
  ValueId value;
  std::size_t offset_floats;  // from the arena base (slots stay 64-byte
                              // aligned, so float units are exact for every
                              // dtype)
  std::int64_t numel;
  DType dtype;  // storage dtype the sink matches alongside numel
  bool in_place;
};

/// The planned outputs of one task, in the plan's slot order (may be empty).
using PlannedOuts = std::span<const PlannedOut>;

/// Per-(worker, sample) planned outputs of every node: one row per
/// (stream, node), each a slice of one shared vector.
class SlotTable {
 public:
  SlotTable() = default;

  /// Builds the table for every stream of `plan`, a plan of `graph`. An
  /// empty plan gives an empty table.
  SlotTable(const Graph& graph, const mem::MemPlan& plan);

  bool empty() const { return rows_.empty(); }

  /// Planned outputs of `node` on stream (worker, sample); none when the
  /// table is empty.
  PlannedOuts outs(int worker, int sample, NodeId node) const {
    if (rows_.empty()) return {};
    const Row& r = rows_[(static_cast<std::size_t>(worker) *
                              static_cast<std::size_t>(batch_) +
                          static_cast<std::size_t>(sample)) *
                             nodes_ +
                         static_cast<std::size_t>(node)];
    return {outs_.data() + r.begin, outs_.data() + r.end};
  }

 private:
  struct Row {
    std::int32_t begin, end;  // slice of outs_
  };
  int batch_ = 0;
  std::size_t nodes_ = 0;
  std::vector<Row> rows_;
  std::vector<PlannedOut> outs_;
};

/// Runs node `n` on `inputs`. With a non-null `sink` the task's planned
/// outputs `outs` (offsets from `arena_base`) are primed into it and it is
/// installed on this thread for the kernel call, so output allocations land
/// in their arena slots and kernel scratch comes from the sink's scratch
/// arena; the allocations it served are added to *allocs_avoided. With a
/// null sink the kernel allocates on the heap.
///
/// Insurance against an op aliasing its input without being in the
/// planner's alias list: a planned, non-in-place output sharing storage
/// with an input would have its bytes reused while the alias class still
/// needs them, so it is detached to the heap instead.
std::vector<Tensor> eval_planned(const Node& n,
                                 const std::vector<Tensor>& inputs,
                                 const OpContext& ctx, mem::SlotSink* sink,
                                 float* arena_base, PlannedOuts outs,
                                 int* allocs_avoided);

}  // namespace ramiel::rt
