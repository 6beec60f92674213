#include "rt/planned.h"

#include "graph/op_eval.h"
#include "support/check.h"

namespace ramiel::rt {

SlotTable::SlotTable(const Graph& graph, const mem::MemPlan& plan) {
  if (plan.empty()) return;
  batch_ = static_cast<int>(plan.workers.front().streams.size());
  nodes_ = graph.nodes().size();
  rows_.assign(plan.workers.size() * static_cast<std::size_t>(batch_) * nodes_,
               Row{0, 0});
  std::size_t row0 = 0;
  for (const mem::WorkerPlan& wp : plan.workers) {
    for (std::size_t s = 0; s < wp.streams.size(); ++s, row0 += nodes_) {
      // A stream's slots are in def order, so each node's are adjacent.
      for (const mem::ValueSlot& slot : wp.streams[s].slots) {
        Row& r = rows_[row0 + static_cast<std::size_t>(
                                  graph.value(slot.value).producer)];
        const auto at = static_cast<std::int32_t>(outs_.size());
        if (r.begin == r.end) r.begin = r.end = at;
        RAMIEL_CHECK(r.end == at, "planned outputs of a node are not adjacent");
        ++r.end;
        outs_.push_back(PlannedOut{
            slot.value,
            static_cast<std::size_t>(wp.stream_base[s] + slot.offset) /
                sizeof(float),
            slot.numel, slot.dtype, slot.in_place});
      }
    }
  }
}

std::vector<Tensor> eval_planned(const Node& n,
                                 const std::vector<Tensor>& inputs,
                                 const OpContext& ctx, mem::SlotSink* sink,
                                 float* arena_base, PlannedOuts outs,
                                 int* allocs_avoided) {
  if (sink == nullptr) return eval_node(n, inputs, ctx);

  sink->clear();
  for (const PlannedOut& po : outs) {
    sink->add(arena_base + po.offset_floats,
              static_cast<std::size_t>(po.numel), po.dtype, po.in_place);
  }
  std::vector<Tensor> outputs;
  {
    mem::ScopedAllocSink guard(sink);
    outputs = eval_node(n, inputs, ctx);
  }
  *allocs_avoided += sink->taken();

  for (const PlannedOut& po : outs) {
    if (po.in_place) continue;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (n.outputs[i] != po.value) continue;
      for (const Tensor& in : inputs) {
        if (outputs[i].shares_storage_with(in)) {
          outputs[i] = outputs[i].clone();
          break;
        }
      }
      break;
    }
  }
  return outputs;
}

}  // namespace ramiel::rt
