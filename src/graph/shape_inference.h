// Best-effort static shape inference over the dataflow IR.
//
// Walks the graph in topological order and fills Value::shape for every
// value whose shape is statically determined by its node's inputs and
// attributes. Small values computable at compile time (Shape outputs and
// nodes whose inputs are all constants or such values, up to 64 elements
// each) are evaluated during the walk, so shape arithmetic feeding a
// Reshape and constant scalar side branches resolve without folding (no
// node or constant is added to the graph). Values whose shape depends on runtime data
// (e.g. a Reshape whose target shape comes from a graph input) keep the
// empty (rank-0, numel-1) placeholder.
#pragma once

#include "graph/graph.h"

namespace ramiel {

/// Infers shapes for all node outputs where possible. Graph inputs and
/// initializers must already carry shapes. Returns the number of values
/// whose stored shape changed (a derived scalar keeps its rank-0 shape and
/// is not counted).
int infer_shapes(Graph& graph);

/// Throws ValidationError if any live node output has no static shape.
/// Runs the same walk as infer_shapes, so a rank-0 output counts as static
/// when the walk derives it as a scalar.
void require_static_shapes(const Graph& graph);

}  // namespace ramiel
