// Output checks applied to every timed batch and every serving response.
// Each returns "" when the check passes, else a one-line reason.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "rt/executor.h"

namespace e2e {

/// Bitwise equality of two per-sample output sets (same keys, shapes,
/// dtypes and bytes). Static and steal batches, repeated batches and
/// serving responses must all equal their sequential reference this way.
std::string compare_bitwise(const std::vector<ramiel::TensorMap>& got,
                            const std::vector<ramiel::TensorMap>& want);

/// Value name -> static shape, for every value whose shape is known.
using ShapeMap = std::unordered_map<std::string, ramiel::Shape>;

/// The model's declared shapes: shape inference over a separately built
/// copy of the model after constant folding, which resolves the Reshape
/// targets that the unfolded compile leaves unknown.
ShapeMap declared_shapes(const std::string& model);

/// Every graph output present in every sample, with its declared shape,
/// and every element finite.
std::string check_sane(const ramiel::Graph& graph, const ShapeMap& declared,
                       const std::vector<ramiel::TensorMap>& outputs);

/// ||got - ref||_2 / ||ref||_2 over every output of every sample, compared
/// in f32 (low-precision outputs are widened first).
double max_rel_l2(const std::vector<ramiel::TensorMap>& got,
                  const std::vector<ramiel::TensorMap>& ref);

/// Evaluates the graph with a naive double-precision interpreter of
/// SqueezeNet's op kinds (Conv, Relu, MaxPool, Concat, GlobalAveragePool,
/// Flatten, Softmax; weights from the graph's initializers) and returns the
/// largest relative L2 error of `got` against it. Throws on any other kind.
double naive_rel_l2(const ramiel::Graph& graph,
                    const std::vector<ramiel::TensorMap>& inputs,
                    const std::vector<ramiel::TensorMap>& got);

/// Flips one bit of one output element (the self-test's injected fault).
void flip_one_bit(std::vector<ramiel::TensorMap>& outputs);

/// Adds `rel` relative L2 noise to every output (the self-test's injected
/// i8 error).
void add_rel_noise(std::vector<ramiel::TensorMap>& outputs, double rel);

}  // namespace e2e
