#include "checks.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "graph/op_kind.h"
#include "graph/shape_inference.h"
#include "models/zoo.h"
#include "passes/constant_folding.h"

namespace e2e {

using ramiel::Graph;
using ramiel::Node;
using ramiel::OpKind;
using ramiel::Tensor;
using ramiel::TensorMap;

namespace {

std::vector<float> as_f32(const Tensor& t) {
  switch (t.dtype()) {
    case ramiel::DType::kF32: {
      auto d = t.data();
      return {d.begin(), d.end()};
    }
    case ramiel::DType::kI8: {
      auto d = t.dequantize().data();
      return {d.begin(), d.end()};
    }
    default: {
      auto d = t.cast(ramiel::DType::kF32).data();
      return {d.begin(), d.end()};
    }
  }
}

double rel_l2(const std::vector<float>& got, const std::vector<double>& ref) {
  if (got.size() != ref.size()) return std::numeric_limits<double>::infinity();
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double d = static_cast<double>(got[i]) - ref[i];
    num += d * d;
    den += ref[i] * ref[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

std::vector<double> widen(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

// -- naive double-precision interpreter --------------------------------------

struct Dense {
  std::vector<std::int64_t> dims;
  std::vector<double> v;

  std::int64_t dim(int i) const { return dims[static_cast<std::size_t>(i)]; }
};

Dense dense_of(const Tensor& t) {
  return {t.shape().dims(), widen(as_f32(t))};
}

int norm_axis(std::int64_t axis, std::size_t rank) {
  return static_cast<int>(axis < 0 ? axis + static_cast<std::int64_t>(rank)
                                   : axis);
}

double apply_act(const Node& n, double x) {
  if (!n.attrs.has("act")) return x;
  const std::string& act = n.attrs.get_str("act");
  if (act == "relu") return x > 0.0 ? x : 0.0;
  if (act == "sigmoid") return 1.0 / (1.0 + std::exp(-x));
  throw std::runtime_error("naive evaluator: unknown fused act " + act);
}

Dense conv(const Node& n, const Dense& x, const Dense& w, const Dense* b) {
  const std::int64_t stride = n.attrs.get_int("stride", 1);
  const std::int64_t pad = n.attrs.get_int("pad", 0);
  const std::int64_t dil = n.attrs.get_int("dilation", 1);
  const std::int64_t groups = n.attrs.get_int("groups", 1);
  const std::int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const std::int64_t O = w.dim(0), CG = w.dim(1), R = w.dim(2), S = w.dim(3);
  if (CG * groups != C) throw std::runtime_error("naive conv: channel mismatch");
  const std::int64_t OH = (H + 2 * pad - dil * (R - 1) - 1) / stride + 1;
  const std::int64_t OW = (W + 2 * pad - dil * (S - 1) - 1) / stride + 1;
  const std::int64_t OG = O / groups;
  Dense y{{N, O, OH, OW}, std::vector<double>(
                              static_cast<std::size_t>(N * O * OH * OW))};
  for (std::int64_t ni = 0; ni < N; ++ni) {
    for (std::int64_t o = 0; o < O; ++o) {
      const std::int64_t g = o / OG;
      for (std::int64_t oh = 0; oh < OH; ++oh) {
        for (std::int64_t ow = 0; ow < OW; ++ow) {
          double acc = b ? b->v[static_cast<std::size_t>(o)] : 0.0;
          for (std::int64_t c = 0; c < CG; ++c) {
            const std::int64_t ci = g * CG + c;
            for (std::int64_t r = 0; r < R; ++r) {
              const std::int64_t ih = oh * stride - pad + r * dil;
              if (ih < 0 || ih >= H) continue;
              for (std::int64_t s = 0; s < S; ++s) {
                const std::int64_t iw = ow * stride - pad + s * dil;
                if (iw < 0 || iw >= W) continue;
                acc += x.v[static_cast<std::size_t>(
                           ((ni * C + ci) * H + ih) * W + iw)] *
                       w.v[static_cast<std::size_t>(((o * CG + c) * R + r) * S +
                                                    s)];
              }
            }
          }
          y.v[static_cast<std::size_t>(((ni * O + o) * OH + oh) * OW + ow)] =
              apply_act(n, acc);
        }
      }
    }
  }
  return y;
}

Dense max_pool(const Node& n, const Dense& x) {
  const std::int64_t k = n.attrs.get_int("kernel");
  const std::int64_t stride = n.attrs.get_int("stride", k);
  const std::int64_t pad = n.attrs.get_int("pad", 0);
  const std::int64_t N = x.dim(0), C = x.dim(1), H = x.dim(2), W = x.dim(3);
  const std::int64_t OH = (H + 2 * pad - k) / stride + 1;
  const std::int64_t OW = (W + 2 * pad - k) / stride + 1;
  Dense y{{N, C, OH, OW},
          std::vector<double>(static_cast<std::size_t>(N * C * OH * OW))};
  for (std::int64_t nc = 0; nc < N * C; ++nc) {
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        double best = -std::numeric_limits<double>::infinity();
        for (std::int64_t r = 0; r < k; ++r) {
          const std::int64_t ih = oh * stride - pad + r;
          if (ih < 0 || ih >= H) continue;
          for (std::int64_t s = 0; s < k; ++s) {
            const std::int64_t iw = ow * stride - pad + s;
            if (iw < 0 || iw >= W) continue;
            best = std::max(best, x.v[static_cast<std::size_t>(
                                      (nc * H + ih) * W + iw)]);
          }
        }
        y.v[static_cast<std::size_t>((nc * OH + oh) * OW + ow)] = best;
      }
    }
  }
  return y;
}

/// Splits dims around `axis` into (outer, extent, inner) strides.
void split_dims(const std::vector<std::int64_t>& dims, int axis,
                std::int64_t* outer, std::int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int i = 0; i < axis; ++i) *outer *= dims[static_cast<std::size_t>(i)];
  for (std::size_t i = static_cast<std::size_t>(axis) + 1; i < dims.size();
       ++i) {
    *inner *= dims[i];
  }
}

Dense concat(const Node& n, const std::vector<const Dense*>& xs) {
  const int axis = norm_axis(n.attrs.get_int("axis"), xs[0]->dims.size());
  Dense y{xs[0]->dims, {}};
  y.dims[static_cast<std::size_t>(axis)] = 0;
  for (const Dense* x : xs) y.dims[static_cast<std::size_t>(axis)] += x->dim(axis);
  std::int64_t outer = 0, inner = 0;
  split_dims(y.dims, axis, &outer, &inner);
  for (std::int64_t o = 0; o < outer; ++o) {
    for (const Dense* x : xs) {
      const std::int64_t chunk = x->dim(axis) * inner;
      const auto* src = x->v.data() + o * chunk;
      y.v.insert(y.v.end(), src, src + chunk);
    }
  }
  return y;
}

Dense global_avg_pool(const Dense& x) {
  const std::int64_t N = x.dim(0), C = x.dim(1), HW = x.dim(2) * x.dim(3);
  Dense y{{N, C, 1, 1}, std::vector<double>(static_cast<std::size_t>(N * C))};
  for (std::int64_t nc = 0; nc < N * C; ++nc) {
    double s = 0.0;
    for (std::int64_t i = 0; i < HW; ++i) {
      s += x.v[static_cast<std::size_t>(nc * HW + i)];
    }
    y.v[static_cast<std::size_t>(nc)] = s / static_cast<double>(HW);
  }
  return y;
}

Dense flatten(const Node& n, const Dense& x) {
  const int axis = norm_axis(n.attrs.get_int("axis", 1), x.dims.size());
  std::int64_t a = 1, b = 1;
  for (std::size_t i = 0; i < x.dims.size(); ++i) {
    (static_cast<int>(i) < axis ? a : b) *= x.dims[i];
  }
  return {{a, b}, x.v};
}

Dense softmax(const Node& n, const Dense& x) {
  const int axis = norm_axis(n.attrs.get_int("axis", -1), x.dims.size());
  std::int64_t outer = 0, inner = 0;
  split_dims(x.dims, axis, &outer, &inner);
  const std::int64_t extent = x.dim(axis);
  Dense y = x;
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t i = 0; i < inner; ++i) {
      auto at = [&](std::int64_t e) -> double& {
        return y.v[static_cast<std::size_t>((o * extent + e) * inner + i)];
      };
      double mx = -std::numeric_limits<double>::infinity();
      for (std::int64_t e = 0; e < extent; ++e) mx = std::max(mx, at(e));
      double sum = 0.0;
      for (std::int64_t e = 0; e < extent; ++e) {
        at(e) = std::exp(at(e) - mx);
        sum += at(e);
      }
      for (std::int64_t e = 0; e < extent; ++e) at(e) /= sum;
    }
  }
  return y;
}

/// Evaluates one sample; returns the graph outputs by value name.
std::unordered_map<std::string, Dense> naive_eval(const Graph& g,
                                                  const TensorMap& inputs) {
  std::unordered_map<ramiel::ValueId, Dense> vals;
  auto get = [&](ramiel::ValueId id) -> const Dense& {
    auto it = vals.find(id);
    if (it != vals.end()) return it->second;
    const ramiel::Value& v = g.value(id);
    if (v.const_data) return vals.emplace(id, dense_of(*v.const_data)).first->second;
    auto in = inputs.find(v.name);
    if (in == inputs.end()) {
      throw std::runtime_error("naive evaluator: no input " + v.name);
    }
    return vals.emplace(id, dense_of(in->second)).first->second;
  };
  for (ramiel::NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    Dense out;
    switch (n.kind) {
      case OpKind::kConv2d:
        out = conv(n, get(n.inputs[0]), get(n.inputs[1]),
                   n.inputs.size() > 2 ? &get(n.inputs[2]) : nullptr);
        break;
      case OpKind::kRelu:
        out = get(n.inputs[0]);
        for (double& x : out.v) x = x > 0.0 ? x : 0.0;
        break;
      case OpKind::kMaxPool:
        out = max_pool(n, get(n.inputs[0]));
        break;
      case OpKind::kConcat: {
        std::vector<const Dense*> xs;
        for (ramiel::ValueId v : n.inputs) xs.push_back(&get(v));
        out = concat(n, xs);
        break;
      }
      case OpKind::kGlobalAvgPool:
        out = global_avg_pool(get(n.inputs[0]));
        break;
      case OpKind::kFlatten:
        out = flatten(n, get(n.inputs[0]));
        break;
      case OpKind::kSoftmax:
        out = softmax(n, get(n.inputs[0]));
        break;
      default:
        throw std::runtime_error("naive evaluator: unsupported op " +
                                 std::string(ramiel::op_kind_name(n.kind)));
    }
    vals[n.outputs[0]] = std::move(out);
  }
  std::unordered_map<std::string, Dense> result;
  for (ramiel::ValueId id : g.outputs()) result[g.value(id).name] = get(id);
  return result;
}

}  // namespace

std::string compare_bitwise(const std::vector<TensorMap>& got,
                            const std::vector<TensorMap>& want) {
  if (got.size() != want.size()) return "sample count differs";
  for (std::size_t s = 0; s < want.size(); ++s) {
    if (got[s].size() != want[s].size()) return "output count differs";
    for (const auto& [key, ref] : want[s]) {
      auto it = got[s].find(key);
      if (it == got[s].end()) return "missing output " + key;
      const Tensor& t = it->second;
      if (t.shape() != ref.shape() || t.dtype() != ref.dtype()) {
        return "shape/dtype of " + key + " differs";
      }
      if (std::memcmp(t.raw(), ref.raw(),
                      static_cast<std::size_t>(ref.byte_size())) != 0) {
        return "output " + key + " of sample " + std::to_string(s) +
               " is not bitwise equal to the sequential reference";
      }
    }
  }
  return "";
}

ShapeMap declared_shapes(const std::string& model) {
  Graph g = ramiel::models::build(model);
  ramiel::constant_propagation_dce(g);
  g = g.compacted();
  ramiel::infer_shapes(g);
  ShapeMap out;
  for (const ramiel::Value& v : g.values()) {
    if (v.shape.rank() > 0) out[v.name] = v.shape;
  }
  return out;
}

std::string check_sane(const Graph& graph, const ShapeMap& declared,
                       const std::vector<TensorMap>& outputs) {
  for (std::size_t s = 0; s < outputs.size(); ++s) {
    if (outputs[s].size() != graph.outputs().size()) {
      return "sample " + std::to_string(s) + " has " +
             std::to_string(outputs[s].size()) + " outputs";
    }
    for (ramiel::ValueId id : graph.outputs()) {
      const ramiel::Value& v = graph.value(id);
      auto it = outputs[s].find(v.name);
      if (it == outputs[s].end()) return "missing output " + v.name;
      auto d = declared.find(v.name);
      if (d == declared.end()) return "output " + v.name + " has no declared shape";
      if (it->second.shape() != d->second) {
        return "output " + v.name + " has shape " +
               it->second.shape().to_string() + ", declared " +
               d->second.to_string();
      }
      for (float x : as_f32(it->second)) {
        if (!std::isfinite(x)) return "output " + v.name + " is not finite";
      }
    }
  }
  return "";
}

double max_rel_l2(const std::vector<TensorMap>& got,
                  const std::vector<TensorMap>& ref) {
  if (got.size() != ref.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t s = 0; s < ref.size(); ++s) {
    for (const auto& [key, r] : ref[s]) {
      auto it = got[s].find(key);
      if (it == got[s].end()) return std::numeric_limits<double>::infinity();
      worst = std::max(worst, rel_l2(as_f32(it->second), widen(as_f32(r))));
    }
  }
  return worst;
}

double naive_rel_l2(const Graph& graph, const std::vector<TensorMap>& inputs,
                    const std::vector<TensorMap>& got) {
  if (got.size() != inputs.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    for (const auto& [key, ref] : naive_eval(graph, inputs[s])) {
      auto it = got[s].find(key);
      if (it == got[s].end() || it->second.shape().dims() != ref.dims) {
        return std::numeric_limits<double>::infinity();
      }
      worst = std::max(worst, rel_l2(as_f32(it->second), ref.v));
    }
  }
  return worst;
}

void flip_one_bit(std::vector<TensorMap>& outputs) {
  if (outputs.empty() || outputs[0].empty()) return;
  Tensor& t = outputs[0].begin()->second;
  Tensor copy = t.clone();
  auto* bytes = static_cast<unsigned char*>(copy.raw_mut());
  bytes[0] ^= 0x01;
  t = copy;
}

void add_rel_noise(std::vector<TensorMap>& outputs, double rel) {
  for (TensorMap& sample : outputs) {
    for (auto& [key, t] : sample) {
      std::vector<float> v = as_f32(t);
      double ss = 0.0;
      for (float x : v) ss += static_cast<double>(x) * x;
      const double amp =
          rel * std::sqrt(ss / static_cast<double>(std::max<std::size_t>(1, v.size())));
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] += static_cast<float>(i % 2 ? amp : -amp);
      }
      t = Tensor(t.shape(), std::move(v));
    }
  }
}

}  // namespace e2e
