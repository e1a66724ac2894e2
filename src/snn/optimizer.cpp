#include "snn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace r4ncl::snn {

namespace {

constexpr std::uint32_t kAdamTag = make_tag("ADAM");

std::vector<std::string> sorted_keys_of(const auto& map) {
  std::vector<std::string> keys;
  keys.reserve(map.size());
  for (const auto& [k, _] : map) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void write_tensor_2d(BinaryWriter& out, const Tensor& t) {
  out.write_u64(t.rows());
  out.write_u64(t.cols());
  out.write_f32_vector({t.values().begin(), t.values().end()});
}

Tensor read_tensor_2d(BinaryReader& in, const char* what) {
  const std::uint64_t rows = in.read_u64();
  const std::uint64_t cols = in.read_u64();
  const std::vector<float> data = in.read_f32_vector();
  R4NCL_CHECK(data.size() == rows * cols, "corrupt " << what << ": " << rows << "x" << cols
                                                     << " tensor carries " << data.size()
                                                     << " value(s)");
  Tensor t(rows, cols);
  std::copy(data.begin(), data.end(), t.raw());
  return t;
}

}  // namespace

void AdamOptimizer::step(std::string_view key, Tensor& param, const Tensor& grad, float lr) {
  R4NCL_CHECK(param.same_shape(grad), "param/grad shape mismatch");
  if (param.empty()) return;
  State& st = states_[std::string(key)];
  if (st.m.empty()) {
    st.m = Tensor(param.rows(), param.cols());
    st.v = Tensor(param.rows(), param.cols());
  }
  R4NCL_CHECK(st.m.same_shape(param),
              "optimizer moment shape mismatch for '" << key << "': stored " << st.m.rows() << "x"
                                                      << st.m.cols() << ", parameter is "
                                                      << param.rows() << "x" << param.cols());
  ++st.t;
  const float b1 = params_.beta1, b2 = params_.beta2;
  const float bias1 = 1.0f - std::pow(b1, static_cast<float>(st.t));
  const float bias2 = 1.0f - std::pow(b2, static_cast<float>(st.t));
  float* p = param.raw();
  const float* g = grad.raw();
  float* m = st.m.raw();
  float* v = st.v.raw();
  const float clip = params_.grad_clip;
  const std::size_t n = param.size();
  for (std::size_t i = 0; i < n; ++i) {
    float gi = g[i];
    if (clip > 0.0f) gi = std::clamp(gi, -clip, clip);
    m[i] = b1 * m[i] + (1.0f - b1) * gi;
    v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
    const float mhat = m[i] / bias1;
    const float vhat = v[i] / bias2;
    p[i] -= lr * mhat / (std::sqrt(vhat) + params_.epsilon);
  }
}

void AdamOptimizer::save(BinaryWriter& out) const {
  out.write_tag(kAdamTag);
  out.write_u64(states_.size());
  for (const std::string& key : sorted_keys_of(states_)) {
    const State& st = states_.at(key);
    out.write_string(key);
    out.write_i64(st.t);
    write_tensor_2d(out, st.m);
    write_tensor_2d(out, st.v);
  }
}

void AdamOptimizer::load(BinaryReader& in) {
  in.expect_tag(kAdamTag);
  const std::uint64_t n = in.read_u64();
  std::unordered_map<std::string, State> loaded;
  loaded.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key = in.read_string();
    State st;
    st.t = in.read_i64();
    st.m = read_tensor_2d(in, "Adam first moment");
    st.v = read_tensor_2d(in, "Adam second moment");
    R4NCL_CHECK(st.m.same_shape(st.v), "corrupt Adam state for '" << key << "': m/v shapes differ");
    const bool inserted = loaded.emplace(std::move(key), std::move(st)).second;
    R4NCL_CHECK(inserted, "corrupt Adam state: duplicate parameter key");
  }
  states_ = std::move(loaded);
}

}  // namespace r4ncl::snn
