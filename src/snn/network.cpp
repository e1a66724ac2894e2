#include "snn/network.hpp"

#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace r4ncl::snn {

namespace {
constexpr std::uint32_t kNetTag = make_tag("SNET");
constexpr std::uint32_t kArchTag = make_tag("ARCH");

/// "700-200-100-50/20 classes" — the spec string used in architecture
/// mismatch diagnostics.
std::string arch_spec(const std::vector<std::uint64_t>& sizes, std::uint64_t classes) {
  std::string s;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) s += '-';
    s += std::to_string(sizes[i]);
  }
  s += '/';
  s += std::to_string(classes);
  s += " classes";
  return s;
}

LeakyReadout make_readout(const NetworkConfig& config, Rng& rng) {
  R4NCL_CHECK(config.layer_sizes.size() >= 2,
              "need an input width and at least one hidden layer");
  return LeakyReadout(config.layer_sizes.back(), config.num_classes, config.readout_beta, rng,
                      config.init_gain);
}
}  // namespace

SnnNetwork::SnnNetwork(const NetworkConfig& config)
    : config_(config), readout_([&] {
        Rng tmp(config.seed + 1);
        return make_readout(config, tmp);
      }()) {
  Rng rng(config_.seed);
  hidden_.reserve(config_.layer_sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < config_.layer_sizes.size(); ++i) {
    Rng layer_rng = rng.fork();
    hidden_.emplace_back(config_.layer_sizes[i], config_.layer_sizes[i + 1], config_.lif,
                         config_.surrogate, layer_rng, config_.init_gain,
                         config_.rec_init_gain);
  }
}

std::size_t SnnNetwork::insertion_width(std::size_t insertion_layer) const {
  R4NCL_CHECK(insertion_layer <= num_hidden(),
              "insertion layer " << insertion_layer << " > " << num_hidden());
  return config_.layer_sizes.at(insertion_layer);
}

Tensor SnnNetwork::run_hidden(const Tensor& x, std::size_t from, std::size_t to,
                              const ThresholdPolicy& policy, SpikeOpStats* stats) const {
  R4NCL_CHECK(from <= to && to <= num_hidden(), "bad layer range [" << from << ", " << to << ")");
  if (from == to) return x;
  Tensor cur = hidden_[from].forward(x, policy, nullptr, stats);
  for (std::size_t i = from + 1; i < to; ++i) {
    cur = hidden_[i].forward(cur, policy, nullptr, stats);
  }
  return cur;
}

Tensor SnnNetwork::forward_logits(const Tensor& x, std::size_t from,
                                  const ThresholdPolicy& policy, SpikeOpStats* stats) const {
  const Tensor readout_in = run_hidden(x, from, num_hidden(), policy, stats);
  return readout_.forward(readout_in, stats);
}

StepResult SnnNetwork::train_step(const Tensor& x, std::span<const std::int32_t> labels,
                                  std::size_t from, const ThresholdPolicy& policy,
                                  AdamOptimizer& optimizer, float lr, SpikeOpStats* stats,
                                  std::vector<std::uint8_t>* row_correct) {
  R4NCL_CHECK(x.rank() == 3, "input must be (T × B × C)");
  R4NCL_CHECK(from <= num_hidden(), "insertion layer out of range");
  const std::size_t trained = num_hidden() - from;
  const std::size_t B = x.dim(1);
  R4NCL_CHECK(labels.size() == B, "labels/batch mismatch");

  // Forward through the learning layers, caching for BPTT.  outputs[k] is
  // the output of hidden layer from+k; input_of(k) is what layer from+k
  // reads (x itself for k = 0 — the input cube is never copied), and
  // input_of(trained) feeds the readout.
  std::vector<Tensor> outputs;
  outputs.reserve(trained);
  std::vector<LayerCache> caches(trained);
  const auto input_of = [&](std::size_t k) -> const Tensor& {
    return k == 0 ? x : outputs[k - 1];
  };
  for (std::size_t k = 0; k < trained; ++k) {
    outputs.push_back(
        hidden_[from + k].forward(input_of(k), policy, &caches[k], stats));
  }
  const Tensor& readout_in = input_of(trained);
  Tensor logits = readout_.forward(readout_in, stats);

  // Loss and logits gradient.
  Tensor d_logits(logits.rows(), logits.cols());
  StepResult result;
  result.loss = softmax_cross_entropy(logits, labels, &d_logits);
  const auto preds = argmax_rows(logits);
  if (row_correct != nullptr) row_correct->assign(B, 0);
  for (std::size_t i = 0; i < B; ++i) {
    if (preds[i] == labels[i]) {
      ++result.correct;
      if (row_correct != nullptr) (*row_correct)[i] = 1;
    }
  }

  // Backward: readout, then the hidden learning layers in reverse.
  readout_.zero_grad();
  for (std::size_t k = 0; k < trained; ++k) hidden_[from + k].zero_grad();

  Tensor d_act;
  if (trained > 0) d_act = Tensor(readout_in.dim(0), readout_in.dim(1), readout_in.dim(2));
  readout_.backward(readout_in, d_logits, trained > 0 ? &d_act : nullptr, stats);
  for (std::size_t k = trained; k-- > 0;) {
    RecurrentLifLayer& layer = hidden_[from + k];
    const Tensor& in = input_of(k);
    if (k > 0) {
      Tensor d_prev(in.dim(0), in.dim(1), in.dim(2));
      layer.backward(in, caches[k], d_act, &d_prev, stats);
      d_act = std::move(d_prev);
    } else {
      layer.backward(in, caches[k], d_act, nullptr, stats);
    }
  }

  // Parameter updates, keyed by stable parameter path (absolute layer index)
  // so Adam moments captured in a checkpoint reattach on warm resume.
  optimizer.step("readout.w", readout_.w(), readout_.grad_w(), lr);
  for (std::size_t k = 0; k < trained; ++k) {
    RecurrentLifLayer& layer = hidden_[from + k];
    const std::string prefix = "hidden" + std::to_string(from + k);
    optimizer.step(prefix + ".w_ff", layer.w_ff(), layer.grad_w_ff(), lr);
    if (layer.lif().recurrent) {
      optimizer.step(prefix + ".w_rec", layer.w_rec(), layer.grad_w_rec(), lr);
    }
  }
  return result;
}

void SnnNetwork::save(BinaryWriter& out) const {
  out.write_tag(kNetTag);
  out.write_tag(kArchTag);
  out.write_u64(config_.layer_sizes.size());
  for (const std::size_t s : config_.layer_sizes) out.write_u64(s);
  out.write_u64(config_.num_classes);
  out.write_u64(hidden_.size());
  for (const auto& layer : hidden_) layer.save(out);
  readout_.save(out);
}

void SnnNetwork::load(BinaryReader& in) {
  in.expect_tag(kNetTag);
  in.expect_tag(kArchTag);
  const std::uint64_t rank = in.read_u64();
  // Bound the loop by the remaining file size so a corrupt rank cannot spin
  // through billions of read_u64 calls before the short-read check fires.
  R4NCL_CHECK(rank <= in.remaining() / sizeof(std::uint64_t),
              "corrupt architecture section: " << rank << " layer sizes exceed the file");
  std::vector<std::uint64_t> stored_sizes(rank);
  for (auto& s : stored_sizes) s = in.read_u64();
  const std::uint64_t stored_classes = in.read_u64();

  std::vector<std::uint64_t> own_sizes(config_.layer_sizes.begin(), config_.layer_sizes.end());
  R4NCL_CHECK(stored_sizes == own_sizes && stored_classes == config_.num_classes,
              "architecture mismatch: checkpoint is "
                  << arch_spec(stored_sizes, stored_classes) << ", this network is "
                  << arch_spec(own_sizes, config_.num_classes));

  const std::uint64_t n = in.read_u64();
  R4NCL_CHECK(n == hidden_.size(), "checkpoint has " << n << " hidden layers, expected "
                                                     << hidden_.size());
  for (auto& layer : hidden_) layer.load(in);
  readout_.load(in);
}

}  // namespace r4ncl::snn
