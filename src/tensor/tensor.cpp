#include "tensor/tensor.hpp"

namespace r4ncl {

void Tensor::fill_normal(Rng& rng, float stddev) {
  for (auto& x : data_) x = static_cast<float>(rng.normal(0.0, stddev));
}

}  // namespace r4ncl
