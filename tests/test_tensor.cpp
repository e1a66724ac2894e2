// Tensor construction, shape accessors, fills, slab views.
#include <gtest/gtest.h>

#include "tensor/tensor.hpp"
#include "util/error.hpp"

namespace r4ncl {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, ZeroInitialised) {
  Tensor t(3, 4);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
}

TEST(Tensor, ElementAccess2d) {
  Tensor t(2, 3);
  t(1, 2) = 5.0f;
  EXPECT_EQ(t(1, 2), 5.0f);
  EXPECT_EQ(t(5), 5.0f);  // row-major flat index
}

TEST(Tensor, ElementAccess3d) {
  Tensor t(2, 3, 4);
  t(1, 2, 3) = 7.0f;
  EXPECT_EQ(t(1, 2, 3), 7.0f);
  EXPECT_EQ(t(23), 7.0f);  // last element
  EXPECT_EQ(t.rank(), 3u);
}

TEST(Tensor, SlabViewsAlias) {
  Tensor t(2, 2, 2);
  t(1, 0, 1) = 9.0f;
  auto slab = t.slab(1);
  EXPECT_EQ(slab.size(), 4u);
  EXPECT_EQ(slab[1], 9.0f);
  slab[1] = 3.0f;
  EXPECT_EQ(t(1, 0, 1), 3.0f);
}

TEST(Tensor, RowPtr) {
  Tensor t(3, 2);
  t(2, 1) = 4.0f;
  EXPECT_EQ(t.row_ptr(2)[1], 4.0f);
}

TEST(Tensor, FillAndZero) {
  Tensor t(2, 2);
  t.fill(1.5f);
  for (float v : t.values()) EXPECT_EQ(v, 1.5f);
  t.zero();
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FillNormalIsDeterministic) {
  Tensor a(4, 4), b(4, 4);
  Rng r1(5), r2(5);
  a.fill_normal(r1, 0.1f);
  b.fill_normal(r2, 0.1f);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a(i), b(i));
}

TEST(Tensor, SameShape) {
  EXPECT_TRUE(Tensor(2, 3).same_shape(Tensor(2, 3)));
  EXPECT_FALSE(Tensor(2, 3).same_shape(Tensor(3, 2)));
  EXPECT_FALSE(Tensor(6).same_shape(Tensor(2, 3)));
}

TEST(Tensor, DimOutOfRangeThrows) {
  Tensor t(2, 3);
  EXPECT_THROW((void)t.dim(2), Error);
  EXPECT_THROW((void)Tensor(4).cols(), Error);
}

}  // namespace
}  // namespace r4ncl
