// The AVX2 table's register tiles (dense_backward_input and
// dense_param_grad_tangent) against the row loops they replaced
// (simd_row_reference.cpp), byte for byte.
//
// The grid covers every in and out from 1 to 17 (each vector block and
// scalar tail of both tiles) plus the paper's layer shapes, batches that
// fill whole 4-row and 64-sample blocks and batches that leave remainders,
// adjoints with 1 in 7 and with half of them exactly +-0 (the row loop
// skipped zero adjoints in backward_input; the tile does not), nonzero
// starting parameter tangents, and buffers at every offset 0-3 doubles
// from an allocation's start.  It also checks that a backward_input row
// has the same bits in a batch as on its own.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/simd.hpp"
#include "simd_row_reference.hpp"
#include "util/rng.hpp"

namespace dpho::nn::simd {
namespace {

struct Shape {
  std::size_t in;
  std::size_t out;
};

std::vector<Shape> grid_shapes() {
  std::vector<Shape> shapes;
  for (std::size_t in = 1; in <= 17; ++in) {
    for (std::size_t out = 1; out <= 17; ++out) shapes.push_back({in, out});
  }
  // Embedding layers 1x25, 25x50, 50x100; fitting layers 400x240 (a
  // 100 x 4 descriptor), 240x240 and the 240x1 output.
  for (const Shape paper : {Shape{1, 25}, Shape{25, 50}, Shape{50, 100},
                            Shape{400, 240}, Shape{240, 240}, Shape{240, 1}}) {
    shapes.push_back(paper);
  }
  return shapes;
}

constexpr std::size_t kBatches[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 129};

/// Share of adjoints set to exactly +-0 (signs alternate).
constexpr double kZeroShares[] = {1.0 / 7.0, 0.5};

/// A buffer of `count` doubles that starts `offset` doubles into its
/// allocation, so loads and stores see every 8-byte alignment mod 32.
class Buffer {
 public:
  Buffer(std::size_t count, std::size_t offset)
      : storage_(count + offset, std::numeric_limits<double>::quiet_NaN()),
        offset_(offset),
        count_(count) {}
  double* data() { return storage_.data() + offset_; }
  const double* data() const { return storage_.data() + offset_; }
  std::size_t size() const { return count_; }

 private:
  std::vector<double> storage_;
  std::size_t offset_;
  std::size_t count_;
};

void fill(util::Rng& rng, Buffer& buffer, double zero_share = 0.0) {
  bool negative_zero = false;
  for (std::size_t k = 0; k < buffer.size(); ++k) {
    if (zero_share > 0.0 && rng.uniform() < zero_share) {
      buffer.data()[k] = negative_zero ? -0.0 : 0.0;
      negative_zero = !negative_zero;
    } else {
      buffer.data()[k] = rng.uniform(-1.5, 1.5);
    }
  }
}

bool same_bytes(const Buffer& a, const Buffer& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string describe(const Shape& shape, std::size_t batch, double zero_share,
                     std::size_t offset) {
  return "in " + std::to_string(shape.in) + " out " + std::to_string(shape.out) +
         " batch " + std::to_string(batch) + " zero share " +
         std::to_string(zero_share) + " offset " + std::to_string(offset);
}

class SimdTiles : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!available() || reference::avx2_row_kernels() == nullptr) {
      GTEST_SKIP() << "no AVX2/FMA kernels on this build/CPU";
    }
    tiles_ = avx2_ops();
    rows_ = reference::avx2_row_kernels();
  }

  /// Runs `check` over the whole grid, stopping at the first failing case.
  template <class Check>
  void over_grid(Check check) {
    util::Rng rng(2024);
    for (const Shape& shape : grid_shapes()) {
      for (const std::size_t batch : kBatches) {
        for (const double zero_share : kZeroShares) {
          for (std::size_t offset = 0; offset < 4; ++offset) {
            check(rng, shape, batch, zero_share, offset);
            if (HasFailure()) return;
          }
        }
      }
    }
  }

  const Ops* tiles_ = nullptr;
  const reference::RowKernels* rows_ = nullptr;
};

TEST_F(SimdTiles, BackwardInputMatchesRowLoopByteForByte) {
  over_grid([&](util::Rng& rng, const Shape& shape, std::size_t batch,
                double zero_share, std::size_t offset) {
    const auto [in, out] = shape;
    Buffer w(out * in, offset);
    Buffer zbar(batch * out, (offset + 1) % 4);
    fill(rng, w);
    fill(rng, zbar, zero_share);
    Buffer want(batch * in, (offset + 2) % 4);
    Buffer got(batch * in, (offset + 3) % 4);
    rows_->dense_backward_input(w.data(), zbar.data(), batch, in, out, want.data());
    tiles_->dense_backward_input(w.data(), zbar.data(), batch, in, out, got.data());
    ASSERT_TRUE(same_bytes(want, got))
        << describe(shape, batch, zero_share, offset);
    // A row's bits do not depend on the rows tiled with it.
    Buffer single(in, offset);
    for (std::size_t s = 0; s < batch; ++s) {
      tiles_->dense_backward_input(w.data(), zbar.data() + s * out, 1, in, out,
                                   single.data());
      ASSERT_EQ(std::memcmp(single.data(), got.data() + s * in,
                            in * sizeof(double)),
                0)
          << "row " << s << " of " << describe(shape, batch, zero_share, offset);
    }
  });
}

TEST_F(SimdTiles, ParamGradTangentMatchesRowLoopByteForByte) {
  over_grid([&](util::Rng& rng, const Shape& shape, std::size_t batch,
                double zero_share, std::size_t offset) {
    const auto [in, out] = shape;
    Buffer x(batch * in, offset);
    Buffer xdot(batch * in, (offset + 1) % 4);
    Buffer zbar(batch * out, (offset + 2) % 4);
    Buffer zbardot(batch * out, (offset + 3) % 4);
    fill(rng, x);
    fill(rng, xdot);
    fill(rng, zbar, zero_share);
    fill(rng, zbardot, zero_share);
    // Nonzero starting sums: both kernels accumulate into whvp and bhvp.
    Buffer want_w(out * in, offset);
    Buffer want_b(out, (offset + 1) % 4);
    fill(rng, want_w);
    fill(rng, want_b);
    Buffer got_w(out * in, (offset + 2) % 4);
    Buffer got_b(out, (offset + 3) % 4);
    std::memcpy(got_w.data(), want_w.data(), out * in * sizeof(double));
    std::memcpy(got_b.data(), want_b.data(), out * sizeof(double));
    rows_->dense_param_grad_tangent(x.data(), xdot.data(), zbar.data(),
                                    zbardot.data(), batch, in, out,
                                    want_w.data(), want_b.data());
    tiles_->dense_param_grad_tangent(x.data(), xdot.data(), zbar.data(),
                                     zbardot.data(), batch, in, out,
                                     got_w.data(), got_b.data());
    ASSERT_TRUE(same_bytes(want_w, got_w))
        << "whvp, " << describe(shape, batch, zero_share, offset);
    ASSERT_TRUE(same_bytes(want_b, got_b))
        << "bhvp, " << describe(shape, batch, zero_share, offset);
  });
}

}  // namespace
}  // namespace dpho::nn::simd
