// Every vector table's dense kernels against the scalar table, byte for
// byte: dense_forward (with a bias, and without one as the JVP runs it),
// dense_backward_input and dense_param_grad_tangent.  Every element of
// every table is the FMA chain nn/simd.hpp specifies, so its bits may not
// depend on the vector width, the tile shape or the rows tiled with it.
// The scalar table computes each row on its own, so matching it also
// proves that a row's bits do not depend on its batch.
//
// The grid covers every in and out from 1 to 17 (each full vector block
// and each masked or scalar tail of the tiles) plus the paper's layer
// shapes; batches 1-9, 15-17, 63-65 and 129, which fill whole 4- and 8-row
// tiles and 64-sample blocks and leave remainders; inputs and adjoints
// with 1 in 7 and with half of them exactly +-0; nonzero starting
// parameter tangents; and buffers at every offset of 0-7 doubles from an
// allocation's start, so loads and stores see every 8-byte alignment mod
// 64.  The small shapes run every (batch, zero share) pair and the paper
// shapes each batch once; the offsets cycle through the cases, so each
// shape meets every offset.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/simd.hpp"
#include "util/rng.hpp"

namespace dpho::nn::simd {
namespace {

struct Shape {
  std::size_t in;
  std::size_t out;
};

// Embedding layers 1x25, 25x50, 50x100; fitting layers 400x240 (a 100 x 4
// descriptor), 240x240 and the 240x1 output.
constexpr Shape kPaperShapes[] = {{1, 25},    {25, 50},   {50, 100},
                                  {400, 240}, {240, 240}, {240, 1}};

constexpr std::size_t kBatches[] = {1,  2,  3,  4,  5,  6,  7,  8,
                                    9,  15, 16, 17, 63, 64, 65, 129};

/// Share of values set to exactly +-0 (signs alternate).
constexpr double kZeroShares[] = {1.0 / 7.0, 0.5};

constexpr std::size_t kOffsets = 8;

/// A buffer of `count` doubles that starts `offset` doubles into its
/// allocation.  The slack on both sides holds NaN, so a kernel that reads
/// or writes past either end shows up in the bytes compared.
class Buffer {
 public:
  Buffer(std::size_t count, std::size_t offset)
      : storage_(count + kOffsets, std::numeric_limits<double>::quiet_NaN()),
        offset_(offset % kOffsets),
        count_(count) {}
  double* data() { return storage_.data() + offset_; }
  const double* data() const { return storage_.data() + offset_; }
  std::size_t size() const { return count_; }
  /// The whole allocation, slack included.
  const std::vector<double>& storage() const { return storage_; }

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

/// Two buffers hold the same bytes, their NaN slack included.
bool same_bytes(const Buffer& a, const Buffer& b) {
  return a.storage().size() == b.storage().size() &&
         std::memcmp(a.storage().data(), b.storage().data(),
                     a.storage().size() * sizeof(double)) == 0;
}

/// One case of the grid.
struct Case {
  Shape shape;
  std::size_t batch;
  double zero_share;
  std::size_t offset;

  std::string describe() const {
    return "in " + std::to_string(shape.in) + " out " + std::to_string(shape.out) +
           " batch " + std::to_string(batch) + " zero share " +
           std::to_string(zero_share) + " offset " + std::to_string(offset);
  }
};

std::vector<Case> grid() {
  std::vector<Case> cases;
  std::size_t turn = 0;
  for (std::size_t in = 1; in <= 17; ++in) {
    for (std::size_t out = 1; out <= 17; ++out) {
      for (const std::size_t batch : kBatches) {
        for (const double zero_share : kZeroShares) {
          cases.push_back({{in, out}, batch, zero_share, turn++ % kOffsets});
        }
      }
    }
  }
  for (const Shape& shape : kPaperShapes) {
    for (const std::size_t batch : kBatches) {
      cases.push_back({shape, batch, kZeroShares[turn % 2], turn % kOffsets});
      ++turn;
    }
  }
  return cases;
}

/// Runs one vector table; a level the CPU lacks is skipped.
class SimdTiles : public ::testing::TestWithParam<Level> {
 protected:
  void SetUp() override {
    tiles_ = table(GetParam());
    if (tiles_ == nullptr) {
      GTEST_SKIP() << "this build or CPU has no such vector table";
    }
  }

  /// Runs `check` over the whole grid, stopping at the first failure.
  template <class Check>
  void over_grid(Check check) {
    util::Rng rng(2024);
    for (const Case& c : grid()) {
      check(rng, c);
      if (HasFailure()) return;
    }
  }

  const Ops& scalar_ = scalar_ops();
  const Ops* tiles_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Vector, SimdTiles,
                         ::testing::Values(Level::kAvx2, Level::kAvx512),
                         [](const auto& param_info) {
                           return std::string(param_info.param == Level::kAvx2
                                                  ? "avx2"
                                                  : "avx512");
                         });

TEST_P(SimdTiles, ForwardMatchesScalarByteForByte) {
  over_grid([&](util::Rng& rng, const Case& c) {
    const auto [in, out] = c.shape;
    Buffer wt(in * out, c.offset);
    Buffer bias(out, c.offset + 1);
    Buffer x(c.batch * in, c.offset + 2);
    fill(rng, wt);
    fill(rng, bias);
    fill(rng, x, c.zero_share);
    for (const bool with_bias : {true, false}) {
      const double* b = with_bias ? bias.data() : nullptr;
      Buffer want(c.batch * out, c.offset + 3);
      Buffer got(c.batch * out, c.offset + 3);
      scalar_.dense_forward(wt.data(), b, x.data(), c.batch, in, out, want.data());
      tiles_->dense_forward(wt.data(), b, x.data(), c.batch, in, out, got.data());
      ASSERT_TRUE(same_bytes(want, got))
          << (with_bias ? "with" : "without") << " bias, " << c.describe();
    }
  });
}

TEST_P(SimdTiles, BackwardInputMatchesScalarByteForByte) {
  over_grid([&](util::Rng& rng, const Case& c) {
    const auto [in, out] = c.shape;
    Buffer w(out * in, c.offset);
    Buffer zbar(c.batch * out, c.offset + 1);
    fill(rng, w);
    fill(rng, zbar, c.zero_share);
    Buffer want(c.batch * in, c.offset + 2);
    Buffer got(c.batch * in, c.offset + 2);
    scalar_.dense_backward_input(w.data(), zbar.data(), c.batch, in, out,
                                 want.data());
    tiles_->dense_backward_input(w.data(), zbar.data(), c.batch, in, out,
                                 got.data());
    ASSERT_TRUE(same_bytes(want, got)) << c.describe();
  });
}

TEST_P(SimdTiles, ParamGradTangentMatchesScalarByteForByte) {
  over_grid([&](util::Rng& rng, const Case& c) {
    const auto [in, out] = c.shape;
    Buffer x(c.batch * in, c.offset);
    Buffer xdot(c.batch * in, c.offset + 1);
    Buffer zbar(c.batch * out, c.offset + 2);
    Buffer zbardot(c.batch * out, c.offset + 3);
    fill(rng, x);
    fill(rng, xdot);
    fill(rng, zbar, c.zero_share);
    fill(rng, zbardot, c.zero_share);
    // Nonzero starting sums: both kernels accumulate into whvp and bhvp.
    Buffer want_w(out * in, c.offset + 4);
    Buffer want_b(out, c.offset + 5);
    fill(rng, want_w);
    fill(rng, want_b);
    Buffer got_w = want_w;
    Buffer got_b = want_b;
    scalar_.dense_param_grad_tangent(x.data(), xdot.data(), zbar.data(),
                                     zbardot.data(), c.batch, in, out,
                                     want_w.data(), want_b.data());
    tiles_->dense_param_grad_tangent(x.data(), xdot.data(), zbar.data(),
                                     zbardot.data(), c.batch, in, out,
                                     got_w.data(), got_b.data());
    ASSERT_TRUE(same_bytes(want_w, got_w)) << "whvp, " << c.describe();
    ASSERT_TRUE(same_bytes(want_b, got_b)) << "bhvp, " << c.describe();
  });
}

}  // namespace
}  // namespace dpho::nn::simd
