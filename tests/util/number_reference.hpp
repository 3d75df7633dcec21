// The number text util::Json and util::CsvWriter printed before they moved
// to std::to_chars: a snprintf/strtod search over every precision.  Kept as
// the reference the differential tests in json_test.cpp and csv_test.cpp hold
// the library to, byte for byte.
#pragma once

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace dpho::util::reference {

/// The first `%.{p}g`, p = 1..17, that strtod reads back equal to `value`,
/// else `%.17g` (CsvWriter::format's old body).
inline std::string shortest_g(double value) {
  for (int precision = 1; precision <= 17; ++precision) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Json's old number text: null for NaN and inf, `%.0f` for integers below
/// 1e15 in magnitude, else shortest_g.
inline std::string json_number(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";
  if (value == std::nearbyint(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", value);
    return buf;
  }
  return shortest_g(value);
}

/// Values at the formatter's edges, each with both signs: zero, subnormals,
/// DBL_MIN and DBL_MAX, both sides of the 1e15 integer cut, powers of ten
/// where %g switches to an exponent, one-digit ties, 17-digit shortest forms,
/// non-finite values, and every power of two (at the bottom of a binade the
/// shortest digits can need one more %g digit, e.g. 2^-24).
inline std::vector<double> edge_values() {
  std::vector<double> values = {
      0.0, DBL_TRUE_MIN, 2 * DBL_TRUE_MIN, 1e-320, std::nextafter(DBL_MIN, 0.0),
      DBL_MIN, DBL_MAX, 1e15 - 1, 1e15 - 0.5, 1e15, 1e15 + 1, 1e16, 1e21, 1e22,
      1e-4, 1e-5, 0.5, 2.5, 9.5, 0.1 + 0.2, std::nextafter(1.0, 2.0), 1.0 / 3.0,
      INFINITY, NAN};
  for (int e = -1074; e <= 1023; ++e) values.push_back(std::ldexp(1.0, e));
  const std::size_t positive = values.size();
  for (std::size_t i = 0; i < positive; ++i) values.push_back(-values[i]);
  return values;
}

/// `count` doubles with uniformly random bits (every sign, exponent and
/// mantissa, NaN and inf included) from a seeded mt19937_64.
inline std::vector<double> random_bit_patterns(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<double> values(count);
  for (double& v : values) v = std::bit_cast<double>(rng());
  return values;
}

/// Indexes of `values` at which `matches` is false, in ascending order.  The
/// reference search costs about 16 us per random bit pattern, so a million
/// values are split across up to four threads.
template <typename Matches>
std::vector<std::size_t> mismatches(const std::vector<double>& values, Matches matches) {
  const std::size_t workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::vector<std::size_t>> found(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < values.size(); i += workers) {
        if (!matches(values[i])) found[w].push_back(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::size_t> all;
  for (const std::vector<std::size_t>& f : found) all.insert(all.end(), f.begin(), f.end());
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace dpho::util::reference
