// The fuzz passes every wire codec runs (dp_serve, dpho_sched and the worker
// protocol).  Each pass starts from one valid encoded message:
//
//   truncation -- every strict prefix of the wire text must be rejected with
//                 a util::Error (a strict prefix of a JSON document never
//                 parses as a complete one);
//   bit flips  -- bits 0, 3 and 6 of every byte are flipped one at a time;
//                 each mutant must be rejected with a util::Error or decode
//                 to a value that still satisfies the codec's invariant;
//   numbers    -- 1e30, -1 and 2.5 go into each integer field in turn, and
//                 every one must be rejected with a util::Error.
//
// `decode` maps a parsed util::Json to the decoded value; `invariant` checks
// one decoded value with gtest assertions (it must not throw).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dpho::test_support {

/// Returns how many prefixes were rejected (all of them, on success).
template <typename Decode>
std::size_t fuzz_truncation(const std::string& wire, Decode&& decode) {
  std::size_t rejected = 0;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    try {
      decode(util::Json::parse(wire.substr(0, cut)));
      ADD_FAILURE() << "truncation at " << cut << " decoded successfully";
    } catch (const util::Error&) {
      ++rejected;
    }
  }
  return rejected;
}

struct FlipTally {
  std::size_t rejected = 0;
  std::size_t survived = 0;
};

template <typename Decode, typename Invariant>
FlipTally fuzz_bit_flips(const std::string& wire, Decode&& decode,
                         Invariant&& invariant) {
  using Decoded = std::invoke_result_t<Decode&, const util::Json&>;
  FlipTally tally;
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    for (const int bit : {0, 3, 6}) {
      std::string mutated = wire;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      std::optional<Decoded> value;
      try {
        value.emplace(decode(util::Json::parse(mutated)));
      } catch (const util::Error&) {
        ++tally.rejected;
        continue;
      }
      invariant(*value);
      ++tally.survived;
    }
  }
  return tally;
}

/// The keys (or array indices) that lead from a message to one field.
using FieldPath = std::vector<std::string>;

template <typename Decode>
void fuzz_integer_fields(const util::Json& message,
                         const std::vector<FieldPath>& fields, Decode&& decode) {
  EXPECT_NO_THROW(decode(util::Json::parse(message.dump())))
      << "the unmutated message must decode";
  for (const FieldPath& path : fields) {
    std::string name;
    for (const std::string& key : path) name += "/" + key;
    for (const double bad : {1e30, -1.0, 2.5}) {
      util::Json mutated = message;
      util::Json* slot = &mutated;
      for (const std::string& key : path) {
        slot = slot->is_array() ? &slot->as_array().at(std::stoul(key))
                                : &(*slot)[key];
      }
      *slot = bad;
      // Through the wire text, so the number is exactly what a peer sends.
      EXPECT_THROW(decode(util::Json::parse(mutated.dump())), util::Error)
          << name << " = " << bad;
    }
  }
}

}  // namespace dpho::test_support
