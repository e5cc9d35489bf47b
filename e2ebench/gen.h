// `e2ebench gen`: writes the seeded corpus and its batch oracle.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace e2e {

struct GenArgs {
  std::uint64_t seed = 1;
  std::string out;
  /// One short day's campus (a tenth of the hosts) for the smoke tests.
  bool smoke = false;
  bool cbin = false;
  bool csv = false;
  bool frames = false;
};

int run_gen(const GenArgs& args);

}  // namespace e2e
