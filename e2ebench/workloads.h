// `e2ebench run`: the three workloads against the system under test.
//
// Each run prints one JSON object of raw samples on stdout (per-pass times,
// verdict lines and oracle records, per-layer spans when traced); run.py
// checks the verdicts against the oracle and reduces the samples to the
// benchmark's metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

struct RunArgs {
  std::string workload;
  std::string corpus;  // directory written by `e2ebench gen`
  double seconds = 10.0;
  bool trace = false;
  /// daemon_unix_paced: the open-loop rates (flows/s), ascending; the first
  /// is the reference rate.
  std::vector<double> ladder;
};

int run_workload(const RunArgs& args);

}  // namespace e2e
