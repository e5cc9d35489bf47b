// e2ebench: the end-to-end monitor benchmark's binary.
//
//   e2ebench gen --seed N --out DIR [--smoke] [--cbin] [--csv] [--frames]
//   e2ebench run --workload W --corpus DIR --seconds S --trace 0|1 [--ladder R0,R1,...]
//
// `gen` writes the seeded corpus and its oracle; `run` drives one workload
// over it from the current directory (checkpoints, verdict logs and the
// daemon's socket land there) and prints raw samples as one JSON line.
// run.py is the entry point that builds, generates, runs and checks.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>

#include "gen.h"
#include "workloads.h"

namespace {

template <class T>
std::vector<T> parse_list(const std::string& s) {
  std::vector<T> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::istringstream v(item);
    T x{};
    if (!(v >> x)) throw std::invalid_argument("bad list item '" + item + "'");
    out.push_back(x);
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench gen --seed N --out DIR [--smoke] [--cbin] [--csv] [--frames]\n"
               "       e2ebench run --workload W --corpus DIR --seconds S --trace 0|1 "
               "[--ladder R0,R1,...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view mode = argv[1];
  try {
    if (mode == "gen") {
      e2e::GenArgs g;
      for (int i = 2; i < argc; ++i) {
        const std::string_view f = argv[i];
        const auto value = [&]() -> std::string {
          if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(f));
          return argv[++i];
        };
        if (f == "--seed") g.seed = std::stoull(value());
        else if (f == "--out") g.out = value();
        else if (f == "--smoke") g.smoke = true;
        else if (f == "--cbin") g.cbin = true;
        else if (f == "--csv") g.csv = true;
        else if (f == "--frames") g.frames = true;
        else return usage();
      }
      if (g.out.empty()) return usage();
      return e2e::run_gen(g);
    }
    if (mode == "run") {
      e2e::RunArgs r;
      for (int i = 2; i < argc; ++i) {
        const std::string_view f = argv[i];
        const auto value = [&]() -> std::string {
          if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(f));
          return argv[++i];
        };
        if (f == "--workload") r.workload = value();
        else if (f == "--corpus") r.corpus = value();
        else if (f == "--seconds") r.seconds = std::stod(value());
        else if (f == "--trace") r.trace = value() == "1";
        else if (f == "--ladder") r.ladder = parse_list<double>(value());
        else return usage();
      }
      if (r.workload.empty() || r.corpus.empty()) return usage();
      return e2e::run_workload(r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  return usage();
}
