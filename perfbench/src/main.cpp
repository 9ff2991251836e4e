// perfbench: the repository benchmark's measuring program.
//
//   perfbench gen --workload W --seed N --dir D
//       writes workload W's inputs for seed N into D;
//   perfbench run --workload W --seed N --seconds T --trace 0|1 --dir D
//       measures W for about T seconds over the inputs in D and prints
//       the result (last stdout line: one JSON object).
//
// perfbench/run.py builds this program and drives both steps.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen|run --workload W --seed N --dir D "
                         "[--seconds T] [--trace 0|1]\n");
    return 2;
  }
  const std::string mode = argv[1];
  RunConfig cfg;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") cfg.workload = val;
    else if (key == "--seed") cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") cfg.trace = val == "1";
    else if (key == "--dir") cfg.dir = val;
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (cfg.dir.empty() || cfg.seconds <= 0.0) {
    std::fprintf(stderr, "--dir and a positive --seconds are required\n");
    return 2;
  }
  try {
    const bool batch = cfg.workload == "rmat-detect" || cfg.workload == "rmat-spill";
    if (!batch && cfg.workload != "stream-ingest") {
      std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
      return 2;
    }
    if (mode == "gen") {
      if (batch) generate_batch_inputs(cfg);
      else generate_stream_inputs(cfg);
      return 0;
    }
    if (mode != "run") return 2;
    const Result r = cfg.workload == "rmat-detect" ? run_rmat_detect(cfg)
                     : cfg.workload == "rmat-spill" ? run_rmat_spill(cfg)
                                                    : run_stream_ingest(cfg);
    r.print(cfg.workload);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
