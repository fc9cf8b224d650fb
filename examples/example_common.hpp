// Shared argument handling for the examples: a --threads=N knob that fans
// repetitions (and the y-sweep) out across a task-group ThreadPool.
//
// Parallelism only changes wall-clock time: every repetition derives its
// seed independently of execution order and lands in a fixed result slot,
// so the numbers printed with --threads=8 are bit-identical to --threads=1
// (see README "Deterministic parallelism").
//
// Numbers parse by the bench drivers' rule (bench::parse_number): the whole
// argument or exit 2 with a message, so a typo never runs a default.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/thread_pool.hpp"

namespace examples {

struct Args {
  int threads = 1;
  /// Non-flag arguments in order (flags never shift positional indices).
  std::vector<std::string> positional;
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      args.threads =
          std::max(1, paldia::bench::parse_number<int>("--threads", arg.substr(10)));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--threads=N] [positional args]\n"
                << "  --threads=N  run repetitions on N worker threads\n"
                << "               (output is bit-identical to --threads=1)\n";
      std::exit(0);
    } else if (arg.rfind("--", 0) == 0) {
      paldia::bench::usage_error("unknown option '" + std::string(arg) + "'");
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
}

/// nullptr when --threads=1 (serial); otherwise a lazily-built pool that
/// lives for the rest of the process.
inline paldia::ThreadPool* pool_for(const Args& args) {
  static std::unique_ptr<paldia::ThreadPool> pool;
  if (args.threads > 1 && pool == nullptr) {
    pool = std::make_unique<paldia::ThreadPool>(args.threads);
  }
  return pool.get();
}

/// Positional argument `index` parsed in full as a T; `fallback` when absent.
template <typename T>
T positional(const Args& args, std::size_t index, T fallback) {
  if (index >= args.positional.size()) return fallback;
  return paldia::bench::parse_number<T>("argument " + std::to_string(index + 1),
                                        args.positional[index]);
}

}  // namespace examples
