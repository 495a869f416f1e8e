// mvcom_perfbench — the repository benchmark's binary. One invocation runs
// one workload for a fixed wall-clock budget and prints one JSON line:
//
//   mvcom_perfbench --workload serve|des_faults|fabric_faults|se_solve
//                   --seed N --seconds S --trace 0|1
//                   [--tiny] [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the same loop untraced and then traced, and reports the per-layer
// metrics plus the tracing overhead. --tiny shrinks every input for the
// self-test. perfbench/run.py builds this binary and wraps its output in the
// benchmark's result format.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mvcom_perfbench: %s\n"
               "usage: mvcom_perfbench --workload "
               "serve|des_faults|fabric_faults|se_solve --seed N "
               "--seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else {
        usage("unknown argument");
      }
    } catch (const std::exception&) {
      usage("malformed number");
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");

  perfbench::Outcome out;
  try {
    if (options.workload == "serve") {
      perfbench::run_serve(options, out);
    } else if (options.workload == "des_faults") {
      perfbench::run_des_faults(options, out);
    } else if (options.workload == "fabric_faults") {
      perfbench::run_fabric_faults(options, out);
    } else if (options.workload == "se_solve") {
      perfbench::run_se_solve(options, out);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvcom_perfbench: %s\n", e.what());
    return 1;
  }
  out.info("workload", std::string_view(options.workload));
  out.info("seed", options.seed);
  out.info("trace", static_cast<std::uint64_t>(options.trace ? 1 : 0));
  out.info("tiny", static_cast<std::uint64_t>(options.tiny ? 1 : 0));
  out.info("compiler", std::string_view(PERFBENCH_COMPILER));
  out.info("build_type", std::string_view(PERFBENCH_BUILD_TYPE));
  std::printf("%s\n", out.to_json().c_str());
  return 0;
}
