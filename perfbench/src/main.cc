// The Sieve benchmark binary. Usage:
//
//   sieve_perfbench --workload <serve_prepared|adhoc_analytic|policy_churn>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--out <dir>] [--commit <id>] [--source-digest <hex>]
//
// Prints the environment, a human-readable metric block and, as the last
// line of standard output, the one-line JSON result. perfbench/run.py
// builds this binary and is the intended entry point.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "perfbench/src/perfbench.h"

#ifndef SIEVE_PERFBENCH_BUILD_TYPE
#define SIEVE_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIEVE_MARCH_FLAG
#define SIEVE_MARCH_FLAG ""
#endif

namespace {

/// The benchmark reports only from this build type.
constexpr const char* kRequiredBuildType = "Release";

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sieve_perfbench --workload "
               "<serve_prepared|adhoc_analytic|policy_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--commit <id>] "
               "[--source-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  std::string digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage("every option takes a value");
    const std::string key = argv[i];
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown option " + key).c_str());
    }
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (std::strcmp(SIEVE_PERFBENCH_BUILD_TYPE, kRequiredBuildType) != 0) {
    std::fprintf(stderr, "error: built as %s; the benchmark reports only from a "
                         "%s build\n",
                 SIEVE_PERFBENCH_BUILD_TYPE, kRequiredBuildType);
    return 2;
  }
  mkdir(args.out_dir.c_str(), 0755);

  const char* march = SIEVE_MARCH_FLAG[0] != '\0' ? SIEVE_MARCH_FLAG : "default";
  const std::string env = sieve::StrFormat(
      "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"march\": \"%s\", \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}",
      std::thread::hardware_concurrency(), __VERSION__, SIEVE_PERFBENCH_BUILD_TYPE,
      march, commit.c_str(), digest.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("env %s\n", env.c_str());
  std::fflush(stdout);

  perfbench::Report report;
  int rc;
  if (args.workload == "serve_prepared") {
    rc = perfbench::RunServePrepared(args, &report);
  } else if (args.workload == "adhoc_analytic") {
    rc = perfbench::RunAdhocAnalytic(args, &report);
  } else if (args.workload == "policy_churn") {
    rc = perfbench::RunPolicyChurn(args, &report);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (rc != 0) return rc;

  report.PrintHuman();
  const std::string result = report.ResultLine();
  const std::string path = sieve::StrFormat(
      "%s/%s_seed%llu_trace%d.json", args.out_dir.c_str(), args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out, "{\"env\": %s,\n \"result\": %s}\n", env.c_str(), result.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", result.c_str());
  return report.correct() ? 0 : 1;
}
