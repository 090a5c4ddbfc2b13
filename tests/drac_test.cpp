//===- tests/drac_test.cpp - drac command-line tests ------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace dra;

#if !defined(DRA_SOURCE_DIR) || !defined(DRAC_PATH)
#error "build must define DRA_SOURCE_DIR and DRAC_PATH"
#endif

namespace {

std::string readText(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

/// Runs \p Args (program path first) without a shell, with stdout and
/// stderr written to the given files. Returns the exit status, or -1 if
/// the program could not be started or did not exit normally.
int run(const std::vector<std::string> &Args, const std::string &StdoutPath,
        const std::string &StderrPath) {
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, StdoutPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, StderrPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t Pid;
  int Err = posix_spawn(&Pid, Argv[0], &Actions, nullptr, Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Err != 0)
    return -1;
  int Status;
  if (waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

} // namespace

TEST(DracTimingsTest, EveryLayerAndExportIsTimed) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / indexed("drac-timings-", getpid());
  fs::create_directories(Dir);
  auto Out = [&](const char *Name) { return (Dir / Name).string(); };
  std::vector<std::string> Args = {
      DRAC_PATH,
      std::string(DRA_SOURCE_DIR) + "/examples/programs/stencil.dra",
      "--procs", "4", "--scheme", "T-DRPM-m", "--verify", "--timings",
      "--report-json", Out("report.json"),
      "--ledger-json", Out("ledger.json"),
      "--attrib-json", Out("attrib.json"),
      "--flame", Out("flame.txt"),
      "--footprint-json", Out("footprint.json"),
      "--timeline-json", Out("timeline.json"),
      "--trace-json", Out("trace.json"),
      "--metrics-json", Out("metrics.json")};
  ASSERT_EQ(run(Args, Out("stdout.txt"), Out("stderr.txt")), 0)
      << readText(Out("stderr.txt"));

  JsonValue Metrics;
  std::string Error;
  ASSERT_TRUE(parseJson(readText(Out("metrics.json")), Metrics, Error))
      << Error;
  const JsonValue *Hists = Metrics.find("histograms");
  ASSERT_NE(Hists, nullptr);
  std::string Table = readText(Out("stdout.txt"));
  // The metrics document is written last, so it holds every other export;
  // the table is printed after all files are written, so it holds all.
  for (const char *Pass :
       {"parse", "verify-ir", "verify-layout", "verify-footprint",
        "verify-schedule",
        "trace-gen", "simulate", "export.report", "export.ledger",
        "export.attrib", "export.flame", "export.footprint", "export.timeline",
        "export.trace", "export.metrics"}) {
    std::string P = Pass;
    EXPECT_NE(Table.find("\n" + P + " "), std::string::npos) << P << "\n"
                                                             << Table;
    if (P == "export.metrics")
      continue;
    const JsonValue *H = Hists->find("pass." + P + ".wall_ms");
    ASSERT_NE(H, nullptr) << P;
    if (P == "parse" || P.rfind("export.", 0) == 0) {
      EXPECT_EQ(H->find("count")->Num, 1.0) << P;
    }
  }
  fs::remove_all(Dir);
}

TEST(DracTenantsTest, SpecProcsOutsideCliRangeIsRejected) {
  // A tenant spec's 'procs' obeys the same [1, 4096] as --procs, and a
  // value no integer type holds (1e30) is rejected before any conversion.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / indexed("drac-tenants-", getpid());
  fs::create_directories(Dir);
  std::string Demo = std::string(DRA_SOURCE_DIR) + "/examples/programs/demo.dra";
  for (const char *Procs : {"0", "-1", "2.5", "5000", "1e30"}) {
    std::string Spec = (Dir / "spec.json").string();
    std::ofstream(Spec) << R"({"schema": "dra-tenants-v1", "procs": )"
                        << Procs << R"(, "tenants": [{"file": ")" << Demo
                        << R"("}]})";
    std::string Err = (Dir / "stderr.txt").string();
    EXPECT_EQ(run({DRAC_PATH, "--tenants", Spec},
                  (Dir / "stdout.txt").string(), Err),
              1)
        << Procs;
    EXPECT_NE(readText(Err).find("'procs' must be an integer in [1, 4096]"),
              std::string::npos)
        << Procs << ": " << readText(Err);
  }
  fs::remove_all(Dir);
}
