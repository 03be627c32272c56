// Shells the actual `ivory` binary (path injected via IVORY_CLI_BIN) and
// checks the CLI contract: unknown subcommands and missing required flags
// print usage to *stderr* and exit non-zero; stdout stays clean so pipelines
// never see error text.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#ifndef IVORY_CLI_BIN
#error "IVORY_CLI_BIN must point at the ivory binary"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run_command(const std::string& cmd) {
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  std::array<char, 512> buf;
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) r.output += buf.data();
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// Runs `ivory <args>` with the given stream captured ("2>&1 1>/dev/null"
/// keeps stderr only; "2>/dev/null" keeps stdout only).
RunResult run_cli(const std::string& args, const std::string& redirect) {
  return run_command(std::string(IVORY_CLI_BIN) + " " + args + " " + redirect);
}

TEST(CliUsage, UnknownSubcommandPrintsUsageToStderrAndExits2) {
  const RunResult r = run_cli("frobnicate", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown subcommand 'frobnicate'"), std::string::npos);
  EXPECT_NE(r.output.find("ivory explore"), std::string::npos);  // usage text
  // Nothing leaked to stdout.
  EXPECT_TRUE(run_cli("frobnicate", "2>/dev/null").output.empty());
}

TEST(CliUsage, NoArgumentsPrintsUsageAndExits2) {
  const RunResult r = run_cli("", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("ivory serve"), std::string::npos);
}

TEST(CliUsage, MissingRequiredFlagExits2WithUsage) {
  const RunResult r = run_cli("serve", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("missing required flag --socket"), std::string::npos);
  EXPECT_NE(r.output.find("ivory serve"), std::string::npos);
  EXPECT_TRUE(run_cli("serve", "2>/dev/null").output.empty());
}

TEST(CliUsage, DanglingFlagValueExits2) {
  const RunResult r = run_cli("sc --n", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("every flag needs a value"), std::string::npos);
}

TEST(CliUsage, UnknownTransientKernelExits2) {
  // The general sparse kernel is gone: --kernel sparse is a usage error that
  // names the remaining kernels, never a silent fallback to auto.
  const std::string netlist = ::testing::TempDir() + "cli_usage_rc.sp";
  std::ofstream(netlist) << "vin in 0 DC 1\nr1 in out 1k\nc1 out 0 1n\n.end\n";
  const RunResult r = run_cli("transient --netlist " + netlist +
                                  " --tstop 1e-8 --dt 1e-9 --kernel sparse",
                              "2>&1 1>/dev/null");
  std::remove(netlist.c_str());
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown --kernel 'sparse' (auto|dense|banded)"), std::string::npos)
      << r.output;
}

TEST(CliUsage, RuntimeFailureExits1WithoutUsageSpam) {
  // A well-formed invocation that fails evaluation: exit 1 and no usage dump.
  const RunResult r = run_cli("sc --n 0 --m 1", "2>&1 1>/dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.output.find("ivory explore"), std::string::npos);
}

TEST(CliUsage, BatchPropagatesResponsesToStdout) {
  const RunResult r = run_command(std::string("echo '{\"op\":\"stats\",\"id\":1}' | ") +
                                  IVORY_CLI_BIN + " batch 2>/dev/null");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"ok\":true"), std::string::npos);
}

}  // namespace
