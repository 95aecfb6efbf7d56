// nest-lint self-tests: every rule in the catalog is proven by a real
// spawn of the checker binary over a pass fixture (exit 0, silence) and
// a fail fixture (exit 1, the expected finding text) under
// tests/lint_fixtures/. The suite also pins the CLI contract lint.sh
// and CI depend on: --list-rules, usage errors, compile_commands
// degradation, and — the acceptance criterion — a clean run over this
// repository's full tree.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

namespace {

#ifndef NEST_LINT_PATH
#error "NEST_LINT_PATH must point at the nest-lint binary"
#endif
#ifndef NEST_LINT_FIXTURES
#error "NEST_LINT_FIXTURES must point at tests/lint_fixtures"
#endif
#ifndef NEST_REPO_ROOT
#error "NEST_REPO_ROOT must point at the repository root"
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

RunResult run_lint(const std::vector<std::string>& args) {
  std::string cmd = std::string(NEST_LINT_PATH);
  for (const auto& a : args) cmd += " '" + a + "'";
  cmd += " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(NEST_LINT_FIXTURES) + "/" + name;
}

// Run one rule over its pass/fail fixture pair: the pass tree must be
// silent, the fail tree must exit 1 and name the rule.
void expect_rule(const std::string& rule, const std::string& expected_text) {
  RunResult pass =
      run_lint({"--root", fixture(rule + "_pass"), "--rule", rule});
  EXPECT_EQ(pass.exit_code, 0) << rule << "_pass:\n" << pass.output;
  EXPECT_EQ(pass.output, "") << rule << "_pass must be silent";

  RunResult fail =
      run_lint({"--root", fixture(rule + "_fail"), "--rule", rule});
  EXPECT_EQ(fail.exit_code, 1) << rule << "_fail:\n" << fail.output;
  EXPECT_NE(fail.output.find("[" + rule + "]"), std::string::npos)
      << rule << "_fail output:\n" << fail.output;
  EXPECT_NE(fail.output.find(expected_text), std::string::npos)
      << rule << "_fail should mention '" << expected_text << "':\n"
      << fail.output;
}

TEST(NestLintCli, ListRulesNamesTheWholeCatalog) {
  RunResult r = run_lint({"--list-rules"});
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule : {"layering", "syscalls", "lockrank", "suppress",
                           "errno", "stdlocks", "nodiscard", "voidcast"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos)
        << "missing rule " << rule << " in:\n" << r.output;
  }
}

TEST(NestLintCli, UnknownRuleIsAUsageError) {
  RunResult r = run_lint({"--root", fixture("layering_pass"), "--rule",
                          "no-such-rule"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown rule"), std::string::npos) << r.output;
}

TEST(NestLintCli, RootWithoutSrcIsAUsageError) {
  RunResult r = run_lint({"--root", fixture("layering_pass") + "/src/common"});
  EXPECT_EQ(r.exit_code, 2);
}

TEST(NestLintCli, MissingCompileCommandsDegradesToTreeWalk) {
  RunResult r = run_lint({"--root", fixture("layering_pass"),
                          "--compile-commands", "/nonexistent/ccdb.json"});
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("walking src/ instead"), std::string::npos)
      << r.output;
}

TEST(NestLintCli, CompileCommandsTuListIsHonored) {
  // A database pointing at the fail fixture's TU: the finding must still
  // appear when the TU arrives via the database path rather than the walk.
  const std::string db = ::testing::TempDir() + "/nestlint_cc.json";
  const std::string tu = fixture("syscalls_fail") + "/src/protocol/h.cpp";
  FILE* f = fopen(db.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fprintf(f,
          "[{\"directory\": \"/\", \"command\": \"c++ -c %s\", "
          "\"file\": \"%s\"}]\n",
          tu.c_str(), tu.c_str());
  fclose(f);
  RunResult r = run_lint({"--root", fixture("syscalls_fail"),
                          "--compile-commands", db, "--rule", "syscalls"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("[syscalls]"), std::string::npos) << r.output;
  remove(db.c_str());
}

TEST(NestLintRules, LayeringDagRejectsBackEdges) {
  expect_rule("layering", "back-edge include");
  RunResult fail = run_lint(
      {"--root", fixture("layering_fail"), "--rule", "layering"});
  EXPECT_NE(fail.output.find("sim sandbox"), std::string::npos)
      << fail.output;
}

TEST(NestLintRules, SyscallConfinement) {
  expect_rule("syscalls", "outside src/{storage,journal,net,hsm}/");
  RunResult fail = run_lint(
      {"--root", fixture("syscalls_fail"), "--rule", "syscalls"});
  EXPECT_NE(fail.output.find("outside src/net/"), std::string::npos)
      << "the socket family has the tighter net-only zone:\n" << fail.output;
  EXPECT_NE(fail.output.find("raw ::fork() in src/"), std::string::npos)
      << "process creation is banned in every production subdir:\n"
      << fail.output;
}

TEST(NestLintRules, LockrankTableDrift) {
  expect_rule("lockrank", "rank drift");
  RunResult fail = run_lint(
      {"--root", fixture("lockrank_fail"), "--rule", "lockrank"});
  EXPECT_NE(fail.output.find("`ghost`"), std::string::npos)
      << "rows absent from the enum must be findings too:\n" << fail.output;
}

TEST(NestLintRules, SuppressionPolicy) {
  expect_rule("suppress", "bare NOLINT");
  RunResult fail = run_lint(
      {"--root", fixture("suppress_fail"), "--rule", "suppress"});
  EXPECT_NE(fail.output.find("budget is 3"), std::string::npos) << fail.output;
  EXPECT_NE(fail.output.find("malformed nest-lint comment"), std::string::npos)
      << fail.output;
}

TEST(NestLintRules, ErrnoDoubleRead) {
  expect_rule("errno", "errno read twice");
}

TEST(NestLintRules, NakedStdLocks) {
  expect_rule("stdlocks", "naked std::mutex");
}

TEST(NestLintRules, NodiscardCoverage) {
  expect_rule("nodiscard", "is not NEST_NODISCARD");
  RunResult fail = run_lint(
      {"--root", fixture("nodiscard_fail"), "--rule", "nodiscard"});
  EXPECT_NE(fail.output.find("returns Errc"), std::string::npos)
      << "plain-enum returns are the ones the class attribute cannot "
         "cover:\n" << fail.output;
}

TEST(NestLintRules, VoidcastDiscipline) {
  expect_rule("voidcast", "without a reason");
  RunResult budget = run_lint(
      {"--root", fixture("voidcast_budget_fail"), "--rule", "voidcast"});
  EXPECT_EQ(budget.exit_code, 1);
  EXPECT_NE(budget.output.find("exceed the budget"), std::string::npos)
      << "fully-commented discards still count against the cap:\n"
      << budget.output;
}

// The acceptance criterion: the repository's own tree is clean under the
// full catalog. Runs exactly what scripts/lint.sh runs, so a rule
// regression (or a new violation anywhere in src/) fails the tier-1 gate
// here even on a box where lint.sh was never invoked.
TEST(NestLintTree, FullTreeIsClean) {
  RunResult r = run_lint({"--root", NEST_REPO_ROOT});
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

}  // namespace
