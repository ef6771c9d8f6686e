// mslint fixture suite: every rule has a known-bad fixture asserting
// exact rule IDs and line numbers, a known-good fixture asserting
// silence, and the suppression fixture covers allow() single,
// multi-rule, and wrong-rule cases.  Exit codes are checked against the
// real binary (MSLINT_BINARY) since CI scripts branch on them.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"

namespace {

using mergescale::lint::Finding;
using mergescale::lint::lint_file;
using mergescale::lint::lint_source;

std::string fixture(const std::string& name) {
  return std::string(MSLINT_TESTDATA_DIR) + "/" + name;
}

/// (line, rule) pairs, sorted — findings within one line carry no
/// meaningful order.
std::vector<std::pair<int, std::string>> lines_of(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  out.reserve(findings.size());
  for (const Finding& finding : findings) {
    out.emplace_back(finding.line, finding.rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

int run_mslint(const std::string& arguments) {
  const std::string command =
      std::string(MSLINT_BINARY) + " " + arguments + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

TEST(MslintRules, HotAllocAndHotStringFire) {
  const auto got = lines_of(lint_file(fixture("hot_rules_bad.cpp")));
  const std::vector<std::pair<int, std::string>> want = {
      {8, "hot-alloc"},
      {9, "hot-string"},
      {10, "hot-string"},
      {10, "hot-string"},  // std::string construction + std::to_string
  };
  EXPECT_EQ(got, want);
}

TEST(MslintRules, CleanHotRegionIsSilent) {
  EXPECT_TRUE(lint_file(fixture("hot_rules_good.cpp")).empty());
}

TEST(MslintRules, HotIostreamFires) {
  const auto got = lines_of(lint_file(fixture("hot_iostream_bad.cpp")));
  const std::vector<std::pair<int, std::string>> want = {
      {9, "hot-iostream"},
      {11, "hot-iostream"},
      {11, "hot-iostream"},  // std::cout + std::endl
  };
  EXPECT_EQ(got, want);
}

TEST(MslintRules, RawLawNameFires) {
  const auto got = lines_of(lint_file(fixture("raw_law_name_bad.cpp")));
  const std::vector<std::pair<int, std::string>> want = {
      {17, "raw-law-name"},
      {17, "raw-law-name"},
      {18, "raw-law-name"},
      {18, "raw-law-name"},
  };
  EXPECT_EQ(got, want);
}

TEST(MslintRules, BareLockFires) {
  const auto got = lines_of(lint_file(fixture("bare_lock_bad.cpp")));
  const std::vector<std::pair<int, std::string>> want = {
      {9, "bare-lock"},  {11, "bare-lock"}, {14, "bare-lock"},
      {16, "bare-lock"}, {20, "bare-lock"}, {22, "bare-lock"},
  };
  EXPECT_EQ(got, want);
}

TEST(MslintRules, RaiiGuardsPass) {
  EXPECT_TRUE(lint_file(fixture("bare_lock_good.cpp")).empty());
}

TEST(MslintRules, AllowSuppressesNamedRulesOnly) {
  const auto got = lines_of(lint_file(fixture("suppressions.cpp")));
  // allow(bare-lock), allow(hot-alloc, hot-string), and the
  // comment-line (next-line) form suppress their targets; the
  // allow(hot-alloc) on line 14 names the wrong rule, and the next-line
  // allow is spent after one line, so those two findings survive.
  const std::vector<std::pair<int, std::string>> want = {
      {14, "bare-lock"},
      {19, "bare-lock"},
  };
  EXPECT_EQ(got, want);
}

TEST(MslintRules, RawIoFires) {
  const auto got = lines_of(lint_file(fixture("raw_io_bad.cpp")));
  const std::vector<std::pair<int, std::string>> want = {
      {11, "raw-io"}, {13, "raw-io"}, {14, "raw-io"}, {19, "raw-io"},
      {20, "raw-io"}, {21, "raw-io"}, {23, "raw-io"}, {24, "raw-io"},
      {41, "raw-io"}, {42, "raw-io"},
  };
  EXPECT_EQ(got, want);
}

TEST(MslintRules, RawIoExemptsIoEnvCpp) {
  // util/io_env.cpp is the designated raw-I/O boundary; the same calls
  // that fire elsewhere are silent there (matched by path suffix, so a
  // build-tree copy stays exempt too).
  const std::string source =
      "#include <cstdio>\n"
      "void f(const char* p) { fopen(p, \"wb\"); ::unlink(p); }\n";
  EXPECT_FALSE(lint_source("src/other.cpp", source).empty());
  EXPECT_TRUE(lint_source("src/util/io_env.cpp", source).empty());
}

TEST(MslintRules, QualifiedNamesAreNotRawIo) {
  // std::filesystem::rename and member statics carry an identifier
  // before the colons — only the global-namespace form is banned.
  const std::string source =
      "#include <filesystem>\n"
      "void f() { std::filesystem::rename(\"a\", \"b\"); File::open(1); }\n";
  EXPECT_TRUE(lint_source("src/other.cpp", source).empty());
}

TEST(MslintScanner, StringsCommentsAndRawStringsDoNotFire) {
  const std::string source =
      "// mslint: hot-path\n"
      "const char* a = \"new std::string intern(x)\";\n"
      "const char* b = R\"(new std::string .name())\";\n"
      "/* new std::string */ int c = 0;\n"
      "char d = 'n';\n";
  EXPECT_TRUE(lint_source("inline.cpp", source).empty());
}

TEST(MslintScanner, HotRegionTogglesAndRetriggers) {
  const std::string source =
      "int* a = new int(1);\n"        // cold: never hot yet
      "// mslint: hot-path\n"
      "int* b = new int(2);\n"        // line 3: hot
      "// mslint: cold\n"
      "int* c = new int(3);\n"        // cold again
      "// mslint: hot-path\n"
      "int* d = new int(4);\n";       // line 7: hot again
  const auto got = lines_of(lint_source("inline.cpp", source));
  const std::vector<std::pair<int, std::string>> want = {
      {3, "hot-alloc"},
      {7, "hot-alloc"},
  };
  EXPECT_EQ(got, want);
}

TEST(MslintScanner, FindingFormatIsStable) {
  const Finding finding{"src/core/perf.cpp", 42, "hot-alloc", "boom"};
  EXPECT_EQ(mergescale::lint::format_finding(finding),
            "src/core/perf.cpp:42: hot-alloc: boom");
}

TEST(MslintCli, ExitCodes) {
  EXPECT_EQ(run_mslint(fixture("hot_rules_good.cpp")), 0);
  EXPECT_EQ(run_mslint(fixture("bare_lock_bad.cpp")), 1);
  EXPECT_EQ(run_mslint(fixture("does_not_exist.cpp")), 2);
  EXPECT_EQ(run_mslint("--no-such-flag"), 2);
  EXPECT_EQ(run_mslint(""), 2);  // no inputs is a usage error
}

TEST(MslintCli, DirectoryWalkSkipsTestdataFixtures) {
  // Linting the directory that CONTAINS testdata/ must come back clean:
  // the walk skips fixture dirs (intentionally dirty) and the lint
  // tool's own sources must not trip their own rules.
  EXPECT_EQ(run_mslint(std::string(MSLINT_TESTDATA_DIR) + "/.."), 0);
}

TEST(MslintCli, ListRulesCoversEveryRule) {
  for (const std::string& rule : mergescale::lint::rule_ids()) {
    EXPECT_FALSE(rule.empty());
  }
  EXPECT_EQ(mergescale::lint::rule_ids().size(), 6u);
  EXPECT_EQ(run_mslint("--list-rules"), 0);
}

}  // namespace
