#include "lint/lint_core.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// Suite for fedrec_lint's rule engine. Fixtures live in
// tools/lint/testdata/ (the path is injected as FEDREC_LINT_TESTDATA); each
// known-bad file must produce exactly the expected diagnostic, with the
// expected file:line, and the known-clean file must produce none. The real
// tree is gated separately by the `fedrec_lint_tree` CTest entry.

namespace fedrec::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(FEDREC_LINT_TESTDATA) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lints fixture `name` under path key `key` with an empty fallible set.
std::vector<Diagnostic> LintFixture(const std::string& name,
                                    const std::string& key) {
  std::vector<Diagnostic> diagnostics;
  LintFile(key, ReadFixture(name), LintContext{}, diagnostics);
  return diagnostics;
}

TEST(ScanLinesTest, SplitsCodeAndComments) {
  const std::vector<ScannedLine> lines =
      ScanLines("int a = 1;  // trailing\n/* block */ int b;\n");
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].code, "int a = 1;  ");
  EXPECT_EQ(lines[0].comment, "// trailing");
  EXPECT_EQ(lines[1].code, " int b;");
  EXPECT_EQ(lines[1].comment, " block ");
}

TEST(ScanLinesTest, BlanksStringLiteralBodies) {
  const std::vector<ScannedLine> lines =
      ScanLines("auto s = \"reinterpret_cast // not a comment\";\n");
  EXPECT_EQ(lines[0].code.find("reinterpret_cast"), std::string::npos);
  EXPECT_TRUE(lines[0].comment.empty());
  // The quotes themselves survive so statement shapes stay recognizable.
  EXPECT_NE(lines[0].code.find('"'), std::string::npos);
}

TEST(ScanLinesTest, BlockCommentSpansLines) {
  const std::vector<ScannedLine> lines =
      ScanLines("/* one\ntwo */ int x;\n");
  EXPECT_EQ(lines[0].code, "");
  EXPECT_EQ(lines[0].comment, " one");
  EXPECT_EQ(lines[1].code, " int x;");
}

TEST(ScanLinesTest, RawStringBodyIsBlanked) {
  const std::vector<ScannedLine> lines = ScanLines(
      "auto s = R\"(std::rand() \"quoted\" // fedrec:hot)\";\nint y;\n");
  EXPECT_EQ(lines[0].code.find("std::rand"), std::string::npos);
  EXPECT_EQ(lines[0].code.find("fedrec:hot"), std::string::npos);
  EXPECT_TRUE(lines[0].comment.empty());
  EXPECT_EQ(lines[1].code, "int y;");
}

TEST(LintTest, UpwardIncludeIsExactlyOneLayeringDiagnostic) {
  const auto diagnostics =
      LintFixture("upward_include.cc", "src/data/upward_include.cc");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layering");
  EXPECT_EQ(diagnostics[0].file, "src/data/upward_include.cc");
  EXPECT_EQ(diagnostics[0].line, 4u);  // the model/mf_model.h include
  EXPECT_NE(diagnostics[0].message.find("model/mf_model.h"),
            std::string::npos);
}

TEST(LintTest, CrossLeafIncludeIsALayeringDiagnostic) {
  const auto diagnostics =
      LintFixture("cross_include.cc", "src/attack/cross_include.cc");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layering");
  EXPECT_EQ(diagnostics[0].line, 4u);  // the shard/wire.h include
}

TEST(LintTest, SameFixtureUnderTestsPathIsExempt) {
  // tests/ may include any layer; the layer DAG binds src/ only.
  const auto diagnostics =
      LintFixture("upward_include.cc", "tests/upward_include.cc");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintTest, RandAndRandomDeviceInFedAreDeterminismDiagnostics) {
  const auto diagnostics =
      LintFixture("rand_in_fed.cc", "src/fed/rand_in_fed.cc");
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "determinism");
  EXPECT_EQ(diagnostics[0].line, 8u);  // std::random_device
  EXPECT_EQ(diagnostics[1].rule, "determinism");
  EXPECT_EQ(diagnostics[1].line, 9u);  // std::rand()
}

TEST(LintTest, DeterminismBansDoNotApplyToBench) {
  const auto diagnostics =
      LintFixture("rand_in_fed.cc", "bench/rand_in_fed.cc");
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintTest, PushBackInHotRegionOnly) {
  const auto diagnostics =
      LintFixture("hot_push_back.cc", "src/fed/hot_push_back.cc");
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "hot-alloc");
  EXPECT_EQ(diagnostics[0].line, 9u);  // inside AccumulateRow, not the cold twin
  EXPECT_NE(diagnostics[0].message.find("push_back"), std::string::npos);
  EXPECT_EQ(diagnostics[1].rule, "hot-alloc");
  EXPECT_EQ(diagnostics[1].line, 10u);  // assign grows like push_back
  EXPECT_NE(diagnostics[1].message.find("assign"), std::string::npos);
}

TEST(LintTest, ObsRecordPathAllocationIsRejected) {
  // The obs registry's contract is an allocation-free record path; a metric
  // Record that builds a std::string or grows a vector inside its
  // `// fedrec:hot` region must fail the lint gate.
  const auto diagnostics =
      LintFixture("obs_hot_metric.cc", "src/obs/obs_hot_metric.cc");
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "hot-alloc");
  EXPECT_EQ(diagnostics[0].line, 14u);  // std::string construction
  EXPECT_EQ(diagnostics[1].rule, "hot-alloc");
  EXPECT_EQ(diagnostics[1].line, 15u);  // push_back
}

TEST(LintTest, ObsLayerMayNotIncludeUpward) {
  // obs ranks between common and the data/model/net tiers, so the fixture
  // that reaches up into model/ fails from src/obs exactly as from src/data.
  const auto diagnostics =
      LintFixture("upward_include.cc", "src/obs/upward_include.cc");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layering");
  EXPECT_NE(diagnostics[0].message.find("model/mf_model.h"),
            std::string::npos);
}

TEST(LintTest, UnorderedRangeForInShardIsADeterminismDiagnostic) {
  const auto diagnostics =
      LintFixture("unordered_range.cc", "src/shard/unordered_range.cc");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "determinism");
  EXPECT_EQ(diagnostics[0].line, 10u);  // for (const auto& entry : rows)
}

TEST(LintTest, ReinterpretCastAndNakedCatch) {
  const auto diagnostics =
      LintFixture("error_discipline.cc", "src/common/error_discipline.cc");
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "error-discipline");
  EXPECT_EQ(diagnostics[0].line, 9u);  // reinterpret_cast
  EXPECT_EQ(diagnostics[1].rule, "error-discipline");
  EXPECT_EQ(diagnostics[1].line, 10u);  // catch (...)
}

TEST(LintTest, ReinterpretCastIsAllowedInWireCc) {
  const auto diagnostics =
      LintFixture("error_discipline.cc", "src/shard/wire.cc");
  // The reinterpret_cast is allowlisted there; the naked catch still fires.
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 10u);
}

TEST(LintTest, DiscardedStatusNeedsTheHeaderPass) {
  // Without the header pass the call site cannot be known to be fallible.
  EXPECT_TRUE(
      LintFixture("discarded_status.cc", "src/data/discarded_status.cc")
          .empty());

  LintContext context;
  CollectFallible(ReadFixture("discarded_status.h"), context);
  EXPECT_EQ(context.fallible_functions.count("SaveCheckpoint"), 1u);

  std::vector<Diagnostic> diagnostics;
  LintFile("src/data/discarded_status.cc", ReadFixture("discarded_status.cc"),
           context, diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "error-discipline");
  EXPECT_EQ(diagnostics[0].line, 7u);  // SaveCheckpoint("model.bin");
  EXPECT_NE(diagnostics[0].message.find("SaveCheckpoint"), std::string::npos);
}

TEST(LintTest, CleanFixtureIsClean) {
  LintContext context;
  CollectFallible(ReadFixture("discarded_status.h"), context);
  std::vector<Diagnostic> diagnostics;
  LintFile("src/fed/clean.cc", ReadFixture("clean.cc"), context, diagnostics);
  EXPECT_TRUE(diagnostics.empty())
      << (diagnostics.empty() ? "" : diagnostics[0].ToString());
}

TEST(LintTest, DiagnosticFormatIsFileLineRuleMessage) {
  Diagnostic d{"src/fed/x.cc", 12, "determinism", "banned"};
  EXPECT_EQ(d.ToString(), "src/fed/x.cc:12: [determinism] banned");
}

TEST(LintTest, LintOkPragmaSuppressesOneRuleFamily) {
  const std::string content =
      "#include <cstdlib>\n"
      "namespace fedrec {\n"
      "int Draw() { return std::rand(); }  // fedrec:lint-ok(determinism)\n"
      "}\n";
  std::vector<Diagnostic> diagnostics;
  LintFile("src/fed/pragma.cc", content, LintContext{}, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintTest, CollectFallibleFindsStatusAndResultDeclarations) {
  LintContext context;
  CollectFallible(
      "Status Flush(const std::string& path) const;\n"
      "[[nodiscard]] Result<std::vector<int>> Load(int x);\n"
      "void Plain(int x);\n"
      "Status ok_variable;\n",
      context);
  EXPECT_EQ(context.fallible_functions.count("Flush"), 1u);
  EXPECT_EQ(context.fallible_functions.count("Load"), 1u);
  EXPECT_EQ(context.fallible_functions.count("Plain"), 0u);
  EXPECT_EQ(context.fallible_functions.count("ok_variable"), 0u);
}

}  // namespace
}  // namespace fedrec::lint
