// Unit tests of the project linter (tools/lint). Each of the rule
// families is pinned twice: a known-bad snippet must fire and a
// known-good one must stay quiet — so a rule can neither silently die
// nor silently start flagging the idioms the tree actually uses. The
// accounting-version rule is exercised against a synthetic repo tree in
// a temp directory, one test per outcome.
#include "lint.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "deps.h"
#include "scan.h"

namespace lint = ddtr::lint;
namespace fs = std::filesystem;

namespace {

bool has_rule(const std::vector<lint::Finding>& findings,
              const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const lint::Finding& f) { return f.rule == rule; });
}

std::size_t count_rule(const std::vector<lint::Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

// --- decoder-safety -----------------------------------------------------

TEST(DecoderSafety, FiresOnUncheckedReadAndMissingAtEnd) {
  const std::string bad = R"cc(
bool decode_thing(const std::string& payload, Thing& m) {
  std::istringstream is(payload);
  is.read(buf, 8);
  support::read_u32(is, m.version);
  return true;
}
)cc";
  const auto findings = lint::lint_source("src/serve/protocol.cc", bad);
  EXPECT_GE(count_rule(findings, "decoder-safety"), 2u)
      << "expected both the unchecked raw read and the missing at_end()";
}

TEST(DecoderSafety, QuietOnCheckedExactConsumptionDecoder) {
  const std::string good = R"cc(
bool decode_thing(const std::string& payload, Thing& m) {
  std::istringstream is(payload);
  return support::read_u32(is, m.version) && at_end(is);
}

DecodeStatus decode_frame(std::istream& is, Frame& frame) {
  std::string payload(size, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size) {
    return DecodeStatus::kCorrupt;
  }
  return DecodeStatus::kOk;
}
)cc";
  const auto findings = lint::lint_source("src/serve/protocol.cc", good);
  EXPECT_FALSE(has_rule(findings, "decoder-safety"))
      << "checked reads + at_end() is the blessed decoder shape";
}

TEST(DecoderSafety, ReadPrimitivesInBinaryIoAreInScope) {
  const std::string bad = R"cc(
bool read_le(std::istream& is, std::uint64_t& v, int width) {
  char buf[8];
  is.read(buf, width);
  v = 0;
  return true;
}
)cc";
  EXPECT_TRUE(has_rule(lint::lint_source("src/support/binary_io.cc", bad),
                       "decoder-safety"));
  // The same text outside the decoder-scope files is not a decoder.
  EXPECT_FALSE(has_rule(lint::lint_source("src/core/report.cc", bad),
                        "decoder-safety"));
}

TEST(DecoderSafety, FiresOnReinterpretCast) {
  const std::string bad = R"cc(
bool decode_thing(const std::string& payload, Thing& m) {
  std::istringstream is(payload);
  m.raw = *reinterpret_cast<const std::uint64_t*>(payload.data());
  return support::read_u32(is, m.version) && at_end(is);
}
)cc";
  EXPECT_TRUE(has_rule(lint::lint_source("src/serve/protocol.cc", bad),
                       "decoder-safety"));
}

// --- durability ---------------------------------------------------------

TEST(Durability, FiresOnUnsyncedRename) {
  const std::string bad = R"cc(
bool publish(const std::string& tmp, const std::string& target) {
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  return !ec;
}
)cc";
  const auto findings = lint::lint_source("src/core/persistent_cache.cc", bad);
  ASSERT_TRUE(has_rule(findings, "durability"));
}

TEST(Durability, QuietOnFsyncPairedRename) {
  const std::string good = R"cc(
bool publish(const std::string& tmp, const std::string& target,
             const std::string& dir) {
  if (!support::fsync_file(tmp)) return false;
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) return false;
  support::fsync_dir(dir);
  return true;
}
)cc";
  EXPECT_FALSE(has_rule(lint::lint_source("src/core/persistent_cache.cc", good),
                        "durability"));
}

TEST(Durability, HalfPairedRenameStillFires) {
  // fsync_file alone is not enough: the rename itself needs the
  // directory entry synced.
  const std::string half = R"cc(
bool publish(const std::string& tmp, const std::string& target) {
  if (!support::fsync_file(tmp)) return false;
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  return !ec;
}
)cc";
  EXPECT_TRUE(has_rule(lint::lint_source("src/core/persistent_cache.cc", half),
                       "durability"));
}

// --- allocation-policy --------------------------------------------------

TEST(AllocationPolicy, FiresOnRawNewDeleteInDdt) {
  const std::string bad = R"cc(
template <typename T>
class LeakyContainer {
  void grow() {
    Node* n = new Node;
    delete n;
    void* p = malloc(64);
    free(p);
  }
};
)cc";
  const auto findings = lint::lint_source("src/ddt/leaky.h", bad);
  EXPECT_GE(count_rule(findings, "allocation-policy"), 4u);
  // A fix-it naming the pool ships with the finding.
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const auto& f) {
        return f.rule == "allocation-policy";
      });
  ASSERT_NE(it, findings.end());
  EXPECT_NE(it->fixit.find("support::Pool<T>"), std::string::npos);
}

TEST(AllocationPolicy, QuietOnPoolUseAndDeletedFunctions) {
  const std::string good = R"cc(
template <typename T>
class PooledContainer {
 public:
  PooledContainer(const PooledContainer&) = delete;
  PooledContainer& operator=(const PooledContainer&) = delete;
  void grow() { node_ = pool_.create(); }
  void shrink() { pool_.destroy(node_); }
 private:
  support::Pool<Node> pool_;
};
)cc";
  EXPECT_FALSE(has_rule(lint::lint_source("src/ddt/pooled.h", good),
                        "allocation-policy"));
}

TEST(AllocationPolicy, OutOfScopeFilesAreExempt) {
  // The arena itself IS the pool: its chunk allocations are the one
  // blessed `new` and live outside src/ddt/.
  const std::string arena = "void* chunk() { return new char[4096]; }\n";
  EXPECT_FALSE(has_rule(lint::lint_source("src/support/arena.h", arena),
                        "allocation-policy"));
}

// --- determinism --------------------------------------------------------

TEST(Determinism, FiresInKeyFunctionBodyAnywhere) {
  const std::string bad = R"cc(
std::uint64_t content_hash() {
  return static_cast<std::uint64_t>(time(nullptr));
}
)cc";
  EXPECT_TRUE(has_rule(lint::lint_source("src/nettrace/trace.cc", bad),
                       "determinism"));
}

TEST(Determinism, FiresOnWholeKeyFile) {
  const std::string bad = R"cc(
inline std::uint64_t helper() {
  std::random_device rd;
  return rd();
}
)cc";
  EXPECT_TRUE(has_rule(lint::lint_source("src/support/fnv_hash.h", bad),
                       "determinism"));
}

TEST(Determinism, QuietOutsideKeyCode) {
  // Run tokens and temp-file nonces legitimately use pid/random_device —
  // outside key functions that must stay legal.
  const std::string good = R"cc(
std::string make_run_token() {
  std::random_device rd;
  return std::to_string(::getpid()) + "." + std::to_string(rd());
}
std::string preset_key(const NetworkPreset& p) {
  return p.name + '#' + std::to_string(p.node_count);
}
)cc";
  EXPECT_FALSE(has_rule(lint::lint_source("src/nettrace/trace_store.cc", good),
                        "determinism"));
}

TEST(Determinism, FiresInsidePresetKeyBody) {
  const std::string bad = R"cc(
std::string preset_key(const NetworkPreset& p) {
  return p.name + '#' + std::to_string(::getpid());
}
)cc";
  EXPECT_TRUE(has_rule(lint::lint_source("src/nettrace/trace_store.cc", bad),
                       "determinism"));
}

TEST(Determinism, ObsTreeIsCarvedOut) {
  // src/obs/ is the one sanctioned clock consumer — timestamps there are
  // observational and never feed a cache key. The identical snippet (a
  // clock inside a key-function body) must still fire everywhere else:
  // the carve-out is a path prefix, not a rule removal.
  const std::string clock_in_key_function = R"cc(
std::uint64_t content_hash() {
  return static_cast<std::uint64_t>(time(nullptr));
}
)cc";
  EXPECT_FALSE(has_rule(
      lint::lint_source("src/obs/trace.cc", clock_in_key_function),
      "determinism"));
  EXPECT_TRUE(has_rule(
      lint::lint_source("src/core/explorer.cc", clock_in_key_function),
      "determinism"));

  // Whole-file determinism scope is carved out the same way.
  const std::string entropy = R"cc(
inline std::uint64_t helper() {
  std::random_device rd;
  return rd();
}
)cc";
  EXPECT_FALSE(has_rule(lint::lint_source("src/obs/trace.cc", entropy),
                        "determinism"));
  EXPECT_TRUE(has_rule(lint::lint_source("src/support/fnv_hash.h", entropy),
                       "determinism"));
}

// --- header-hygiene -----------------------------------------------------

TEST(HeaderHygiene, FiresOnMissingPragmaOnceAndUsingNamespace) {
  const std::string bad = R"cc(
#include <vector>
using namespace std;
inline int f() { return 1; }
)cc";
  const auto findings = lint::lint_source("src/core/bad_header.h", bad);
  EXPECT_EQ(count_rule(findings, "header-hygiene"), 2u);
}

TEST(HeaderHygiene, QuietOnCleanHeaderAndAnySource) {
  const std::string good = R"cc(
#pragma once
#include <vector>
namespace ddtr::core {
inline int f() { return 1; }
}  // namespace ddtr::core
)cc";
  EXPECT_FALSE(has_rule(lint::lint_source("src/core/good_header.h", good),
                        "header-hygiene"));
  // .cc files may use namespaces freely.
  EXPECT_FALSE(has_rule(
      lint::lint_source("src/core/impl.cc", "using namespace ddtr;\n"),
      "header-hygiene"));
}

// --- suppressions and scrubbing ----------------------------------------

TEST(Suppression, AllowOnSameOrPrecedingLine) {
  const std::string same_line =
      "void grow() { Node* n = new Node; }  // ddtr-lint: allow(allocation-policy)\n";
  EXPECT_FALSE(has_rule(lint::lint_source("src/ddt/x.h", "#pragma once\n" + same_line),
                        "allocation-policy"));
  const std::string prev_line =
      "#pragma once\n"
      "// ddtr-lint: allow(allocation-policy)\n"
      "void grow() { Node* n = new Node; }\n";
  EXPECT_FALSE(has_rule(lint::lint_source("src/ddt/x.h", prev_line),
                        "allocation-policy"));
  // The wrong rule name does not suppress.
  const std::string wrong =
      "#pragma once\n"
      "// ddtr-lint: allow(determinism)\n"
      "void grow() { Node* n = new Node; }\n";
  EXPECT_TRUE(has_rule(lint::lint_source("src/ddt/x.h", wrong),
                       "allocation-policy"));
}

TEST(Suppression, AllowFileCoversEveryOccurrence) {
  const std::string text =
      "#pragma once\n"
      "// ddtr-lint: allow-file(allocation-policy)\n"
      "void a() { Node* n = new Node; }\n"
      "void b() { delete n; }\n";
  EXPECT_FALSE(has_rule(lint::lint_source("src/ddt/x.h", text),
                        "allocation-policy"));
}

TEST(Scrubbing, CommentsAndStringsNeverFire) {
  const std::string text =
      "#pragma once\n"
      "// new delete malloc rand() time() rename(\n"
      "/* std::filesystem::rename(a, b); */\n"
      "const char* kDoc = \"use new and delete and rename()\";\n";
  const auto findings = lint::lint_source("src/ddt/doc.h", text);
  EXPECT_FALSE(has_rule(findings, "allocation-policy"));
  EXPECT_FALSE(has_rule(findings, "durability"));
}

// --- accounting-version -------------------------------------------------

class AccountingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("ddtr_lint_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "ddt");
    write_kinds(2, "inline constexpr int kCost = 3;");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_kinds(int version, const std::string& table_line) {
    std::ofstream os(root_ / "src" / "ddt" / "kinds.h");
    os << "#pragma once\n"
       << "inline constexpr std::uint32_t kDdtAccountingVersion = "
       << version << ";\n"
       << "// ddtr-accounting-begin\n"
       << table_line << "\n"
       << "// ddtr-accounting-end\n";
  }

  fs::path root_;
};

TEST_F(AccountingTest, UpdateThenCheckIsClean) {
  std::string error;
  ASSERT_TRUE(lint::update_accounting(root_.string(), error)) << error;
  const auto state = lint::read_accounting_state(root_.string());
  EXPECT_TRUE(state.lock_found);
  EXPECT_EQ(state.tree_version, 2u);
  EXPECT_EQ(state.region_count, 1u);
  EXPECT_TRUE(lint::check_accounting(state).empty());
}

TEST_F(AccountingTest, TableChangeWithoutBumpFires) {
  std::string error;
  ASSERT_TRUE(lint::update_accounting(root_.string(), error)) << error;
  write_kinds(2, "inline constexpr int kCost = 4;");  // change, no bump
  const auto findings =
      lint::check_accounting(lint::read_accounting_state(root_.string()));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "accounting-version");
  EXPECT_NE(findings[0].message.find("kDdtAccountingVersion"),
            std::string::npos);
}

TEST_F(AccountingTest, BumpThenUpdateRecovers) {
  std::string error;
  ASSERT_TRUE(lint::update_accounting(root_.string(), error)) << error;
  write_kinds(3, "inline constexpr int kCost = 4;");  // change + bump
  // Before the registry refresh: stale-registry finding.
  EXPECT_FALSE(
      lint::check_accounting(lint::read_accounting_state(root_.string()))
          .empty());
  ASSERT_TRUE(lint::update_accounting(root_.string(), error)) << error;
  EXPECT_TRUE(
      lint::check_accounting(lint::read_accounting_state(root_.string()))
          .empty());
}

TEST_F(AccountingTest, UpdateRefusesUnbumpedTableChange) {
  std::string error;
  ASSERT_TRUE(lint::update_accounting(root_.string(), error)) << error;
  write_kinds(2, "inline constexpr int kCost = 4;");  // change, no bump
  EXPECT_FALSE(lint::update_accounting(root_.string(), error));
  EXPECT_NE(error.find("bump"), std::string::npos);
}

TEST_F(AccountingTest, CommentAndWhitespaceChangesDoNotMoveChecksum) {
  std::string error;
  ASSERT_TRUE(lint::update_accounting(root_.string(), error)) << error;
  const auto before = lint::read_accounting_state(root_.string());
  {
    std::ofstream os(root_ / "src" / "ddt" / "kinds.h");
    os << "#pragma once\n"
       << "inline constexpr std::uint32_t kDdtAccountingVersion = 2;\n"
       << "// ddtr-accounting-begin\n"
       << "// a new comment inside the region\n"
       << "\n"
       << "    inline constexpr int kCost = 3;   // trailing comment\n"
       << "// ddtr-accounting-end\n";
  }
  const auto after = lint::read_accounting_state(root_.string());
  EXPECT_EQ(before.tree_checksum, after.tree_checksum);
  EXPECT_TRUE(lint::check_accounting(after).empty());
}

TEST_F(AccountingTest, MissingRegistryFires) {
  const auto findings =
      lint::check_accounting(lint::read_accounting_state(root_.string()));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("registry missing"), std::string::npos);
}

// --- layering / include-cycle (deps.h) ---------------------------------

lint::LayerContract two_layer_contract() {
  std::string error;
  const auto contract = lint::parse_layers(
      "layer a :\n"
      "layer b : a\n",
      &error);
  EXPECT_TRUE(contract.has_value()) << error;
  return *contract;
}

TEST(Layers, ParseRejectsUnknownDirectivesAndAcceptsComments) {
  std::string error;
  EXPECT_TRUE(lint::parse_layers("# comment\n\nlayer a :\n"
                                 "determinism-exempt src/obs/\n",
                                 &error)
                  .has_value())
      << error;
  EXPECT_FALSE(lint::parse_layers("layre a :\n", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Layering, FiresOnUndeclaredEdgeAndUndeclaredModule) {
  const auto contract = two_layer_contract();
  // `a` may not include `b` (only b -> a is declared).
  std::vector<ddtr::lint::SourceFile> files;
  files.push_back(lint::make_source_file("src/a/x.h", "#pragma once\n"
                                                      "#include \"b/y.h\"\n"
                                                      "struct X {};\n"));
  files.push_back(lint::make_source_file("src/b/y.h", "#pragma once\n"
                                                      "struct Y {};\n"));
  auto findings = lint::analyze_dependencies(files, contract);
  EXPECT_TRUE(has_rule(findings, "layering"));

  // A module the contract never names fails until declared.
  files.push_back(lint::make_source_file("src/ghost/z.h",
                                         "#pragma once\nstruct Z {};\n"));
  findings = lint::analyze_dependencies(files, contract);
  EXPECT_GE(count_rule(findings, "layering"), 2u);
}

TEST(Layering, QuietOnDeclaredEdge) {
  const auto contract = two_layer_contract();
  std::vector<ddtr::lint::SourceFile> files;
  files.push_back(lint::make_source_file("src/b/y.h", "#pragma once\n"
                                                      "#include \"a/x.h\"\n"
                                                      "struct Y {};\n"));
  files.push_back(lint::make_source_file("src/a/x.h", "#pragma once\n"
                                                      "struct X {};\n"));
  const auto findings = lint::analyze_dependencies(files, contract);
  EXPECT_FALSE(has_rule(findings, "layering"));
  EXPECT_FALSE(has_rule(findings, "include-cycle"));
}

TEST(IncludeCycle, FiresOnMutualInclusion) {
  std::string error;
  const auto contract =
      lint::parse_layers("layer a : b\nlayer b : a\n", &error);
  ASSERT_TRUE(contract.has_value()) << error;
  std::vector<ddtr::lint::SourceFile> files;
  files.push_back(lint::make_source_file("src/a/x.h", "#pragma once\n"
                                                      "#include \"b/y.h\"\n"
                                                      "struct X {};\n"));
  files.push_back(lint::make_source_file("src/b/y.h", "#pragma once\n"
                                                      "#include \"a/x.h\"\n"
                                                      "struct Y {};\n"));
  EXPECT_TRUE(has_rule(lint::analyze_dependencies(files, *contract),
                       "include-cycle"));
}

}  // namespace
