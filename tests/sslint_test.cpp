// sslint self-tests: rules-file parsing, the comment/string lexer, a
// fixture corpus with one planted violation per rule (tests/sslint/fixtures),
// and the "clean tree" gate asserting the real repository produces zero
// diagnostics under the committed tools/sslint.rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "tools/sslint/sslint.h"

namespace ss::lint {
namespace {

using Key = std::tuple<std::string, int, std::string>;  // (file, line, rule)

std::multiset<Key> keys_of(const std::vector<Diagnostic>& diags) {
  std::multiset<Key> out;
  for (const Diagnostic& d : diags) out.insert(Key{d.file, d.line, d.rule});
  return out;
}

Config fixture_config() {
  Config cfg;
  std::string error;
  EXPECT_TRUE(parse_rules_file(std::string(SSLINT_FIXTURE_DIR) + "/rules.conf", &cfg, &error))
      << error;
  return cfg;
}

std::vector<Diagnostic> run_fixtures(bool with_compile_commands) {
  Options opts;
  opts.root = SSLINT_FIXTURE_DIR;
  if (with_compile_commands) {
    opts.compile_commands = std::string(SSLINT_FIXTURE_DIR) + "/compile_commands.json";
  }
  return run(fixture_config(), opts);
}

TEST(SslintLexer, StripsCommentsAndLiterals) {
  const std::string in =
      "int a; // std::mutex in a comment\n"
      "const char* s = \"rand()\";\n"
      "/* time(nullptr)\n   spans lines */ int b;\n"
      "char c = '\\'';\n";
  const std::string out = strip_comments_and_literals(in);
  EXPECT_EQ(out.find("mutex"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  // Line structure is preserved so diagnostics keep their line numbers.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(in.begin(), in.end(), '\n'));
}

TEST(SslintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  // An odd number of C++14 digit separators must not leave the lexer stuck
  // in char-literal state, blanking (and so masking) the code that follows.
  const std::string in = "const int n = 10'000; srand(n);\nint keep;\n";
  const std::string out = strip_comments_and_literals(in);
  EXPECT_NE(out.find("10'000"), std::string::npos);
  EXPECT_NE(out.find("srand"), std::string::npos);
  EXPECT_NE(out.find("int keep;"), std::string::npos);
  // A genuine char literal is still blanked.
  EXPECT_EQ(strip_comments_and_literals("char c = 'x';\n").find('x'), std::string::npos);
}

TEST(SslintLexer, HandlesRawStrings) {
  const std::string in = "auto j = R\"(std::thread inside raw)\"; int keep;\n";
  const std::string out = strip_comments_and_literals(in);
  EXPECT_EQ(out.find("thread"), std::string::npos);
  EXPECT_NE(out.find("int keep;"), std::string::npos);
}

TEST(SslintRules, ParsesTheCommittedRealRules) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_rules_file(std::string(SSLINT_REPO_ROOT) + "/tools/sslint.rules", &cfg,
                               &error))
      << error;
  EXPECT_FALSE(cfg.layers.empty());
  EXPECT_FALSE(cfg.bans.empty());
  // The layering table must cover every protocol layer the paper's stack
  // names; forgetting one would silently disable its checks.
  for (const char* layer : {"util", "crypto", "runtime", "gcs", "flush", "secure", "net", "netd"}) {
    EXPECT_TRUE(cfg.layers.count(layer) != 0u) << layer;
  }
}

TEST(SslintRules, RejectsDependencyCycles) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_rules_text("[layers]\na = b\nb = a\n", "test", &cfg, &error));
  EXPECT_NE(error.find("cycle"), std::string::npos) << error;
}

TEST(SslintRules, RejectsBadRegex) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_rules_text("[ban x]\npattern = (unclosed\nmessage = m\n", "test",
                                &cfg, &error));
}

TEST(SslintRules, RejectsUnknownSection) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_rules_text("[nope]\nkey = v\n", "test", &cfg, &error));
}

TEST(SslintFixtures, FlagsEveryPlantedViolationAtItsLine) {
  const auto got = keys_of(run_fixtures(/*with_compile_commands=*/true));
  const std::multiset<Key> want{
      {"src/crypto/bad_wipe.cpp", 5, "secret-wipe"},
      {"src/flush/bad_mutex.cpp", 2, "raw-mutex"},
      {"src/flush/bad_mutex.cpp", 4, "raw-mutex"},
      {"src/flush/bad_thread.cpp", 2, "raw-thread"},
      {"src/flush/bad_thread.cpp", 4, "raw-thread"},
      {"src/gcs/bad_layer.cpp", 3, "layer-dag"},
      {"src/gcs/bad_pool.cpp", 5, "worker-pool"},
      {"src/gcs/bad_pool.cpp", 7, "worker-pool"},
      {"src/gcs/bad_reach.cpp", 3, "layer-reach"},
      {"src/gcs/bad_socket.cpp", 4, "socket-headers"},
      {"src/gcs/bad_socket.cpp", 5, "socket-headers"},
      // The gate's service-byte bug: a Reader value cast to an enum.
      {"src/gcs/bad_wire_cast.cpp", 6, "reader-cast"},
      // The a -> b -> c -> a cycle: every edge that can reach sim is
      // flagged. A DFS memo caching partial sets across the back edge
      // would miss cyc_c.h, cyc_victim.cpp and cyc_b.h's cycle edge.
      {"src/gcs/cyc_a.h", 3, "layer-reach"},
      {"src/gcs/cyc_b.h", 3, "layer-reach"},
      {"src/gcs/cyc_b.h", 4, "layer-reach"},
      {"src/gcs/cyc_c.h", 3, "layer-reach"},
      {"src/gcs/cyc_victim.cpp", 3, "layer-reach"},
      {"src/obs/bad_clock.cpp", 4, "wall-clock"},
      {"src/obs/bad_rng.cpp", 4, "predictable-rng"},
      // The secure-layer corpus mirrors ka_tgdh's failure modes: simulator
      // reach through the runtime seam, ambient RNG feeding leaf secrets,
      // and memset-wiping a path secret.
      {"src/secure/bad_tgdh_reach.cpp", 4, "layer-reach"},
      {"src/secure/bad_tgdh_rng.cpp", 5, "predictable-rng"},
      {"src/secure/bad_tgdh_wipe.cpp", 6, "secret-wipe"},
      {"src/util/bad_parent.cpp", 3, "parent-include"},
      {"src/util/bad_resolve.cpp", 3, "include-unresolved"},
      {"src/util/no_pragma.h", 0, "pragma-once"},
      {"src/util/orphan.cpp", 0, "orphan-source"},
  };
  EXPECT_EQ(got, want) << format(run_fixtures(true));
}

TEST(SslintFixtures, CleanFilesProduceNoDiagnostics) {
  const auto diags = run_fixtures(/*with_compile_commands=*/true);
  // Files exercising allow-lists, edge exceptions and lexer immunity must
  // stay silent: a false positive there would poison the real tree.
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.file, "src/util/mutex.h") << d.rule;
    EXPECT_NE(d.file, "src/util/comment_immunity.h") << d.rule;
    EXPECT_NE(d.file, "src/util/ok.h") << d.rule;
    EXPECT_NE(d.file, "src/runtime/sim_adapter.h") << d.rule;
    EXPECT_NE(d.file, "src/util/built.cpp") << d.rule;
    EXPECT_NE(d.file, "src/net/ok_socket.cpp") << d.rule;
  }
}

TEST(SslintFixtures, OrphanRuleIsSkippedWithoutCompileCommands) {
  for (const Diagnostic& d : run_fixtures(/*with_compile_commands=*/false)) {
    EXPECT_NE(d.rule, "orphan-source") << d.file;
  }
}

TEST(SslintFixtures, DiagnosticsAreSortedAndFormatted) {
  const auto diags = run_fixtures(true);
  ASSERT_FALSE(diags.empty());
  for (std::size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(std::tie(diags[i - 1].file, diags[i - 1].line),
              std::tie(diags[i].file, diags[i].line));
  }
  const std::string text = format(diags);
  EXPECT_NE(text.find("src/gcs/bad_layer.cpp:3: [layer-dag]"), std::string::npos) << text;
}

// The acceptance gate: the real tree, under the real rules, is clean. This
// is the compile-time complement of the invariant checker — any new
// layering leak, raw mutex, ambient RNG or unwiped secret fails the suite,
// not just the (optional) check.sh lint stage.
TEST(SslintCleanTree, RepositoryIsCleanUnderCommittedRules) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_rules_file(std::string(SSLINT_REPO_ROOT) + "/tools/sslint.rules", &cfg,
                               &error))
      << error;
  Options opts;
  opts.root = SSLINT_REPO_ROOT;  // orphan rule skipped: build dir name varies
  const auto diags = run(cfg, opts);
  EXPECT_TRUE(diags.empty()) << format(diags);
}

}  // namespace
}  // namespace ss::lint
