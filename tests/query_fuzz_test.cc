// Query text is untrusted input: a seeded mutation sweep over the query
// shapes the benchmarks and tests issue (insert, delete or replace
// bytes, splice long digit runs, duplicate or truncate spans). Every
// mutant goes through Query::Parse -> QueryPlan::Compile ->
// QueryEngine::Run on a small corpus grammar and must come back as a
// Status (InvalidArgument for text or plans the engine rejects,
// NotFound for first/nth without enough matches), never a crash;
// ASan/UBSan builds run the same sweep. A query that parses must
// re-parse from its normalized text to the same query, and Run on the
// text must agree with Run on the parsed plan.

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/value.h"
#include "src/query/engine.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// The query shapes perfbench's script and the query tests issue, over
// the document's own tag names.
std::vector<std::string> Templates(const std::vector<std::string>& names) {
  const std::string& a = names.front();
  const std::string& b = names[names.size() / 2];
  return {"count(//" + a + ")",
          "exists(//" + b + ")",
          "first(//" + a + ")",
          "nth(//" + b + ", 3)",
          "count(//" + a + "/" + b + ")",
          "/" + a + "/" + b + "[2]",
          "/*[1]/*",
          "count(//*)",
          "nth(/" + a + "//" + b + "[0-9], 7)",
          "exists(//zz_no_such_tag)",
          "/a[30]/b[20]"};
}

std::string Mutate(std::string s, std::mt19937& rng) {
  static const std::string kTokens = "/()[],* 0123456789abnxy";
  std::uniform_int_distribution<int> byte_d(0, 255);
  std::uniform_int_distribution<int> op_d(0, 6);
  std::uniform_int_distribution<int> count_d(1, 4);
  auto pos = [&](size_t bound) {
    return std::uniform_int_distribution<size_t>(0, bound)(rng);
  };
  auto any_char = [&]() -> char {
    // Half syntax-aware (tokens of the grammar), half raw bytes.
    if (byte_d(rng) < 128) return kTokens[pos(kTokens.size() - 1)];
    return static_cast<char>(byte_d(rng));
  };
  for (int n = count_d(rng); n > 0; --n) {
    switch (op_d(rng)) {
      case 0:  // insert a byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos(s.size())),
                 any_char());
        break;
      case 1:  // delete a byte
        if (!s.empty()) s.erase(pos(s.size() - 1), 1);
        break;
      case 2:  // replace a byte
        if (!s.empty()) s[pos(s.size() - 1)] = any_char();
        break;
      case 3: {  // splice a long digit run (overflowing k / [k])
        std::string digits(1 + pos(30), '9');
        for (char& c : digits) c = static_cast<char>('0' + pos(9));
        s.insert(pos(s.size()), digits);
        break;
      }
      case 4: {  // duplicate a span
        if (s.empty()) break;
        size_t at = pos(s.size() - 1);
        s.insert(pos(s.size()), s.substr(at, 1 + pos(8)));
        break;
      }
      case 5:  // truncate
        s.resize(pos(s.size()));
        break;
      case 6:  // replace a digit run with zero or a huge value
        for (size_t i = 0; i < s.size(); ++i) {
          if (s[i] >= '0' && s[i] <= '9') {
            size_t j = i;
            while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
            s.replace(i, j - i, pos(1) == 0 ? "0" : "18446744073709551616");
            break;
          }
        }
        break;
    }
  }
  return s;
}

TEST(QueryFuzzTest, MutatedQueryTextYieldsAStatus) {
  Grammar g = CompressedCorpus(Corpus::kXMark);
  RuleIndex index = RuleIndex::Build(g);
  QueryEngine engine(&g, &index);
  std::set<std::string> names;
  Tree full = Value(g).take();
  full.VisitPreorder(full.root(), [&](NodeId v) {
    if (full.label(v) != kNullLabel) {
      names.insert(g.labels().Name(full.label(v)));
    }
  });
  const std::vector<std::string> templates =
      Templates({names.begin(), names.end()});

  std::mt19937 rng(20161019);
  int parsed = 0;
  int compiled = 0;
  int answered = 0;
  for (int i = 0; i < 40000; ++i) {
    const std::string& base =
        templates[static_cast<size_t>(i) % templates.size()];
    const std::string text = Mutate(base, rng);
    SCOPED_TRACE("query text: " + text);
    StatusOr<Query> q = Query::Parse(text);
    if (!q.ok()) {
      ASSERT_EQ(q.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++parsed;
    StatusOr<Query> again = Query::Parse(q.value().ToString());
    ASSERT_TRUE(again.ok()) << q.value().ToString();
    ASSERT_EQ(again.value().ToString(), q.value().ToString());
    StatusOr<QueryPlan> plan = QueryPlan::Compile(q.value());
    if (!plan.ok()) {
      ASSERT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++compiled;
    StatusOr<QueryResult> res = engine.Run(plan.value());
    StatusOr<QueryResult> by_text = engine.Run(text);
    ASSERT_EQ(res.status().code(), by_text.status().code());
    if (!res.ok()) {
      ASSERT_EQ(res.status().code(), StatusCode::kNotFound);
      continue;
    }
    ++answered;
    ASSERT_GE(res.value().count, 0);
    ASSERT_EQ(res.value().count, by_text.value().count);
    ASSERT_EQ(res.value().position, by_text.value().position);
    ASSERT_LE(res.value().stats.rules_visited, g.RuleCount());
  }
  // The sweep must reach every stage, not only the parser's rejections.
  EXPECT_GT(parsed, 4000);
  EXPECT_GT(compiled, 4000);
  EXPECT_GT(answered, 2000);
}

}  // namespace
}  // namespace slg
