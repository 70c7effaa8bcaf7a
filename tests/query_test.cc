// Query engine: parse/plan validation, and differential evaluation —
// every engine answer (count / exists / first / nth and the reported
// positions) must agree with a decompress-then-scan oracle, on
// compressed versions of all six corpora, on the snapshots a
// DocumentService serves after write batches, and on hand-built
// parameterized / deep-chain grammars. The oracle implements the path
// semantics directly on the materialized binary tree and shares no
// code with the engine. A work-accounting test pins that evaluation
// walks each body once per memoized (rule, context) pair.

#include "src/query/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/service/document_service.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "tests/exponential_grammars.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// ---------------------------------------------------------------------------
// Oracle: path matching on the materialized binary tree.

// The sibling chain serving as "children of a": the first child
// followed by its next-sibling (second-child) links; the virtual
// root's chain starts at the tree root. ⊥ slots ride along and are
// rejected by the predicate.
std::vector<NodeId> ChildChain(const Tree& t, NodeId a) {
  std::vector<NodeId> out;
  for (NodeId c = a == kNilNode ? t.root() : t.Child(a, 1); c != kNilNode;
       c = t.Child(c, 2)) {
    out.push_back(c);
  }
  return out;
}

// Proper descendants of a — the binary subtree hanging off a's first
// child (the classic first-child/next-sibling fact), expanded through
// first two children only, mirroring the query contract.
std::vector<NodeId> Descendants(const Tree& t, NodeId a) {
  std::vector<NodeId> out;
  std::vector<NodeId> stack;
  NodeId s = a == kNilNode ? t.root() : t.Child(a, 1);
  if (s != kNilNode) stack.push_back(s);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    out.push_back(v);
    if (NodeId c2 = t.Child(v, 2); c2 != kNilNode) stack.push_back(c2);
    if (NodeId c1 = t.Child(v, 1); c1 != kNilNode) stack.push_back(c1);
  }
  return out;
}

// 1-based binary preorder positions (⊥ included) of the nodes
// matching the path, ascending.
std::vector<int64_t> OracleMatches(const Tree& t, const LabelTable& labels,
                                   const Query& q) {
  std::set<NodeId> anchors = {kNilNode};  // the virtual root
  for (const QueryStep& step : q.steps) {
    auto pred = [&](NodeId v) {
      LabelId l = t.label(v);
      if (l == kNullLabel) return false;
      return step.wildcard || labels.Name(l) == step.label;
    };
    std::set<NodeId> next;
    for (NodeId a : anchors) {
      if (step.axis == Axis::kChild) {
        int64_t c = 0;
        for (NodeId v : ChildChain(t, a)) {
          if (!pred(v)) continue;
          ++c;
          if (step.positional == 0) {
            next.insert(v);
          } else if (c == step.positional) {
            next.insert(v);
            break;
          }
        }
      } else {
        for (NodeId v : Descendants(t, a)) {
          if (pred(v)) next.insert(v);
        }
      }
    }
    anchors = std::move(next);
  }
  NodeId max_id = 0;
  t.VisitPreorder(t.root(), [&](NodeId v) { max_id = std::max(max_id, v); });
  std::vector<int64_t> pos(static_cast<size_t>(max_id) + 1, 0);
  int64_t p = 0;
  t.VisitPreorder(t.root(), [&](NodeId v) { pos[static_cast<size_t>(v)] = ++p; });
  std::vector<int64_t> out;
  for (NodeId v : anchors) out.push_back(pos[static_cast<size_t>(v)]);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Differential harness.

struct EngineFixture {
  const Grammar& g;
  std::shared_ptr<const RuleIndex> index;
  Tree full;
  QueryEngine engine;

  // Runs on g's own index — a served snapshot's — or, by default, on
  // one built from scratch.
  explicit EngineFixture(const Grammar& grammar,
                         std::shared_ptr<const RuleIndex> idx = nullptr)
      : g(grammar),
        index(idx != nullptr
                  ? std::move(idx)
                  : std::make_shared<const RuleIndex>(RuleIndex::Build(g))),
        full(Value(g).take()),
        engine(&g, index.get()) {}

  // Every label name occurring in the document.
  std::vector<std::string> MaterialNames() const {
    std::set<std::string> names;
    full.VisitPreorder(full.root(), [&](NodeId v) {
      if (full.label(v) != kNullLabel) names.insert(g.labels().Name(full.label(v)));
    });
    return {names.begin(), names.end()};
  }

  void Check(const std::string& path) const {
    SCOPED_TRACE("path: " + path);
    StatusOr<Query> parsed = Query::Parse("count(" + path + ")");
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::vector<int64_t> expect = OracleMatches(full, g.labels(), parsed.value());
    const int64_t n = static_cast<int64_t>(expect.size());

    StatusOr<QueryResult> count = engine.Run(parsed.value());
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count.value().count, n);
    EXPECT_LE(count.value().stats.rules_visited, g.RuleCount());

    StatusOr<QueryResult> exists = engine.Run("exists(" + path + ")");
    ASSERT_TRUE(exists.ok());
    EXPECT_EQ(exists.value().exists, n > 0);

    if (n == 0) {
      StatusOr<QueryResult> first = engine.Run("first(" + path + ")");
      EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
      return;
    }
    // First, a middle and the last match, plus one past the end.
    for (int64_t k : {int64_t{1}, (n + 1) / 2, n}) {
      StatusOr<QueryResult> nth =
          engine.Run("nth(" + path + ", " + std::to_string(k) + ")");
      ASSERT_TRUE(nth.ok()) << "k " << k << ": " << nth.status().ToString();
      EXPECT_EQ(nth.value().position, expect[static_cast<size_t>(k - 1)])
          << "k " << k;
      EXPECT_LE(nth.value().stats.rules_visited, g.RuleCount());
    }
    StatusOr<QueryResult> first = engine.Run("first(" + path + ")");
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value().position, expect[0]);
    StatusOr<QueryResult> past =
        engine.Run("nth(" + path + ", " + std::to_string(n + 1) + ")");
    EXPECT_EQ(past.status().code(), StatusCode::kNotFound);
  }
};

std::string RandomPath(std::mt19937& rng,
                       const std::vector<std::string>& names) {
  std::uniform_int_distribution<int> len_d(1, 4);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<size_t> name_d(0, names.size() - 1);
  std::uniform_int_distribution<int> k_d(1, 3);
  int len = len_d(rng);
  std::string path;
  for (int i = 0; i < len; ++i) {
    bool desc = pct(rng) < 40;
    path += desc ? "//" : "/";
    int r = pct(rng);
    if (r < 15) {
      path += "*";
    } else if (r < 25) {
      path += "no_such_label";
    } else {
      path += names[name_d(rng)];
    }
    if (!desc && pct(rng) < 25) {
      path += "[" + std::to_string(k_d(rng)) + "]";
    }
  }
  return path;
}

void DifferentialSweep(const Grammar& g, int rounds, uint32_t seed,
                       std::shared_ptr<const RuleIndex> index = nullptr) {
  EngineFixture fx(g, std::move(index));
  std::vector<std::string> names = fx.MaterialNames();
  ASSERT_FALSE(names.empty());
  // Fixed shapes touching every feature.
  fx.Check("/" + names.front());
  fx.Check("//" + names.back());
  fx.Check("//*");
  fx.Check("/*[1]/*");
  fx.Check("//" + names[names.size() / 2] + "/*");
  std::mt19937 rng(seed);
  for (int i = 0; i < rounds; ++i) fx.Check(RandomPath(rng, names));
}

class QueryCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(QueryCorpusTest, AgreesWithDecompressedScan) {
  DifferentialSweep(CompressedCorpus(GetParam()), 40, 20160516);
}

INSTANTIATE_TEST_SUITE_P(
    All, QueryCorpusTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark,
                      Corpus::kExiTelecomp, Corpus::kTreebank,
                      Corpus::kMedline, Corpus::kNcbi),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      std::string n = InfoFor(info.param).name;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// Served snapshots. Ingest and every merge renumber the bodies they
// build in preorder, but write batches edit the start rule in place and
// recycle its freed NodeIds out of preorder, so an evaluation frame
// sized by the largest NodeId is larger than the body it walks. The
// sweep runs on the service's own snapshot (its parent-derived index
// included) after seeded batches, and again after a Flush merged them.

bool NumberedInPreorder(const Tree& t) {
  NodeId expect = 0;
  bool in_order = true;
  t.VisitPreorder(t.root(), [&](NodeId v) { in_order &= v == expect++; });
  return in_order;
}

class ServedQueryTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(ServedQueryTest, AgreesWithDecompressedScanBeforeAndAfterFlush) {
  XmlTree xml = GenerateCorpus(GetParam(), 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 60;
  wopts.seed = 97;
  wopts.rename_fraction = 0.15;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Grammar seed =
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), {}).grammar;
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // merge only on Flush()
  auto svc = DocumentService::FromGrammar(std::move(seed), opts).take();
  DocumentService::Writer writer = svc->OpenWriter();
  for (size_t at = 0; at < w.ops.size(); at += 6) {
    size_t end = std::min(w.ops.size(), at + 6);
    ASSERT_TRUE(writer.Apply({w.ops.begin() + at, w.ops.begin() + end}).ok());
  }
  {
    SCOPED_TRACE("after write batches");
    DocumentService::Reader r = svc->OpenReader();
    const Grammar& g = r.snapshot().grammar();
    ASSERT_FALSE(NumberedInPreorder(g.rhs(g.start())))
        << "the batches should leave the start rule out of preorder";
    DifferentialSweep(g, 25, 20161019, r.snapshot().index());
  }
  ASSERT_TRUE(svc->Flush().ok());
  {
    SCOPED_TRACE("after Flush");
    DocumentService::Reader r = svc->OpenReader();
    DifferentialSweep(r.snapshot().grammar(), 25, 20161020,
                      r.snapshot().index());
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, ServedQueryTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark,
                      Corpus::kExiTelecomp, Corpus::kTreebank,
                      Corpus::kMedline, Corpus::kNcbi),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      std::string n = InfoFor(info.param).name;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(QueryEngineTest, DoublingGrammar) {
  DifferentialSweep(DoublingGrammar(6), 30, 7);
}

TEST(QueryEngineTest, ParameterizedSiblingGrammar) {
  DifferentialSweep(ParameterizedSiblingGrammar(), 30, 11);
}

TEST(QueryEngineTest, ParameterizedChainGrammar) {
  DifferentialSweep(ParameterizedChainGrammar(6), 30, 13);
}

// A document is a binary tree, and how its grammar is factored must
// not change an answer. A terminal of rank 3 broke that: the engine
// gives a terminal's third child no context, while a call it prunes
// hands every argument the call's own, so count(//k) was 0 on the
// first wide grammar below and 1 on the second. Served grammars are
// refused such terminals at every boundary that adopts a grammar.
TEST(QueryEngineTest, AnswersDoNotDependOnTheFactoring) {
  const std::vector<std::vector<std::string>> binary = {
      {"S -> r(t(~,k(~,~)),~)"},
      {"S -> r(B(k(~,~)),~)", "B -> t(~,$1)"},
  };
  for (const std::vector<std::string>& rules : binary) {
    Grammar g = GrammarFromRules(rules).take();
    ASSERT_TRUE(ValidateDocument(g).ok());
    StatusOr<QueryResult> r =
        GrammarSnapshot::Make(std::move(g))->RunQuery("count(//k)");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().count, 1) << rules.size() << " rule(s)";
  }
  const std::vector<std::vector<std::string>> wide = {
      {"S -> r(t(~,~,k(~,~)),~)"},
      {"S -> r(B(k(~,~)),~)", "B -> t(~,~,$1)"},
  };
  for (const std::vector<std::string>& rules : wide) {
    Grammar g = GrammarFromRules(rules).take();
    EXPECT_EQ(DeserializeGrammar(SerializeGrammar(g)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(DocumentService::FromGrammar(g.Clone()).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(QueryEngineTest, MemoizationBeatsDocumentSize) {
  // The complete binary tree with 2^21-1 nodes compresses to ~22
  // rules; a full count must visit each rule a constant number of
  // times, not the two million document nodes.
  Grammar g = DoublingGrammar(20);
  RuleIndex index = RuleIndex::Build(g);
  QueryEngine eng(&g, &index);
  StatusOr<QueryResult> leaves = eng.Run("count(//a)");
  ASSERT_TRUE(leaves.ok());
  EXPECT_EQ(leaves.value().count, int64_t{1} << 20);
  EXPECT_LE(leaves.value().stats.rules_visited, g.RuleCount());
  EXPECT_LE(leaves.value().stats.memo_entries, 4 * g.RuleCount());

  // First leaf sits at the bottom of the leftmost spine.
  StatusOr<QueryResult> first = eng.Run("first(//a)");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().position, 21);

  StatusOr<QueryResult> all = eng.Run("count(//*)");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().count, (int64_t{1} << 21) - 1);
}

// ---------------------------------------------------------------------------
// Work accounting: each body is walked once per memoized context.

// The (rule, ctx) pairs a query memoizes, found by a plain recursive
// walk: the plan's transitions and the engine's pruning rule, but none
// of its iteration scheme. body_nodes() sums the body sizes over those
// pairs, which is what QueryStats::nodes_walked must equal.
class PairWalk {
 public:
  PairWalk(const Grammar& g, const RuleIndex& index, const QueryPlan& plan)
      : index_(index), plan_(plan) {
    for (const QueryStep& step : plan.query().steps) {
      bound_.push_back(step.wildcard ? kNoLabel : g.labels().Find(step.label));
    }
    Visit(g.start(), plan.InitialContext());
  }

  int64_t pairs() const { return static_cast<int64_t>(exits_.size()); }
  int64_t rules() const {
    std::set<LabelId> r;
    for (const auto& [key, exits] : exits_) r.insert(key.first);
    return static_cast<int64_t>(r.size());
  }
  int64_t body_nodes() const { return body_nodes_; }

 private:
  // A context of descendant states none of whose labels the rule can
  // contain reproduces itself: no memo entry.
  bool Prunable(LabelId rule, uint64_t ctx) const {
    if (!plan_.OnlyDescendantStates(ctx)) return false;
    for (uint64_t bits = ctx; bits != 0; bits &= bits - 1) {
      size_t i = static_cast<size_t>(plan_.StateStep(__builtin_ctzll(bits)));
      if (plan_.query().steps[i].wildcard) return false;
      if (bound_[i] != kNoLabel && index_.MayContain(rule, bound_[i])) {
        return false;
      }
    }
    return true;
  }

  // The contexts at r's parameters under context q.
  const std::vector<uint64_t>& Visit(LabelId r, uint64_t q) {
    auto found = exits_.find({r, q});
    if (found != exits_.end()) return found->second;
    const Tree& t = index_.Rhs(r);
    std::map<NodeId, uint64_t> ctx = {{index_.RhsRoot(r), q}};
    for (NodeId v : t.Preorder()) {
      ++body_nodes_;
      uint64_t u = ctx[v];
      LabelId l = t.label(v);
      std::vector<NodeId> kids;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        kids.push_back(c);
      }
      if (index_.ParamIndex(l) > 0) continue;
      if (index_.IsNonterminal(l)) {
        if (u != 0 && !Prunable(l, u)) {
          const std::vector<uint64_t>& e = Visit(l, u);
          for (size_t j = 0; j < kids.size(); ++j) ctx[kids[j]] = e[j];
        } else {
          for (NodeId c : kids) ctx[c] = u;
        }
        continue;
      }
      for (size_t j = 0; j < kids.size(); ++j) {
        ctx[kids[j]] = j == 0   ? plan_.Own(u, l, bound_) & ~plan_.AcceptBit()
                       : j == 1 ? plan_.Next(u, l, bound_)
                                : 0;
      }
    }
    std::vector<uint64_t> exits;
    for (int j = 1; j <= index_.Rank(r); ++j) {
      exits.push_back(ctx[index_.ParamNode(r, j)]);
    }
    return exits_.emplace(std::make_pair(r, q), std::move(exits))
        .first->second;
  }

  const RuleIndex& index_;
  const QueryPlan& plan_;
  std::vector<LabelId> bound_;
  std::map<std::pair<LabelId, uint64_t>, std::vector<uint64_t>> exits_;
  int64_t body_nodes_ = 0;
};

void ExpectOneWalkPerContext(const Grammar& g, const std::string& text) {
  SCOPED_TRACE("query: " + text);
  RuleIndex index = RuleIndex::Build(g);
  QueryEngine engine(&g, &index);
  StatusOr<QueryPlan> plan = QueryPlan::Compile(Query::Parse(text).take());
  ASSERT_TRUE(plan.ok());
  StatusOr<QueryResult> res = engine.Run(plan.value());
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const QueryStats& st = res.value().stats;
  PairWalk walk(g, index, plan.value());
  EXPECT_GT(walk.pairs(), 0);
  EXPECT_EQ(st.memo_entries, walk.pairs());
  EXPECT_EQ(st.rules_visited, walk.rules());
  EXPECT_EQ(st.nodes_walked, walk.body_nodes());
}

TEST(QueryWorkTest, ParameterizedChainWalksEachBodyOncePerContext) {
  // Every Ai's body nests A(i+1) inside an argument of A(i+1).
  Grammar g = ParameterizedChainGrammar(6);
  for (const char* q : {"count(//a)", "count(/r/a/a/a)", "count(//*)",
                        "first(//a/a/e)", "exists(/r/*/a[1])"}) {
    ExpectOneWalkPerContext(g, q);
  }
}

TEST(QueryWorkTest, DeeplyNestedStartRuleWalksOncePerContext) {
  // The start rule nests seven calls, each inside the previous one's
  // argument; a child-axis path gives every nesting level its own
  // context, so no call's context is known before the enclosing call
  // is evaluated.
  Grammar g = GrammarFromRules({"S -> r(A(A(A(A(A(A(A(e))))))),~)",
                                "A -> a(B($1),~)", "B -> b(~,$1)"})
                  .take();
  for (const char* q :
       {"count(/r/a/a/a/a/a/a/a/e)", "count(/r/a/a/a//e)", "count(//a)",
        "count(//*)", "first(/r/a/a/a/a/a/a/a)"}) {
    ExpectOneWalkPerContext(g, q);
  }
}

TEST(QueryWorkTest, TreebankWalksEachBodyOncePerContext) {
  Grammar g = CompressedCorpus(Corpus::kTreebank);
  EngineFixture fx(g);
  std::vector<std::string> names = fx.MaterialNames();
  ASSERT_GE(names.size(), 3u);
  ExpectOneWalkPerContext(g, "count(//*)");
  ExpectOneWalkPerContext(g, "count(/*/*/*)");
  for (size_t i = 0; i < names.size(); i += names.size() / 3) {
    ExpectOneWalkPerContext(g, "count(//" + names[i] + ")");
    ExpectOneWalkPerContext(g, "count(//" + names[i] + "/*)");
  }
}

TEST(QueryParseTest, RoundTripAndErrors) {
  for (const char* text :
       {"/a/b", "//a", "/a//b[0-9]", "count(//a/b)", "exists(/x)",
        "first(//y)", "nth(/a/b[2], 7)", "/log/entry[3]/ip"}) {
    StatusOr<Query> q = Query::Parse(text);
    if (!q.ok()) continue;  // the loop mixes in one invalid shape
    StatusOr<Query> again = Query::Parse(q.value().ToString());
    ASSERT_TRUE(again.ok()) << q.value().ToString();
    EXPECT_EQ(again.value().ToString(), q.value().ToString());
  }
  for (const char* bad :
       {"", "a/b", "count(/a", "nth(/a)", "nth(/a, 0)", "/a[0]", "//a[2]",
        "/a]/", "count()", "first(/a) x", "/a[1 2]"}) {
    StatusOr<Query> q = Query::Parse(bad);
    EXPECT_FALSE(q.ok()) << bad;
    if (!q.ok()) {
      EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
  // Positional widths sum into the 64-state budget.
  StatusOr<Query> wide = Query::Parse("/a[60]/b[10]");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(QueryPlan::Compile(wide.value()).status().code(),
            StatusCode::kInvalidArgument);
  StatusOr<Query> ok = Query::Parse("/a[30]/b[20]");
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(QueryPlan::Compile(ok.value()).ok());
}

}  // namespace
}  // namespace slg
