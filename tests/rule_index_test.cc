// RuleIndex: the per-rule index must report exact static sizes and
// parameter-segment sizes (checked against an oracle that expands the
// grammar by the recursive definition of val, without the index's
// code), exact element counts, parameter intervals matching the rule
// bodies, and a label filter with no false negatives.

#include "src/grammar/rule_index.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
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

// Sizes by the recursive definition of val, read off the grammar
// alone: Size(rule, v, args) is the node count of the tree body node v
// of `rule` derives when parameter y_j derives args[j-1] nodes — a
// terminal is one node plus its children's trees, a parameter its
// argument's tree, a call its callee's body with the call's argument
// trees substituted. Memoized per (rule, node, args).
class SizeOracle {
 public:
  explicit SizeOracle(const Grammar& g) : g_(g) {}

  int64_t Size(LabelId rule, NodeId v, const std::vector<int64_t>& args) {
    auto key = std::make_tuple(rule, v, args);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    const Tree& t = g_.rhs(rule);
    LabelId l = t.label(v);
    int64_t n = 0;
    if (int pj = g_.labels().ParamIndex(l); pj > 0) {
      n = args[static_cast<size_t>(pj - 1)];
    } else if (g_.HasRule(l)) {
      std::vector<int64_t> a;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        a.push_back(Size(rule, c, args));
      }
      n = Size(l, g_.rhs(l).root(), a);
    } else {
      n = 1;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        n += Size(rule, c, args);
      }
    }
    memo_.emplace(std::move(key), n);
    return n;
  }

  // Every parameter deriving nothing.
  int64_t StaticSize(LabelId rule, NodeId v) {
    return Size(rule, v,
                std::vector<int64_t>(
                    static_cast<size_t>(g_.labels().Rank(rule)), 0));
  }

  // Segment sizes size(rule, 0..rank): walks val(rule) in derived
  // order, every call expanded, parameters left open.
  std::vector<int64_t> Segments(LabelId rule) {
    const int rank = g_.labels().Rank(rule);
    std::vector<Arg> env;
    for (int j = 1; j <= rank; ++j) {
      env.push_back(Arg{kNoLabel, kNilNode, nullptr, j});
    }
    std::vector<int64_t> segments(static_cast<size_t>(rank) + 1, 0);
    int cur = 0;
    Walk(rule, g_.rhs(rule).root(), env, &segments, &cur);
    EXPECT_EQ(cur, rank);
    return segments;
  }

 private:
  // What a parameter stands for: a body node in its caller's
  // environment, or (top > 0) parameter y_top of the walked rule.
  struct Arg {
    LabelId rule;
    NodeId node;
    const std::vector<Arg>* env;
    int top;
  };

  void Walk(LabelId rule, NodeId v, const std::vector<Arg>& env,
            std::vector<int64_t>* segments, int* cur) {
    const Tree& t = g_.rhs(rule);
    LabelId l = t.label(v);
    if (int pj = g_.labels().ParamIndex(l); pj > 0) {
      const Arg& a = env[static_cast<size_t>(pj - 1)];
      if (a.top > 0) {
        *cur = a.top;
      } else {
        Walk(a.rule, a.node, *a.env, segments, cur);
      }
      return;
    }
    if (g_.HasRule(l)) {
      std::vector<Arg> args;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        args.push_back(Arg{rule, c, &env, 0});
      }
      Walk(l, g_.rhs(l).root(), args, segments, cur);
      return;
    }
    ++(*segments)[static_cast<size_t>(*cur)];
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      Walk(rule, c, env, segments, cur);
    }
  }

  const Grammar& g_;
  std::map<std::tuple<LabelId, NodeId, std::vector<int64_t>>, int64_t> memo_;
};

// Reference material label sets, computed by the recursive definition
// the filter approximates: terminals of the body (⊥ included) plus
// every callee's set.
std::map<LabelId, std::set<LabelId>> MaterialLabelSets(const Grammar& g) {
  std::map<LabelId, std::set<LabelId>> sets;
  std::function<const std::set<LabelId>&(LabelId)> of =
      [&](LabelId r) -> const std::set<LabelId>& {
    auto it = sets.find(r);
    if (it != sets.end()) return it->second;
    std::set<LabelId> mine;
    const Tree& t = g.rhs(r);
    for (NodeId v : t.Preorder()) {
      LabelId l = t.label(v);
      if (g.HasRule(l)) {
        const std::set<LabelId>& cs = of(l);
        mine.insert(cs.begin(), cs.end());
      } else if (g.labels().ParamIndex(l) == 0) {
        mine.insert(l);
      }
    }
    return sets[r] = std::move(mine);
  };
  g.ForEachRule([&](LabelId lhs, const Tree&) { of(lhs); });
  return sets;
}

void CheckIndex(const Grammar& g) {
  RuleIndex index = RuleIndex::Build(g);

  // Document-level totals against the materialization.
  EXPECT_EQ(index.DerivedSize(), ValueNodeCount(g));
  EXPECT_EQ(index.DerivedElementCount(), ValueElementCount(g));
  EXPECT_EQ(index.SegTotal(g.start()), ValueNodeCount(g));
  EXPECT_EQ(index.MaterialElements(g.start()), ValueElementCount(g));

  // Per-node static sizes and every segment size against the oracle.
  SizeOracle oracle(g);
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    const std::string& name = g.labels().Name(lhs);
    std::vector<NodeId> order = t.Preorder();
    // Children first: the oracle's recursion stays shallow.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      EXPECT_EQ(index.StaticSize(lhs, *it), oracle.StaticSize(lhs, *it))
          << name << "/" << *it;
    }
    std::vector<int64_t> segments = oracle.Segments(lhs);
    const int rank = g.labels().Rank(lhs);
    int64_t total = 0;
    for (int i = 0; i <= rank; ++i) {
      EXPECT_EQ(index.SegSize(lhs, i), segments[static_cast<size_t>(i)])
          << name << " segment " << i;
      total += segments[static_cast<size_t>(i)];
    }
    EXPECT_EQ(index.SegTotal(lhs), total) << name;
  });

  // Filter: no false negatives against the recursive definition.
  std::map<LabelId, std::set<LabelId>> sets = MaterialLabelSets(g);
  for (const auto& [rule, labels] : sets) {
    for (LabelId l : labels) {
      EXPECT_TRUE(index.MayContain(rule, l))
          << "rule " << rule << " label " << g.labels().Name(l);
    }
  }
}

class RuleIndexCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(RuleIndexCorpusTest, ExactOnCompressedCorpus) {
  CheckIndex(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, RuleIndexCorpusTest,
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

TEST(RuleIndexTest, ExponentialGrammars) {
  CheckIndex(DoublingGrammar(8));
  CheckIndex(ParameterizedSiblingGrammar());
  CheckIndex(ParameterizedChainGrammar(7));
}

TEST(RuleIndexTest, ParameterIntervals) {
  // A -> g($1,h($2,c)): the interval under a node is exactly the
  // parameters occurring below it.
  Grammar g = ParameterizedSiblingGrammar();
  RuleIndex index = RuleIndex::Build(g);
  LabelId a = g.labels().Find("A");
  ASSERT_NE(a, kNoLabel);
  const Tree& t = index.Rhs(a);
  NodeId root = index.RhsRoot(a);  // g(...)
  NodeId y1 = t.Child(root, 1);    // $1
  NodeId h = t.Child(root, 2);     // h($2,c)
  NodeId y2 = t.Child(h, 1);       // $2
  NodeId c = t.Child(h, 2);        // c
  EXPECT_EQ(index.ParamNode(a, 1), y1);
  EXPECT_EQ(index.ParamNode(a, 2), y2);
  EXPECT_EQ(index.ParamLo(a, root), 1);
  EXPECT_EQ(index.ParamHi(a, root), 2);
  EXPECT_EQ(index.ParamLo(a, y1), 1);
  EXPECT_EQ(index.ParamHi(a, y1), 1);
  EXPECT_EQ(index.ParamLo(a, h), 2);
  EXPECT_EQ(index.ParamHi(a, h), 2);
  EXPECT_EQ(index.ParamLo(a, y2), 2);
  EXPECT_EQ(index.ParamHi(a, y2), 2);
  EXPECT_GT(index.ParamLo(a, c), index.ParamHi(a, c));  // none below

  // DerivedIn with explicit argument sizes: val(A(x,y)) has 3 material
  // nodes (g, h, c) plus the two argument sizes.
  std::vector<int64_t> prefix = {0, 5, 5 + 3};  // |arg1| = 5, |arg2| = 3
  EXPECT_EQ(index.DerivedIn(a, root, prefix.data()), 3 + 5 + 3);
  EXPECT_EQ(index.DerivedIn(a, h, prefix.data()), 2 + 3);
}

}  // namespace
}  // namespace slg
