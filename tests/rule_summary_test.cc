// RuleSummary: the shared per-rule summary layer must report exact
// sizes and element counts, parameter intervals matching the rule
// bodies, a label filter with no false negatives, and
// first-occurrence offsets that point at the true first derived
// occurrence.

#include "src/grammar/rule_summary.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_meta.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/update/navigation.h"
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

// Reference material label sets, computed by the recursive definition
// the filter approximates: terminals of the body (⊥ included) plus
// every callee's set.
std::map<LabelId, std::set<LabelId>> MaterialLabelSets(const Grammar& g,
                                                       const RuleMeta& meta) {
  std::map<LabelId, std::set<LabelId>> sets;
  std::function<const std::set<LabelId>&(LabelId)> of =
      [&](LabelId r) -> const std::set<LabelId>& {
    auto it = sets.find(r);
    if (it != sets.end()) return it->second;
    std::set<LabelId>& mine = sets[r];
    const Tree& t = meta.Rhs(r);
    for (NodeId v : t.Preorder()) {
      LabelId l = t.label(v);
      if (meta.IsNonterminal(l)) {
        const std::set<LabelId>& cs = of(l);
        mine.insert(cs.begin(), cs.end());
      } else if (meta.ParamIndex(l) == 0) {
        mine.insert(l);
      }
    }
    return mine;
  };
  g.ForEachRule([&](LabelId lhs, const Tree&) { of(lhs); });
  return sets;
}

void CheckSummary(const Grammar& g) {
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);

  // Document-level totals against the materialization.
  EXPECT_EQ(sum.DerivedSize(), ValueNodeCount(g));
  EXPECT_EQ(sum.DerivedElementCount(), ValueElementCount(g));
  EXPECT_EQ(sum.MaterialSize(g.start()), ValueNodeCount(g));
  EXPECT_EQ(sum.MaterialElements(g.start()), ValueElementCount(g));

  // Per-node static sizes agree with the update path's sizing pass
  // (one shared implementation, pinned here).
  g.ForEachRule([&](LabelId lhs, const Tree& t) {
    std::vector<int64_t> ref = DerivedSubtreeSizes(t, meta);
    for (NodeId v : t.Preorder()) {
      EXPECT_EQ(sum.StaticSize(lhs, v), ref[static_cast<size_t>(v)]);
    }
  });

  // Filter: no false negatives against the recursive definition.
  std::map<LabelId, std::set<LabelId>> sets = MaterialLabelSets(g, meta);
  for (const auto& [rule, labels] : sets) {
    for (LabelId l : labels) {
      EXPECT_TRUE(sum.MayContain(rule, l))
          << "rule " << rule << " label " << g.labels().Name(l);
    }
  }

  // First occurrences at the start rule (rank 0: the absolute derived
  // offset is the stored offset) against the materialized preorder.
  Tree full = Value(g).take();
  std::map<LabelId, int64_t> first;
  int64_t p = 0;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    ++p;
    first.emplace(full.label(v), p);
  });
  for (const auto& [label, pos] : first) {
    std::optional<RuleSummary::FirstOcc> fo =
        sum.FirstOccurrence(g.start(), label);
    if (!fo.has_value()) continue;  // capped tables are a legal fallback
    EXPECT_EQ(fo->offset + 1, pos) << g.labels().Name(label);
    EXPECT_EQ(fo->params_before, 0);
  }
  // A label the document never contains has no first occurrence.
  EXPECT_FALSE(sum.FirstOccurrence(g.start(), kNoLabel).has_value());
}

class RuleSummaryCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(RuleSummaryCorpusTest, ExactOnCompressedCorpus) {
  CheckSummary(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, RuleSummaryCorpusTest,
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

TEST(RuleSummaryTest, ExponentialGrammars) {
  CheckSummary(DoublingGrammar(8));
  CheckSummary(ParameterizedSiblingGrammar());
  CheckSummary(ParameterizedChainGrammar(7));
}

TEST(RuleSummaryTest, ParameterIntervals) {
  // A -> g($1,h($2,c)): the interval under a node is exactly the
  // parameters occurring below it.
  Grammar g = ParameterizedSiblingGrammar();
  RuleMeta meta = RuleMeta::Build(g, /*with_sizes=*/true);
  RuleSummary sum = RuleSummary::Build(g, meta);
  LabelId a = g.labels().Find("A");
  ASSERT_NE(a, kNoLabel);
  const Tree& t = meta.Rhs(a);
  NodeId root = meta.RhsRoot(a);   // g(...)
  NodeId y1 = t.Child(root, 1);    // $1
  NodeId h = t.Child(root, 2);     // h($2,c)
  NodeId y2 = t.Child(h, 1);       // $2
  NodeId c = t.Child(h, 2);        // c
  EXPECT_EQ(sum.ParamLo(a, root), 1);
  EXPECT_EQ(sum.ParamHi(a, root), 2);
  EXPECT_EQ(sum.ParamLo(a, y1), 1);
  EXPECT_EQ(sum.ParamHi(a, y1), 1);
  EXPECT_EQ(sum.ParamLo(a, h), 2);
  EXPECT_EQ(sum.ParamHi(a, h), 2);
  EXPECT_EQ(sum.ParamLo(a, y2), 2);
  EXPECT_EQ(sum.ParamHi(a, y2), 2);
  EXPECT_GT(sum.ParamLo(a, c), sum.ParamHi(a, c));  // none below

  // DerivedIn with explicit argument sizes: val(A(x,y)) has 3 material
  // nodes (g, h, c) plus the two argument sizes.
  std::vector<int64_t> prefix = {0, 5, 5 + 3};  // |arg1| = 5, |arg2| = 3
  EXPECT_EQ(sum.DerivedIn(a, root, prefix), 3 + 5 + 3);
  EXPECT_EQ(sum.DerivedIn(a, h, prefix), 2 + 3);
}

}  // namespace
}  // namespace slg
