// Prune (src/repair/pruning.cc) inlines from its call-site book; the
// walk-based pruner it replaced is kept in reference_pruner.h. PruneTest
// prunes the same un-pruned grammars with both and requires the same
// grammar NodeId for NodeId: rule set, start, and every body's live
// count and preorder (NodeId, label) sequence. The inputs are the six
// corpora under TreeRePair, GrammarRePair and a localized merge, all
// with pruning off, plus a hand-built grammar whose call list loses
// preorder so the book must re-read its host.

#include "src/repair/pruning.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/tree/tree_hash.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "tests/reference_pruner.h"

namespace slg {
namespace {

std::vector<std::pair<NodeId, LabelId>> PreorderShape(const Tree& t) {
  std::vector<std::pair<NodeId, LabelId>> out;
  t.VisitPreorder(t.root(), [&](NodeId v) { out.emplace_back(v, t.label(v)); });
  return out;
}

void ExpectSameGrammar(const Grammar& want, const Grammar& got) {
  ASSERT_EQ(got.start(), want.start());
  ASSERT_EQ(got.Nonterminals(), want.Nonterminals());
  for (LabelId r : want.Nonterminals()) {
    EXPECT_EQ(got.rhs(r).LiveCount(), want.rhs(r).LiveCount())
        << want.labels().Name(r);
    EXPECT_EQ(PreorderShape(got.rhs(r)), PreorderShape(want.rhs(r)))
        << want.labels().Name(r);
  }
}

// Prunes copies of `unpruned` with both pruners and compares them.
PruneStats PruneBothAndCompare(const Grammar& unpruned) {
  Grammar reference = unpruned.Clone();
  int64_t reference_walks = ReferencePruner(&reference).Run();
  Grammar got = unpruned.Clone();
  PruneStats stats = Prune(&got);
  ExpectSameGrammar(reference, got);
  EXPECT_TRUE(Validate(got).ok());
  EXPECT_LE(stats.host_walks, reference_walks);
  return stats;
}

class PruneTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(PruneTest, MatchesTheWalkingPrunerNodeForNode) {
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(GetParam(), 0.05), &labels);
  RepairOptions no_prune;
  no_prune.prune = false;
  {
    SCOPED_TRACE("TreeRePair");
    PruneBothAndCompare(TreeRePair(Tree(bin), labels, no_prune).grammar);
  }

  WorkloadOptions wopts;
  wopts.num_ops = 40;
  wopts.seed = 11;
  wopts.rename_fraction = 0.1;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Grammar updated = TreeRePair(Tree(w.seed), labels, {}).grammar;
  BatchUpdater batch(&updated);
  for (const UpdateOp& op : w.ops) ASSERT_TRUE(batch.Apply(op).ok());
  batch.Finish();

  GrammarRepairOptions serving;
  serving.repair.require_positive_savings = true;
  serving.repair.prune = false;
  {
    SCOPED_TRACE("GrammarRePair");
    PruneBothAndCompare(GrammarRePair(updated.Clone(), serving).grammar);
  }
  {
    SCOPED_TRACE("LocalizedGrammarRePair");
    PruneStats stats = PruneBothAndCompare(
        LocalizedGrammarRePair(updated.Clone(), batch.DamagedRules(), serving)
            .grammar);
    EXPECT_GT(stats.inlines, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpora, PruneTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kExiTelecomp,
                      Corpus::kMedline, Corpus::kNcbi, Corpus::kTreebank,
                      Corpus::kXMark),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      std::string n = InfoFor(info.param).name;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

// B is called once and is inlined first; its copy of V lands in S
// before the two calls of V that S already held, so V's list in S is
// out of preorder (and one of those calls nests in the other's
// argument). V (rank 1, one edge) never saves, and its three-site
// inline must re-read S once to inline in preorder.
TEST(PruneReReadTest, ReReadsAHostWhoseListLostPreorder) {
  Grammar g = GrammarFromRules({"S -> f(B,V(V(a)))", "B -> g(V(c),a)",
                                "V -> k($1)"})
                  .take();
  Tree before = Value(g).take();
  PruneStats stats = PruneBothAndCompare(g);
  EXPECT_EQ(stats.inlines, 2);
  EXPECT_EQ(stats.host_walks, 1);

  Prune(&g);
  EXPECT_EQ(g.RuleCount(), 1);
  EXPECT_TRUE(TreeEquals(before, Value(g).take()));
}

// Lists the book never appended out of order need no walk: V's two
// calls are S's own, and W's two arrive together in B's one copy, in
// the copy's preorder.
TEST(PruneReReadTest, InlinesFromTheBookWithoutWalking) {
  Grammar g = GrammarFromRules({"S -> f(B,V(V(a)))", "B -> g(W(c),W(d))",
                                "V -> k($1)", "W -> h($1)"})
                  .take();
  PruneStats stats = PruneBothAndCompare(g);
  EXPECT_EQ(stats.inlines, 3);
  EXPECT_EQ(stats.host_walks, 0);
}

}  // namespace
}  // namespace slg
