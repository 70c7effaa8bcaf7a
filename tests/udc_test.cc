// Tests for the udc baseline session: classic (tree) vs DAG-shared
// decompression, cross-round subtree-pool reuse, budgets, and the
// DAG-mode space/size properties the benches rely on.

#include "src/update/udc.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/dag/value_dag.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/stats.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/tree/tree_hash.h"
#include "src/update/batch.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"
#include "tests/exponential_grammars.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c, double scale, Tree* out_tree,
                         LabelTable* out_labels) {
  XmlTree xml = GenerateCorpus(c, scale);
  Tree bin = EncodeBinary(xml, out_labels);
  *out_tree = bin;
  return TreeRePair(std::move(bin), *out_labels, {}).grammar;
}

UdcOptions DagOptionsForTest() {
  UdcOptions o;
  o.mode = UdcOptions::Mode::kDagShared;
  return o;
}

// 1-based preorder positions of the first `count` non-⊥ nodes at or
// after `from` (renames reject ⊥ targets).
std::vector<int64_t> NonNullPositions(const Tree& t, int64_t from, int count) {
  std::vector<int64_t> out;
  std::vector<NodeId> order = t.Preorder();
  for (size_t i = static_cast<size_t>(from - 1);
       i < order.size() && static_cast<int>(out.size()) < count; ++i) {
    if (t.label(order[i]) != kNullLabel) {
      out.push_back(static_cast<int64_t>(i + 1));
    }
  }
  return out;
}

TEST(UdcSessionTest, ClassicOverflowsWhereDagSucceeds) {
  // 2^21 - 1 derived nodes; the classic leg must refuse a 10k budget,
  // the DAG leg sails through with a pool of ~22 distinct subtrees.
  Grammar g = DoublingGrammar(20);
  int64_t derived = ValueNodeCount(g);
  EXPECT_EQ(derived, (int64_t{1} << 21) - 1);

  UdcOptions classic;
  classic.max_nodes = 10'000;
  UdcSession classic_session(classic);
  auto classic_result = classic_session.Run(g);
  ASSERT_FALSE(classic_result.ok());
  EXPECT_EQ(classic_result.status().code(), StatusCode::kOutOfRange);
  // The one-shot entry point agrees.
  EXPECT_FALSE(UpdateDecompressCompress(g, {}, 10'000).ok());

  UdcOptions dag = DagOptionsForTest();
  dag.max_nodes = 10'000;
  UdcSession dag_session(dag);
  auto dag_result = dag_session.Run(g);
  ASSERT_TRUE(dag_result.ok()) << dag_result.status().ToString();
  EXPECT_TRUE(Validate(dag_result.value().grammar).ok());
  EXPECT_EQ(ValueNodeCount(dag_result.value().grammar), derived);
  EXPECT_EQ(dag_result.value().tree_nodes, derived);
  EXPECT_LT(dag_result.value().dag_nodes, 100);
  EXPECT_GT(dag_result.value().dag_nodes, 0);
}

TEST(UdcSessionTest, DagBudgetStillEnforced) {
  // The DAG budget bounds *distinct* subtrees: a document without
  // sharing must still be refused.
  LabelTable labels;
  auto xml = ParseXml("<a><b><c/><d/></b><e><f/></e><g/></a>");
  ASSERT_TRUE(xml.ok());
  Tree bin = EncodeBinary(xml.value(), &labels);
  Grammar g = Grammar::ForTree(std::move(bin), labels);

  UdcOptions dag = DagOptionsForTest();
  dag.max_nodes = 3;
  UdcSession session(dag);
  auto result = session.Run(g);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(UdcSessionTest, DagModeRoundTripsAllCorpora) {
  for (const CorpusInfo& info : AllCorpora()) {
    Tree original;
    LabelTable labels;
    Grammar g = CompressedCorpus(info.id, 0.008, &original, &labels);

    UdcSession session(DagOptionsForTest());
    auto result = session.Run(g);
    ASSERT_TRUE(result.ok()) << info.name;
    ASSERT_TRUE(Validate(result.value().grammar).ok()) << info.name;

    // The udc grammar derives the document byte-identically: value
    // equality plus a serialize -> deserialize -> serialize fixpoint.
    Tree derived = Value(result.value().grammar).take();
    EXPECT_TRUE(TreeEquals(derived, original)) << info.name;
    std::string bytes = SerializeGrammar(result.value().grammar);
    auto reloaded = DeserializeGrammar(bytes);
    ASSERT_TRUE(reloaded.ok()) << info.name;
    EXPECT_EQ(SerializeGrammar(reloaded.value()), bytes) << info.name;

    // DAG-mode peak space beats classic peak space on every corpus.
    EXPECT_GT(result.value().dag_nodes, 0) << info.name;
    EXPECT_LT(result.value().dag_nodes, result.value().tree_nodes)
        << info.name;
    EXPECT_EQ(result.value().tree_nodes, original.LiveCount()) << info.name;
  }
}

TEST(UdcSessionTest, DagModeSizeComparableToClassic) {
  for (Corpus c : {Corpus::kExiWeblog, Corpus::kMedline, Corpus::kNcbi}) {
    Tree original;
    LabelTable labels;
    Grammar g = CompressedCorpus(c, 0.02, &original, &labels);

    auto classic = UpdateDecompressCompress(g);
    ASSERT_TRUE(classic.ok());
    UdcSession session(DagOptionsForTest());
    auto dag = session.Run(g);
    ASSERT_TRUE(dag.ok());

    int64_t classic_edges = ComputeStats(classic.value().grammar).edge_count;
    int64_t dag_edges = ComputeStats(dag.value().grammar).edge_count;
    // The benches gate the tight (3%) bound on the committed corpora;
    // here a loose sanity band keeps the test robust at tiny scales.
    EXPECT_LE(dag_edges, classic_edges * 5 / 4 + 8)
        << InfoFor(c).name << ": dag " << dag_edges << " vs classic "
        << classic_edges;
  }
}

TEST(UdcSessionTest, CrossRoundPoolReusesUndamagedRules) {
  Tree original;
  LabelTable labels;
  Grammar g = CompressedCorpus(Corpus::kMedline, 0.01, &original, &labels);

  UdcSession warm(DagOptionsForTest());
  auto round1 = warm.Run(g);
  ASSERT_TRUE(round1.ok());
  EXPECT_EQ(round1.value().rules_reused, 0);
  int64_t pool_after_round1 = round1.value().pool_nodes;

  // Identical input: everything is reused, the pool does not grow.
  auto round1b = warm.Run(g);
  ASSERT_TRUE(round1b.ok());
  EXPECT_EQ(round1b.value().rules_reused, g.RuleCount());
  EXPECT_EQ(round1b.value().pool_nodes, pool_after_round1);
  EXPECT_EQ(FormatGrammar(round1b.value().grammar),
            FormatGrammar(round1.value().grammar));

  // Damage a spine with a batch of renames; the session re-expands
  // only the damaged rules and still matches a cold session.
  {
    std::vector<int64_t> targets = NonNullPositions(original, 1, 2);
    ASSERT_EQ(targets.size(), 2u);
    BatchUpdater batch(&g);
    ASSERT_TRUE(batch.Rename(targets[0], "zz1").ok());
    ASSERT_TRUE(batch.Rename(targets[1], "zz2").ok());
    batch.Finish();
  }
  auto round2 = warm.Run(g);
  ASSERT_TRUE(round2.ok());
  EXPECT_GT(round2.value().rules_reused, 0);
  EXPECT_GE(round2.value().pool_nodes, pool_after_round1);

  UdcSession cold(DagOptionsForTest());
  auto cold2 = cold.Run(g);
  ASSERT_TRUE(cold2.ok());
  // Warm and cold sessions must agree byte-for-byte — pool sharing is
  // an optimization, never a semantic.
  EXPECT_EQ(FormatGrammar(round2.value().grammar),
            FormatGrammar(cold2.value().grammar));
  EXPECT_EQ(round2.value().dag_nodes, cold2.value().dag_nodes);
  EXPECT_TRUE(TreeEquals(Value(round2.value().grammar).take(),
                         Value(g).take()));
}

TEST(UdcSessionTest, PoolSurvivesRecompressionRounds) {
  // The bench loop shape: updates -> localized recompression -> udc
  // reference, several times over. Recompression re-versions rule
  // labels, so the per-rule memos mostly miss here (the no-repair path
  // above is where they hit) — but the signature pool still dedups:
  // after small batches, later rounds may add only the damaged spine's
  // worth of new pool nodes, not a second copy of the document.
  Tree original;
  LabelTable labels;
  Grammar g = CompressedCorpus(Corpus::kMedline, 0.05, &original, &labels);

  UdcSession session(DagOptionsForTest());
  GrammarRepairOptions recompress;
  recompress.repair.require_positive_savings = true;

  std::vector<int64_t> targets = NonNullPositions(original, 3, 3);
  ASSERT_EQ(targets.size(), 3u);
  int64_t pool_round0 = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<LabelId> damage;
    {
      BatchUpdater batch(&g);
      ASSERT_TRUE(
          batch.Rename(targets[static_cast<size_t>(round)],
                       "u" + std::to_string(round))
              .ok());
      batch.Finish();
      damage = batch.DamagedRules();
    }
    g = LocalizedGrammarRePair(std::move(g), damage, recompress).grammar;
    auto udc = session.Run(g);
    ASSERT_TRUE(udc.ok()) << "round " << round;
    EXPECT_TRUE(TreeEquals(Value(udc.value().grammar).take(), Value(g).take()))
        << "round " << round;
    EXPECT_LT(udc.value().dag_nodes, udc.value().tree_nodes);
    if (round == 0) {
      pool_round0 = udc.value().pool_nodes;
    } else {
      // One rename per round: cumulative pool growth stays a sliver of
      // the round-0 pool instead of doubling per round.
      EXPECT_LT(udc.value().pool_nodes, pool_round0 + pool_round0 / 4)
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace slg
