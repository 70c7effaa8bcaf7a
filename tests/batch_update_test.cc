// Tests for the batched update engine:
//  * applying a workload through BatchUpdater must produce the exact
//    same grammar (not just the same tree) as applying it one
//    operation at a time — batching only amortizes snapshot reuse and
//    garbage-collection timing;
//  * the worklist CollectGarbageRules must reach the same fixpoint as
//    the old recompute-everything loop.

#include "src/update/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/orders.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/tree/tree_hash.h"
#include "src/tree/tree_io.h"
#include "src/update/update_ops.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

// ---------------------------------------------------------------------
// Batch vs sequential equivalence.

struct BatchCase {
  Corpus corpus;
  uint64_t seed;
  int ops;
};

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalenceTest, BatchMatchesSequential) {
  const BatchCase& c = GetParam();
  LabelTable labels;
  XmlTree xml = GenerateCorpus(c.corpus, 0.015);
  Tree final_tree = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = c.ops;
  wopts.seed = c.seed;
  // Mixed sequence: renames ride along with the inserts and deletes,
  // so the equivalence covers BatchUpdater::Rename too.
  wopts.rename_fraction = 0.2;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  Grammar seq = TreeRePair(Tree(w.seed), labels, {}).grammar;
  Grammar bat = seq.Clone();

  // Sequential: one isolate + edit (+ GC on delete) per operation.
  for (const UpdateOp& op : w.ops) {
    Status st = ApplyOpToGrammar(&seq, op);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Batched: one shared snapshot, one GC at the end.
  BatchUpdater batch(&bat);
  for (const UpdateOp& op : w.ops) {
    Status st = batch.Apply(op);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  batch.Finish();

  // Sequential ops only garbage-collect on deletes, so rules stranded
  // by isolation since the last delete are still present; level the
  // GC timing before comparing (it is the only difference batching
  // introduces).
  CollectGarbageRules(&seq);

  ASSERT_TRUE(Validate(bat).ok());
  // Batching only amortizes snapshot reuse and GC timing: the edit
  // sequence is identical, so the grammars are identical — not merely
  // equal-valued.
  EXPECT_EQ(FormatGrammar(bat), FormatGrammar(seq));
  Tree bat_tree = Value(bat).take();
  EXPECT_TRUE(TreeEquals(bat_tree, Value(seq).take()));
  EXPECT_TRUE(TreeEquals(bat_tree, final_tree));
}

INSTANTIATE_TEST_SUITE_P(
    Random, BatchEquivalenceTest,
    ::testing::Values(BatchCase{Corpus::kExiTelecomp, 3, 80},
                      BatchCase{Corpus::kMedline, 5, 120},
                      BatchCase{Corpus::kXMark, 7, 60}));

TEST(BatchUpdaterTest, RenameBatchMatchesSequential) {
  LabelTable labels;
  XmlTree xml = GenerateCorpus(Corpus::kMedline, 0.015);
  Tree bin = EncodeBinary(xml, &labels);
  Tree full(bin);
  Grammar seq = TreeRePair(std::move(bin), labels, {}).grammar;
  Grammar bat = seq.Clone();

  std::vector<RenameOp> ops = MakeRenameWorkload(full, labels, 40, 17);
  for (const RenameOp& op : ops) {
    ASSERT_TRUE(RenameNode(&seq, op.preorder, op.label).ok());
  }
  BatchUpdater batch(&bat);
  for (const RenameOp& op : ops) {
    ASSERT_TRUE(batch.Rename(op.preorder, op.label).ok());
  }
  batch.Finish();
  // RenameNode never garbage-collects; Finish() does. Level that
  // before comparing (see BatchMatchesSequential).
  CollectGarbageRules(&seq);
  ASSERT_TRUE(Validate(bat).ok());
  EXPECT_EQ(FormatGrammar(bat), FormatGrammar(seq));
}

TEST(BatchUpdaterTest, ApplyWorkloadBatchedRecompresses) {
  LabelTable labels;
  XmlTree xml = GenerateCorpus(Corpus::kExiTelecomp, 0.015);
  Tree final_tree = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 60;
  wopts.seed = 23;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  Grammar g = TreeRePair(Tree(w.seed), labels, {}).grammar;
  UpdateOptions opts;
  opts.repair.repair.require_positive_savings = true;
  auto result = ApplyWorkloadBatched(std::move(g), w.ops, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(Validate(result.value().grammar).ok());
  EXPECT_TRUE(TreeEquals(Value(result.value().grammar).take(), final_tree));
}

TEST(BatchUpdaterTest, ErrorsMatchAtomicOps) {
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(Corpus::kExiWeblog, 0.01), &labels);
  Grammar g = TreeRePair(std::move(bin), labels, {}).grammar;
  int64_t n = ValueNodeCount(g);
  BatchUpdater batch(&g);
  EXPECT_FALSE(batch.Rename(0, "zz").ok());
  EXPECT_FALSE(batch.Rename(n + 1, "zz").ok());
  EXPECT_FALSE(batch.Rename(1, "~").ok());
  EXPECT_FALSE(batch.Delete(n + 5).ok());  // out of range
  EXPECT_FALSE(batch.InsertBefore(1, Tree()).ok());
  Tree bad = ParseTerm("w(~,v(~,q))", &g.labels()).take();
  EXPECT_FALSE(batch.InsertBefore(1, bad).ok());
  // The batch stays usable after rejected operations.
  Tree good = ParseTerm("w(v(~,~),~)", &g.labels()).take();
  EXPECT_TRUE(batch.InsertBefore(1, good).ok());
  batch.Finish();
  EXPECT_TRUE(Validate(g).ok());
}

// ---------------------------------------------------------------------
// CollectGarbageRules: the worklist must reach the old fixpoint.

TEST(CollectGarbageRulesTest, CascadesThroughDeadChains) {
  // A and B are only reachable through each other / dead rules; C is
  // kept alive by S. The cascade must remove A then B but keep C.
  auto g_or = GrammarFromRules({
      "S -> f(C,a)",
      "C -> g(a,b)",
      "A -> h(B,C)",
      "B -> g(b,b)",
  });
  ASSERT_TRUE(g_or.ok());
  Grammar g = g_or.take();
  EXPECT_EQ(CollectGarbageRules(&g), 2);
  EXPECT_FALSE(g.HasRule(g.labels().Find("A")));
  EXPECT_FALSE(g.HasRule(g.labels().Find("B")));
  EXPECT_TRUE(g.HasRule(g.labels().Find("C")));
  EXPECT_TRUE(g.HasRule(g.start()));
  // Idempotent on a clean grammar.
  EXPECT_EQ(CollectGarbageRules(&g), 0);
}

TEST(CollectGarbageRulesTest, MatchesRecomputeFixpointOnWorkload) {
  // Reference: the old recompute-all-refcounts loop.
  auto reference_gc = [](Grammar* g) {
    int removed = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      auto refs = ComputeRefCounts(*g);
      for (LabelId r : g->Nonterminals()) {
        if (r != g->start() && refs[r] == 0) {
          g->RemoveRule(r);
          ++removed;
          changed = true;
        }
      }
    }
    return removed;
  };

  LabelTable labels;
  Tree final_tree = EncodeBinary(GenerateCorpus(Corpus::kMedline, 0.01),
                                 &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 60;
  wopts.seed = 31;
  UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

  Grammar a = TreeRePair(Tree(w.seed), labels, {}).grammar;
  Grammar b = a.Clone();
  {
    // Strand rules without intermediate GC.
    BatchUpdater batch_a(&a);
    BatchUpdater batch_b(&b);
    for (const UpdateOp& op : w.ops) {
      ASSERT_TRUE(batch_a.Apply(op).ok());
      ASSERT_TRUE(batch_b.Apply(op).ok());
    }
    // Finish() runs the worklist GC on a; run the reference on b.
    int removed_worklist = batch_a.Finish();
    int removed_reference = reference_gc(&b);
    EXPECT_EQ(removed_worklist, removed_reference);
  }
  EXPECT_EQ(FormatGrammar(a), FormatGrammar(b));
}

}  // namespace
}  // namespace slg
