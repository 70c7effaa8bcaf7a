// Randomized per-round invariant checks for the incremental repair
// machinery. GrammarRepairOptions.check_invariants makes both drivers
// call CallGraphCache::CheckInvariants after the initial build and
// after every refresh round; that cross-checks, against from-scratch
// recomputes:
//  * incremental usage propagation == direct usage_G (saturation
//    included),
//  * the dynamic (Pearce–Kelly) topological order is a valid anti-SL
//    order,
//  * caller adjacency, refcounts, skeletons and resolved interfaces.
// On top of that, the tests verify the checks are side-effect free
// (identical grammars with and without them).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/stats.h"
#include "src/grammar/text_format.h"
#include "src/grammar/validate.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

GrammarRepairOptions Recompress() {
  GrammarRepairOptions o;
  o.repair.require_positive_savings = true;
  return o;
}

struct CorpusFixture {
  LabelTable labels;
  UpdateWorkload workload;
  Grammar seed_grammar;
};

CorpusFixture MakeFixture(Corpus c, double scale, int ops, uint64_t seed) {
  CorpusFixture f;
  XmlTree xml = GenerateCorpus(c, scale);
  Tree final_tree = EncodeBinary(xml, &f.labels);
  WorkloadOptions wopts;
  wopts.num_ops = ops;
  wopts.seed = seed;
  wopts.rename_fraction = 0.1;
  f.workload = MakeUpdateWorkload(final_tree, f.labels, wopts);
  f.seed_grammar =
      GrammarRePair(Grammar::ForTree(Tree(f.workload.seed), f.labels),
                    Recompress())
          .grammar;
  return f;
}

// Applies `count` workload ops to g via a BatchUpdater; returns the
// damaged-rule set.
std::vector<LabelId> ApplyBatch(Grammar* g, const UpdateWorkload& w,
                                size_t begin, size_t count) {
  BatchUpdater batch(g);
  for (size_t i = begin; i < begin + count && i < w.ops.size(); ++i) {
    SLG_CHECK(batch.Apply(w.ops[i]).ok());
  }
  batch.Finish();
  std::vector<LabelId> damage = batch.DamagedRules();
  batch.ResetDamage();
  return damage;
}

class RepairInvariantsTest : public ::testing::TestWithParam<Corpus> {};

// Full driver, both counting modes, invariants checked every round;
// the checks must not perturb the result.
TEST_P(RepairInvariantsTest, FullDriverInvariantsHold) {
  for (uint64_t seed : {11u, 23u}) {
    CorpusFixture f = MakeFixture(GetParam(), 0.02, 80, seed);
    Grammar damaged = std::move(f.seed_grammar);
    ApplyBatch(&damaged, f.workload, 0, 80);
    for (CountingMode mode :
         {CountingMode::kIncremental, CountingMode::kRecount}) {
      GrammarRepairOptions plain = Recompress();
      plain.counting = mode;
      GrammarRepairOptions checked = plain;
      checked.check_invariants = true;
      GrammarRepairResult a = GrammarRePair(damaged.Clone(), plain);
      GrammarRepairResult b = GrammarRePair(damaged.Clone(), checked);
      ASSERT_TRUE(Validate(b.grammar).ok());
      EXPECT_EQ(FormatGrammar(a.grammar), FormatGrammar(b.grammar));
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.rules_rescanned, b.rules_rescanned);
    }
  }
}

// Localized driver across several checkpoints, both counting modes,
// invariants checked every round.
TEST_P(RepairInvariantsTest, LocalizedDriverInvariantsHold) {
  for (uint64_t seed : {5u, 31u}) {
    CorpusFixture f = MakeFixture(GetParam(), 0.02, 90, seed);
    for (CountingMode mode :
         {CountingMode::kIncremental, CountingMode::kRecount}) {
      GrammarRepairOptions opts = Recompress();
      opts.counting = mode;
      opts.check_invariants = true;
      Grammar g = f.seed_grammar.Clone();
      for (size_t at = 0; at < f.workload.ops.size(); at += 30) {
        std::vector<LabelId> damage = ApplyBatch(&g, f.workload, at, 30);
        GrammarRepairResult r =
            LocalizedGrammarRePair(std::move(g), damage, opts);
        ASSERT_TRUE(Validate(r.grammar).ok()) << InfoFor(GetParam()).name;
        g = std::move(r.grammar);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, RepairInvariantsTest,
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

}  // namespace
}  // namespace slg
