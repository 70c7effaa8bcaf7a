// Golden grammar hashes: the FNV-1a hash of SerializeGrammar for each
// of the six corpora under every compressor the library ships —
// TreeRePair (default and max_rank = 2), GrammarRePair (incremental
// counting, recount, without fragment export, and with positive
// savings required, the service's non-localized merge),
// LocalizedGrammarRePair after a fixed seeded batch (incremental and
// recount, and recount after a one-op batch whose damage closure stays
// under a quarter of the rules, so the index is seeded sparsely and
// the covered-region recount runs), and the sharded pipeline at both
// final-repair tiers.
//
// The hashes pin the exact bytes, not just the document: a refactor of
// the repair drivers, the index or the pipeline passes only if every
// grammar stays byte-identical. A mismatch prints the new hash; update
// the table only when a change of output is intended, and say so.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/pipeline/sharded_compressor.h"
#include "src/repair/tree_repair.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

constexpr double kScale = 0.05;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Prints a mismatch as the hex literal the table holds.
void ExpectHash(const char* mode, const Grammar& g, uint64_t want) {
  uint64_t got = Fnv1a(SerializeGrammar(g));
  EXPECT_EQ(got, want) << mode << ": 0x" << std::hex << got << "ull";
}

struct Golden {
  Corpus corpus;
  uint64_t tree_repair;
  uint64_t incremental;
  uint64_t recount;
  uint64_t unoptimized;
  uint64_t localized;
  uint64_t sharded_top_level;
  uint64_t sharded_full;
  uint64_t tree_repair_rank2;
  uint64_t positive_savings;
  uint64_t localized_recount;
  uint64_t sparse_recount;
};

constexpr Golden kGolden[] = {
    {Corpus::kExiWeblog,
     0x99abca6fc2a4b9a1ull, 0x64fc3f297828519cull,
     0x64fc3f297828519cull, 0x632a1ea6cd8048d5ull,
     0x313b0061de6a2269ull, 0xc2883fb65ad2981full,
     0x2694791db5e0f85bull,
     0xfb41dca7bd42d74full, 0xc520d245a63b19b0ull,
     0xc520d245a63b19b0ull,
     0xe4a9b7c1a89fd9c2ull},
    {Corpus::kExiTelecomp,
     0x88e6214428d118c8ull, 0x3d3cea0ff67a6674ull,
     0x3d3cea0ff67a6674ull, 0x90385067733b037full,
     0xb2fdfeaae3b98ff1ull, 0xebcf1b5577a3a0afull,
     0xe41a49e5b5c26fc9ull,
     0x15b4aee0cca4435dull, 0x28c218b7e36df775ull,
     0x28c218b7e36df775ull,
     0x7e73526c27617e00ull},
    {Corpus::kMedline,
     0xfd24d91bc7eb2fb7ull, 0x4750bf288388ec65ull,
     0x4750bf288388ec65ull, 0x7b82476d83b7521bull,
     0xdd4863824715df47ull, 0xe50ca56508a9c8caull,
     0xbe533da4d6cbfd22ull,
     0xf81c692c37082b0ull, 0xdd4863824715df47ull,
     0xdd4863824715df47ull,
     0xbfd2c7b9b3aec7d2ull},
    {Corpus::kNcbi,
     0xe5e610116d4878d6ull, 0x28ce7ab1876a5564ull,
     0x28ce7ab1876a5564ull, 0x47a99b133d67949aull,
     0x76dd332569c48f82ull, 0x80f590984e64ef43ull,
     0xb0f759b72b4719d1ull,
     0xad03ba4db944d5d4ull, 0x317825882dfb0228ull,
     0x317825882dfb0228ull,
     0x7619d120b6fb3d7full},
    {Corpus::kTreebank,
     0x11c72be1248445ull, 0x56f3b2cd598e79ffull,
     0x56f3b2cd598e79ffull, 0xa3f3d49a45f5bb27ull,
     0xbc785b94587e45full, 0xd30e11947f9e0a14ull,
     0x27e41edaea45c1d9ull,
     0xd2b5579c356e33cbull, 0x9498228b306f55c0ull,
     0x9498228b306f55c0ull,
     0xf9cb57fa0a25a30bull},
    {Corpus::kXMark,
     0x1a04dd0bc749a0b0ull, 0x5706426856c64e98ull,
     0x5706426856c64e98ull, 0x86fdc36e5f04c26aull,
     0x36612e11ec6eb1f0ull, 0x1293032416ecd8a1ull,
     0x568a2c458a264353ull,
     0x9dd38b9e512d8fcfull, 0x36612e11ec6eb1f0ull,
     0x36612e11ec6eb1f0ull,
     0x2e77bcfad7daced4ull},
};

ShardedCompressorOptions Sharded(FinalRepairMode mode) {
  ShardedCompressorOptions o;
  o.num_shards = 4;
  o.num_threads = 2;
  o.min_shard_nodes = 1;
  o.final_repair = mode;
  return o;
}

class GoldenGrammarTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenGrammarTest, EveryCompressorIsByteIdentical) {
  const Golden& want = GetParam();
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(want.corpus, kScale), &labels);

  ExpectHash("TreeRePair", TreeRePair(Tree(bin), labels, {}).grammar,
             want.tree_repair);
  RepairOptions rank2;
  rank2.max_rank = 2;
  ExpectHash("TreeRePair max_rank=2",
             TreeRePair(Tree(bin), labels, rank2).grammar,
             want.tree_repair_rank2);

  // The repairs of an updated grammar: TreeRePair of the workload's
  // seed document, then the whole workload as one batch.
  WorkloadOptions wopts;
  wopts.num_ops = 40;
  wopts.seed = 11;
  wopts.rename_fraction = 0.1;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Grammar updated = TreeRePair(Tree(w.seed), labels, {}).grammar;
  BatchUpdater batch(&updated);
  for (const UpdateOp& op : w.ops) ASSERT_TRUE(batch.Apply(op).ok());
  batch.Finish();
  const std::vector<LabelId> damage = batch.DamagedRules();

  ExpectHash("kIncremental", GrammarRePair(updated.Clone(), {}).grammar,
             want.incremental);
  GrammarRepairOptions recount;
  recount.counting = CountingMode::kRecount;
  ExpectHash("kRecount", GrammarRePair(updated.Clone(), recount).grammar,
             want.recount);
  GrammarRepairOptions unoptimized;
  unoptimized.optimize = false;
  ExpectHash("optimize=false",
             GrammarRePair(updated.Clone(), unoptimized).grammar,
             want.unoptimized);
  GrammarRepairOptions serving;
  serving.repair.require_positive_savings = true;
  ExpectHash("require_positive_savings",
             GrammarRePair(updated.Clone(), serving).grammar,
             want.positive_savings);
  ExpectHash("Localized",
             LocalizedGrammarRePair(updated.Clone(), damage, serving).grammar,
             want.localized);
  GrammarRepairOptions serving_recount = serving;
  serving_recount.counting = CountingMode::kRecount;
  ExpectHash("Localized kRecount",
             LocalizedGrammarRePair(updated.Clone(), damage, serving_recount)
                 .grammar,
             want.localized_recount);

  // A one-op batch: start, damage and callers stay under a quarter of
  // the rules on every corpus, so the localized driver seeds sparsely
  // and kRecount recounts only the covered region.
  WorkloadOptions one_op = wopts;
  one_op.num_ops = 1;
  one_op.seed = 16;
  UpdateWorkload w1 = MakeUpdateWorkload(bin, labels, one_op);
  Grammar sparse = TreeRePair(Tree(w1.seed), labels, {}).grammar;
  BatchUpdater sparse_batch(&sparse);
  for (const UpdateOp& op : w1.ops) ASSERT_TRUE(sparse_batch.Apply(op).ok());
  sparse_batch.Finish();
  ExpectHash("Localized kRecount, sparse seed",
             LocalizedGrammarRePair(std::move(sparse),
                                    sparse_batch.DamagedRules(),
                                    serving_recount)
                 .grammar,
             want.sparse_recount);

  ExpectHash("kTopLevel",
             ShardedCompress(Tree(bin), labels,
                             Sharded(FinalRepairMode::kTopLevel))
                 .grammar,
             want.sharded_top_level);
  ExpectHash("kFull",
             ShardedCompress(Tree(bin), labels, Sharded(FinalRepairMode::kFull))
                 .grammar,
             want.sharded_full);
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpora, GoldenGrammarTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string n = InfoFor(info.param.corpus).name;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

}  // namespace
}  // namespace slg
