// SnapshotNav: LabelAt / FindLabel on the grammar DAG (no
// decompression, no isolation) must agree with the decompressed tree
// on compressed grammars of every corpus shape — including grammars
// whose rules take parameters.

#include "src/core/snapshot_nav.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "tests/exponential_grammars.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// Checks every navigation query against the decompressed tree.
void CrossCheck(const Grammar& g) {
  RuleIndex index = RuleIndex::Build(g);
  SnapshotNav nav(&g, &index);

  Tree full = Value(g).take();
  std::vector<LabelId> expect;
  full.VisitPreorder(full.root(),
                     [&](NodeId v) { expect.push_back(full.label(v)); });
  const int64_t n = static_cast<int64_t>(expect.size());
  ASSERT_EQ(nav.DerivedSize(), n);

  // LabelAt over every position, plus both out-of-range sides.
  for (int64_t i = 0; i < n; ++i) {
    StatusOr<LabelId> l = nav.LabelAt(i + 1);
    ASSERT_TRUE(l.ok()) << "preorder " << (i + 1);
    ASSERT_EQ(l.value(), expect[i]) << "preorder " << (i + 1);
  }
  EXPECT_FALSE(nav.LabelAt(0).ok());
  EXPECT_FALSE(nav.LabelAt(n + 1).ok());
  EXPECT_FALSE(nav.LabelAt(-5).ok());

  // Occurrence counts per label, from the reference walk.
  std::map<LabelId, std::vector<int64_t>> positions;
  for (int64_t i = 0; i < n; ++i) positions[expect[i]].push_back(i + 1);

  for (const auto& [label, where] : positions) {
    const int64_t count = static_cast<int64_t>(where.size());
    // First, a middle one, and the last occurrence.
    for (int64_t k : {int64_t{1}, (count + 1) / 2, count}) {
      StatusOr<int64_t> pos = nav.FindLabel(label, k);
      ASSERT_TRUE(pos.ok()) << "label " << label << " k " << k;
      ASSERT_EQ(pos.value(), where[k - 1]) << "label " << label << " k " << k;
    }
    EXPECT_FALSE(nav.FindLabel(label, count + 1).ok());
  }
  EXPECT_FALSE(nav.FindLabel(kNoLabel, 1).ok());
  EXPECT_FALSE(nav.FindLabel(0, 0).ok());  // k < 1
}

class SnapshotNavCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(SnapshotNavCorpusTest, AgreesWithDecompressedTree) {
  CrossCheck(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, SnapshotNavCorpusTest,
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

TEST(SnapshotNavTest, ParameterizedRules) {
  // Rules with parameters in non-trivial positions: occurrences and
  // sizes must flow through the actual-argument prefix sums.
  CrossCheck(ParameterizedSiblingGrammar());
}

TEST(SnapshotNavTest, DeepSharedChain) {
  // Exponential derived size from a logarithmic grammar: navigation
  // must stay exact without materializing the 2^7-deep chain.
  Grammar g = ParameterizedChainGrammar(8);
  RuleIndex index = RuleIndex::Build(g);
  SnapshotNav nav(&g, &index);
  EXPECT_EQ(nav.DerivedSize(), ValueNodeCount(g));
  CrossCheck(g);
}

}  // namespace
}  // namespace slg
