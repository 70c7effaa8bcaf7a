// SnapshotNav: LabelAt / FindLabel on the grammar DAG (no
// decompression, no isolation) must agree with the decompressed tree
// on compressed grammars of every corpus shape — including grammars
// whose rules take parameters, rules with empty parameter segments, and
// served snapshots whose start rules were edited by write batches. At
// every position LabelAt must step over the arguments that hold it
// rather than enter the callee and come back out (it never meets a
// parameter). On small documents FindLabel is checked at every k, so
// its descent pops out of every parameter, empty segments included.
// Every find is also asked of a GrammarSnapshot, whose read memo must
// answer the same cold (the first find of a tag), warm (a find over
// the published table) and past its byte budget (a table used once),
// also when several threads race to publish one tag's table.

#include "src/core/snapshot_nav.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/service/document_service.h"
#include "src/service/snapshot.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"
#include "tests/exponential_grammars.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// Documents up to this many nodes get FindLabel at every k; larger ones
// at the first, a middle and the last occurrence of each label.
constexpr int64_t kEveryOccurrenceNodes = 256;

// Checks every navigation query of `snap` (a served snapshot, or one
// made for the test) against the decompressed tree, and every find
// both on its SnapshotNav and through its read memo.
void CrossCheck(const GrammarSnapshot& snap) {
  const Grammar& g = snap.grammar();
  const SnapshotNav& nav = snap.nav();
  const int64_t budget = GrammarSnapshot::kReadMemoBytesPerEdge * snap.edges();

  Tree full = Value(g).take();
  std::vector<LabelId> expect;
  full.VisitPreorder(full.root(),
                     [&](NodeId v) { expect.push_back(full.label(v)); });
  const int64_t n = static_cast<int64_t>(expect.size());
  ASSERT_EQ(nav.DerivedSize(), n);

  // LabelAt over every position, plus both out-of-range sides. No
  // descent may enter a callee whose argument holds the position:
  // LabelAt checks that it never meets a parameter, so the sweep aborts
  // on such a descent.
  for (int64_t i = 0; i < n; ++i) {
    NavStats stats;
    StatusOr<LabelId> l = nav.LabelAt(i + 1, &stats);
    ASSERT_TRUE(l.ok()) << "preorder " << (i + 1);
    ASSERT_EQ(l.value(), expect[i]) << "preorder " << (i + 1);
    ASSERT_GE(stats.steps, stats.frames_entered + 1) << "preorder " << (i + 1);
  }
  EXPECT_FALSE(nav.LabelAt(0).ok());
  EXPECT_FALSE(nav.LabelAt(n + 1).ok());
  EXPECT_FALSE(nav.LabelAt(-5).ok());

  // Occurrence counts per label, from the reference walk.
  std::map<LabelId, std::vector<int64_t>> positions;
  for (int64_t i = 0; i < n; ++i) positions[expect[i]].push_back(i + 1);

  for (const auto& [label, where] : positions) {
    const int64_t count = static_cast<int64_t>(where.size());
    std::vector<int64_t> ks = {1, (count + 1) / 2, count};
    if (n <= kEveryOccurrenceNodes) {
      ks.clear();
      for (int64_t k = 1; k <= count; ++k) ks.push_back(k);
    }
    for (int64_t k : ks) {
      StatusOr<int64_t> pos = nav.FindLabel(label, k);
      ASSERT_TRUE(pos.ok()) << "label " << label << " k " << k;
      ASSERT_EQ(pos.value(), where[k - 1]) << "label " << label << " k " << k;
    }
    EXPECT_FALSE(nav.FindLabel(label, count + 1).ok());

    // Through the snapshot: the first find is cold; the memo then holds
    // the table (warm) or it did not fit (past the budget), and each
    // later find reports the pass's nodes only in the second case.
    const std::string& tag = g.labels().Name(label);
    NavStats pass;
    nav.CountOccurrences(label, &pass);
    const int64_t held = snap.ReadMemoBytes();
    NavStats cold;
    StatusOr<int64_t> first = snap.FindElement(tag, ks[0], &cold);
    ASSERT_TRUE(first.ok()) << tag;
    ASSERT_EQ(first.value(), where[ks[0] - 1]) << tag << " cold";
    const bool published = snap.ReadMemoBytes() > held;
    ASSERT_LE(snap.ReadMemoBytes(), budget);
    for (int64_t k : ks) {
      NavStats again;
      StatusOr<int64_t> pos = snap.FindElement(tag, k, &again);
      ASSERT_TRUE(pos.ok()) << tag << " k " << k;
      ASSERT_EQ(pos.value(), where[k - 1])
          << tag << " k " << k << (published ? " warm" : " past the budget");
      if (k == ks[0]) {
        ASSERT_EQ(cold.steps, again.steps + (published ? pass.steps : 0))
            << tag;
      }
    }
    EXPECT_EQ(snap.FindElement(tag, count + 1).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_FALSE(nav.FindLabel(kNoLabel, 1).ok());
  EXPECT_FALSE(nav.FindLabel(0, 0).ok());  // k < 1
}

class SnapshotNavCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(SnapshotNavCorpusTest, AgreesWithDecompressedTree) {
  CrossCheck(*GrammarSnapshot::Make(CompressedCorpus(GetParam())));
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
  CrossCheck(*GrammarSnapshot::Make(ParameterizedSiblingGrammar()));
}

TEST(SnapshotNavTest, EmptySegments) {
  // Parameters next to each other and parameters as a body's last
  // preorder node leave segments of size 0: a position right after an
  // argument is then the start of the next argument, or lies past the
  // call altogether, never in the callee's material. E passes its
  // second parameter on into a call of B.
  Grammar g = GrammarFromRules({
                  "S -> r(B(C(a,b,D(c,e)),E(a,b)),C(e,B(a,a),D(E(b,c),a)))",
                  "B -> f($1,$2)",
                  "C -> g(h($1,$2),$3)",
                  "D -> k($1,m(a,$2))",
                  "E -> p($1,B($2,a))",
              })
                  .take();
  RuleIndex index = RuleIndex::Build(g);
  auto segs = [&](const char* name) {
    LabelId r = g.labels().Find(name);
    std::vector<int64_t> out;
    for (int i = 0; i <= index.Rank(r); ++i) out.push_back(index.SegSize(r, i));
    return out;
  };
  EXPECT_EQ(segs("B"), (std::vector<int64_t>{1, 0, 0}));
  EXPECT_EQ(segs("C"), (std::vector<int64_t>{2, 0, 0, 0}));
  EXPECT_EQ(segs("D"), (std::vector<int64_t>{1, 2, 0}));
  EXPECT_EQ(segs("E"), (std::vector<int64_t>{1, 1, 1}));
  // Every position, so every segment boundary of every call.
  CrossCheck(*GrammarSnapshot::Make(std::move(g)));
}

// A served document after seeded rename/insert/delete batches: the
// start rule holds inlined rule bodies and inserted fragments, its
// NodeIds out of preorder, and the index is derived from the parent
// version's rather than built. Then the same after Flush (the
// recompressed grammar and its fresh index).
class ServedSnapshotNavTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(ServedSnapshotNavTest, AgreesWithDecompressedTreeBeforeAndAfterFlush) {
  XmlTree xml = GenerateCorpus(GetParam(), 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 30;
  wopts.seed = 19;
  wopts.rename_fraction = 0.2;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Grammar seed =
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), {}).grammar;
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // merge only on Flush()
  auto svc = DocumentService::FromGrammar(std::move(seed), opts).take();
  DocumentService::Writer writer = svc->OpenWriter();
  for (size_t at = 0; at < w.ops.size(); at += 5) {
    size_t end = std::min(w.ops.size(), at + 5);
    ASSERT_TRUE(writer.Apply({w.ops.begin() + at, w.ops.begin() + end}).ok());
  }
  {
    SCOPED_TRACE("after write batches");
    DocumentService::Reader r = svc->OpenReader();
    const Grammar& g = r.snapshot().grammar();
    const Tree& start = g.rhs(g.start());
    NodeId expect = 0;
    bool in_order = true;
    start.VisitPreorder(start.root(),
                        [&](NodeId v) { in_order &= v == expect++; });
    ASSERT_FALSE(in_order)
        << "the batches should leave the start rule out of preorder";
    CrossCheck(r.snapshot());
  }
  ASSERT_TRUE(svc->Flush().ok());
  {
    SCOPED_TRACE("after Flush");
    DocumentService::Reader r = svc->OpenReader();
    CrossCheck(r.snapshot());
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, ServedSnapshotNavTest,
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

// The scan's position of every occurrence of every tag, by tag name.
std::map<std::string, std::vector<int64_t>> TagPositions(const Grammar& g) {
  Tree full = Value(g).take();
  std::map<std::string, std::vector<int64_t>> out;
  int64_t pos = 0;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    ++pos;
    if (full.label(v) != kNullLabel) {
      out[g.labels().Name(full.label(v))].push_back(pos);
    }
  });
  return out;
}

TEST(ReadMemoTest, RacingFindsAgreeWithTheScan) {
  // Threads released together ask one fresh snapshot for the same tags
  // in the same order, so their first finds of each tag race to publish
  // its table. Every answer must be the scan's.
  XmlTree xml = GenerateCorpus(Corpus::kMedline, 0.02);
  CompressOptions sequential;
  sequential.num_shards = 1;
  auto base = CompressXmlToSnapshot(WriteXml(xml, {}), sequential).take();
  const std::map<std::string, std::vector<int64_t>> want =
      TagPositions(base->grammar());
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    auto snap = GrammarSnapshot::Make(base->grammar().Clone());
    std::atomic<int> ready{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (const auto& [tag, where] : want) {
          for (size_t j : {size_t{0}, where.size() / 2, where.size() - 1}) {
            StatusOr<int64_t> pos =
                snap->FindElement(tag, static_cast<int64_t>(j) + 1);
            if (!pos.ok() || pos.value() != where[j]) wrong.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(wrong.load(), 0) << "round " << round;
    EXPECT_GT(snap->ReadMemoBytes(), 0);
    EXPECT_LE(snap->ReadMemoBytes(),
              GrammarSnapshot::kReadMemoBytesPerEdge * snap->edges());
  }
}

TEST(ReadMemoTest, TagsPastTheBudgetAreAnsweredWithoutIt) {
  // A document of many distinct tags and no repetition: each table
  // costs a few words per label, so the budget holds only a few of
  // them. Every find stays right, the memo never holds more than the
  // budget, and the tags it could not hold are answered again alike.
  std::string doc = "<root>";
  for (int i = 0; i < 40; ++i) {
    doc += "<t" + std::to_string(i) + "><u/></t" + std::to_string(i) + ">";
  }
  doc += "</root>";
  CompressOptions sequential;
  sequential.num_shards = 1;
  auto snap = CompressXmlToSnapshot(doc, sequential).take();
  const int64_t budget =
      GrammarSnapshot::kReadMemoBytesPerEdge * snap->edges();
  const std::map<std::string, std::vector<int64_t>> want =
      TagPositions(snap->grammar());
  int published = 0;
  int past_budget = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [tag, where] : want) {
      const int64_t held = snap->ReadMemoBytes();
      for (size_t j = 0; j < where.size(); ++j) {
        StatusOr<int64_t> pos =
            snap->FindElement(tag, static_cast<int64_t>(j) + 1);
        ASSERT_TRUE(pos.ok()) << tag;
        ASSERT_EQ(pos.value(), where[j]) << tag << " pass " << pass;
      }
      ASSERT_LE(snap->ReadMemoBytes(), budget) << tag;
      if (pass == 0) {
        ++(snap->ReadMemoBytes() > held ? published : past_budget);
      } else {
        EXPECT_EQ(snap->ReadMemoBytes(), held) << tag;
      }
    }
  }
  EXPECT_GT(published, 0);
  EXPECT_GT(past_budget, published);
}

TEST(SnapshotNavTest, DeepSharedChain) {
  // Exponential derived size from a logarithmic grammar: navigation
  // must stay exact without materializing the 2^7-deep chain.
  Grammar g = ParameterizedChainGrammar(8);
  RuleIndex index = RuleIndex::Build(g);
  SnapshotNav nav(&g, &index);
  EXPECT_EQ(nav.DerivedSize(), ValueNodeCount(g));
  CrossCheck(*GrammarSnapshot::Make(std::move(g)));
}

}  // namespace
}  // namespace slg
