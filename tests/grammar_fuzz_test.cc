// A serialized grammar image is untrusted input: a seeded mutation
// sweep over the images of compressed corpus grammars and hand-written
// parameterized ones (flip, insert, delete or replace bytes, rewrite
// one varint in place, splice long varints, duplicate or truncate
// spans). Every mutant goes
// through DeserializeGrammar; an image it accepts goes through
// GrammarSnapshot::Make and then a few LabelAt / FindElement /
// RunQuery calls. Each step must come back as a Status (InvalidArgument
// for a rejected image or query, OutOfRange / NotFound for positions
// and occurrences the document does not hold), never a crash; ASan/UBSan
// builds run the same sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/service/snapshot.h"
#include "src/xml/binary_encoding.h"
#include "tests/exponential_grammars.h"
#include "tests/fuzz_mutate.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// The images the sweep mutates: corpus grammars (TreeRePair's shapes),
// rules with parameters and empty segments, and a grammar whose
// derived size saturates.
std::vector<std::string> BaseImages() {
  std::vector<std::string> images;
  for (Corpus c : {Corpus::kXMark, Corpus::kTreebank}) {
    images.push_back(SerializeGrammar(CompressedCorpus(c)));
  }
  images.push_back(SerializeGrammar(ParameterizedSiblingGrammar()));
  images.push_back(SerializeGrammar(ParameterizedChainGrammar(6)));
  images.push_back(SerializeGrammar(
      GrammarFromRules({
          "S -> r(B(C(a,b,D(c,e)),E(a,b)),C(e,B(a,a),D(E(b,c),a)))",
          "B -> f($1,$2)",
          "C -> g(h($1,$2),$3)",
          "D -> k($1,m(a,$2))",
          "E -> p($1,B($2,a))",
      }).take()));
  images.push_back(SerializeGrammar(DoublingGrammar(70)));
  return images;
}

// The reads of one accepted image; each must return a Status.
void ReadSnapshot(const GrammarSnapshot& snap, std::mt19937& rng) {
  const int64_t n = snap.node_count();
  ASSERT_GE(n, 1);
  for (int64_t p : {int64_t{1}, n / 2 + 1, n}) {
    StatusOr<std::string> l = snap.LabelAt(p);
    ASSERT_TRUE(l.ok()) << "LabelAt " << p << ": " << l.status().ToString();
  }
  for (int64_t p : {int64_t{0}, n + 1}) {
    if (p > n && n == kSizeCap) continue;  // n + 1 is not addressable
    ASSERT_EQ(snap.LabelAt(p).status().code(), StatusCode::kOutOfRange);
  }

  const LabelTable& labels = snap.grammar().labels();
  for (int i = 0; i < 3; ++i) {
    LabelId l = static_cast<LabelId>(
        std::uniform_int_distribution<int>(0, labels.size() - 1)(rng));
    const std::string& name = labels.Name(l);
    for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{1} << 40}) {
      StatusOr<int64_t> at = snap.FindElement(name, k);
      if (at.ok()) {
        ASSERT_GE(at.value(), 1);
        ASSERT_LE(at.value(), n);
      } else {
        ASSERT_EQ(at.status().code(), StatusCode::kNotFound)
            << at.status().ToString();
      }
    }
    for (const std::string& q :
         {"count(//" + name + ")", "first(//" + name + ")",
          "nth(//" + name + ", 2)", "/*[1]/" + name}) {
      StatusOr<QueryResult> r = snap.RunQuery(q);
      if (r.ok()) {
        ASSERT_GE(r.value().count, 0);
        ASSERT_LE(r.value().position, n);
      } else {
        ASSERT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
                    r.status().code() == StatusCode::kNotFound)
            << q << ": " << r.status().ToString();
      }
    }
  }
  StatusOr<QueryResult> all = snap.RunQuery("count(//*)");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
}

TEST(GrammarFuzzTest, MutatedImagesYieldAStatus) {
  const std::vector<std::string> bases = BaseImages();
  std::mt19937 rng(20161020);
  int accepted = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::string& base = bases[static_cast<size_t>(i) % bases.size()];
    const std::string image = Mutate(base, /*header=*/4, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));
    StatusOr<Grammar> g = DeserializeGrammar(image);
    if (!g.ok()) {
      ASSERT_EQ(g.status().code(), StatusCode::kInvalidArgument)
          << g.status().ToString();
      continue;
    }
    ++accepted;
    std::shared_ptr<const GrammarSnapshot> snap =
        GrammarSnapshot::Make(g.take());
    ReadSnapshot(*snap, rng);
    if (HasFatalFailure()) return;
  }
  // The sweep must reach the readers, not only the decoder's
  // rejections.
  EXPECT_GT(accepted, 1000) << accepted;
}

// Cases the sweep found, kept by name.

TEST(GrammarFuzzTest, ParameterWithARuleIsRejected) {
  // A -> f($1,~) with a rule for $1: every reader takes $1 for a
  // parameter, which has no rule.
  Grammar g = GrammarFromRules({"S -> f(A(a),~)", "A -> f($1,~)"}).take();
  Tree body;
  body.SetRoot(body.NewNode(g.labels().Find("a")));
  g.AddRule(g.labels().Find("$1"), std::move(body));
  StatusOr<Grammar> back = DeserializeGrammar(SerializeGrammar(g));
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(GrammarFuzzTest, ThirdChildOfATerminalAboveAParameter) {
  // B's parameter sits under the third child of a rank-3 terminal, and
  // no //k state can fire in B's material, so the evaluation hands the
  // argument the call's context without walking B; a walk through B
  // would reach the argument with none. The first/nth descent must
  // resume the argument in the evaluation's context to find the
  // matches count() reports.
  std::shared_ptr<const GrammarSnapshot> snap = GrammarSnapshot::Make(
      GrammarFromRules({"S -> r(B(k(~,~)),~)", "B -> t(~,~,$1)"}).take());
  StatusOr<QueryResult> count = snap->RunQuery("count(//k)");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_GE(count.value().count, 1);
  StatusOr<QueryResult> first = snap->RunQuery("first(//k)");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(snap->LabelAt(first.value().position).value(), "k");
}

TEST(GrammarFuzzTest, PositionPastTheSizeCapSaturates) {
  // 2^70 leaves: the 2^62-th lies past kSizeCap, which is what both
  // descents report for it, as DerivedSize reports the cap.
  std::shared_ptr<const GrammarSnapshot> snap =
      GrammarSnapshot::Make(DoublingGrammar(70));
  ASSERT_EQ(snap->node_count(), kSizeCap);
  const int64_t k = int64_t{1} << 62;
  StatusOr<int64_t> at = snap->FindElement("a", k);
  ASSERT_TRUE(at.ok()) << at.status().ToString();
  EXPECT_EQ(at.value(), kSizeCap);
  StatusOr<QueryResult> nth =
      snap->RunQuery("nth(//a, " + std::to_string(k) + ")");
  ASSERT_TRUE(nth.ok()) << nth.status().ToString();
  EXPECT_EQ(nth.value().position, kSizeCap);
}

}  // namespace
}  // namespace slg
