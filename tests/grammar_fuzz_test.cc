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

// Past the magic an image is a sequence of varints — names are ASCII,
// one single-byte varint per character — so a varint can be rewritten
// in place while the framing around it stays intact.
void RewriteVarint(std::string& s, size_t index, std::mt19937& rng) {
  size_t begin = 4;
  for (size_t i = 0; begin < s.size(); ++i) {
    size_t end = begin;
    uint64_t v = 0;
    int shift = 0;
    while (end < s.size()) {
      uint8_t b = static_cast<uint8_t>(s[end++]);
      if (shift < 64) v |= static_cast<uint64_t>(b & 0x7f) << shift;
      shift += 7;
      if ((b & 0x80) == 0) break;
    }
    if (i == index) {
      // A neighbour (the next label id, an off-by-one count) or any
      // value up to twice the old one.
      switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
        case 0:
          ++v;
          break;
        case 1:
          v = v == 0 ? 0 : v - 1;
          break;
        default:
          v = std::uniform_int_distribution<uint64_t>(0, 2 * v + 2)(rng);
      }
      std::string enc;
      for (; v >= 0x80; v >>= 7) {
        enc.push_back(static_cast<char>((v & 0x7f) | 0x80));
      }
      enc.push_back(static_cast<char>(v));
      s.replace(begin, end - begin, enc);
      return;
    }
    begin = end;
  }
}

std::string Mutate(std::string s, std::mt19937& rng) {
  std::uniform_int_distribution<int> byte_d(0, 255);
  std::uniform_int_distribution<int> op_d(0, 9);
  std::uniform_int_distribution<int> count_d(1, 3);
  auto pos = [&](size_t bound) {
    return std::uniform_int_distribution<size_t>(0, bound)(rng);
  };
  // Offsets past the magic, so most mutants reach the decoder proper:
  // a gap to insert at, or (s.size() > 4) a byte to change.
  auto gap = [&]() { return s.size() < 4 ? s.size() : 4 + pos(s.size() - 4); };
  auto byte_at = [&]() { return 4 + pos(s.size() - 5); };
  auto any_byte = [&]() -> char {
    // Half small varints (label ids, counts, ranks), half raw bytes.
    if (byte_d(rng) < 128) return static_cast<char>(pos(15));
    return static_cast<char>(byte_d(rng));
  };
  for (int n = count_d(rng); n > 0; --n) {
    switch (op_d(rng)) {
      case 0:  // flip one bit
        if (!s.empty()) s[pos(s.size() - 1)] ^= static_cast<char>(1 << pos(7));
        break;
      case 1:  // insert a byte
        s.insert(gap(), 1, any_byte());
        break;
      case 2:  // delete a byte
        if (s.size() > 4) s.erase(byte_at(), 1);
        break;
      case 3:  // replace a byte
        if (s.size() > 4) s[byte_at()] = any_byte();
        break;
      case 4: {  // duplicate a span
        if (s.empty()) break;
        size_t from = pos(s.size() - 1);
        s.insert(gap(), s.substr(from, 1 + pos(8)));
        break;
      }
      case 5:  // truncate
        s.resize(pos(s.size()));
        break;
      case 6:  // a long varint (a huge count, id or rank)
        s.insert(gap(), std::string(1 + pos(9), static_cast<char>(0xff)) +
                            static_cast<char>(pos(127)));
        break;
      default:  // rewrite one varint, framing kept
        if (s.size() > 4) RewriteVarint(s, pos(s.size() - 5), rng);
        break;
    }
  }
  return s;
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
    const std::string image = Mutate(base, rng);
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
