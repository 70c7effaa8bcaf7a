// A batch payload is untrusted input: a journal record replayed at
// recovery, or a write handed to a served document. A seeded mutation
// sweep (tests/fuzz_mutate.h, the grammar fuzzer's driver) over the
// EncodeBatch payloads of corpus workloads and of the one-op encoders:
// every mutant goes through DecodeBatch, and every payload it accepts
// through ApplyEncodedBatch on a served snapshot of the document. Each
// step must come back as a Status (InvalidArgument for a malformed
// payload or op, OutOfRange for a position the document does not hold,
// FailedPrecondition for an op its target cannot take), never a crash;
// an accepted batch must leave a document grammar a snapshot file can
// hold. ASan/UBSan builds run the same sweep.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/validate.h"
#include "src/repair/tree_repair.h"
#include "src/service/apply.h"
#include "src/service/snapshot.h"
#include "src/store/journal.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "tests/fuzz_mutate.h"

namespace slg {
namespace {

// A served document and the payloads the sweep mutates: its
// workload's first ops in batches of one to eight, and one payload of
// each one-op encoder.
struct Document {
  std::shared_ptr<const GrammarSnapshot> snap;
  std::vector<std::string> payloads;
};

Document MakeDocument(Corpus c) {
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(c, 0.005), &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 24;
  wopts.rename_fraction = 0.2;
  wopts.max_fragment_nodes = 12;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Document doc;
  doc.snap =
      GrammarSnapshot::Make(TreeRePair(Tree(w.seed), labels).grammar);
  for (size_t n : {1, 2, 8}) {
    std::vector<UpdateOp> ops(w.ops.begin(), w.ops.begin() + n);
    doc.payloads.push_back(EncodeBatch(ops, labels));
  }
  doc.payloads.push_back(EncodeRename(3, "renamed"));
  doc.payloads.push_back(EncodeInsertXml(2, "<a><b/></a>").take());
  doc.payloads.push_back(EncodeDelete(2));
  return doc;
}

bool IsStatusOfABadBatch(const Status& s) {
  return s.code() == StatusCode::kInvalidArgument ||
         s.code() == StatusCode::kOutOfRange ||
         s.code() == StatusCode::kFailedPrecondition;
}

// What an accepted batch must leave: a document grammar a snapshot
// file can hold, readable at both ends.
void CheckChild(const GrammarSnapshot& child) {
  ASSERT_TRUE(ValidateDocument(child.grammar()).ok())
      << ValidateDocument(child.grammar()).ToString();
  StatusOr<Grammar> back =
      DeserializeGrammar(SerializeGrammar(child.grammar()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const int64_t n = child.node_count();
  ASSERT_GE(n, 1);
  ASSERT_TRUE(child.LabelAt(1).ok());
  ASSERT_TRUE(child.LabelAt(n).ok());
}

TEST(BatchFuzzTest, MutatedPayloadsYieldAStatus) {
  std::vector<Document> docs;
  for (Corpus c : {Corpus::kXMark, Corpus::kTreebank, Corpus::kMedline}) {
    docs.push_back(MakeDocument(c));
  }
  // The unmutated payloads apply.
  for (const Document& doc : docs) {
    for (const std::string& p : doc.payloads) {
      BatchEffects effects;
      auto child = ApplyEncodedBatch(*doc.snap, p, 1, &effects);
      ASSERT_TRUE(child.ok()) << child.status().ToString();
      CheckChild(*child.value());
    }
  }
  std::mt19937 rng(20161021);
  int decoded = 0;
  int applied = 0;
  for (int i = 0; i < 40000; ++i) {
    const Document& doc = docs[static_cast<size_t>(i) % docs.size()];
    const std::string& base =
        doc.payloads[static_cast<size_t>(i / 3) % doc.payloads.size()];
    const std::string payload = Mutate(base, /*header=*/0, rng);
    SCOPED_TRACE("mutant " + std::to_string(i));
    LabelTable labels = doc.snap->grammar().labels();
    std::vector<UpdateOp> ops;
    Status decode = DecodeBatch(payload, &labels, &ops);
    if (!decode.ok()) {
      ASSERT_EQ(decode.code(), StatusCode::kInvalidArgument)
          << decode.ToString();
      continue;
    }
    ++decoded;
    BatchEffects effects;
    StatusOr<std::shared_ptr<const GrammarSnapshot>> child =
        ApplyEncodedBatch(*doc.snap, payload, 1, &effects);
    if (!child.ok()) {
      ASSERT_TRUE(IsStatusOfABadBatch(child.status()))
          << child.status().ToString();
      continue;
    }
    ++applied;
    CheckChild(*child.value());
    if (HasFatalFailure()) return;
  }
  // The sweep must reach the apply path, not only the decoder's
  // rejections.
  EXPECT_GT(decoded, 2000) << decoded;
  EXPECT_GT(applied, 500) << applied;
}

// Cases the sweep found, kept by name.

TEST(BatchFuzzTest, OpCountPastThePayloadIsMalformed) {
  // A count of 2^29 ops in a five-byte payload: DecodeBatch reserved
  // room for that many ops before reading one, and threw bad_alloc.
  std::string payload;
  for (uint64_t v = uint64_t{1} << 29; v >= 0x80; v >>= 7) {
    payload.push_back(static_cast<char>((v & 0x7f) | 0x80));
  }
  payload.push_back(static_cast<char>(2));
  LabelTable labels;
  std::vector<UpdateOp> ops;
  Status s = DecodeBatch(payload, &labels, &ops);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(BatchFuzzTest, FragmentWiderThanBinaryIsRejected) {
  // An insert fragment whose node has three children: the batch
  // applied, and the document then held a terminal of rank 3, which
  // its own snapshot file could not load (DeserializeGrammar checks
  // ValidateDocument).
  const Document doc = MakeDocument(Corpus::kXMark);
  LabelTable names;
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kInsert;
  ops[0].preorder = 2;
  Tree& f = ops[0].fragment;
  f.SetRoot(f.NewNode(names.Intern("wide", 3)));
  for (int i = 0; i < 3; ++i) f.AppendChild(f.root(), f.NewNode(kNullLabel));
  const std::string payload = EncodeBatch(ops, names);
  BatchEffects effects;
  auto child = ApplyEncodedBatch(*doc.snap, payload, 1, &effects);
  ASSERT_FALSE(child.ok());
  EXPECT_EQ(child.status().code(), StatusCode::kInvalidArgument)
      << child.status().ToString();
}

}  // namespace
}  // namespace slg
