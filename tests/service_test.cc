// DocumentService: the concurrent serving layer's proof obligations.
//
//  * read-your-writes — after Writer::Apply returns Ok, a fresh reader
//    reflects the batch (version and content), whatever the merge
//    thread is doing;
//  * snapshot pinning — a reader taken before N merge cycles still
//    serves its exact original document afterwards (shared_ptr
//    reclamation keeps the superseded bases alive);
//  * equivalence — the document the service serves after racy
//    writer/reader/merge interleavings is byte-identical (ToXml) to a
//    single-threaded replay of the same ops on the plain binary tree,
//    and localized and full merges serve the same document;
//  * batch atomicity — a failed batch (or single-op convenience)
//    publishes nothing: same version, same bytes;
//  * durability composition — with durable_dir set, acked batches
//    survive destruction and Open() serves the same document.
//
// The racy tests run readers on real threads against live writes and
// merges — they are the TSan subjects for the service layer.

#include "src/service/document_service.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/obs/metrics.h"
#include "src/store/io.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

constexpr const char* kDoc =
    "<log><entry><ip/><date/><status/></entry>"
    "<entry><ip/><date/><status/></entry>"
    "<entry><ip/><date/><status/></entry></log>";

std::string TreeToXml(const Tree& t, const LabelTable& labels) {
  StatusOr<XmlTree> xml = DecodeBinary(t, labels);
  SLG_CHECK(xml.ok());
  return WriteXml(xml.value(), {});
}

void RemoveTree(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      ::unlink(JoinPath(dir, name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

std::string NewDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "slg_service_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(++counter);
  RemoveTree(dir);
  return dir;
}

// A compressed seed plus a batched workload and its tree-side replay
// reference — the single-threaded ground truth the service must match.
struct Fixture {
  Grammar seed;
  Tree seed_tree;
  LabelTable labels;
  std::vector<std::vector<UpdateOp>> batches;

  std::string FinalXml() const {
    Tree t(seed_tree);
    for (const auto& batch : batches) {
      for (const UpdateOp& op : batch) ApplyOpToTree(&t, op);
    }
    return TreeToXml(t, labels);
  }
};

Fixture MakeFixture(Corpus corpus, double scale, int num_ops, int batch_size,
                    uint64_t seed) {
  XmlTree xml = GenerateCorpus(corpus, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = num_ops;
  wopts.seed = seed;
  wopts.rename_fraction = 0.15;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Fixture f;
  f.labels = labels;
  f.seed_tree = Tree(w.seed);
  GrammarRepairOptions ropts;
  ropts.repair.require_positive_savings = true;
  f.seed =
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), ropts).grammar;
  for (size_t at = 0; at < w.ops.size();
       at += static_cast<size_t>(batch_size)) {
    size_t end = std::min(w.ops.size(), at + static_cast<size_t>(batch_size));
    f.batches.emplace_back(w.ops.begin() + at, w.ops.begin() + end);
  }
  return f;
}

ServiceOptions ManualMerge() {
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // merge only on Flush()
  return opts;
}

TEST(DocumentServiceTest, SingleWriterRoundTrip) {
  auto svc_or = DocumentService::FromXml(kDoc, ManualMerge());
  ASSERT_TRUE(svc_or.ok()) << svc_or.status().ToString();
  auto svc = svc_or.take();

  DocumentService::Reader r0 = svc->OpenReader();
  EXPECT_EQ(r0.version(), 0);
  EXPECT_EQ(r0.ToXml().value(), kDoc);
  EXPECT_EQ(r0.ElementCount(), 13);

  auto writer = svc->OpenWriter();
  auto pos = r0.FindElement("entry", 1);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(writer.InsertXmlBefore(pos.value(), "<entry><new/></entry>").ok());

  DocumentService::Reader r1 = svc->OpenReader();
  EXPECT_EQ(r1.version(), 1);
  EXPECT_EQ(r1.ElementCount(), 15);
  EXPECT_NE(r1.ToXml().value().find("<entry><new/></entry>"),
            std::string::npos);
  // The pinned pre-write reader still serves the original document.
  EXPECT_EQ(r0.version(), 0);
  EXPECT_EQ(r0.ToXml().value(), kDoc);

  auto pos2 = r1.FindElement("new", 1);
  ASSERT_TRUE(pos2.ok());
  EXPECT_EQ(r1.LabelAt(pos2.value()).value(), "new");
}

TEST(DocumentServiceTest, StatsReportReadMemoBytes) {
  auto svc = DocumentService::FromXml(kDoc, ManualMerge()).take();
  EXPECT_EQ(svc->GetStats().read_memo_bytes, 0);
  DocumentService::Reader r0 = svc->OpenReader();
  ASSERT_TRUE(r0.FindElement("entry", 1).ok());
  const int64_t base_bytes = svc->GetStats().read_memo_bytes;
  EXPECT_GT(base_bytes, 0);
  EXPECT_EQ(base_bytes, r0.snapshot().ReadMemoBytes());
  // A second find of the same tag is served from the memo.
  ASSERT_TRUE(r0.FindElement("entry", 2).ok());
  EXPECT_EQ(svc->GetStats().read_memo_bytes, base_bytes);

  // The overlay is a new version with a memo of its own; the base's
  // still counts.
  auto writer = svc->OpenWriter();
  ASSERT_TRUE(writer.InsertXmlBefore(r0.FindElement("entry", 1).value(),
                                     "<entry><new/></entry>")
                  .ok());
  EXPECT_EQ(svc->GetStats().read_memo_bytes, base_bytes);
  DocumentService::Reader r1 = svc->OpenReader();
  ASSERT_TRUE(r1.has_overlay());
  ASSERT_TRUE(r1.FindElement("new", 1).ok());
  EXPECT_EQ(svc->GetStats().read_memo_bytes,
            base_bytes + r1.snapshot().ReadMemoBytes());
  EXPECT_GT(r1.snapshot().ReadMemoBytes(), 0);

  // A merge publishes a fresh base with an empty memo.
  ASSERT_TRUE(svc->Flush().ok());
  EXPECT_EQ(svc->GetStats().read_memo_bytes, 0);
}

TEST(DocumentServiceTest, ReadYourWritesAfterEveryAck) {
  Fixture f = MakeFixture(Corpus::kExiWeblog, 0.02, 40, 4, 11);
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), ManualMerge()).take();
  auto writer = svc->OpenWriter();

  Tree ref(f.seed_tree);
  int64_t acked = 0;
  for (const auto& batch : f.batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
    ++acked;
    for (const UpdateOp& op : batch) ApplyOpToTree(&ref, op);
    DocumentService::Reader r = svc->OpenReader();
    ASSERT_EQ(r.version(), acked);
    ASSERT_EQ(r.ToXml().value(), TreeToXml(ref, f.labels));
  }
  DocumentService::Stats st = svc->GetStats();
  EXPECT_EQ(st.acked_batches, acked);
}

TEST(DocumentServiceTest, SnapshotPinningAcrossMerges) {
  Fixture f = MakeFixture(Corpus::kXMark, 0.02, 48, 8, 23);
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), ManualMerge()).take();
  auto writer = svc->OpenWriter();

  ASSERT_TRUE(writer.Apply(f.batches[0]).ok());
  DocumentService::Reader pinned = svc->OpenReader();
  const std::string pinned_xml = pinned.ToXml().value();
  const int64_t pinned_version = pinned.version();

  for (size_t i = 1; i < f.batches.size(); ++i) {
    ASSERT_TRUE(writer.Apply(f.batches[i]).ok());
    ASSERT_TRUE(svc->Flush().ok());  // one merge cycle per round
  }
  DocumentService::Stats st = svc->GetStats();
  EXPECT_GE(st.merges, static_cast<int64_t>(f.batches.size()) - 1);
  EXPECT_EQ(st.overlay_batches, 0);  // everything folded into base
  EXPECT_EQ(st.base_version, st.acked_batches);

  // The pinned view is untouched by any of it.
  EXPECT_EQ(pinned.version(), pinned_version);
  EXPECT_EQ(pinned.ToXml().value(), pinned_xml);
}

TEST(DocumentServiceTest, ByteIdenticalToSingleThreadedReplay) {
  Fixture f = MakeFixture(Corpus::kMedline, 0.03, 120, 6, 31);
  ServiceOptions opts;
  opts.update.growth_trigger = 0.2;  // adaptive merges race the writer
  opts.update.min_checkpoint_ops = 8;
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&svc, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        DocumentService::Reader r = svc->OpenReader();
        (void)r.LabelAt(1);
        (void)r.FindElement("MedlineCitation", 1);
        (void)r.version();
      }
    });
  }

  auto writer = svc->OpenWriter();
  for (const auto& batch : f.batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
  }
  ASSERT_TRUE(svc->Flush().ok());
  stop.store(true);
  for (auto& t : readers) t.join();

  DocumentService::Reader r = svc->OpenReader();
  EXPECT_EQ(r.ToXml().value(), f.FinalXml());
  DocumentService::Stats st = svc->GetStats();
  EXPECT_EQ(st.acked_batches, static_cast<int64_t>(f.batches.size()));
  EXPECT_EQ(st.overlay_batches, 0);
  EXPECT_GE(st.merges, 1);
}

TEST(DocumentServiceTest, ReadersRaceWritersAndMerges) {
  Fixture f = MakeFixture(Corpus::kNcbi, 0.02, 80, 2, 47);
  ServiceOptions opts;
  opts.update.growth_trigger = 0.15;
  opts.update.min_checkpoint_ops = 4;
  auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&svc, &stop, &reads, i] {
      while (!stop.load(std::memory_order_relaxed)) {
        DocumentService::Reader r = svc->OpenReader();
        EXPECT_TRUE(r.LabelAt(1).ok());
        if (i == 0) (void)r.ToXml();  // one heavyweight reader
        (void)r.CompressedSize();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto writer = svc->OpenWriter();
  for (const auto& batch : f.batches) {
    ASSERT_TRUE(writer.Apply(batch).ok());
  }
  ASSERT_TRUE(svc->Flush().ok());
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(svc->OpenReader().ToXml().value(), f.FinalXml());
}

TEST(DocumentServiceTest, LocalizedAndFullMergesServeTheSameDocument) {
  Fixture f = MakeFixture(Corpus::kExiTelecomp, 0.02, 60, 6, 53);
  const std::string want = f.FinalXml();
  for (bool localized : {true, false}) {
    ServiceOptions opts = ManualMerge();
    opts.update.localized = localized;
    auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();
    auto writer = svc->OpenWriter();
    for (const auto& batch : f.batches) {
      ASSERT_TRUE(writer.Apply(batch).ok());
    }
    const Grammar merge_input =
        svc->OpenReader().snapshot().grammar().Clone();
    ASSERT_TRUE(svc->Flush().ok());
    EXPECT_EQ(svc->OpenReader().ToXml().value(), want)
        << "localized " << localized;
    EXPECT_EQ(svc->GetStats().merges, 1);
    // The option is honoured: a full merge is GrammarRePair of the
    // overlay, byte for byte.
    if (!localized) {
      EXPECT_EQ(SerializeGrammar(svc->OpenReader().snapshot().grammar()),
                SerializeGrammar(
                    GrammarRePair(merge_input.Clone(), opts.update.repair)
                        .grammar));
    }
  }
}

TEST(DocumentServiceTest, FailedBatchPublishesNothing) {
  auto svc = DocumentService::FromXml(kDoc, ManualMerge()).take();
  auto writer = svc->OpenWriter();
  ASSERT_TRUE(writer.Rename(1, "journal").ok());
  const std::string before = svc->OpenReader().ToXml().value();

  // Valid op followed by an out-of-range one: the whole batch fails.
  std::vector<UpdateOp> batch(2);
  batch[0].kind = UpdateOp::Kind::kDelete;
  batch[0].preorder = 2;
  batch[1].kind = UpdateOp::Kind::kDelete;
  batch[1].preorder = 1000000;
  EXPECT_FALSE(writer.Apply(batch).ok());

  // Single-op conveniences, every documented failure path.
  EXPECT_FALSE(writer.Rename(0, "x").ok());
  EXPECT_FALSE(writer.Rename(1000000, "x").ok());
  EXPECT_FALSE(writer.InsertXmlBefore(2, "<a><b></a>").ok());
  EXPECT_FALSE(writer.Delete(1000000).ok());

  DocumentService::Reader r = svc->OpenReader();
  EXPECT_EQ(r.version(), 1);  // only the successful rename
  EXPECT_EQ(r.ToXml().value(), before);
  EXPECT_EQ(svc->GetStats().acked_batches, 1);
}

TEST(DocumentServiceTest, FlushWithNothingPendingIsANoop) {
  auto svc = DocumentService::FromXml(kDoc, ManualMerge()).take();
  ASSERT_TRUE(svc->Flush().ok());
  ASSERT_TRUE(svc->Flush().ok());
  EXPECT_EQ(svc->GetStats().merges, 0);
}

TEST(DocumentServiceTest, DurableServiceRecovers) {
  Fixture f = MakeFixture(Corpus::kTreebank, 0.02, 30, 5, 61);
  std::string dir = NewDir("recover");
  ServiceOptions opts = ManualMerge();
  opts.durable_dir = dir;

  std::string final_xml;
  {
    auto svc = DocumentService::FromGrammar(f.seed.Clone(), opts).take();
    auto writer = svc->OpenWriter();
    for (const auto& batch : f.batches) {
      ASSERT_TRUE(writer.Apply(batch).ok());
    }
    final_xml = svc->OpenReader().ToXml().value();
    EXPECT_EQ(final_xml, f.FinalXml());
    // Destroyed with the whole overlay unmerged: every batch is in the
    // journal, nothing depends on a final merge or checkpoint.
  }

  auto reopened_or = DocumentService::Open(opts);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = reopened_or.take();
  EXPECT_EQ(reopened->OpenReader().ToXml().value(), final_xml);
  reopened.reset();
  RemoveTree(dir);
}

TEST(DocumentServiceTest, DurableServiceRecoversUnseenTagsAcrossMerges) {
  std::string dir = NewDir("unseen");
  ServiceOptions opts;
  opts.durable_dir = dir;
  // Adaptive mode: merges mint Fresh nonterminals between writes that
  // intern previously unseen tags, so journaled batches must be
  // replayable against tables that grew in between — they carry label
  // names, never ids.
  opts.update.growth_trigger = 0.01;
  opts.update.min_checkpoint_ops = 1;

  std::string final_xml;
  {
    auto svc = DocumentService::FromXml(kDoc, opts).take();
    auto writer = svc->OpenWriter();
    auto pos = svc->OpenReader().FindElement("entry", 1);
    ASSERT_TRUE(pos.ok());
    ASSERT_TRUE(
        writer.InsertXmlBefore(pos.value(), "<audit><trail/></audit>").ok());
    ASSERT_TRUE(writer.Rename(1, "weblog").ok());
    ASSERT_TRUE(svc->Flush().ok());  // merge + durable checkpoint
    // Keep writing previously-unseen tags after the merge.
    ASSERT_TRUE(writer.Rename(1, "weblog2").ok());
    auto pos2 = svc->OpenReader().FindElement("trail", 1);
    ASSERT_TRUE(pos2.ok());
    ASSERT_TRUE(writer.InsertXmlBefore(pos2.value(), "<fresh/>").ok());
    ASSERT_TRUE(svc->Flush().ok());
    final_xml = svc->OpenReader().ToXml().value();
    EXPECT_NE(final_xml.find("<weblog2>"), std::string::npos);
    EXPECT_NE(final_xml.find("<fresh/>"), std::string::npos);
  }

  auto reopened_or = DocumentService::Open(opts);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = reopened_or.take();
  EXPECT_EQ(reopened->OpenReader().ToXml().value(), final_xml);
  reopened.reset();
  RemoveTree(dir);
}

// The name of a rank-2 rule of the served grammar: a tag a client may
// send, which must never be taken as a call of that rule.
std::string RankTwoRuleName(const Grammar& g) {
  for (LabelId r : g.Nonterminals()) {
    if (g.labels().Rank(r) == 2) return g.labels().Name(r);
  }
  return "";
}

TEST(DocumentServiceTest, TagNamingARuleIsRejectedAndNothingIsJournaled) {
  for (Corpus c : {Corpus::kXMark, Corpus::kMedline, Corpus::kTreebank}) {
    SCOPED_TRACE(static_cast<int>(c));
    const std::string dir = NewDir("rule_tag");
    ServiceOptions opts = ManualMerge();
    opts.durable_dir = dir;
    auto svc_or =
        DocumentService::FromXml(WriteXml(GenerateCorpus(c, 0.02), {}), opts);
    ASSERT_TRUE(svc_or.ok()) << svc_or.status().ToString();
    auto svc = svc_or.take();
    DocumentService::Reader before = svc->OpenReader();
    const std::string rule = RankTwoRuleName(before.snapshot().grammar());
    ASSERT_FALSE(rule.empty());
    const LabelId rule_id = before.snapshot().grammar().labels().Find(rule);
    const std::string xml = before.ToXml().value();
    const std::string image = SerializeGrammar(before.snapshot().grammar());

    auto writer = svc->OpenWriter();
    EXPECT_EQ(writer.Rename(1, rule).code(), StatusCode::kInvalidArgument);
    std::vector<UpdateOp> ops(1);
    ops[0].kind = UpdateOp::Kind::kRename;
    ops[0].preorder = 1;
    ops[0].label = rule_id;
    EXPECT_EQ(writer.Apply(ops).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(writer.InsertXmlBefore(1, "<" + rule + "/>").code(),
              StatusCode::kInvalidArgument);

    DocumentService::Reader after = svc->OpenReader();
    EXPECT_EQ(after.version(), 0);
    EXPECT_EQ(svc->GetStats().acked_batches, 0);
    EXPECT_EQ(after.ToXml().value(), xml);
    EXPECT_EQ(SerializeGrammar(after.snapshot().grammar()), image);
    svc.reset();

    // Nothing was journaled: recovery replays no batch.
    const int64_t replayed = obs::MetricsRegistry::Global()
                                 .GetCounter("store.journal.replayed_batches")
                                 .Value();
    auto reopened_or = DocumentService::Open(opts);
    ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
    auto reopened = reopened_or.take();
    EXPECT_EQ(obs::MetricsRegistry::Global()
                  .GetCounter("store.journal.replayed_batches")
                  .Value(),
              replayed);
    EXPECT_EQ(reopened->OpenReader().ToXml().value(), xml);
    reopened.reset();
    RemoveTree(dir);
  }
}

TEST(DocumentServiceTest, OpenRequiresDurableDir) {
  EXPECT_FALSE(DocumentService::Open(ServiceOptions{}).ok());
  EXPECT_FALSE(DocumentService::FromSnapshot(nullptr).ok());
}

}  // namespace
}  // namespace slg
