// Tests for the CompressedXmlTree facade.

#include "src/api/compressed_xml_tree.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/datasets/generators.h"
#include "src/service/apply.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

constexpr const char* kDoc =
    "<log><entry><ip/><date/><status/></entry>"
    "<entry><ip/><date/><status/></entry>"
    "<entry><ip/><date/><status/></entry></log>";

TEST(CompressedXmlTreeTest, RoundTrip) {
  auto doc = CompressedXmlTree::FromXml(kDoc);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().ElementCount(), 13);
  auto xml = doc.value().ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(xml.value(), kDoc);
}

// A tag naming a rank-2 rule of the grammar is rejected: relabeling
// the node (or inserting the tag) would make it a call of that rule.
// The tree is left byte-identical.
TEST(CompressedXmlTreeTest, TagNamingARuleIsRejected) {
  for (Corpus c : {Corpus::kXMark, Corpus::kMedline, Corpus::kTreebank}) {
    SCOPED_TRACE(static_cast<int>(c));
    auto doc_or = CompressedXmlTree::FromXml(WriteXml(GenerateCorpus(c, 0.02), {}));
    ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
    CompressedXmlTree doc = doc_or.take();
    const Grammar& g = doc.grammar();
    std::string rule;
    for (LabelId r : g.Nonterminals()) {
      if (g.labels().Rank(r) == 2) {
        rule = g.labels().Name(r);
        break;
      }
    }
    ASSERT_FALSE(rule.empty());
    const std::string xml = doc.ToXml().value();
    const std::string image = doc.Serialize();

    EXPECT_EQ(doc.Rename(1, rule).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(doc.InsertXmlBefore(1, "<" + rule + "/>").code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(doc.Serialize(), image);
    EXPECT_EQ(doc.ToXml().value(), xml);
    EXPECT_EQ(doc.UpdatesSinceRecompress(), 0);
  }
}

TEST(CompressedXmlTreeTest, RejectsBadXml) {
  EXPECT_FALSE(CompressedXmlTree::FromXml("<a><b></a>").ok());
}

TEST(CompressedXmlTreeTest, ShardedCompressionRoundTrips) {
  // Build a document big enough to shard, compress it through the
  // parallel pipeline, and check it reads back byte-identically and
  // stays updatable like any other compressed document.
  std::string xml = "<log>";
  for (int i = 0; i < 300; ++i) {
    xml += "<entry><ip/><date/><status/></entry>";
  }
  xml += "</log>";

  CompressOptions options;
  options.num_threads = 4;
  options.num_shards = 6;
  auto doc_or = CompressedXmlTree::FromXml(xml, options);
  ASSERT_TRUE(doc_or.ok()) << doc_or.status().ToString();
  CompressedXmlTree doc = doc_or.take();
  EXPECT_EQ(doc.ElementCount(), 1 + 300 * 4);
  auto round = doc.ToXml();
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), xml);

  auto pos = doc.FindElement("date", 7);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(doc.Rename(pos.value(), "timestamp").ok());
  doc.Recompress();
  auto xml2 = doc.ToXml();
  ASSERT_TRUE(xml2.ok());
  EXPECT_NE(xml2.value().find("<timestamp/>"), std::string::npos);
}

TEST(CompressedXmlTreeTest, FindAndRename) {
  auto doc_or = CompressedXmlTree::FromXml(kDoc);
  ASSERT_TRUE(doc_or.ok());
  CompressedXmlTree doc = doc_or.take();
  auto pos = doc.FindElement("date", 2);
  ASSERT_TRUE(pos.ok());
  auto label = doc.LabelAt(pos.value());
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(label.value(), "date");
  ASSERT_TRUE(doc.Rename(pos.value(), "timestamp").ok());
  auto xml = doc.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_NE(xml.value().find("<timestamp/>"), std::string::npos);
  EXPECT_FALSE(doc.FindElement("nosuch").ok());
  EXPECT_FALSE(doc.FindElement("date", 99).ok());
}

TEST(CompressedXmlTreeTest, InsertAndDelete) {
  auto doc_or = CompressedXmlTree::FromXml(kDoc);
  ASSERT_TRUE(doc_or.ok());
  CompressedXmlTree doc = doc_or.take();
  auto pos = doc.FindElement("entry", 1);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(
      doc.InsertXmlBefore(pos.value(), "<entry><new/></entry>").ok());
  EXPECT_EQ(doc.ElementCount(), 15);
  auto xml = doc.ToXml();
  ASSERT_TRUE(xml.ok());
  EXPECT_EQ(xml.value().find("<entry><new/></entry>"),
            std::string("<log>").size());

  auto pos2 = doc.FindElement("entry", 1);
  ASSERT_TRUE(pos2.ok());
  ASSERT_TRUE(doc.Delete(pos2.value()).ok());
  EXPECT_EQ(doc.ElementCount(), 13);
  EXPECT_EQ(doc.ToXml().value(), kDoc);
}

TEST(CompressedXmlTreeTest, RecompressShrinksAfterUpdates) {
  auto doc_or = CompressedXmlTree::FromXml(kDoc);
  ASSERT_TRUE(doc_or.ok());
  CompressedXmlTree doc = doc_or.take();
  for (int i = 0; i < 6; ++i) {
    auto pos = doc.FindElement("entry", 1);
    ASSERT_TRUE(pos.ok());
    ASSERT_TRUE(
        doc.InsertXmlBefore(pos.value(),
                            "<entry><ip/><date/><status/></entry>")
            .ok());
  }
  int64_t before = doc.CompressedSize();
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 6);
  doc.Recompress();
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 0);
  EXPECT_LE(doc.CompressedSize(), before);
  EXPECT_EQ(doc.ElementCount(), 13 + 6 * 4);
}

// --- error contract ----------------------------------------------------
//
// A mutator that returns a non-OK Status leaves the tree
// byte-identically unchanged: same Serialize() image, same counters.
// Each test drives one documented failure path.

CompressedXmlTree MakeDoc() {
  auto doc = CompressedXmlTree::FromXml(kDoc);
  SLG_CHECK(doc.ok());
  return doc.take();
}

void ExpectUnchangedAfter(CompressedXmlTree* doc,
                          const std::function<Status(CompressedXmlTree*)>& op) {
  const std::string before = doc->Serialize();
  const int updates = doc->UpdatesSinceRecompress();
  Status st = op(doc);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(doc->Serialize(), before) << st.ToString();
  EXPECT_EQ(doc->UpdatesSinceRecompress(), updates);
}

TEST(CompressedXmlTreeErrorContract, RenameOutOfRange) {
  CompressedXmlTree doc = MakeDoc();
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->Rename(0, "x");
  });
  ExpectUnchangedAfter(&doc, [&](CompressedXmlTree* d) {
    return d->Rename(d->BinaryNodeCount() + 1, "x");
  });
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->Rename(-7, "x");
  });
}

TEST(CompressedXmlTreeErrorContract, RenameNilSlot) {
  CompressedXmlTree doc = MakeDoc();
  // The last binary preorder position of any document is a ⊥ slot
  // (the root's missing next-sibling); renaming ⊥ is not an update.
  ExpectUnchangedAfter(&doc, [&](CompressedXmlTree* d) {
    return d->Rename(d->BinaryNodeCount(), "x");
  });
}

TEST(CompressedXmlTreeErrorContract, RenameToReservedName) {
  CompressedXmlTree doc = MakeDoc();
  // "~" spells ⊥ and "$1" a parameter in the text format; both are
  // rejected as element names rather than corrupting the alphabet.
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->Rename(1, "~");
  });
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->Rename(1, "$1");
  });
}

TEST(CompressedXmlTreeErrorContract, InsertFailures) {
  CompressedXmlTree doc = MakeDoc();
  // Malformed fragment XML — rejected at parse, before any cloning.
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->InsertXmlBefore(2, "<a><b></a>");
  });
  // Fragment labels ("zzz") must not leak into the table on failure:
  // the serialized image embeds the table, so the byte-compare above
  // would catch it — make the failure arrive after the fragment.
  ExpectUnchangedAfter(&doc, [&](CompressedXmlTree* d) {
    return d->InsertXmlBefore(d->BinaryNodeCount() + 5, "<zzz/>");
  });
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->InsertXmlBefore(0, "<a/>");
  });
}

TEST(CompressedXmlTreeErrorContract, DeleteFailures) {
  CompressedXmlTree doc = MakeDoc();
  ExpectUnchangedAfter(&doc, [](CompressedXmlTree* d) {
    return d->Delete(0);
  });
  ExpectUnchangedAfter(&doc, [&](CompressedXmlTree* d) {
    return d->Delete(d->BinaryNodeCount() + 1);
  });
  // Deleting a ⊥ slot is not an update either.
  ExpectUnchangedAfter(&doc, [&](CompressedXmlTree* d) {
    return d->Delete(d->BinaryNodeCount());
  });
}

TEST(CompressedXmlTreeErrorContract, FailedOpDoesNotPoisonLaterOps) {
  CompressedXmlTree doc = MakeDoc();
  EXPECT_FALSE(doc.Rename(1000000, "x").ok());
  auto pos = doc.FindElement("date", 1);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(doc.Rename(pos.value(), "timestamp").ok());
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 1);
  doc.Recompress();
  EXPECT_NE(doc.ToXml().value().find("<timestamp/>"), std::string::npos);
}

TEST(CompressedXmlTreeTest, QueriesAreNonMutating) {
  CompressedXmlTree doc = MakeDoc();
  const std::string before = doc.Serialize();
  ASSERT_TRUE(doc.LabelAt(1).ok());
  EXPECT_EQ(doc.LabelAt(1).value(), "log");
  ASSERT_TRUE(doc.FindElement("status", 3).ok());
  ASSERT_TRUE(doc.ToXml().ok());
  EXPECT_EQ(doc.ElementCount(), 13);
  // The old facade isolated paths (and so rewrote the grammar) on
  // LabelAt; the snapshot facade must not.
  EXPECT_EQ(doc.Serialize(), before);
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 0);
}

TEST(CompressedXmlTreeTest, SnapshotBridgeIsStable) {
  CompressedXmlTree doc = MakeDoc();
  std::shared_ptr<const GrammarSnapshot> snap = doc.Snapshot();
  ASSERT_TRUE(doc.Rename(1, "journal").ok());
  // The caller's snapshot pins the pre-update document.
  EXPECT_EQ(snap->ToXml().value(), kDoc);
  EXPECT_NE(doc.ToXml().value(), kDoc);
  // And adopting a snapshot round-trips.
  auto doc2 = CompressedXmlTree::FromSnapshot(snap);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2.value().ToXml().value(), kDoc);
}

// --- recompression policy ----------------------------------------------
//
// One predicate decides every automatic recompression: the facade's,
// the service's merge trigger and ApplyWorkloadBatched's checkpoints.

TEST(RecompressDueTest, FiresPastTheOpFloorWhenGrowthExceedsTheFraction) {
  UpdateOptions o;
  o.growth_trigger = 0.5;
  o.min_checkpoint_ops = 4;
  EXPECT_TRUE(RecompressDue(o, 4, 51, 100));
  EXPECT_FALSE(RecompressDue(o, 4, 50, 100));  // strictly more than
  EXPECT_FALSE(RecompressDue(o, 3, 1000, 100));  // below the op floor
  EXPECT_TRUE(RecompressDue(o, 100, 51, 100));
  o.growth_trigger = 0;  // off, whatever the growth
  EXPECT_FALSE(RecompressDue(o, 1000, 1000000, 1));
  o.growth_trigger = -1;
  EXPECT_FALSE(RecompressDue(o, 1000, 1000000, 1));
}

// Two facades take the same updates: `doc` recompresses on its own,
// `twin` (trigger off) only when the test calls Recompress() where the
// shared predicate fires — computed from each update's effects, taken
// by applying the same payload to the current snapshot. The two must
// agree on the op count and stay byte-identical throughout.
TEST(CompressedXmlTreeTest, AutoRecompressFollowsTheGrowthTrigger) {
  std::string xml = "<log>";
  for (int i = 0; i < 40; ++i) xml += "<entry><ip/><date/><status/></entry>";
  xml += "</log>";
  UpdateOptions opts;
  opts.growth_trigger = 0.05;
  opts.min_checkpoint_ops = 3;
  auto doc_or = CompressedXmlTree::FromXml(xml, {}, opts);
  auto twin_or = CompressedXmlTree::FromXml(xml);
  ASSERT_TRUE(doc_or.ok());
  ASSERT_TRUE(twin_or.ok());
  CompressedXmlTree doc = doc_or.take();
  CompressedXmlTree twin = twin_or.take();

  int ops = 0;
  int64_t edges_added = 0;
  int64_t base_edges = doc.CompressedSize();
  std::vector<int> fired;
  for (int i = 0; i < 30; ++i) {
    const int64_t preorder = twin.FindElement("entry", 1 + (7 * i) % 40).value();
    std::string payload =
        i % 3 == 2 ? EncodeRename(preorder + 1, "addr" + std::to_string(i))
                   : EncodeInsertXml(preorder, "<entry><ip/><date/></entry>")
                         .value();
    BatchEffects effects;
    ASSERT_TRUE(ApplyEncodedBatch(*twin.Snapshot(), payload, 0, &effects).ok());
    ++ops;
    edges_added += effects.edges_added;
    const bool due = RecompressDue(opts, ops, edges_added, base_edges);

    if (i % 3 == 2) {
      ASSERT_TRUE(doc.Rename(preorder + 1, "addr" + std::to_string(i)).ok());
      ASSERT_TRUE(twin.Rename(preorder + 1, "addr" + std::to_string(i)).ok());
    } else {
      ASSERT_TRUE(doc.InsertXmlBefore(preorder, "<entry><ip/><date/></entry>")
                      .ok());
      ASSERT_TRUE(twin.InsertXmlBefore(preorder, "<entry><ip/><date/></entry>")
                      .ok());
    }
    // With the trigger off the facade never recompresses by itself.
    EXPECT_EQ(twin.UpdatesSinceRecompress(), ops) << "op " << i;
    if (due) {
      twin.Recompress();
      fired.push_back(ops);
      ops = 0;
      edges_added = 0;
      base_edges = twin.CompressedSize();
    }
    EXPECT_EQ(doc.UpdatesSinceRecompress(), ops) << "op " << i;
    EXPECT_EQ(doc.Serialize(), twin.Serialize()) << "op " << i;
  }
  // The trigger fired, and never before the op floor.
  ASSERT_FALSE(fired.empty());
  for (int n : fired) EXPECT_GE(n, opts.min_checkpoint_ops);
  EXPECT_EQ(doc.ToXml().value(), twin.ToXml().value());
}

TEST(CompressedXmlTreeTest, AutoRecompress) {
  // Every update grows a small document past 1% of its grammar, so the
  // trigger fires as soon as the op floor allows.
  UpdateOptions opts;
  opts.growth_trigger = 0.01;
  opts.min_checkpoint_ops = 3;
  auto doc_or = CompressedXmlTree::FromXml(kDoc, {}, opts);
  ASSERT_TRUE(doc_or.ok());
  CompressedXmlTree doc = doc_or.take();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(doc.InsertXmlBefore(2, "<entry><ip/></entry>").ok());
  }
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 2);  // below the op floor
  ASSERT_TRUE(doc.InsertXmlBefore(2, "<entry><ip/></entry>").ok());
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 0);  // auto-triggered
}

}  // namespace
}  // namespace slg
