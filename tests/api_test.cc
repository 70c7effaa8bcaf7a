// Tests for the CompressedXmlTree facade.

#include "src/api/compressed_xml_tree.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "src/datasets/generators.h"
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

TEST(CompressedXmlTreeTest, AutoRecompress) {
  UpdateOptions opts;
  opts.auto_recompress_every = 3;
  auto doc_or = CompressedXmlTree::FromXml(kDoc, {}, opts);
  ASSERT_TRUE(doc_or.ok());
  CompressedXmlTree doc = doc_or.take();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(doc.Rename(1, "log" + std::to_string(i)).ok());
  }
  EXPECT_EQ(doc.UpdatesSinceRecompress(), 0);  // auto-triggered
}

}  // namespace
}  // namespace slg
