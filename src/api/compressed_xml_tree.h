// CompressedXmlTree — the single-threaded user-facing facade.
//
// A mutable, always-compressed in-memory XML document: parse or adopt
// a document, keep it as an SLCF grammar, apply updates (rename /
// insert / delete) that never decompress, and recompress incrementally
// with GrammarRePair — the workflow the paper proposes for dynamic
// DOM-like trees.
//
// Since the service redesign this is a thin owner of the same
// immutable GrammarSnapshot type DocumentService serves concurrently
// (src/service/snapshot.h): queries run against the snapshot's
// navigation indexes without touching the grammar, and every mutation
// derives a child snapshot through the service's apply path
// (src/service/apply.h) and swaps it in. Two consequences worth
// relying on:
//
//   * Reads are const and non-mutating. LabelAt runs on the grammar
//     DAG in O(depth × rank) without isolating (the old facade
//     partially decompressed the path into the start rule); likewise
//     FindElement never materializes the document.
//   * Error contract, enforced by tests/api_test.cc: a mutator that
//     returns a non-OK Status leaves the tree byte-identically
//     unchanged — same Serialize() image, same pending damage, same
//     update counter; nothing to roll back, no partial application.
//
// Nodes are addressed by the 1-based preorder position in the *binary*
// first-child/next-sibling encoding (⊥ slots included); use
// FindElement to resolve the n-th node with a given tag.
//
// Example (see examples/quickstart.cpp):
//   auto doc = CompressedXmlTree::FromXml("<log>...</log>").take();
//   doc.InsertXmlBefore(5, "<entry><ip/></entry>");
//   doc.Recompress();
//   std::string xml = doc.ToXml().take();
//
// Handing the document to the concurrent service is zero-copy:
//   auto svc = DocumentService::FromSnapshot(doc.Snapshot()).take();

#ifndef SLG_API_COMPRESSED_XML_TREE_H_
#define SLG_API_COMPRESSED_XML_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/service/snapshot.h"

namespace slg {

class CompressedXmlTree {
 public:
  // Parses and compresses an XML document (element structure only).
  static StatusOr<CompressedXmlTree> FromXml(
      std::string_view xml, const CompressOptions& compress = {},
      const UpdateOptions& update = {});

  // Adopts an existing grammar (must be a valid binary XML encoding:
  // ValidateDocument).
  static StatusOr<CompressedXmlTree> FromGrammar(
      Grammar g, const UpdateOptions& update = {});

  // Adopts a snapshot (e.g. from a DocumentService reader) without
  // copying the grammar.
  static StatusOr<CompressedXmlTree> FromSnapshot(
      std::shared_ptr<const GrammarSnapshot> snapshot,
      const UpdateOptions& update = {});

  // --- queries (const, non-mutating) -------------------------------------

  // Number of element nodes / binary nodes of the represented document.
  int64_t ElementCount() const { return snap_->element_count(); }
  int64_t BinaryNodeCount() const { return snap_->node_count(); }

  // Grammar size in edges (the compression measure of the benches).
  int64_t CompressedSize() const { return snap_->edges(); }

  // Label at a binary preorder position; OutOfRange past the document.
  StatusOr<std::string> LabelAt(int64_t preorder) const {
    return snap_->LabelAt(preorder);
  }

  // Binary preorder position of the k-th (1-based) node with the given
  // tag, or NotFound. Runs on the grammar DAG — never decompresses.
  StatusOr<int64_t> FindElement(std::string_view tag, int64_t k = 1) const {
    return snap_->FindElement(tag, k);
  }

  // Path query (docs/QUERY.md), e.g. "count(//entry/ip)" or
  // "/log/entry[3]" — evaluated on the grammar DAG with per-rule
  // memoization, never decompressing.
  StatusOr<QueryResult> RunQuery(std::string_view query) const {
    return snap_->RunQuery(query);
  }

  // --- updates -----------------------------------------------------------
  //
  // Each returns OK and advances the document by exactly one update,
  // or returns an error and leaves the document unchanged (identical
  // Serialize() bytes — the clone the update ran on is discarded).
  // Failure cases: a preorder outside [1, BinaryNodeCount()], a rename
  // or delete addressing a ⊥ slot, a rename whose target is a
  // nonterminal or parameter name, malformed fragment XML.

  Status Rename(int64_t preorder, std::string_view new_tag);
  Status InsertXmlBefore(int64_t preorder, std::string_view xml_fragment);
  Status Delete(int64_t preorder);

  // Recompresses now: the damage-localized repair when
  // UpdateOptions::localized is set and updates happened since the
  // last repair, the full GrammarRePair otherwise. Updates call it on
  // their own when RecompressDue fires (UpdateOptions::growth_trigger
  // > 0), exactly like the service's merge trigger.
  void Recompress();

  int UpdatesSinceRecompress() const { return updates_since_recompress_; }

  // --- export ------------------------------------------------------------

  StatusOr<std::string> ToXml(bool pretty = false) const {
    return snap_->ToXml(pretty);
  }

  // Compact binary image of the compressed document; Deserialize
  // restores it without recompressing.
  std::string Serialize() const;
  static StatusOr<CompressedXmlTree> Deserialize(
      std::string_view bytes, const UpdateOptions& update = {});

  const Grammar& grammar() const { return snap_->grammar(); }

  // The current snapshot — shared, immutable, pinned by the caller
  // independently of this tree's further mutations. The zero-copy
  // bridge to DocumentService::FromSnapshot.
  std::shared_ptr<const GrammarSnapshot> Snapshot() const { return snap_; }

 private:
  CompressedXmlTree(std::shared_ptr<const GrammarSnapshot> snap,
                    const UpdateOptions& update)
      : snap_(std::move(snap)),
        options_(update),
        edges_at_recompress_(snap_->edges()) {}

  // The mutators' one path: ApplyEncodedBatch (src/service/apply.h).
  Status ApplyEncoded(std::string_view encoded);
  void NoteDamage(const std::vector<LabelId>& rules);

  std::shared_ptr<const GrammarSnapshot> snap_;
  UpdateOptions options_;
  int updates_since_recompress_ = 0;
  // RecompressDue's inputs besides the op count: the gross edges the
  // updates since the last repair added (BatchEffects::edges_added),
  // and the grammar's edge count at that repair (or on adoption).
  int64_t edges_added_since_recompress_ = 0;
  int64_t edges_at_recompress_;
  // Damage accumulated by the updates since the last recompression —
  // the start rule plus every rule whose body isolation inlined there
  // (see BatchUpdater::DamagedRules); Recompress() seeds the localized
  // repair from it so the inlined copies can be folded back.
  std::vector<LabelId> pending_damage_;
  std::unordered_set<LabelId> pending_damage_seen_;
};

}  // namespace slg

#endif  // SLG_API_COMPRESSED_XML_TREE_H_
