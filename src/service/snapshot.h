// GrammarSnapshot — an immutable, shareable compressed document
// version.
//
// The concurrency story of the whole service layer rests on one
// invariant: a GrammarSnapshot never changes after construction. It
// bundles a Grammar with everything reads need — its RuleIndex (cursor
// navigation, the query engine, a write's seed), a SnapshotNav
// (derived-position queries) and cached document statistics — all
// built eagerly inside Make() or Derive() before the shared_ptr ever
// escapes, so no reader can observe a half-initialized index.
// Any number of threads may call the const query methods concurrently.
//
// One query path touches mutable state: the read memo. FindElement's
// occurrence pass (SnapshotNav::CountOccurrences) depends only on the
// version and the tag, so the snapshot keeps the table of each tag it
// was asked, and every later find of that tag goes straight to the
// descent. The memo is filled lazily and lock-free. Its slot array (one
// atomic pointer per label) is allocated by the first table published,
// so a version nobody asks a find costs nothing more. Each table is
// published once per label by a compare-and-swap from null: a hit is
// two acquire loads, and a racing loser drops its own table and
// descends over the winner's. Published tables are immutable and die
// with the snapshot. The memo's bytes are capped at
// kReadMemoBytesPerEdge per grammar edge; a table that does not fit is
// used for its one call and dropped (ReadMemoBytes() reports what is
// held).
//
// A snapshot is built from scratch (Make: ingest, a loaded grammar) or
// derived from its parent (Derive: every applied batch and merge). The
// child's grammar is a Clone() of the parent's, so it shares every
// rule body the edit did not touch, and its index shares those rules'
// entries: a write costs O(start rule + labels), not O(|G|).
//
// Lifetime is plain shared_ptr reference counting: a reader that
// copied the pointer keeps its version alive for as long as it cares
// to look at it, however many newer versions get published meanwhile —
// the memory-reclamation half of the RCU pattern DocumentService
// builds on top (docs/SERVICE.md).
//
// Snapshots are also the interchange type between the surfaces:
// CompressedXmlTree is a single-threaded facade over one, and
// DocumentService::FromSnapshot / CompressedXmlTree::Snapshot() move
// documents between the two without copying the grammar.

#ifndef SLG_SERVICE_SNAPSHOT_H_
#define SLG_SERVICE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/core/cursor.h"
#include "src/core/snapshot_nav.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_index.h"
#include "src/query/engine.h"

namespace slg {

class GrammarSnapshot {
 public:
  // Takes ownership of g (which must be a valid binary-XML grammar —
  // factories validate before calling) and builds its index.
  // `version` is the publisher's sequence number — the service stamps
  // the count of acknowledged batches the snapshot reflects.
  static std::shared_ptr<const GrammarSnapshot> Make(Grammar g,
                                                     int64_t version = 0);

  // The snapshot of g, a Clone() of parent.grammar() that was edited
  // since, built from parent's index: rules whose bodies g still
  // shares with parent (and whose callees kept theirs) keep their
  // entries; only the others are rebuilt. Equal to Make(g, version) in
  // every answer. `start_sizes`, when non-empty, are the static sizes
  // of g's start rule by NodeId (BatchUpdater::TakeStartSizes).
  static std::shared_ptr<const GrammarSnapshot> Derive(
      const GrammarSnapshot& parent, Grammar g, int64_t version,
      std::vector<int64_t> start_sizes = {});

  // The index holds pointers into the owned grammar: the object is
  // pinned — heap-allocate via Make and share the pointer.
  GrammarSnapshot(const GrammarSnapshot&) = delete;
  GrammarSnapshot& operator=(const GrammarSnapshot&) = delete;

  const Grammar& grammar() const { return g_; }
  const std::shared_ptr<const RuleIndex>& index() const { return index_; }
  // perfbench/lifecycle.cc calls this; remove at the next benchmark change.
  const std::shared_ptr<const RuleIndex>& meta() const { return index_; }
  // perfbench/lifecycle.cc calls this; remove at the next benchmark change.
  const std::shared_ptr<const RuleIndex>& summary() const { return index_; }
  const SnapshotNav& nav() const { return nav_; }

  int64_t version() const { return version_; }
  // Grammar size in edges (the compression measure of the benches).
  int64_t edges() const { return edges_; }
  // Nodes of the ⊥-inclusive binary encoding / non-⊥ element count.
  int64_t node_count() const { return nav_.DerivedSize(); }
  int64_t element_count() const { return element_count_; }

  // --- reads (all const, safe to call from any thread) -------------------

  // Label name at a 1-based binary preorder position. Non-mutating —
  // unlike write-path isolation, nothing is inlined.
  StatusOr<std::string> LabelAt(int64_t preorder) const;

  // Binary preorder position of the k-th (1-based) node with the
  // given tag. InvalidArgument when k < 1; NotFound for an unknown
  // tag or fewer than k occurrences. The first find of a tag pays the
  // occurrence pass, O(grammar); later ones only the descent (the read
  // memo above). Never decompresses. `stats`, when non-null, receives
  // the body nodes walked: the pass's (on a miss) plus the descent's.
  StatusOr<int64_t> FindElement(std::string_view tag, int64_t k = 1,
                                NavStats* stats = nullptr) const;

  // Path query (src/query/) evaluated on the grammar with per-rule
  // memoization — no decompression. InvalidArgument on malformed
  // text; NotFound when first()/nth() has too few matches.
  StatusOr<QueryResult> RunQuery(std::string_view query) const;
  StatusOr<QueryResult> RunQuery(const Query& query) const;

  // Serialized document (materializes the tree once).
  StatusOr<std::string> ToXml(bool pretty = false) const;

  // Cursor over this version, sharing the snapshot's RuleIndex. The
  // cursor borrows the grammar: keep the snapshot pointer alive for
  // the cursor's lifetime.
  GrammarCursor Cursor() const;

  // The read memo's byte budget per grammar edge. An occurrence table
  // holds one count per body node of the rules it admits plus four
  // words per label: about 11 bytes per edge for the most widespread
  // tags of the medline and treebank corpora, so the budget holds
  // about eight such tables.
  static constexpr int64_t kReadMemoBytesPerEdge = 96;
  // Bytes of occurrence tables the read memo holds; never more than
  // kReadMemoBytesPerEdge * edges().
  int64_t ReadMemoBytes() const { return memo_.bytes(); }

 private:
  // FindElement's occurrence tables, one per label at most, published
  // once each (see the file comment).
  class ReadMemo {
   public:
    ReadMemo(int num_labels, int64_t budget)
        : num_labels_(num_labels), budget_(budget) {}
    ~ReadMemo();
    ReadMemo(const ReadMemo&) = delete;
    ReadMemo& operator=(const ReadMemo&) = delete;

    // The published table of `want`, or null.
    const OccTable* Find(LabelId want) const;
    // Offers `table` as want's entry and returns the table to descend
    // over: `table`, now owned by the memo, when it is published; the
    // entry another thread published first (`table` stays with the
    // caller, to be dropped); or `table`, still the caller's, when the
    // budget cannot hold it.
    const OccTable* Publish(LabelId want, std::unique_ptr<OccTable>& table);
    int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

   private:
    using Slot = std::atomic<const OccTable*>;
    // The slot array, allocated by the first Publish.
    Slot* Slots();

    const int num_labels_;
    const int64_t budget_;
    std::atomic<Slot*> slots_{nullptr};
    std::atomic<int64_t> bytes_{0};
  };

  // The index must be g's (it points at g's rule bodies, which stay
  // put when the grammar object moves).
  GrammarSnapshot(Grammar g, std::shared_ptr<const RuleIndex> index,
                  int64_t version);

  Grammar g_;
  std::shared_ptr<const RuleIndex> index_;  // built over g_
  SnapshotNav nav_;  // borrows g_ and *index_
  int64_t version_ = 0;
  int64_t edges_ = 0;
  int64_t element_count_ = 0;
  mutable ReadMemo memo_;
};

// Parses and compresses an XML document into a fresh snapshot — the
// one ingest path shared by CompressedXmlTree::FromXml and
// DocumentService::FromXml (sequential or sharded per the options).
StatusOr<std::shared_ptr<const GrammarSnapshot>> CompressXmlToSnapshot(
    std::string_view xml, const CompressOptions& options = {});

}  // namespace slg

#endif  // SLG_SERVICE_SNAPSHOT_H_
