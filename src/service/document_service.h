// DocumentService — the concurrent read/write entry point, and the
// unification of the library's public surfaces.
//
// One service holds one compressed XML document and serves:
//
//   * any number of readers — OpenReader() atomically loads the
//     current ServiceState (immutable base snapshot + immutable
//     overlay snapshot); every read runs against that pinned pair and
//     never takes the writer lock, so readers proceed at full speed
//     during writes and merges alike;
//   * writers — OpenWriter() hands out a handle whose batch
//     application runs under one writer mutex: encode the batch
//     (EncodeBatch, label names), clone the effective grammar, apply
//     the decoded batch (BatchUpdater), journal the same bytes (in
//     durable mode — journal-then-ack), then publish the result as
//     the new overlay with one atomic shared_ptr swap. A failed batch
//     publishes nothing: batches are atomic, the document is
//     unchanged;
//   * a background merge thread — when the overlay's gross added
//     edges exceed UpdateOptions::growth_trigger of the base (with
//     the min_checkpoint_ops floor), or on Flush(), it recompresses
//     the overlay off-lock (LocalizedGrammarRePair seeded with exactly
//     the overlay's damage, or GrammarRePair when
//     UpdateOptions::localized is off) and splices the result in:
//     batches acknowledged during the merge are replayed from their
//     encoding onto the new base. In durable mode every merge also
//     rotates the store, which writes the base the merge built. In-
//     flight readers are never blocked and keep their pinned versions
//     alive via shared_ptr reference counting — the RCU reclamation
//     argument in docs/SERVICE.md.
//
// One decode-then-BatchUpdater function applies every batch — on the
// write path, in the merge splice and in recovery — and one merge
// function folds them, on the merge thread and in recovery. That is
// why a document recovered by Open() is byte-identical to the one
// that was served, and why its next merge is too.
//
// Surfaces: CompressedXmlTree is a single-threaded facade over the
// same GrammarSnapshot type (FromSnapshot / CompressedXmlTree::
// Snapshot() move documents between the two without copying); setting
// ServiceOptions::durable_dir makes the document crash-consistent
// (src/store/document_store.h), and Open() recovers it.

#ifndef SLG_SERVICE_DOCUMENT_SERVICE_H_
#define SLG_SERVICE_DOCUMENT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/api/options.h"
#include "src/common/status.h"
#include "src/service/overlay_view.h"
#include "src/service/snapshot.h"
#include "src/store/document_store.h"
#include "src/store/fault_injection.h"
#include "src/store/journal.h"
#include "src/workload/update_workload.h"

namespace slg {

struct ServiceOptions {
  ServiceOptions() {
    // Serving documents merge adaptively by default; growth_trigger
    // <= 0 merges only on Flush().
    update.growth_trigger = 0.5;
  }

  // Ingest (FromXml) configuration.
  CompressOptions compress;
  // Merge repair (localized or full) + adaptive merge trigger — shared
  // verbatim with CompressedXmlTree.
  UpdateOptions update;

  // Non-empty: every acknowledged batch is journaled to this document
  // directory before the ack, and every merge checkpoints it
  // (DocumentStore); Open() recovers from it. Empty: in-memory only.
  std::string durable_dir;
  JournalOptions journal;
  // Borrowed; nullptr (production) injects nothing.
  FaultInjector* fault_injector = nullptr;
};

class DocumentService {
 public:
  // A reader is a pinned, self-contained view — see overlay_view.h.
  using Reader = OverlayView;

  // A writer handle. All mutations run under the service's writer
  // mutex; concurrent writers serialize. Must not outlive the service.
  class Writer {
   public:
    // Applies one batch atomically: either every op is applied (and,
    // in durable mode, journaled) and the batch is acknowledged as one
    // new overlay version, or the document is unchanged.
    Status Apply(const std::vector<UpdateOp>& ops);

    // Single-op conveniences, same addressing as CompressedXmlTree
    // (1-based binary preorder, ⊥ slots included).
    Status Rename(int64_t preorder, std::string_view new_tag);
    Status InsertXmlBefore(int64_t preorder, std::string_view xml_fragment);
    Status Delete(int64_t preorder);

   private:
    friend class DocumentService;
    explicit Writer(DocumentService* service) : service_(service) {}
    // Apply with the ops' label ids taken from `names`, or from the
    // served table when null (then checked against it first). The
    // conveniences encode against a scratch table, since the batch
    // carries names and a new tag need not be in the document yet.
    Status Apply(const std::vector<UpdateOp>& ops, const LabelTable* names);
    DocumentService* service_;
  };

  // --- factories ---------------------------------------------------------

  // Parses + compresses per options.compress. With durable_dir set,
  // also initializes the on-disk document (DocumentStore::Create).
  static StatusOr<std::unique_ptr<DocumentService>> FromXml(
      std::string_view xml, const ServiceOptions& options = {});

  // Adopts a compressed grammar (validated).
  static StatusOr<std::unique_ptr<DocumentService>> FromGrammar(
      Grammar g, const ServiceOptions& options = {});

  // Serves an existing snapshot without copying the grammar — the
  // zero-copy bridge from CompressedXmlTree::Snapshot().
  static StatusOr<std::unique_ptr<DocumentService>> FromSnapshot(
      std::shared_ptr<const GrammarSnapshot> snapshot,
      const ServiceOptions& options = {});

  // Recovers the durable document in options.durable_dir (which must
  // be set) and serves it: the newest valid snapshot, with the active
  // journal's batches replayed in place and still pending, so the next
  // merge is the one the uninterrupted service would have run. A
  // committed batch that cannot be replayed is DataLoss.
  static StatusOr<std::unique_ptr<DocumentService>> Open(
      const ServiceOptions& options);

  // Stops the merge thread (pending unmerged overlay batches are kept
  // acknowledged — in durable mode they are already journaled) and
  // closes the durable document.
  ~DocumentService();

  DocumentService(const DocumentService&) = delete;
  DocumentService& operator=(const DocumentService&) = delete;

  // --- handles -----------------------------------------------------------

  // Pins the current state: one atomic load, no lock. Take a fresh
  // reader per operation for latest-version reads, or hold one for a
  // consistent multi-query view.
  Reader OpenReader() const;

  Writer OpenWriter() { return Writer(this); }

  // Blocks until every batch acknowledged before the call is merged
  // into the base snapshot (forcing a merge if the trigger would not
  // fire) and, in durable mode, checkpointed: after Ok those batches
  // are durable whatever the fsync policy. FailedPrecondition if the
  // service shuts down first or its durable store has failed.
  Status Flush();

  struct Stats {
    int64_t acked_batches = 0;
    int64_t acked_ops = 0;
    int64_t merges = 0;
    int64_t merge_rules_rescanned = 0;
    int64_t overlay_batches = 0;
    int64_t overlay_edges = 0;
    int64_t base_version = 0;  // acked batches folded into base
  };
  Stats GetStats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct PendingBatch {
    std::string encoded;  // journal-codec payload (EncodeBatch)
    std::vector<LabelId> damage;
    int64_t edges_added = 0;
    int64_t ops = 0;
  };

  // `initial` already holds the `pending` batches (a recovered
  // document); they are its overlay until the first merge.
  DocumentService(ServiceOptions options,
                  std::shared_ptr<const GrammarSnapshot> initial,
                  std::optional<DocumentStore> store,
                  std::vector<PendingBatch> pending = {});

  // Decodes pb->encoded against g's label table and applies it as one
  // BatchUpdater batch, recording its damage, edges and op count in
  // *pb. The one apply path of writes, the merge splice and recovery,
  // so all three intern labels in the same order.
  static Status ApplyEncoded(Grammar* g, PendingBatch* pb);
  // The union of the batches' damage sets, in first-seen order.
  static std::vector<LabelId> DamageUnion(
      const std::vector<PendingBatch>& batches);

  // Journals pb (durable mode), publishes `next` as the new overlay and
  // wakes the merge thread. Called with mu_ held.
  Status CommitLocked(Grammar next, PendingBatch pb);

  bool MergeNeededLocked() const;
  void MergeLoop();
  // One merge cycle: captures the overlay under mu_, recompresses with
  // mu_ released, then under mu_ rotates the store (durable mode) and
  // splices (replaying batches acknowledged meanwhile onto the new
  // base).
  void MergeOnce(std::unique_lock<std::mutex>& lk);

  ServiceOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Readers atomic_load this without mu_; all stores happen under mu_
  // via atomic_store. The pointed-to state is immutable.
  std::shared_ptr<const ServiceState> state_;
  std::vector<PendingBatch> pending_;  // acked but unmerged, in order
  std::optional<DocumentStore> store_;  // durable mode; used under mu_

  int64_t acked_batches_ = 0;
  int64_t acked_ops_ = 0;
  int64_t overlay_ops_ = 0;  // ops in pending_ (min_checkpoint_ops floor)
  int64_t merged_version_ = 0;
  int64_t flush_target_ = 0;
  int64_t merges_ = 0;
  int64_t merge_rescans_ = 0;
  bool stop_ = false;

  std::thread merge_thread_;
};

}  // namespace slg

#endif  // SLG_SERVICE_DOCUMENT_SERVICE_H_
