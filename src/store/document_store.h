// Crash-consistent persistence for one served document: snapshots plus
// a write-ahead journal, and nothing else.
//
// The store holds no grammar and applies no update. It persists what
// DocumentService already built — the EncodeBatch payload of each
// acknowledged batch, and the base each merge already repaired — and
// on recovery hands back what the service must replay through its own
// apply and merge path (ReadRecoveryChain).
//
// A document directory holds at most two generations of each file:
//
//   snapshot-<g>.slg    checksummed SerializeGrammar image (snapshot.h)
//   journal-<g>.wal     batches acknowledged on top of snapshot g
//
// Journal invariant: the active (newest) journal holds exactly the
// batches the service has acknowledged but not merged, in order.
//
// Rotation g -> g+1 (Rotate), after a merge folded the first k batches
// of journal g into a new base:
//   1. journal g+1 is created holding the tail — the batches
//      acknowledged while the merge ran, which the splice replays onto
//      the new base — and made durable (fsync + directory fsync);
//   2. journal g is sealed with a marker recording (g+1, k) and
//      fsynced;
//   3. snapshot g+1 is published atomically;
//   4. generation g-1 and stray .tmp files are deleted.
// A crash before the seal leaves journal g active and complete. After
// the seal, snapshot g plus the first k batches of journal g, merged,
// reproduce snapshot g+1 byte for byte, and journal g+1 holds the rest.
//
// Failure model: any error on the durability path poisons the store —
// every later Append or Rotate returns FailedPrecondition without
// touching the disk; reopening the directory recovers the last
// committed state. With FsyncPolicy::kEveryBatch, a batch whose Append
// returned Ok survives any later crash.

#ifndef SLG_STORE_DOCUMENT_STORE_H_
#define SLG_STORE_DOCUMENT_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/store/fault_injection.h"
#include "src/store/journal.h"

namespace slg {

// What recovery must replay, read from disk without changing it.
struct RecoveryChain {
  Grammar base;            // the newest snapshot that decodes
  int64_t generation = 0;  // its generation
  // Journals from `generation` on, oldest first. Every one but the
  // last is sealed: replay its first `folded` batches, re-run the merge
  // and publish the snapshot its seal names (that snapshot is corrupt
  // or was never published). The last is the active journal: replay
  // every batch. A missing journal reads as empty with header_ok unset.
  std::vector<JournalReplay> journals;

  int64_t active_generation() const {
    return generation + static_cast<int64_t>(journals.size()) - 1;
  }
};

// NotFound if `dir` holds no snapshot; DataLoss if none decodes or a
// seal names a generation out of sequence.
StatusOr<RecoveryChain> ReadRecoveryChain(const std::string& dir);

class DocumentStore {
 public:
  DocumentStore(DocumentStore&&) = default;
  DocumentStore& operator=(DocumentStore&&) = default;

  // Initializes `dir` (created if missing) with snapshot 1 of `g` and
  // an empty journal 1.
  static StatusOr<DocumentStore> Create(const std::string& dir,
                                        const Grammar& g,
                                        const JournalOptions& options,
                                        FaultInjector* fi);

  // Reopens the active journal of a replayed chain for appending:
  // cuts a torn tail, rebuilds a journal whose header never became
  // durable, and deletes older generations and stray .tmp files.
  // Writes nothing to a cleanly closed directory.
  static StatusOr<DocumentStore> Resume(const std::string& dir,
                                        const RecoveryChain& chain,
                                        const JournalOptions& options,
                                        FaultInjector* fi);

  // Journals one acknowledged batch (an EncodeBatch payload) and fsyncs
  // per the policy.
  Status Append(std::string_view encoded);

  // The rotation above: `merged` is the new base, `folded` the count of
  // leading journal batches it holds, `tail` the encodings of the rest.
  Status Rotate(const Grammar& merged, int64_t folded,
                const std::vector<std::string_view>& tail);

  // Makes every appended batch durable and closes the journal.
  Status Close();

  bool poisoned() const { return poisoned_; }

 private:
  DocumentStore(std::string dir, int64_t generation, JournalWriter journal,
                const JournalOptions& options, FaultInjector* fi)
      : dir_(std::move(dir)),
        generation_(generation),
        journal_(std::move(journal)),
        options_(options),
        fi_(fi) {}

  // FailedPrecondition once poisoned or closed.
  Status Writable() const;
  Status RotateSteps(const Grammar& merged, int64_t folded,
                     const std::vector<std::string_view>& tail);
  Status CleanupOldGenerations();

  std::string dir_;
  int64_t generation_ = 0;
  std::optional<JournalWriter> journal_;  // empty once closed
  JournalOptions options_;
  FaultInjector* fi_ = nullptr;  // borrowed
  bool poisoned_ = false;
};

}  // namespace slg

#endif  // SLG_STORE_DOCUMENT_STORE_H_
