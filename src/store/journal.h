// Append-only write-ahead log of UpdateOp batches.
//
// File layout:
//   header:  magic "SLGWAL1\n" (8) | format version u32 LE
//   records: u32 LE length | u32 LE CRC32C(body) | body
// where body = type byte + payload:
//   kOps (1):        payload = encoded batch (EncodeBatch below)
//   kCommit (2):     payload = varint batch sequence number
//   kCheckpoint (3): payload = varint next generation | varint folded
//
// A batch is durable iff its kOps record AND the following kCommit
// record are intact; replay buffers ops until the commit and truncates
// at the first torn or corrupt record instead of failing — everything
// after the last intact commit (or checkpoint) marker is discarded.
// A kCheckpoint record seals its file and is always its last record:
// a merge folded the file's first `folded` batches into the next
// generation's snapshot, and the next generation's journal, made
// durable before the seal, holds the batches after them (see
// document_store.h for the rotation protocol).
//
// Batches are encoded self-contained — label NAMES, not table ids —
// and DocumentService applies the decoded form on every path (write,
// merge splice, recovery), so all of them intern labels in exactly the
// same order.

#ifndef SLG_STORE_JOURNAL_H_
#define SLG_STORE_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/store/fault_injection.h"
#include "src/store/io.h"
#include "src/tree/label_table.h"
#include "src/workload/update_workload.h"

namespace slg {

inline constexpr uint32_t kJournalFormatVersion = 1;

// How often the journal fsyncs.
enum class FsyncPolicy {
  kNone,        // only on Close; fastest, loses the most on crash
  kEveryBatch,  // after every commit marker; an acked batch is durable
  kEveryN,      // after every n-th commit marker
};

struct JournalOptions {
  FsyncPolicy policy = FsyncPolicy::kEveryBatch;
  int every_n = 8;  // for kEveryN
};

std::string JournalFileName(int64_t generation);
bool ParseJournalFileName(std::string_view name, int64_t* generation);

// Batch payload codec. EncodeBatch writes ops by label name (renames:
// the target label; insert fragments: preorder (name, rank) lists);
// DecodeBatch reconstructs ops against `labels`, interning missing
// names. InvalidArgument on malformed payloads or on a name already
// interned with a different rank.
std::string EncodeBatch(const std::vector<UpdateOp>& ops,
                        const LabelTable& labels);
Status DecodeBatch(std::string_view payload, LabelTable* labels,
                   std::vector<UpdateOp>* ops);

class JournalWriter {
 public:
  // Creates a fresh journal (truncating any previous file at `path`)
  // and makes its header durable.
  static StatusOr<JournalWriter> Create(const std::string& path,
                                        const JournalOptions& options,
                                        FaultInjector* fi);
  // Opens an existing journal whose valid prefix holds
  // `committed_batches` batches, for appending. The caller is expected
  // to have truncated any torn tail first (DocumentStore::Resume does).
  static StatusOr<JournalWriter> OpenExisting(const std::string& path,
                                              int64_t committed_batches,
                                              const JournalOptions& options,
                                              FaultInjector* fi);

  // Appends one batch (ops record + commit marker) and applies the
  // fsync policy. `encoded` is an EncodeBatch payload.
  Status AppendBatch(std::string_view encoded);

  // Appends the seal — the merge folded this file's first `folded`
  // batches into generation `next_generation` — and fsyncs
  // unconditionally: the fallback chain (previous snapshot + this
  // journal's folded prefix) must be durable before the next snapshot
  // is written, whatever the batch policy.
  Status AppendCheckpoint(int64_t next_generation, int64_t folded);

  Status Sync();
  // Fsyncs batches the policy left unsynced, then closes: a cleanly
  // closed journal is durable whatever the policy.
  Status Close();

 private:
  JournalWriter(File file, int64_t next_seq, const JournalOptions& options)
      : file_(std::move(file)), options_(options), next_seq_(next_seq) {}

  Status AppendRecord(uint8_t type, std::string_view payload);

  File file_;
  JournalOptions options_;
  int64_t next_seq_ = 0;        // commit sequence of the next batch
  int unsynced_batches_ = 0;    // appended since the last fsync
};

struct JournalReplay {
  bool header_ok = false;
  // Committed batches in order, still encoded (DecodeBatch to use).
  std::vector<std::string> batches;
  // True if the last intact record is a checkpoint marker: the writer
  // rotated to `next_generation` right after, and the merge folded the
  // first `folded` batches (the rest were carried into the next
  // generation's journal).
  bool ends_with_checkpoint = false;
  int64_t next_generation = 0;
  int64_t folded = 0;
  // Length of the valid prefix: end of the last intact commit or
  // checkpoint marker (or the header). Everything after is torn or
  // corrupt and should be truncated before appending.
  int64_t valid_bytes = 0;
  // True if bytes beyond valid_bytes existed (a torn tail was cut).
  bool truncated_tail = false;
};

// Reads a journal file, tolerating any corruption by truncation —
// returns non-ok only for I/O errors (NotFound included). A file too
// short to hold the header replays as empty with header_ok = false.
StatusOr<JournalReplay> ReplayJournal(const std::string& path);

}  // namespace slg

#endif  // SLG_STORE_JOURNAL_H_
