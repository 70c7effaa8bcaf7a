#include "src/store/document_store.h"

#include <utility>

#include "src/obs/trace.h"
#include "src/store/io.h"
#include "src/store/snapshot.h"

namespace slg {

namespace {

bool IsTmpName(std::string_view name) {
  constexpr std::string_view kSuffix = ".tmp";
  return name.size() > kSuffix.size() &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

std::string JournalPath(const std::string& dir, int64_t generation) {
  return JoinPath(dir, JournalFileName(generation));
}

StatusOr<JournalWriter> ReopenActive(const std::string& dir, int64_t gen,
                                     const JournalReplay& active,
                                     const JournalOptions& options,
                                     FaultInjector* fi) {
  const std::string path = JournalPath(dir, gen);
  if (!active.header_ok) {
    // Missing, or its header never became durable: it holds no
    // committed batch, so start it afresh.
    StatusOr<JournalWriter> j = JournalWriter::Create(path, options, fi);
    if (j.ok()) SLG_RETURN_IF_ERROR(SyncDir(dir, fi));
    return j;
  }
  if (active.truncated_tail) {
    SLG_RETURN_IF_ERROR(TruncateFile(path, active.valid_bytes, fi));
  }
  return JournalWriter::OpenExisting(
      path, static_cast<int64_t>(active.batches.size()), options, fi);
}

}  // namespace

StatusOr<RecoveryChain> ReadRecoveryChain(const std::string& dir) {
  StatusOr<LoadedSnapshot> loaded = LoadLatestSnapshot(dir);
  if (!loaded.ok()) return loaded.status();
  LoadedSnapshot snapshot = loaded.take();
  RecoveryChain chain;
  chain.base = std::move(snapshot.grammar);
  chain.generation = snapshot.generation;
  for (int64_t gen = chain.generation;; ++gen) {
    StatusOr<JournalReplay> replayed = ReplayJournal(JournalPath(dir, gen));
    if (!replayed.ok() && replayed.status().code() != StatusCode::kNotFound) {
      return replayed.status();
    }
    chain.journals.push_back(replayed.ok() ? replayed.take()
                                           : JournalReplay{});
    const JournalReplay& journal = chain.journals.back();
    if (!journal.ends_with_checkpoint) {
      return StatusOr<RecoveryChain>(std::move(chain));
    }
    if (journal.next_generation != gen + 1) {
      return Status::DataLoss("journal " + JournalFileName(gen) +
                              " is sealed for generation " +
                              std::to_string(journal.next_generation));
    }
  }
}

StatusOr<DocumentStore> DocumentStore::Create(const std::string& dir,
                                              const Grammar& g,
                                              const JournalOptions& options,
                                              FaultInjector* fi) {
  SLG_RETURN_IF_ERROR(CreateDirIfMissing(dir, fi));
  SLG_RETURN_IF_ERROR(WriteSnapshot(dir, 1, g, fi));
  StatusOr<JournalWriter> j =
      JournalWriter::Create(JournalPath(dir, 1), options, fi);
  if (!j.ok()) return j.status();
  SLG_RETURN_IF_ERROR(SyncDir(dir, fi));
  return DocumentStore(dir, 1, j.take(), options, fi);
}

StatusOr<DocumentStore> DocumentStore::Resume(const std::string& dir,
                                              const RecoveryChain& chain,
                                              const JournalOptions& options,
                                              FaultInjector* fi) {
  StatusOr<JournalWriter> j =
      ReopenActive(dir, chain.active_generation(), chain.journals.back(),
                   options, fi);
  if (!j.ok()) return j.status();
  DocumentStore store(dir, chain.active_generation(), j.take(), options, fi);
  SLG_RETURN_IF_ERROR(store.CleanupOldGenerations());
  return StatusOr<DocumentStore>(std::move(store));
}

Status DocumentStore::Writable() const {
  if (poisoned_) {
    return Status::FailedPrecondition(
        "durable store is poisoned by an earlier failure; reopen to "
        "recover the last committed state");
  }
  if (!journal_) return Status::FailedPrecondition("durable store is closed");
  return Status::Ok();
}

Status DocumentStore::Append(std::string_view encoded) {
  obs::TraceSpan span("store.apply_batch");
  SLG_RETURN_IF_ERROR(Writable());
  Status s = journal_->AppendBatch(encoded);
  poisoned_ = !s.ok();
  return s;
}

Status DocumentStore::Rotate(const Grammar& merged, int64_t folded,
                             const std::vector<std::string_view>& tail) {
  obs::TraceSpan span("store.checkpoint");
  SLG_RETURN_IF_ERROR(Writable());
  Status s = RotateSteps(merged, folded, tail);
  poisoned_ = !s.ok();
  return s;
}

Status DocumentStore::RotateSteps(const Grammar& merged, int64_t folded,
                                  const std::vector<std::string_view>& tail) {
  const int64_t next = generation_ + 1;
  // 1. The next journal, holding the tail, is durable before the seal
  //    below can send recovery to it.
  StatusOr<JournalWriter> j =
      JournalWriter::Create(JournalPath(dir_, next), options_, fi_);
  if (!j.ok()) return j.status();
  JournalWriter next_journal = j.take();
  for (std::string_view encoded : tail) {
    SLG_RETURN_IF_ERROR(next_journal.AppendBatch(encoded));
  }
  if (!tail.empty()) SLG_RETURN_IF_ERROR(next_journal.Sync());
  SLG_RETURN_IF_ERROR(SyncDir(dir_, fi_));
  // 2. Seal the current journal: from here on snapshot g plus its
  //    folded prefix reproduce snapshot g+1.
  SLG_RETURN_IF_ERROR(journal_->AppendCheckpoint(next, folded));
  SLG_RETURN_IF_ERROR(journal_->Close());
  journal_.emplace(std::move(next_journal));
  generation_ = next;
  // 3. Publish the merged base; 4. drop generation g-1.
  SLG_RETURN_IF_ERROR(WriteSnapshot(dir_, next, merged, fi_));
  return CleanupOldGenerations();
}

Status DocumentStore::CleanupOldGenerations() {
  StatusOr<std::vector<std::string>> names = ListDir(dir_);
  if (!names.ok()) return names.status();
  for (const std::string& name : names.value()) {
    int64_t gen = 0;
    bool stale =
        IsTmpName(name) ||
        (ParseSnapshotFileName(name, &gen) && gen < generation_ - 1) ||
        (ParseJournalFileName(name, &gen) && gen < generation_ - 1);
    if (stale) {
      SLG_RETURN_IF_ERROR(RemoveFile(JoinPath(dir_, name), fi_));
    }
  }
  return Status::Ok();
}

Status DocumentStore::Close() {
  if (!journal_) return Status::Ok();
  Status s = journal_->Close();
  journal_.reset();
  return s;
}

}  // namespace slg
