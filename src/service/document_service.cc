#include "src/service/document_service.h"

#include <cstddef>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/grammar/validate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/snapshot.h"

namespace slg {

namespace {

struct ServiceMetrics {
  obs::Counter& batches;
  obs::Counter& ops;
  obs::Counter& merges;
  obs::Counter& rescans;
  obs::Gauge& overlay_edges;
  obs::Gauge& overlay_batches;
  obs::Histogram& write_us;
  obs::Histogram& merge_us;

  static ServiceMetrics& Get() {
    static ServiceMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new ServiceMetrics{reg.GetCounter("service.batches"),
                                reg.GetCounter("service.ops"),
                                reg.GetCounter("service.merges"),
                                reg.GetCounter("service.merge_rules_rescanned"),
                                reg.GetGauge("service.overlay_edges"),
                                reg.GetGauge("service.overlay_batches"),
                                reg.GetHistogram("service.write_us"),
                                reg.GetHistogram("service.merge_us")};
    }();
    return *m;
  }
};

// Every label id the ops can reach — rename targets and insert
// fragment nodes — must index `labels`: EncodeBatch indexes it
// unchecked, so ids from another table must fail here.
Status CheckLabelIds(const std::vector<UpdateOp>& ops,
                     const LabelTable& labels) {
  auto alien = [&](LabelId l) { return l < 0 || l >= labels.size(); };
  for (const UpdateOp& op : ops) {
    LabelId bad = kNoLabel;
    if (op.kind == UpdateOp::Kind::kRename && alien(op.label)) bad = op.label;
    if (op.kind == UpdateOp::Kind::kInsert) {
      op.fragment.VisitPreorder(op.fragment.root(), [&](NodeId v) {
        if (alien(op.fragment.label(v)) && bad == kNoLabel) {
          bad = op.fragment.label(v);
        }
      });
    }
    if (bad != kNoLabel) {
      return Status::InvalidArgument("label id " + std::to_string(bad) +
                                     " is not in the document's label table");
    }
  }
  return Status::Ok();
}

}  // namespace

// --- factories -------------------------------------------------------------

StatusOr<std::unique_ptr<DocumentService>> DocumentService::FromXml(
    std::string_view xml, const ServiceOptions& options) {
  StatusOr<std::shared_ptr<const GrammarSnapshot>> snap =
      CompressXmlToSnapshot(xml, options.compress);
  if (!snap.ok()) return snap.status();
  return FromSnapshot(snap.take(), options);
}

StatusOr<std::unique_ptr<DocumentService>> DocumentService::FromGrammar(
    Grammar g, const ServiceOptions& options) {
  SLG_RETURN_IF_ERROR(ValidateDocument(g));
  return FromSnapshot(GrammarSnapshot::Make(std::move(g)), options);
}

StatusOr<std::unique_ptr<DocumentService>> DocumentService::FromSnapshot(
    std::shared_ptr<const GrammarSnapshot> snapshot,
    const ServiceOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  std::optional<DocumentStore> store;
  if (!options.durable_dir.empty()) {
    StatusOr<DocumentStore> created =
        DocumentStore::Create(options.durable_dir, snapshot->grammar(),
                              options.journal, options.fault_injector);
    if (!created.ok()) return created.status();
    store.emplace(created.take());
  }
  return std::unique_ptr<DocumentService>(
      new DocumentService(options, std::move(snapshot), std::move(store)));
}

StatusOr<std::unique_ptr<DocumentService>> DocumentService::Open(
    const ServiceOptions& options) {
  if (options.durable_dir.empty()) {
    return Status::InvalidArgument("Open requires options.durable_dir");
  }
  static obs::Counter& replayed = obs::MetricsRegistry::Global().GetCounter(
      "store.journal.replayed_batches");
  std::shared_ptr<const GrammarSnapshot> snap;
  std::vector<PendingBatch> pending;
  std::optional<DocumentStore> store;
  {
    obs::TraceSpan span("store.recover");
    StatusOr<RecoveryChain> read = ReadRecoveryChain(options.durable_dir);
    if (!read.ok()) return read.status();
    RecoveryChain chain = read.take();
    SLG_RETURN_IF_ERROR(ValidateDocument(chain.base));
    snap = GrammarSnapshot::Make(std::move(chain.base));
    int64_t gen = chain.generation;
    for (const JournalReplay& journal : chain.journals) {
      // A sealed journal's batches after its folded prefix reappear at
      // the head of the next journal.
      const size_t n = journal.ends_with_checkpoint
                           ? static_cast<size_t>(journal.folded)
                           : journal.batches.size();
      for (size_t i = 0; i < n; ++i) {
        PendingBatch pb{journal.batches[i], {}};
        StatusOr<std::shared_ptr<const GrammarSnapshot>> next =
            ApplyEncodedBatch(*snap, pb.encoded,
                              static_cast<int64_t>(pending.size()) + 1,
                              &pb.effects);
        if (!next.ok()) {
          // CRC-valid but unreplayable: the corruption beat the
          // checksum, and there is no later state to fall back to.
          return Status::DataLoss(JournalFileName(gen) +
                                  " holds an unreplayable committed batch: " +
                                  next.status().message());
        }
        snap = next.take();
        replayed.Increment();
        pending.push_back(std::move(pb));
      }
      if (!journal.ends_with_checkpoint) break;
      // The snapshot this seal names is corrupt or was never published:
      // re-run the merge that built it, and heal it.
      snap = RecompressSnapshot(*snap, DamageUnion(pending),
                                options.update.localized,
                                options.update.repair, 0);
      pending.clear();
      ++gen;
      SLG_RETURN_IF_ERROR(WriteSnapshot(options.durable_dir, gen,
                                        snap->grammar(),
                                        options.fault_injector));
    }
    StatusOr<DocumentStore> resumed =
        DocumentStore::Resume(options.durable_dir, chain, options.journal,
                              options.fault_injector);
    if (!resumed.ok()) return resumed.status();
    store.emplace(resumed.take());
  }
  return std::unique_ptr<DocumentService>(new DocumentService(
      options, std::move(snap), std::move(store), std::move(pending)));
}

DocumentService::DocumentService(ServiceOptions options,
                                 std::shared_ptr<const GrammarSnapshot> initial,
                                 std::optional<DocumentStore> store,
                                 std::vector<PendingBatch> pending)
    : options_(std::move(options)),
      pending_(std::move(pending)),
      store_(std::move(store)) {
  auto ns = std::make_shared<ServiceState>();
  if (!pending_.empty()) {
    // Recovered: one snapshot holds base and replayed batches alike.
    ns->overlay = initial;
    ns->overlay_batches = static_cast<int64_t>(pending_.size());
    for (const PendingBatch& pb : pending_) {
      ns->overlay_edges += pb.effects.edges_added;
      overlay_ops_ += pb.effects.ops;
    }
    acked_batches_ = ns->overlay_batches;
    acked_ops_ = overlay_ops_;
  }
  ns->base = std::move(initial);
  state_ = std::move(ns);
  merge_thread_ = std::thread(&DocumentService::MergeLoop, this);
}

DocumentService::~DocumentService() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (merge_thread_.joinable()) merge_thread_.join();
  if (store_) {
    (void)store_->Close();
  }
}

// --- reads -----------------------------------------------------------------

DocumentService::Reader DocumentService::OpenReader() const {
  // One atomic shared_ptr load; never touches mu_. The returned view
  // pins the state (and thus both snapshots) for its own lifetime.
  return Reader(std::atomic_load(&state_));
}

// --- writes ----------------------------------------------------------------

std::vector<LabelId> DocumentService::DamageUnion(
    const std::vector<PendingBatch>& batches) {
  std::vector<LabelId> damage;
  std::unordered_set<LabelId> seen;
  for (const PendingBatch& pb : batches) {
    for (LabelId r : pb.effects.damage) {
      if (seen.insert(r).second) damage.push_back(r);
    }
  }
  return damage;
}

Status DocumentService::Writer::Apply(const std::vector<UpdateOp>& ops) {
  if (ops.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lk(service_->mu_);
  const LabelTable& names =
      service_->state_->effective().grammar().labels();
  SLG_RETURN_IF_ERROR(CheckLabelIds(ops, names));
  return service_->WriteLocked(EncodeBatch(ops, names));
}

Status DocumentService::Writer::ApplyEncoded(std::string encoded) {
  std::lock_guard<std::mutex> lk(service_->mu_);
  return service_->WriteLocked(std::move(encoded));
}

Status DocumentService::Writer::Rename(int64_t preorder,
                                       std::string_view new_tag) {
  return ApplyEncoded(EncodeRename(preorder, new_tag));
}

Status DocumentService::Writer::InsertXmlBefore(int64_t preorder,
                                                std::string_view xml_fragment) {
  StatusOr<std::string> encoded = EncodeInsertXml(preorder, xml_fragment);
  if (!encoded.ok()) return encoded.status();
  return ApplyEncoded(encoded.take());
}

Status DocumentService::Writer::Delete(int64_t preorder) {
  return ApplyEncoded(EncodeDelete(preorder));
}

Status DocumentService::WriteLocked(std::string encoded) {
  obs::TraceSpan span("service.write");
  Timer timer;
  PendingBatch pb{std::move(encoded), {}};
  // Failure before publication drops the child: the service state and
  // the durable store are untouched — batch atomicity.
  StatusOr<std::shared_ptr<const GrammarSnapshot>> next = ApplyEncodedBatch(
      state_->effective(), pb.encoded, acked_batches_ + 1, &pb.effects);
  if (!next.ok()) return next.status();
  // Journal first, acknowledge second: a batch whose Apply returned Ok
  // is durable per the fsync policy before any reader can see it. A
  // journal failure publishes nothing (the store poisons itself; the
  // served state stays at the last acknowledged version).
  if (store_) SLG_RETURN_IF_ERROR(store_->Append(pb.encoded));
  auto ns = std::make_shared<ServiceState>();
  ns->base = state_->base;
  ns->overlay = next.take();
  ns->overlay_batches = state_->overlay_batches + 1;
  ns->overlay_edges = state_->overlay_edges + pb.effects.edges_added;
  ++acked_batches_;
  acked_ops_ += pb.effects.ops;
  overlay_ops_ += pb.effects.ops;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.batches.Increment();
  m.ops.Add(pb.effects.ops);
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  pending_.push_back(std::move(pb));
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  if (MergeNeededLocked()) cv_.notify_all();
  m.write_us.Record(static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

// --- merge -----------------------------------------------------------------

bool DocumentService::MergeNeededLocked() const {
  return !pending_.empty() &&
         RecompressDue(options_.update, overlay_ops_, state_->overlay_edges,
                       state_->base->edges());
}

void DocumentService::MergeLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] {
      return stop_ || MergeNeededLocked() || flush_target_ > merged_version_;
    });
    if (stop_) return;
    if (pending_.empty()) {
      // Nothing unmerged — a Flush raced a merge that already folded
      // everything in; record it and wake the waiters.
      merged_version_ = acked_batches_;
      cv_.notify_all();
      continue;
    }
    MergeOnce(lk);
    cv_.notify_all();
  }
}

void DocumentService::MergeOnce(std::unique_lock<std::mutex>& lk) {
  // Capture the merge input: the materialized overlay (base + all k
  // pending batches) and the union of their damage sets — the damage
  // is exactly the overlay, which is what keeps the localized merge
  // O(overlay), not O(document).
  std::shared_ptr<const ServiceState> in_state = state_;
  const size_t k = pending_.size();
  std::vector<LabelId> damage = DamageUnion(pending_);
  int64_t v = in_state->effective().version();

  // Recompress off-lock: writers keep acknowledging batches (their
  // snapshots chain off the captured overlay) and readers keep
  // loading whatever state is current.
  lk.unlock();
  // The repair and the snapshot's read indexes of every rule it
  // rewrote (the rest keep their parent's entries) are built here, off
  // the lock.
  Timer timer;
  std::shared_ptr<const GrammarSnapshot> base_snap;
  int64_t rescanned = 0;
  {
    obs::TraceSpan span("service.merge");
    base_snap = RecompressSnapshot(in_state->effective(), damage,
                                   options_.update.localized,
                                   options_.update.repair, v, &rescanned);
  }
  int64_t elapsed_us = static_cast<int64_t>(timer.ElapsedSeconds() * 1e6);

  lk.lock();
  ++merges_;
  merge_rescans_ += rescanned;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.merges.Increment();
  m.rescans.Add(rescanned);
  m.merge_us.Record(elapsed_us);

  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(k));
  // Checkpoint the base just built, carrying the batches acknowledged
  // meanwhile into the next journal. Under mu_, so no write can slip
  // between the tail and the seal; writers wait for the rotation's
  // I/O, readers not at all. A failure poisons the store, which
  // surfaces on the next write and on Flush.
  if (store_) {
    std::vector<std::string_view> tail;
    for (const PendingBatch& pb : pending_) tail.push_back(pb.encoded);
    (void)store_->Rotate(base_snap->grammar(), static_cast<int64_t>(k), tail);
  }

  // Splice: the k captured batches are folded into the new base;
  // batches acknowledged while the repair ran become the new overlay,
  // replayed from their encoding onto the new base — decoding interns
  // label names into the merged table (the repair minted or dropped
  // nonterminals), and the replay harvests fresh damage sets valid in
  // that grammar for the next merge.
  auto ns = std::make_shared<ServiceState>();
  ns->base = std::move(base_snap);
  overlay_ops_ = 0;
  if (!pending_.empty()) {
    std::shared_ptr<const GrammarSnapshot> mat = ns->base;
    int64_t version = v;
    for (PendingBatch& pb : pending_) {
      StatusOr<std::shared_ptr<const GrammarSnapshot>> next =
          ApplyEncodedBatch(*mat, pb.encoded, ++version, &pb.effects);
      SLG_CHECK_MSG(next.ok(), "acknowledged batch must replay");
      mat = next.take();
      ns->overlay_edges += pb.effects.edges_added;
      overlay_ops_ += pb.effects.ops;
    }
    ns->overlay = std::move(mat);
    ns->overlay_batches = static_cast<int64_t>(pending_.size());
  }
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  merged_version_ = v;
}

Status DocumentService::Flush() {
  std::unique_lock<std::mutex> lk(mu_);
  int64_t target = acked_batches_;
  if (merged_version_ < target) {
    flush_target_ = std::max(flush_target_, target);
    cv_.notify_all();
    cv_.wait(lk, [&] { return stop_ || merged_version_ >= target; });
    if (merged_version_ < target) {
      return Status::FailedPrecondition(
          "service stopped before flush finished");
    }
  }
  return store_ && store_->poisoned()
             ? Status::FailedPrecondition("durable store failed; reopen to "
                                          "recover the last committed state")
             : Status::Ok();
}

DocumentService::Stats DocumentService::GetStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.acked_batches = acked_batches_;
  s.acked_ops = acked_ops_;
  s.merges = merges_;
  s.merge_rules_rescanned = merge_rescans_;
  s.overlay_batches = state_->overlay_batches;
  s.overlay_edges = state_->overlay_edges;
  s.base_version = merged_version_;
  s.read_memo_bytes = state_->base->ReadMemoBytes();
  if (state_->overlay != nullptr && state_->overlay != state_->base) {
    s.read_memo_bytes += state_->overlay->ReadMemoBytes();
  }
  return s;
}

}  // namespace slg
