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
#include "src/update/batch.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

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

// The merge: a pure function of (grammar, damage, options), run by the
// merge thread and re-run by recovery to rebuild a snapshot that never
// became durable.
GrammarRepairResult Merge(Grammar g, const std::vector<LabelId>& damage,
                          const UpdateOptions& update) {
  return update.localized
             ? LocalizedGrammarRePair(std::move(g), damage, update.repair)
             : GrammarRePair(std::move(g), update.repair);
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
  SLG_RETURN_IF_ERROR(Validate(g));
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
  Grammar g;
  std::vector<PendingBatch> pending;
  std::optional<DocumentStore> store;
  {
    obs::TraceSpan span("store.recover");
    StatusOr<RecoveryChain> read = ReadRecoveryChain(options.durable_dir);
    if (!read.ok()) return read.status();
    RecoveryChain chain = read.take();
    g = std::move(chain.base);
    int64_t gen = chain.generation;
    for (const JournalReplay& journal : chain.journals) {
      // A sealed journal's batches after its folded prefix reappear at
      // the head of the next journal.
      const size_t n = journal.ends_with_checkpoint
                           ? static_cast<size_t>(journal.folded)
                           : journal.batches.size();
      for (size_t i = 0; i < n; ++i) {
        PendingBatch pb{journal.batches[i], {}, 0, 0};
        Status applied = ApplyEncoded(&g, &pb);
        if (!applied.ok()) {
          // CRC-valid but unreplayable: the corruption beat the
          // checksum, and there is no later state to fall back to.
          return Status::DataLoss(JournalFileName(gen) +
                                  " holds an unreplayable committed batch: " +
                                  applied.message());
        }
        replayed.Increment();
        pending.push_back(std::move(pb));
      }
      if (!journal.ends_with_checkpoint) break;
      // The snapshot this seal names is corrupt or was never published:
      // re-run the merge that built it, and heal it.
      g = Merge(std::move(g), DamageUnion(pending), options.update).grammar;
      pending.clear();
      ++gen;
      SLG_RETURN_IF_ERROR(WriteSnapshot(options.durable_dir, gen, g,
                                        options.fault_injector));
    }
    SLG_RETURN_IF_ERROR(Validate(g));
    StatusOr<DocumentStore> resumed =
        DocumentStore::Resume(options.durable_dir, chain, options.journal,
                              options.fault_injector);
    if (!resumed.ok()) return resumed.status();
    store.emplace(resumed.take());
  }
  auto snap = GrammarSnapshot::Make(std::move(g),
                                    static_cast<int64_t>(pending.size()));
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
      ns->overlay_edges += pb.edges_added;
      overlay_ops_ += pb.ops;
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

Status DocumentService::ApplyEncoded(Grammar* g, PendingBatch* pb) {
  std::vector<UpdateOp> ops;
  SLG_RETURN_IF_ERROR(DecodeBatch(pb->encoded, &g->labels(), &ops));
  BatchUpdater bu(g);
  for (const UpdateOp& op : ops) SLG_RETURN_IF_ERROR(bu.Apply(op));
  pb->damage = bu.DamagedRules();
  pb->edges_added = bu.EdgesAdded();
  pb->ops = static_cast<int64_t>(ops.size());
  bu.Finish();
  return Status::Ok();
}

std::vector<LabelId> DocumentService::DamageUnion(
    const std::vector<PendingBatch>& batches) {
  std::vector<LabelId> damage;
  std::unordered_set<LabelId> seen;
  for (const PendingBatch& pb : batches) {
    for (LabelId r : pb.damage) {
      if (seen.insert(r).second) damage.push_back(r);
    }
  }
  return damage;
}

Status DocumentService::Writer::Apply(const std::vector<UpdateOp>& ops) {
  return Apply(ops, nullptr);
}

Status DocumentService::Writer::Apply(const std::vector<UpdateOp>& ops,
                                      const LabelTable* names) {
  if (ops.empty()) return Status::Ok();
  obs::TraceSpan span("service.write");
  Timer timer;
  DocumentService* s = service_;
  std::unique_lock<std::mutex> lk(s->mu_);
  const Grammar& current = s->state_->effective().grammar();
  if (names == nullptr) {
    names = &current.labels();
    SLG_RETURN_IF_ERROR(CheckLabelIds(ops, *names));
  }
  PendingBatch pb{EncodeBatch(ops, *names), {}, 0, 0};
  // Failure before publication drops the clone: the service state and
  // the durable store are untouched — batch atomicity.
  Grammar next = current.Clone();
  SLG_RETURN_IF_ERROR(ApplyEncoded(&next, &pb));
  SLG_RETURN_IF_ERROR(s->CommitLocked(std::move(next), std::move(pb)));
  ServiceMetrics::Get().write_us.Record(
      static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return Status::Ok();
}

Status DocumentService::Writer::Rename(int64_t preorder,
                                       std::string_view new_tag) {
  LabelTable names;
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kRename;
  ops[0].preorder = preorder;
  // A fresh table already spells ⊥; the apply step rejects renaming to it.
  LabelId id = names.Find(new_tag);
  ops[0].label = id != kNoLabel ? id : names.Intern(new_tag, 2);
  return Apply(ops, &names);
}

Status DocumentService::Writer::InsertXmlBefore(int64_t preorder,
                                                std::string_view xml_fragment) {
  StatusOr<XmlTree> parsed = ParseXml(xml_fragment);
  if (!parsed.ok()) return parsed.status();
  LabelTable names;
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kInsert;
  ops[0].preorder = preorder;
  ops[0].fragment = EncodeBinary(parsed.value(), &names);
  return Apply(ops, &names);
}

Status DocumentService::Writer::Delete(int64_t preorder) {
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kDelete;
  ops[0].preorder = preorder;
  return Apply(ops);
}

Status DocumentService::CommitLocked(Grammar next, PendingBatch pb) {
  // Journal first, acknowledge second: a batch whose Apply returned Ok
  // is durable per the fsync policy before any reader can see it. A
  // journal failure publishes nothing (the store poisons itself; the
  // served state stays at the last acknowledged version).
  if (store_) SLG_RETURN_IF_ERROR(store_->Append(pb.encoded));
  auto snap = GrammarSnapshot::Make(std::move(next), acked_batches_ + 1);
  auto ns = std::make_shared<ServiceState>();
  ns->base = state_->base;
  ns->overlay = std::move(snap);
  ns->overlay_batches = state_->overlay_batches + 1;
  ns->overlay_edges = state_->overlay_edges + pb.edges_added;
  ++acked_batches_;
  acked_ops_ += pb.ops;
  overlay_ops_ += pb.ops;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.batches.Increment();
  m.ops.Add(pb.ops);
  m.overlay_edges.Set(ns->overlay_edges);
  m.overlay_batches.Set(ns->overlay_batches);
  pending_.push_back(std::move(pb));
  std::atomic_store(&state_, std::shared_ptr<const ServiceState>(std::move(ns)));
  if (MergeNeededLocked()) cv_.notify_all();
  return Status::Ok();
}

// --- merge -----------------------------------------------------------------

bool DocumentService::MergeNeededLocked() const {
  if (pending_.empty()) return false;
  if (options_.update.growth_trigger <= 0) return false;
  if (overlay_ops_ < options_.update.min_checkpoint_ops) return false;
  return static_cast<double>(state_->overlay_edges) >
         options_.update.growth_trigger *
             static_cast<double>(state_->base->edges());
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
  Timer timer;
  GrammarRepairResult merged;
  {
    obs::TraceSpan span("service.merge");
    merged = Merge(in_state->effective().grammar().Clone(), damage,
                   options_.update);
  }
  int64_t elapsed_us = static_cast<int64_t>(timer.ElapsedSeconds() * 1e6);

  // Snapshot construction builds every read index — the with-sizes
  // RuleMeta and the shared RuleSummary (label filters,
  // first-occurrence tables) — so it runs here, off the lock.
  std::shared_ptr<const GrammarSnapshot> base_snap =
      GrammarSnapshot::Make(std::move(merged.grammar), v);

  lk.lock();
  ++merges_;
  merge_rescans_ += merged.rules_rescanned;
  ServiceMetrics& m = ServiceMetrics::Get();
  m.merges.Increment();
  m.rescans.Add(merged.rules_rescanned);
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
    Grammar mat = ns->base->grammar().Clone();
    for (PendingBatch& pb : pending_) {
      Status st = ApplyEncoded(&mat, &pb);
      SLG_CHECK_MSG(st.ok(), "acknowledged batch must replay");
      ns->overlay_edges += pb.edges_added;
      overlay_ops_ += pb.ops;
    }
    ns->overlay = GrammarSnapshot::Make(
        std::move(mat), v + static_cast<int64_t>(pending_.size()));
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
  return s;
}

}  // namespace slg
