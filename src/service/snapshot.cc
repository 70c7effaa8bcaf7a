#include "src/service/snapshot.h"

#include <utility>

#include "src/common/check.h"
#include "src/grammar/orders.h"
#include "src/grammar/value.h"
#include "src/pipeline/sharded_compressor.h"
#include "src/pipeline/thread_pool.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace slg {

namespace {

// What a child grammar cannot take from its parent's index.
struct RuleDelta {
  std::vector<LabelId> rebuilt;  // callees first
  std::vector<LabelId> removed;  // parent's rules the child dropped
};

RuleDelta DiffRules(const Grammar& parent, const Grammar& child) {
  RuleDelta d;
  parent.ForEachRule([&](LabelId r, const Tree&) {
    if (!child.HasRule(r)) d.removed.push_back(r);
  });
  std::vector<LabelId> changed;
  child.ForEachRule([&](LabelId r, const Tree& body) {
    if (!parent.HasRule(r) || &parent.rhs(r) != &body) changed.push_back(r);
  });
  const LabelId start = child.start();
  if (start == parent.start() &&
      (changed.empty() || (changed.size() == 1 && changed[0] == start))) {
    // A batch: only the start rule was edited, and no rule calls it.
    // (The rules it dropped were unreferenced — garbage collection
    // removes nothing else.)
    d.rebuilt = std::move(changed);
    return d;
  }
  // In general a rule is rebuilt when its body changed or it calls a
  // rebuilt or dropped rule; anti-SL order settles callees first.
  std::vector<char> dirty(static_cast<size_t>(child.labels().size()), 0);
  for (LabelId r : changed) dirty[static_cast<size_t>(r)] = 1;
  for (LabelId r : d.removed) dirty[static_cast<size_t>(r)] = 1;
  for (LabelId r : AntiSlOrder(child)) {
    char& dr = dirty[static_cast<size_t>(r)];
    if (!dr) {
      const Tree& t = child.rhs(r);
      t.VisitPreorder(t.root(), [&](NodeId v) {
        dr = dr || dirty[static_cast<size_t>(t.label(v))];
      });
    }
    if (dr) d.rebuilt.push_back(r);
  }
  return d;
}

}  // namespace

GrammarSnapshot::GrammarSnapshot(Grammar g,
                                 std::shared_ptr<const RuleIndex> index,
                                 int64_t version)
    : g_(std::move(g)),
      index_(std::move(index)),
      nav_(&g_, index_.get()),
      version_(version),
      edges_(index_->EdgeCount()),
      element_count_(index_->DerivedElementCount()),
      memo_(index_->num_labels(), kReadMemoBytesPerEdge * edges_) {}

GrammarSnapshot::ReadMemo::~ReadMemo() {
  Slot* slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return;
  for (int l = 0; l < num_labels_; ++l) {
    delete slots[l].load(std::memory_order_acquire);
  }
  delete[] slots;
}

const OccTable* GrammarSnapshot::ReadMemo::Find(LabelId want) const {
  SLG_DCHECK(want >= 0 && want < num_labels_);
  const Slot* slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return nullptr;
  return slots[want].load(std::memory_order_acquire);
}

GrammarSnapshot::ReadMemo::Slot* GrammarSnapshot::ReadMemo::Slots() {
  Slot* slots = slots_.load(std::memory_order_acquire);
  if (slots != nullptr) return slots;
  Slot* fresh = new Slot[static_cast<size_t>(num_labels_)];
  for (int l = 0; l < num_labels_; ++l) {
    fresh[l].store(nullptr, std::memory_order_relaxed);
  }
  if (slots_.compare_exchange_strong(slots, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return fresh;
  }
  delete[] fresh;  // another find allocated it first
  return slots;
}

const OccTable* GrammarSnapshot::ReadMemo::Publish(
    LabelId want, std::unique_ptr<OccTable>& table) {
  // Reserve the table's bytes first, so the memo never holds more than
  // the budget, even between racing publishers.
  const int64_t need = table->MemoryBytes();
  int64_t held = bytes_.load(std::memory_order_relaxed);
  do {
    if (held + need > budget_) return table.get();
  } while (!bytes_.compare_exchange_weak(held, held + need,
                                         std::memory_order_relaxed));
  const OccTable* winner = nullptr;
  if (Slots()[want].compare_exchange_strong(winner, table.get(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    return table.release();
  }
  bytes_.fetch_sub(need, std::memory_order_relaxed);
  return winner;
}

std::shared_ptr<const GrammarSnapshot> GrammarSnapshot::Make(Grammar g,
                                                             int64_t version) {
  auto index = std::make_shared<const RuleIndex>(RuleIndex::Build(g));
  return std::shared_ptr<const GrammarSnapshot>(
      new GrammarSnapshot(std::move(g), std::move(index), version));
}

std::shared_ptr<const GrammarSnapshot> GrammarSnapshot::Derive(
    const GrammarSnapshot& parent, Grammar g, int64_t version,
    std::vector<int64_t> start_sizes) {
  RuleDelta d = DiffRules(parent.g_, g);
  auto index = std::make_shared<const RuleIndex>(RuleIndex::Derive(
      *parent.index_, g, d.rebuilt, d.removed, std::move(start_sizes)));
  return std::shared_ptr<const GrammarSnapshot>(
      new GrammarSnapshot(std::move(g), std::move(index), version));
}

StatusOr<std::string> GrammarSnapshot::LabelAt(int64_t preorder) const {
  StatusOr<LabelId> l = nav_.LabelAt(preorder);
  if (!l.ok()) return l.status();
  return std::string(g_.labels().Name(l.value()));
}

StatusOr<int64_t> GrammarSnapshot::FindElement(std::string_view tag,
                                               int64_t k,
                                               NavStats* stats) const {
  // Argument validity precedes existence, matching every read
  // surface's status contract (tests/status_contract_test.cc).
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  LabelId want = g_.labels().Find(tag);
  if (want == kNoLabel) return Status::NotFound("tag never occurs");
  if (stats != nullptr) *stats = NavStats{};
  if (const OccTable* hit = memo_.Find(want)) {
    return nav_.FindLabel(*hit, k, stats);
  }
  auto table =
      std::make_unique<OccTable>(nav_.CountOccurrences(want, stats));
  return nav_.FindLabel(*memo_.Publish(want, table), k, stats);
}

StatusOr<QueryResult> GrammarSnapshot::RunQuery(std::string_view query) const {
  return QueryEngine(&g_, index_.get()).Run(query);
}

StatusOr<QueryResult> GrammarSnapshot::RunQuery(const Query& query) const {
  return QueryEngine(&g_, index_.get()).Run(query);
}

StatusOr<std::string> GrammarSnapshot::ToXml(bool pretty) const {
  StatusOr<Tree> tree = Value(g_);
  if (!tree.ok()) return tree.status();
  StatusOr<XmlTree> xml = DecodeBinary(tree.value(), g_.labels());
  if (!xml.ok()) return xml.status();
  XmlWriteOptions opts;
  opts.pretty = pretty;
  return WriteXml(xml.value(), opts);
}

GrammarCursor GrammarSnapshot::Cursor() const {
  return GrammarCursor(&g_, index_);
}

StatusOr<std::shared_ptr<const GrammarSnapshot>> CompressXmlToSnapshot(
    std::string_view xml, const CompressOptions& options) {
  StatusOr<XmlTree> parsed = ParseXml(xml);
  if (!parsed.ok()) return parsed.status();
  LabelTable labels;
  Tree bin = EncodeBinary(parsed.value(), &labels);
  // Dispatch on the *shard* count — the documented determinism knob.
  // num_shards == 1 takes the sequential path whatever the thread
  // count; num_shards == 0 follows the (resolved) thread count.
  int resolved_threads = options.num_threads == 0
                             ? ThreadPool::HardwareThreads()
                             : options.num_threads;
  bool use_sharded = options.num_shards > 1 ||
                     (options.num_shards == 0 && resolved_threads > 1);
  if (use_sharded) {
    ShardedCompressorOptions sharded;
    sharded.num_threads = options.num_threads;
    sharded.num_shards = options.num_shards;
    // options.repair governs every repair the pipeline runs: the
    // shard runs and the top-level pass take the RepairOptions (the
    // pipeline re-disables per-shard pruning — a pipeline invariant,
    // see ShardedCompressorOptions), the kFull tier the whole struct.
    sharded.shard_repair = options.repair.repair;
    sharded.shard_repair.prune = false;
    sharded.merge_repair = options.repair;
    ShardedCompressResult r = ShardedCompress(std::move(bin), labels, sharded);
    // The repair leaves the start rule's arena mostly holes; serve it
    // compact.
    r.grammar.CompactOwnedBodies();
    return GrammarSnapshot::Make(std::move(r.grammar));
  }
  Grammar g = Grammar::ForTree(std::move(bin), std::move(labels));
  GrammarRepairResult r = GrammarRePair(std::move(g), options.repair);
  r.grammar.CompactOwnedBodies();
  return GrammarSnapshot::Make(std::move(r.grammar));
}

}  // namespace slg
