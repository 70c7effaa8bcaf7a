// Micro-benchmarks (google-benchmark) for the core primitives: binary
// encoding, grammar evaluation, digram-index construction, path
// isolation, and single update operations. These are the building
// blocks whose costs the macro benches (fig4-6) aggregate.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/api/options.h"
#include "src/bench_util/reporting.h"
#include "src/core/call_graph_cache.h"
#include "src/core/cursor.h"
#include "src/core/grammar_repair.h"
#include "src/core/retrieve_occs.h"
#include "src/core/snapshot_nav.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/text_format.h"
#include "src/grammar/usage.h"
#include "src/grammar/value.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/repair/pruning.h"
#include "src/repair/tree_repair.h"
#include "src/service/document_service.h"
#include "src/service/snapshot.h"
#include "src/update/batch.h"
#include "src/update/path_isolation.h"
#include "src/update/update_ops.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

XmlTree SharedDoc() { return GenerateCorpus(Corpus::kMedline, 0.05); }

void BM_EncodeBinary(benchmark::State& state) {
  XmlTree xml = SharedDoc();
  for (auto _ : state) {
    LabelTable labels;
    Tree t = EncodeBinary(xml, &labels);
    benchmark::DoNotOptimize(t.LiveCount());
  }
  state.SetItemsProcessed(state.iterations() * xml.NodeCount());
}
BENCHMARK(BM_EncodeBinary);

void BM_TreeRePairCompress(benchmark::State& state) {
  XmlTree xml = SharedDoc();
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  for (auto _ : state) {
    TreeRepairResult r = TreeRePair(Tree(bin), labels, {});
    benchmark::DoNotOptimize(r.grammar.RuleCount());
  }
  state.SetItemsProcessed(state.iterations() * bin.LiveCount());
}
BENCHMARK(BM_TreeRePairCompress);

struct CompressedFixture {
  Grammar grammar;
  std::shared_ptr<const RuleIndex> index;  // what cursors share
  int64_t nodes;
  int64_t elements;
  static CompressedFixture& Get() {
    static CompressedFixture* f = [] {
      XmlTree xml = SharedDoc();
      LabelTable labels;
      Tree bin = EncodeBinary(xml, &labels);
      auto* fx = new CompressedFixture{
          TreeRePair(std::move(bin), labels, {}).grammar, nullptr, 0, 0};
      fx->index =
          std::make_shared<const RuleIndex>(RuleIndex::Build(fx->grammar));
      fx->nodes = ValueNodeCount(fx->grammar);
      fx->elements = ValueElementCount(fx->grammar);
      return fx;
    }();
    return *f;
  }
};

void BM_Decompress(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  for (auto _ : state) {
    auto t = Value(f.grammar);
    benchmark::DoNotOptimize(t.value().LiveCount());
  }
  state.SetItemsProcessed(state.iterations() * f.nodes);
}
BENCHMARK(BM_Decompress);

void BM_DigramIndexBuild(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  auto usage = ComputeUsage(f.grammar);
  for (auto _ : state) {
    GrammarDigramIndex index;
    index.Build(f.grammar, usage);
    benchmark::DoNotOptimize(index.TotalOccurrences());
  }
}
BENCHMARK(BM_DigramIndexBuild);

// Document-order DFS over every element of val(G) through the cursor:
// the query-without-decompression workload the paper's premise rests
// on. Exercises Down/Up across rule boundaries on every step. Each
// iteration opens a cursor on the fixture's prebuilt index, as a
// reader of a snapshot does.
void BM_CursorDfsTraversal(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  for (auto _ : state) {
    GrammarCursor cur(&f.grammar, f.index);
    int64_t visited = 1;
    bool done = false;
    while (!done) {
      if (cur.FirstChildElement()) {
        ++visited;
        continue;
      }
      for (;;) {
        if (cur.NextSiblingElement()) {
          ++visited;
          break;
        }
        if (!cur.ParentElement()) {
          done = true;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(state.iterations() * f.elements);
}
BENCHMARK(BM_CursorDfsTraversal);

// Root-to-leaf descents (alternating first-child / next-sibling) and
// the matching ascents: the pure Down/Up hot loop.
void BM_CursorRootToLeaf(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  GrammarCursor cur(&f.grammar, f.index);
  int64_t steps = 0;
  for (auto _ : state) {
    cur.ToRoot();
    int which = 1;
    while (cur.Down(which)) {
      ++steps;
      which = (which == 1) ? 2 : 1;
    }
    while (cur.Up()) ++steps;
    benchmark::DoNotOptimize(cur.Depth());
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_CursorRootToLeaf);

// Sibling scan along the element list of the root's children: the
// binary encoding turns this into repeated Down(2) hops.
void BM_CursorSiblingScan(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  GrammarCursor cur(&f.grammar, f.index);
  int64_t scanned = 0;
  for (auto _ : state) {
    cur.ToRoot();
    if (cur.FirstChildElement()) {
      ++scanned;
      while (cur.NextSiblingElement()) ++scanned;
    }
    benchmark::DoNotOptimize(cur.Depth());
  }
  state.SetItemsProcessed(scanned);
}
BENCHMARK(BM_CursorSiblingScan);

// The documents the lifecycle benchmark serves, ingested once each:
// treebank 0.25 (which == 0) and medline 0.5 (which == 1).
const GrammarSnapshot& ServedSnapshot(int which) {
  static std::map<int, std::shared_ptr<const GrammarSnapshot>>* docs =
      new std::map<int, std::shared_ptr<const GrammarSnapshot>>();
  auto [it, fresh] = docs->try_emplace(which);
  if (fresh) {
    XmlTree xml = which == 0 ? GenerateCorpus(Corpus::kTreebank, 0.25)
                             : GenerateCorpus(Corpus::kMedline, 0.5);
    CompressOptions opts;
    opts.num_shards = 1;
    it->second = CompressXmlToSnapshot(WriteXml(xml, {}), opts).take();
  }
  return *it->second;
}

const char* ServedLabel(int which) {
  return which == 0 ? "treebank 0.25" : "medline 0.5";
}

// GrammarSnapshot::Make on an ingested document: the one RuleIndex
// build every snapshot made from scratch pays (ingest, recovery, the
// unseeded updater). The grammar clone and the old snapshot's release
// are untimed.
void BM_SnapshotBuild(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const GrammarSnapshot& served = ServedSnapshot(which);
  const Grammar& g = served.grammar();
  std::shared_ptr<const GrammarSnapshot> snap;
  for (auto _ : state) {
    state.PauseTiming();
    snap.reset();
    Grammar clone = g.Clone();
    state.ResumeTiming();
    snap = GrammarSnapshot::Make(std::move(clone));
    benchmark::DoNotOptimize(snap->edges());
  }
  state.SetLabel(ServedLabel(which));
  state.counters["rules"] = g.RuleCount();
  state.counters["edges"] = static_cast<double>(served.edges());
}
BENCHMARK(BM_SnapshotBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The pruning phase that closes every merge: Prune on the output of a
// LocalizedGrammarRePair of a served document (service repair options,
// every rule seeded) run with pruning off. Each iteration prunes a
// copy whose bodies it owns, as the merge's are; the copy is untimed.
// `inlines` counts the rules inlined away and `host_walks` the host
// bodies walked to find call sites: the call-site book walks a host
// only to restore a call list's preorder, not once per inline.
void BM_Prune(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  static std::map<int, Grammar>* unpruned = new std::map<int, Grammar>();
  auto [it, fresh] = unpruned->try_emplace(which);
  if (fresh) {
    const Grammar& served = ServedSnapshot(which).grammar();
    GrammarRepairOptions opts = UpdateOptions().repair;
    opts.repair.prune = false;
    it->second =
        LocalizedGrammarRePair(served.Clone(), served.Nonterminals(), opts)
            .grammar;
  }
  PruneStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    Grammar g = it->second.Clone();
    for (LabelId r : g.Nonterminals()) g.mutable_rhs(r);
    state.ResumeTiming();
    stats = Prune(&g);
    benchmark::DoNotOptimize(g.RuleCount());
  }
  state.SetLabel(ServedLabel(which));
  state.counters["rules"] = it->second.RuleCount();
  state.counters["inlines"] = static_cast<double>(stats.inlines);
  state.counters["host_walks"] = static_cast<double>(stats.host_walks);
}
BENCHMARK(BM_Prune)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_PathIsolation(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  int64_t pos = 1;
  for (auto _ : state) {
    Grammar g = f.grammar.Clone();
    auto u = IsolateNode(&g, 1 + (pos * 7919) % f.nodes);
    benchmark::DoNotOptimize(u.ok());
    ++pos;
  }
}
BENCHMARK(BM_PathIsolation);

void BM_SingleRename(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  int64_t pos = 1;
  for (auto _ : state) {
    Grammar g = f.grammar.Clone();
    Status st = RenameNode(&g, 1 + (pos * 104729) % (f.nodes / 2), "zz");
    benchmark::DoNotOptimize(st.ok());
    ++pos;
  }
}
BENCHMARK(BM_SingleRename);

// 50 renames through the batched engine (shared snapshot, one GC):
// the per-operation cost BM_SingleRename pays 50 times over.
void BM_BatchRenames(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  std::vector<RenameOp> ops;
  {
    Tree full = Value(f.grammar).take();
    ops = MakeRenameWorkload(full, f.grammar.labels(), 50, 5);
  }
  for (auto _ : state) {
    Grammar g = f.grammar.Clone();
    BatchUpdater batch(&g);
    for (const RenameOp& op : ops) {
      Status st = batch.Rename(op.preorder, op.label);
      benchmark::DoNotOptimize(st.ok());
    }
    batch.Finish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ops.size()));
}
BENCHMARK(BM_BatchRenames);

// Recompression of an update-damaged grammar: the GrammarRePair leg
// the bucketed GrammarDigramIndex accelerates (delta add/remove in
// pure-local rounds, bucketed MostFrequent, per-rule drop/rescan).
void BM_GrammarRePairRecompress(benchmark::State& state) {
  CompressedFixture& f = CompressedFixture::Get();
  static Grammar* damaged = [] {
    Grammar* g = new Grammar(CompressedFixture::Get().grammar.Clone());
    Tree full = Value(*g).take();
    std::vector<RenameOp> ops = MakeRenameWorkload(full, g->labels(), 50, 3);
    BatchUpdater batch(g);
    for (const RenameOp& op : ops) {
      SLG_CHECK(batch.Rename(op.preorder, op.label).ok());
    }
    batch.Finish();
    return g;
  }();
  GrammarRepairOptions opts;
  opts.repair.require_positive_savings = true;
  for (auto _ : state) {
    GrammarRepairResult r = GrammarRePair(damaged->Clone(), opts);
    benchmark::DoNotOptimize(r.rounds);
  }
  state.SetItemsProcessed(state.iterations() * f.nodes);
}
BENCHMARK(BM_GrammarRePairRecompress);

// Writer::Apply of one fixed 4-op batch on a served document (no
// merges), over a size series: treebank / medline at scale x1, x2, x4.
// The batch inserts a copy of the root's first child before it, renames
// the copy, deletes it and renames the original to its own tag, so the
// document is the same after every write and each iteration pays the
// steady-state cost of a write: clone, the start rule's edit, garbage
// collection and the child snapshot. Flat across x1..x4 means a write
// costs the rules it touched, not the whole grammar.
struct WriteFixture {
  std::unique_ptr<DocumentService> svc;
  std::vector<UpdateOp> batch;
};

WriteFixture& GetWriteFixture(Corpus corpus, int times) {
  static std::map<std::pair<Corpus, int>, WriteFixture>* fixtures =
      new std::map<std::pair<Corpus, int>, WriteFixture>();
  auto [it, fresh] = fixtures->try_emplace({corpus, times});
  WriteFixture& f = it->second;
  if (!fresh) return f;
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // merge only on Flush(): none here
  XmlTree xml = GenerateCorpus(corpus, 0.1 * times);
  f.svc = DocumentService::FromXml(WriteXml(xml, {}), opts).take();
  DocumentService::Reader r = f.svc->OpenReader();
  const LabelTable& labels = r.snapshot().grammar().labels();
  LabelId first = labels.Find(r.LabelAt(2).value());
  LabelId root = labels.Find(r.LabelAt(1).value());
  SLG_CHECK(first != kNullLabel && root != kNullLabel);
  Tree copy;
  NodeId v = copy.NewNode(first);
  copy.SetRoot(v);
  copy.AppendChild(v, copy.NewNode(kNullLabel));
  copy.AppendChild(v, copy.NewNode(kNullLabel));
  f.batch.resize(4);
  f.batch[0].kind = UpdateOp::Kind::kInsert;
  f.batch[0].fragment = std::move(copy);
  f.batch[1].kind = UpdateOp::Kind::kRename;
  f.batch[1].label = root;
  f.batch[2].kind = UpdateOp::Kind::kDelete;
  f.batch[3].kind = UpdateOp::Kind::kRename;
  f.batch[3].label = first;
  for (UpdateOp& op : f.batch) op.preorder = 2;
  return f;
}

void BM_WriterApply(benchmark::State& state) {
  const Corpus corpus =
      state.range(0) == 0 ? Corpus::kTreebank : Corpus::kMedline;
  WriteFixture& f = GetWriteFixture(corpus, static_cast<int>(state.range(1)));
  DocumentService::Writer writer = f.svc->OpenWriter();
  for (auto _ : state) {
    Status st = writer.Apply(f.batch);
    SLG_CHECK(st.ok());
  }
  DocumentService::Reader r = f.svc->OpenReader();
  const Grammar& g = r.snapshot().grammar();
  state.SetLabel(std::string(corpus == Corpus::kTreebank ? "treebank" : "medline") +
                 " x" + std::to_string(state.range(1)));
  state.counters["rules"] = g.RuleCount();
  state.counters["edges"] = static_cast<double>(r.snapshot().edges());
  state.counters["start_nodes"] = g.rhs(g.start()).LiveCount();
}
BENCHMARK(BM_WriterApply)
    ->ArgsProduct({{0, 1}, {1, 2, 4}})
    ->Unit(benchmark::kMicrosecond);

// QueryEngine::Run on a served document, over a size series: treebank /
// medline at scale x1, x2, x4, x8 (0.1 each), ingested by
// DocumentService::FromXml like perfbench's documents. Per size, the
// most frequent tag t: count(//t) (range 2 = 0) and nth(//t, k) with k
// its middle match (range 2 = 1), which adds the descent. The counters
// are the evaluation's work: a query costs its (rule, context) pairs
// and the bodies they walk, so time should follow nodes_walked, not the
// document.
struct QueryFixture {
  std::shared_ptr<const GrammarSnapshot> snapshot;
  std::string tag;
  int64_t matches = 0;
};

QueryFixture& GetQueryFixture(Corpus corpus, int times) {
  static std::map<std::pair<Corpus, int>, QueryFixture>* fixtures =
      new std::map<std::pair<Corpus, int>, QueryFixture>();
  auto [it, fresh] = fixtures->try_emplace({corpus, times});
  QueryFixture& f = it->second;
  if (!fresh) return f;
  XmlTree xml = GenerateCorpus(corpus, 0.1 * times);
  f.snapshot = DocumentService::FromXml(WriteXml(xml, {}))
                   .take()
                   ->OpenReader()
                   .snapshot_ptr();
  const Grammar& g = f.snapshot->grammar();
  Tree full = Value(g).take();
  std::map<LabelId, int64_t> counts;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    if (full.label(v) != kNullLabel) ++counts[full.label(v)];
  });
  for (const auto& [l, n] : counts) {
    if (n > f.matches) {
      f.matches = n;
      f.tag = g.labels().Name(l);
    }
  }
  return f;
}

void BM_QueryRun(benchmark::State& state) {
  const Corpus corpus =
      state.range(0) == 0 ? Corpus::kTreebank : Corpus::kMedline;
  QueryFixture& f = GetQueryFixture(corpus, static_cast<int>(state.range(1)));
  const bool nth = state.range(2) == 1;
  const std::string text =
      nth ? "nth(//" + f.tag + ", " + std::to_string((f.matches + 1) / 2) + ")"
          : "count(//" + f.tag + ")";
  QueryStats stats;
  for (auto _ : state) {
    StatusOr<QueryResult> res = f.snapshot->RunQuery(text);
    SLG_CHECK(res.ok() && res.value().count == f.matches);
    stats = res.value().stats;
  }
  state.SetLabel(std::string(corpus == Corpus::kTreebank ? "treebank" : "medline") +
                 " x" + std::to_string(state.range(1)) + " " + text);
  state.counters["rules"] = f.snapshot->grammar().RuleCount();
  state.counters["memo_entries"] = static_cast<double>(stats.memo_entries);
  state.counters["nodes_walked"] = static_cast<double>(stats.nodes_walked);
}
BENCHMARK(BM_QueryRun)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// SnapshotNav::LabelAt on a served document, over the snapshots of the
// BM_QueryRun series (treebank / medline at scale x1, x2, x4, x8, 0.1
// each), at 1024 seeded uniform positions taken in turn. `steps` is the
// mean number of body nodes a descent stands on (NavStats): stepping
// over the arguments that do not hold the position, a call costs its
// path through the start rule and the rules it must enter, not the
// bodies of every rule on the way.
void BM_LabelAt(benchmark::State& state) {
  const Corpus corpus =
      state.range(0) == 0 ? Corpus::kTreebank : Corpus::kMedline;
  QueryFixture& f = GetQueryFixture(corpus, static_cast<int>(state.range(1)));
  const SnapshotNav& nav = f.snapshot->nav();
  std::mt19937_64 rng(20161019);
  std::uniform_int_distribution<int64_t> uniform(1, nav.DerivedSize());
  std::vector<int64_t> positions(1024);
  for (int64_t& p : positions) p = uniform(rng);
  size_t i = 0;
  for (auto _ : state) {
    StatusOr<LabelId> l = nav.LabelAt(positions[i]);
    SLG_CHECK(l.ok());
    benchmark::DoNotOptimize(l);
    i = (i + 1) % positions.size();
  }
  NavStats total;
  for (int64_t p : positions) {
    NavStats s;
    SLG_CHECK(nav.LabelAt(p, &s).ok());
    total.steps += s.steps;
    total.frames_entered += s.frames_entered;
  }
  const double n = static_cast<double>(positions.size());
  state.SetLabel(std::string(corpus == Corpus::kTreebank ? "treebank" : "medline") +
                 " x" + std::to_string(state.range(1)));
  state.counters["nodes"] = static_cast<double>(nav.DerivedSize());
  state.counters["rules"] = f.snapshot->grammar().RuleCount();
  state.counters["steps"] = static_cast<double>(total.steps) / n;
  state.counters["frames_entered"] =
      static_cast<double>(total.frames_entered) / n;
}
BENCHMARK(BM_LabelAt)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

// Incremental usage propagation in steady state. A star of 1024
// spokes (S calls every Ai, each Ai calls its private leaf Li); per
// iteration the call count of the first `k` spokes toggles 1 <-> 2
// (SetCallees) and one Update() runs. The cache must repropagate
// usage for O(k) rules — the curve over k is the damage-
// proportionality of the usage layer (a flat O(#rules) cost shows up
// as an incompressible floor at small k).
void BM_UsagePropagation(benchmark::State& state) {
  constexpr int kSpokes = 1024;
  struct Fixture {
    Grammar g;
    std::vector<LabelId> spokes, leaves;
  };
  static Fixture* f = [] {
    std::vector<std::string> rules;
    std::string s = "S -> ";
    std::string close;
    for (int i = 1; i <= kSpokes; ++i) {
      s += "f(A" + std::to_string(i) + ",";
      close += ")";
    }
    s += "b" + close;
    rules.push_back(s);
    for (int i = 1; i <= kSpokes; ++i) {
      rules.push_back("A" + std::to_string(i) + " -> g(L" + std::to_string(i) +
                      ",L" + std::to_string(i) + ")");
      rules.push_back("L" + std::to_string(i) + " -> b");
    }
    auto* fx = new Fixture{GrammarFromRules(rules).take(), {}, {}};
    for (int i = 1; i <= kSpokes; ++i) {
      fx->spokes.push_back(fx->g.labels().Find("A" + std::to_string(i)));
      fx->leaves.push_back(fx->g.labels().Find("L" + std::to_string(i)));
    }
    return fx;
  }();
  CallGraphCache cache;
  cache.Build(f->g);
  const int k = static_cast<int>(state.range(0));
  int count = 1;
  for (auto _ : state) {
    for (int i = 0; i < k; ++i) {
      cache.SetCallees(f->spokes[i], {{f->leaves[i], count}});
    }
    cache.Update(f->g, {}, {});
    benchmark::DoNotOptimize(cache.usage_changed().size());
    count = 3 - count;  // 1 <-> 2
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_UsagePropagation)->RangeMultiplier(4)->Range(1, 1024);

// Dynamic anti-SL order maintenance. 1025 initially independent rules
// under a start rule; per iteration `k` order-violating call edges are
// inserted (rule i gains a call to rule N-i, whose position is far
// later) and then removed again via SetCallees + Update. Insertions
// trigger the bounded Pearce–Kelly reorder; deletions are free. The
// curve over k shows maintenance cost scaling with the damaged-edge
// count instead of the rule count (the old code rebuilt the whole
// order every round).
void BM_AntiSlMaintain(benchmark::State& state) {
  constexpr int kRules = 2050;
  struct Fixture {
    Grammar g;
    std::vector<LabelId> rules;
  };
  static Fixture* f = [] {
    std::vector<std::string> rules;
    std::string s = "S -> ";
    std::string close;
    for (int i = 1; i <= kRules; ++i) {
      s += "f(B" + std::to_string(i) + ",";
      close += ")";
    }
    s += "b" + close;
    rules.push_back(s);
    for (int i = 1; i <= kRules; ++i) {
      rules.push_back("B" + std::to_string(i) + " -> g(b,b)");
    }
    auto* fx = new Fixture{GrammarFromRules(rules).take(), {}};
    for (int i = 1; i <= kRules; ++i) {
      fx->rules.push_back(fx->g.labels().Find("B" + std::to_string(i)));
    }
    return fx;
  }();
  CallGraphCache cache;
  cache.Build(f->g);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < k; ++i) {
      // B_{i+1} -> call of B_{kRules-i}: pos(callee) > pos(caller), so
      // every one of these violates the current order.
      cache.SetCallees(f->rules[static_cast<size_t>(i)],
                       {{f->rules[static_cast<size_t>(kRules - 1 - i)], 1}});
    }
    cache.Update(f->g, {}, {});
    for (int i = 0; i < k; ++i) {
      cache.SetCallees(f->rules[static_cast<size_t>(i)], {});
    }
    cache.Update(f->g, {}, {});
    benchmark::DoNotOptimize(cache.usage_changed().size());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_AntiSlMaintain)->RangeMultiplier(4)->Range(1, 1024);

// --- observability primitives ---------------------------------------
// The costs every instrumented hot path pays. Counter increments and
// histogram records are always on (relaxed atomics); spans are a
// relaxed load + branch when tracing is off and two clock reads + a
// ring push when it is on. docs/OBSERVABILITY.md quotes these numbers.

void BM_CounterInc(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("bench.micro_counter");
  for (auto _ : state) {
    c.Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("bench.micro_histogram");
  int64_t v = 0;
  for (auto _ : state) {
    h.Record(v++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_SpanEnterExit(benchmark::State& state) {
  // Tracing disabled — the production default every caller pays.
  obs::SetTraceEnabled(false);
  for (auto _ : state) {
    obs::TraceSpan span("bench.micro_span");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExit);

void BM_SpanEnterExitEnabled(benchmark::State& state) {
  obs::SetTraceEnabled(true);
  for (auto _ : state) {
    obs::TraceSpan span("bench.micro_span");
    benchmark::DoNotOptimize(&span);
  }
  obs::SetTraceEnabled(false);
  obs::ClearTrace();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExitEnabled);

}  // namespace
}  // namespace slg

// Custom main: identical to BENCHMARK_MAIN() except that results are
// also written to BENCH_micro.json (JSON reporter) unless the caller
// passes their own --benchmark_out, so the perf trajectory of the hot
// paths is machine-readable from every run, and that the allocator is
// pinned: glibc never trims the heap top (256 MiB threshold, as
// GLIBC_TUNABLES=glibc.malloc.trim_threshold=268435456) and serves
// blocks up to 32 MiB from the heap (glibc.malloc.mmap_threshold=
// 33554432). Trimming between iterations of a loop that allocates and
// frees whole grammars (BM_WriterApply) lands the next iteration on
// freshly faulted pages or not depending on allocation sizes, which
// moved that series by up to 15% between builds of the same code path.
// Setting the trim threshold alone also switches off glibc's dynamic
// mmap threshold and leaves it at 128 KiB, so the larger documents'
// arena copies would be mapped fresh on every iteration, a cost a
// served write (dynamic threshold: such blocks soon come from the
// heap) does not pay; the mmap threshold above every arena removes it.
int main(int argc, char** argv) {
  SLG_CHECK(mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1);
  SLG_CHECK(mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1);  // glibc's maximum
  std::vector<char*> args =
      slg::BenchmarkArgsWithJsonDefault(argc, argv, "BENCH_micro.json");
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
