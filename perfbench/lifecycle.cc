// Served-document lifecycle benchmark.
//
// One closed-loop client drives DocumentService through public calls
// only. A run is a series of passes; each pass is one full lifecycle
// from the same generated inputs: ingest the seed XML into a durable
// service, replay the workload's fixed script (reads, write batches,
// Flush), check the served document against a plain-tree replay, tear
// the service down and time the Open that recovers it. Every pass makes
// the same calls on the same states, so the run keeps each call's
// fastest time over the passes and computes the metrics from those
// (README.md, "Host noise"): other tenants of the host slow some
// instances of a call, not all of them.
//
//   lifecycle --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate
// run that alternates traced and untraced passes: traced passes enable
// the library's obs spans, wrap each public call in a benchmark span
// and re-run each layer's public function on the call's inputs (the
// shadow calls), and the run prints the per-layer metrics, the
// self-time table and the tracing overhead. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Any wrong answer, failed call or count that differs between passes
// aborts the run with exit code 1.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/attribution.h"
#include "perfbench/script.h"
#include "src/core/grammar_repair.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/engine.h"
#include "src/query/plan.h"
#include "src/query/query.h"
#include "src/service/document_service.h"
#include "src/store/journal.h"
#include "src/store/snapshot.h"
#include "src/update/batch.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using slg::DocumentService;
using slg::UpdateOp;

// Timed Opens of the torn-down directory per untraced pass.
constexpr int kRecoveries = 3;

struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void Expect(bool cond, const std::string& what) {
  if (!cond) throw Mismatch(what);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs f inside a benchmark span and stores its wall time in *ns.
template <typename F>
auto Timed(const char* span, int64_t* ns, F&& f) {
  slg::obs::TraceSpan s(span, "bench");
  int64_t t0 = NowNs();
  auto result = f();
  *ns = NowNs() - t0;
  return result;
}

// Linear-interpolation quantile (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// --- process memory --------------------------------------------------------

// Returns freed heap to the kernel, then resets VmHWM to the current
// resident set, so the next peak reading covers only what follows.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

// --- library counters ------------------------------------------------------

int64_t CounterValue(const char* name) {
  return slg::obs::MetricsRegistry::Global().GetCounter(name).Value();
}
int64_t HistogramSum(const char* name) {
  return slg::obs::MetricsRegistry::Global().GetHistogram(name).Sum();
}

struct StoreCounters {
  int64_t journal_bytes = CounterValue("store.journal.append_bytes");
  int64_t fsyncs = CounterValue("store.journal.fsyncs");
  int64_t journal_us = HistogramSum("store.journal.append_us") +
                       HistogramSum("store.journal.fsync_us");
};

// Size of the newest snapshot generation in a durable directory.
int64_t SnapshotBytes(const std::string& dir) {
  int64_t best_gen = -1;
  int64_t bytes = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    int64_t gen = 0;
    if (slg::ParseSnapshotFileName(e.path().filename().string(), &gen) &&
        gen > best_gen) {
      best_gen = gen;
      bytes = static_cast<int64_t>(e.file_size());
    }
  }
  return bytes;
}

struct MetricDef {
  std::string name;
  std::string unit;
  bool lower_is_better;
};

// --- one pass --------------------------------------------------------------

struct PassResult {
  bool traced = false;
  double setup_s = 0;
  double recover_s = 0;
  double serving_s = 0;  // sum of client call times
  int64_t ops = 0;       // client calls in the serving phase
  std::vector<double> label_us, find_us, query_ms, write_ms, merge_ms;
  double rss_peak_mb = 0;
  double space_ratio = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Work counts; each must repeat exactly in every pass of the run
  // (traced passes add the shadow-call counts).
  std::map<std::string, int64_t> counts;
  // Per-layer metrics, in BENCHMARK.json order; traced passes only.
  std::vector<std::pair<MetricDef, double>> layers;
};

class Pass {
 public:
  Pass(const WorkloadSpec& spec, const Script& script, std::string dir,
       bool traced)
      : spec_(spec), script_(script), dir_(std::move(dir)), traced_(traced) {}

  PassResult Run(const std::string& trace_path, SelfTimeTable* table,
                 const std::string& annotated_out) {
    r_.traced = traced_;
    fs::remove_all(dir_);
    fs::create_directories(fs::path(dir_).parent_path());
    slg::ServiceOptions opts = Options();
    StoreCounters before;
    if (traced_) {
      slg::obs::ClearTrace();
      slg::obs::SetTraceEnabled(true);
    }

    std::unique_ptr<DocumentService> svc = Setup(opts);
    ResetPeakRss();
    for (const Step& step : script_.steps) RunStep(step, svc.get(), opts);
    r_.rss_peak_mb = PeakRssMb();

    {
      DocumentService::Reader reader = svc->OpenReader();
      auto xml = reader.ToXml();
      Expect(xml.ok() && xml.value() == script_.final_xml,
             "served document differs from the plain-tree replay");
      const slg::GrammarSnapshot& snap = reader.snapshot();
      r_.space_ratio = static_cast<double>(snap.edges()) /
                       static_cast<double>(snap.node_count());
      r_.counts["grammar.edges"] = snap.edges();
      r_.counts["grammar.rules"] = snap.grammar().RuleCount();
      r_.counts["document.nodes"] = snap.node_count();
      DocumentService::Stats st = svc->GetStats();
      r_.counts["service.merges"] = st.merges;
      r_.counts["service.merge_rules_rescanned"] = st.merge_rules_rescanned;
    }
    svc.reset();
    Recover(opts);

    StoreCounters after;
    r_.counts["store.journal_bytes"] =
        after.journal_bytes - before.journal_bytes;
    r_.counts["store.fsyncs"] = after.fsyncs - before.fsyncs;
    r_.counts["store.snapshot_bytes"] = SnapshotBytes(dir_);
    r_.counts["query.rules_visited"] = rules_visited_;
    r_.counts["query.memo_entries"] = memo_entries_;
    r_.counts["query.memo_hits"] = memo_hits_;
    fs::remove_all(dir_);
    if (!traced_) {
      // A second ingest at the other end of the pass, so setup_s has
      // two instances per pass, seconds apart.
      int64_t ns = 0;
      auto again = Timed("client.setup", &ns, [&] {
        return DocumentService::FromXml(script_.ingest_xml, opts);
      });
      CheckStatus(again.status(), true, "FromXml");
      again.value().reset();
      r_.setup_s = std::min(r_.setup_s, static_cast<double>(ns) / 1e9);
      fs::remove_all(dir_);
    }

    if (traced_) {
      slg::obs::SetTraceEnabled(false);
      Expect(slg::obs::TraceDroppedCount() == 0, "trace ring overflowed");
      Expect(slg::obs::WriteChromeTrace(trace_path), "cannot write trace");
      std::vector<Event> events;
      Expect(LoadChromeTrace(trace_path, &events), "cannot parse trace");
      fs::remove(trace_path);
      Attribute(requests_, &events);
      table->Add(requests_, events);
      if (!annotated_out.empty()) {
        WriteAnnotatedTrace(annotated_out, requests_, events);
      }
      Layers(events, after.journal_us - before.journal_us);
    }
    return std::move(r_);
  }

 private:
  slg::ServiceOptions Options() const {
    slg::ServiceOptions o;
    o.durable_dir = dir_;
    o.journal.policy = spec_.fsync_every_batch ? slg::FsyncPolicy::kEveryBatch
                                               : slg::FsyncPolicy::kNone;
    // The adaptive trigger stays on (growth_trigger > 0 is also what
    // makes merges checkpoint the store), but its op floor sits one
    // above the Flush interval: no merge ever starts between two
    // Flush() calls, so the merge schedule is the script's.
    o.update.min_checkpoint_ops = kFlushEveryOps + 1;
    return o;
  }

  void BeginRequest(const char* kind) {
    if (traced_) requests_.push_back(Request{kind, NowNs(), 0});
  }
  void EndRequest() {
    if (traced_) requests_.back().end_ns = NowNs();
  }

  // Counts one client call; a legitimate NotFound (the oracle agrees)
  // is not a failure.
  void CheckStatus(const slg::Status& st, bool expect_found,
                   const std::string& what) {
    ++r_.attempted;
    if (st.ok()) {
      Expect(expect_found, what + ": answered, oracle says NotFound");
      return;
    }
    if (st.code() == slg::StatusCode::kNotFound && !expect_found) return;
    ++r_.failed;
    throw Mismatch(what + ": " + st.ToString());
  }

  void Served(int64_t ns) {
    r_.serving_s += static_cast<double>(ns) / 1e9;
    ++r_.ops;
  }

  // Shadow calls run after the public call, inside its request and on
  // the state it started from (a pinned reader), so they never warm
  // caches for the call they shadow.
  std::unique_ptr<DocumentService> Setup(const slg::ServiceOptions& opts) {
    BeginRequest("client.setup");
    int64_t ns = 0;
    auto svc = Timed("client.setup", &ns, [&] {
      return DocumentService::FromXml(script_.ingest_xml, opts);
    });
    if (traced_) {
      int64_t parse_ns = 0;
      int64_t compress_ns = 0;
      slg::XmlTree xml = Timed("shadow.xml.parse", &parse_ns, [&] {
        return slg::ParseXml(script_.ingest_xml).take();
      });
      Timed("shadow.pipeline.compress", &compress_ns, [&] {
        slg::LabelTable labels;
        slg::Tree bin = slg::EncodeBinary(xml, &labels);
        return slg::GrammarRePair(
                   slg::Grammar::ForTree(std::move(bin), std::move(labels)),
                   opts.compress.repair)
            .rounds;
      });
      parse_ms_ = static_cast<double>(parse_ns) / 1e6;
      compress_ms_ = static_cast<double>(compress_ns) / 1e6;
    }
    EndRequest();
    CheckStatus(svc.status(), true, "FromXml");
    r_.setup_s = static_cast<double>(ns) / 1e9;
    return svc.take();
  }

  // Opens the torn-down directory kRecoveries times (once in a traced
  // pass), each time from the same files: Open rewrites nothing on a
  // cleanly closed store, so every Open replays the same batches.
  void Recover(const slg::ServiceOptions& opts) {
    for (int i = 0; i < (traced_ ? 1 : kRecoveries); ++i) {
      int64_t replayed = CounterValue("store.journal.replayed_batches");
      BeginRequest("client.recover");
      int64_t ns = 0;
      auto svc = Timed("client.recover", &ns,
                       [&] { return DocumentService::Open(opts); });
      EndRequest();
      CheckStatus(svc.status(), true, "Open");
      replayed = CounterValue("store.journal.replayed_batches") - replayed;
      if (i == 0) {
        r_.recover_s = static_cast<double>(ns) / 1e9;
        r_.counts["store.replayed_batches"] = replayed;
      }
      r_.recover_s = std::min(r_.recover_s, static_cast<double>(ns) / 1e9);
      Expect(replayed == r_.counts["store.replayed_batches"],
             "a repeated Open replayed other batches");
      auto xml = svc.value()->OpenReader().ToXml();
      Expect(xml.ok() && xml.value() == script_.final_xml,
             "recovered document differs from the one torn down");
    }
  }

  void RunStep(const Step& s, DocumentService* svc,
               const slg::ServiceOptions& opts) {
    switch (s.kind) {
      case StepKind::kLabelAt:
        return LabelAt(s, svc);
      case StepKind::kFind:
        return Find(s, svc);
      case StepKind::kQuery:
        return Query(s, svc);
      case StepKind::kBatch:
        return Batch(s, svc);
      case StepKind::kFlush:
        return Flush(svc, opts);
    }
  }

  void LabelAt(const Step& s, DocumentService* svc) {
    DocumentService::Reader reader = svc->OpenReader();
    BeginRequest("client.label_at");
    int64_t ns = 0;
    auto got = Timed("client.label_at", &ns,
                     [&] { return reader.LabelAt(s.pos); });
    if (traced_) {
      int64_t shadow_ns = 0;
      Timed("shadow.core.label_at", &shadow_ns,
            [&] { return reader.snapshot().LabelAt(s.pos).ok(); });
      core_label_us_.push_back(static_cast<double>(shadow_ns) / 1e3);
      read_other_us_.push_back(static_cast<double>(ns - shadow_ns) / 1e3);
    }
    EndRequest();
    Served(ns);
    r_.label_us.push_back(static_cast<double>(ns) / 1e3);
    std::string what = "LabelAt(" + std::to_string(s.pos) + ")";
    CheckStatus(got.status(), true, what);
    Expect(got.value() == s.label,
           what + " = " + got.value() + ", want " + s.label);
  }

  void Find(const Step& s, DocumentService* svc) {
    DocumentService::Reader reader = svc->OpenReader();
    BeginRequest("client.find");
    int64_t ns = 0;
    auto got = Timed("client.find", &ns,
                     [&] { return reader.FindElement(s.text, s.pos); });
    if (traced_) {
      int64_t shadow_ns = 0;
      Timed("shadow.core.find", &shadow_ns, [&] {
        return reader.snapshot().FindElement(s.text, s.pos).ok();
      });
      core_find_us_.push_back(static_cast<double>(shadow_ns) / 1e3);
    }
    EndRequest();
    Served(ns);
    r_.find_us.push_back(static_cast<double>(ns) / 1e3);
    std::string what =
        "FindElement(" + s.text + ", " + std::to_string(s.pos) + ")";
    CheckStatus(got.status(), s.found, what);
    if (got.ok()) Expect(got.value() == s.value, what + " position");
  }

  void Query(const Step& s, DocumentService* svc) {
    DocumentService::Reader reader = svc->OpenReader();
    BeginRequest("client.query");
    int64_t ns = 0;
    auto got = Timed("client.query", &ns,
                     [&] { return reader.RunQuery(s.text); });
    if (traced_) {
      int64_t compile_ns = 0;
      int64_t run_ns = 0;
      auto plan = Timed("shadow.query.compile", &compile_ns, [&] {
        return slg::QueryPlan::Compile(slg::Query::Parse(s.text).take()).take();
      });
      Timed("shadow.query.run", &run_ns, [&] {
        const slg::GrammarSnapshot& snap = reader.snapshot();
        slg::QueryEngine engine(&snap.grammar(), snap.meta().get(),
                                snap.summary().get());
        return engine.Run(plan).ok();
      });
      query_compile_us_.push_back(static_cast<double>(compile_ns) / 1e3);
      query_run_ms_.push_back(static_cast<double>(run_ns) / 1e6);
    }
    EndRequest();
    Served(ns);
    r_.query_ms.push_back(static_cast<double>(ns) / 1e6);
    CheckStatus(got.status(), s.found, s.text);
    if (!got.ok()) return;
    const slg::QueryResult& q = got.value();
    Expect(q.count == s.count && q.exists == s.exists &&
               (s.value == 0 || q.position == s.value),
           s.text + " answer differs from the oracle");
    rules_visited_ += q.stats.rules_visited;
    memo_entries_ += q.stats.memo_entries;
    memo_hits_ += q.stats.memo_hits;
  }

  // The script's ops with LabelIds translated by name into the served
  // grammar's table.
  std::vector<UpdateOp> Translate(const std::vector<UpdateOp>& ops,
                                  const slg::LabelTable& served) const {
    auto map = [&](slg::LabelId l) {
      if (l == slg::kNullLabel) return l;
      const std::string& name = script_.labels.Name(l);
      slg::LabelId id = served.Find(name);
      Expect(id != slg::kNoLabel,
             "label " + name + " missing from the served table");
      return id;
    };
    std::vector<UpdateOp> out = ops;
    for (UpdateOp& op : out) {
      if (op.kind == UpdateOp::Kind::kRename) op.label = map(op.label);
      if (op.kind == UpdateOp::Kind::kInsert) {
        op.fragment.VisitPreorder(op.fragment.root(), [&](slg::NodeId v) {
          op.fragment.set_label(v, map(op.fragment.label(v)));
        });
      }
    }
    return out;
  }

  void Batch(const Step& s, DocumentService* svc) {
    DocumentService::Reader reader = svc->OpenReader();
    std::vector<UpdateOp> ops =
        Translate(script_.batches[static_cast<size_t>(s.batch)],
                  reader.snapshot().grammar().labels());
    BeginRequest("client.write");
    int64_t ns = 0;
    DocumentService::Writer writer = svc->OpenWriter();
    slg::Status st =
        Timed("client.write", &ns, [&] { return writer.Apply(ops); });
    if (traced_) {
      // Apply's steps, one public function each, on the version the
      // write started from.
      int64_t clone_ns = 0;
      int64_t update_ns = 0;
      int64_t encode_ns = 0;
      int64_t snap_ns = 0;
      slg::Grammar g = Timed("shadow.grammar.clone", &clone_ns, [&] {
        return reader.snapshot().grammar().Clone();
      });
      Timed("shadow.update.apply", &update_ns, [&] {
        slg::BatchUpdater bu(&g);
        for (const UpdateOp& op : ops) {
          Expect(bu.Apply(op).ok(), "shadow BatchUpdater rejected an op");
        }
        for (slg::LabelId r : bu.DamagedRules()) {
          if (damage_seen_.insert(r).second) damage_.push_back(r);
        }
        r_.counts["update.edges_added"] += bu.EdgesAdded();
        r_.counts["update.damaged_rules"] +=
            static_cast<int64_t>(bu.DamagedRules().size());
        return bu.Finish();
      });
      Timed("shadow.store.encode", &encode_ns,
            [&] { return slg::EncodeBatch(ops, g.labels()).size(); });
      auto snap = Timed("shadow.grammar.snapshot_build", &snap_ns, [&] {
        return slg::GrammarSnapshot::Make(std::move(g));
      });
      clone_ms_.push_back(static_cast<double>(clone_ns) / 1e6);
      update_ms_.push_back(static_cast<double>(update_ns) / 1e6);
      encode_us_.push_back(static_cast<double>(encode_ns) / 1e3);
      snapshot_ms_.push_back(static_cast<double>(snap_ns) / 1e6);
      writes_.push_back({static_cast<int>(requests_.size() - 1),
                         ns - clone_ns - update_ns - encode_ns - snap_ns});
    }
    EndRequest();
    Served(ns);
    r_.write_ms.push_back(static_cast<double>(ns) / 1e6);
    CheckStatus(st, true, "Apply(batch " + std::to_string(s.batch) + ")");
  }

  void Flush(DocumentService* svc, const slg::ServiceOptions& opts) {
    DocumentService::Reader reader = svc->OpenReader();
    BeginRequest("client.flush");
    int64_t ns = 0;
    slg::Status st = Timed("client.flush", &ns, [&] { return svc->Flush(); });
    if (traced_) {
      // The merge's repair, on the overlay it started from, seeded with
      // the union of the merged batches' damage.
      slg::Grammar work = reader.snapshot().grammar().Clone();
      int64_t repair_ns = 0;
      auto res = Timed("shadow.core.repair", &repair_ns, [&] {
        return slg::LocalizedGrammarRePair(std::move(work), damage_,
                                           opts.update.repair);
      });
      repair_ms_.push_back(static_cast<double>(repair_ns) / 1e6);
      r_.counts["core.rules_rescanned"] += res.rules_rescanned;
      r_.counts["core.repair_rounds"] += res.rounds;
      rules_at_flush_ += reader.snapshot().grammar().RuleCount();
      flushes_.push_back({static_cast<int>(requests_.size() - 1), ns});
    }
    EndRequest();
    Served(ns);
    r_.merge_ms.push_back(static_cast<double>(ns) / 1e6);
    damage_.clear();
    damage_seen_.clear();
    CheckStatus(st, true, "Flush");
  }

  // Per-layer values of a traced pass, from the shadow timings and the
  // library spans attributed to each request.
  void Layers(const std::vector<Event>& events, int64_t journal_us) {
    std::vector<int64_t> store_batch_ns(requests_.size(), 0);
    std::vector<int64_t> merge_ns(requests_.size(), 0);
    std::vector<double> checkpoint_ms;
    std::vector<double> store_batch_ms;
    double recover_ms = 0;
    for (const Event& e : events) {
      int64_t dur = e.end_ns - e.start_ns;
      if (e.name == "store.apply_batch") {
        store_batch_ms.push_back(static_cast<double>(dur) / 1e6);
        if (e.request >= 0) {
          store_batch_ns[static_cast<size_t>(e.request)] += dur;
        }
      } else if (e.name == "store.checkpoint") {
        checkpoint_ms.push_back(static_cast<double>(dur) / 1e6);
        if (e.request >= 0) merge_ns[static_cast<size_t>(e.request)] += dur;
      } else if (e.name == "service.merge") {
        if (e.request >= 0) merge_ns[static_cast<size_t>(e.request)] += dur;
      } else if (e.name == "store.recover") {
        recover_ms += static_cast<double>(dur) / 1e6;
      }
    }
    std::vector<double> write_other_ms;
    for (const auto& [req, ns] : writes_) {
      write_other_ms.push_back(
          static_cast<double>(ns - store_batch_ns[static_cast<size_t>(req)]) /
          1e6);
    }
    std::vector<double> merge_other_ms;
    for (const auto& [req, ns] : flushes_) {
      merge_other_ms.push_back(
          static_cast<double>(ns - merge_ns[static_cast<size_t>(req)]) / 1e6);
    }
    auto count = [&](const char* name) {
      return static_cast<double>(r_.counts[name]);
    };
    double rescanned = count("core.rules_rescanned");
    r_.layers = {
        {{"xml.parse_ms", "ms", true}, parse_ms_},
        {{"pipeline.compress_ms", "ms", true}, compress_ms_},
        {{"grammar.clone_ms", "ms", true}, Median(clone_ms_)},
        {{"grammar.snapshot_build_ms", "ms", true}, Median(snapshot_ms_)},
        {{"grammar.edges", "count", true}, count("grammar.edges")},
        {{"grammar.rules", "count", true}, count("grammar.rules")},
        {{"update.apply_ms", "ms", true}, Median(update_ms_)},
        {{"update.edges_added", "count", true}, count("update.edges_added")},
        {{"update.damaged_rules", "count", true},
         count("update.damaged_rules")},
        {{"core.label_at_us", "us", true}, Median(core_label_us_)},
        {{"core.find_us", "us", true}, Median(core_find_us_)},
        {{"core.repair_ms", "ms", true}, Mean(repair_ms_)},
        {{"core.rules_rescanned", "count", true}, rescanned},
        {{"core.repair_rounds", "count", true}, count("core.repair_rounds")},
        {{"core.rescan_ratio", "ratio", true},
         rescanned /
             static_cast<double>(std::max<int64_t>(rules_at_flush_, 1))},
        {{"query.compile_us", "us", true}, Median(query_compile_us_)},
        {{"query.run_ms", "ms", true}, Median(query_run_ms_)},
        {{"query.rules_visited", "count", true}, count("query.rules_visited")},
        {{"query.memo_entries", "count", true}, count("query.memo_entries")},
        {{"query.memo_hits", "count", false}, count("query.memo_hits")},
        {{"query.memo_hit_ratio", "ratio", false},
         count("query.memo_hits") /
             std::max(count("query.memo_hits") + count("query.memo_entries"),
                      1.0)},
        {{"store.encode_us", "us", true}, Median(encode_us_)},
        {{"store.journal_append_ms", "ms", true},
         static_cast<double>(journal_us) / 1e3 /
             static_cast<double>(script_.batches.size())},
        {{"store.batch_ms", "ms", true}, Median(store_batch_ms)},
        {{"store.journal_bytes", "bytes", true}, count("store.journal_bytes")},
        {{"store.fsyncs", "count", true}, count("store.fsyncs")},
        {{"store.checkpoint_ms", "ms", true}, Mean(checkpoint_ms)},
        {{"store.snapshot_bytes", "bytes", true},
         count("store.snapshot_bytes")},
        {{"store.recover_ms", "ms", true}, recover_ms},
        {{"store.replayed_batches", "count", true},
         count("store.replayed_batches")},
        {{"service.write_other_ms", "ms", true}, Median(write_other_ms)},
        {{"service.read_other_us", "us", true}, Median(read_other_us_)},
        {{"service.merge_other_ms", "ms", true}, Mean(merge_other_ms)},
        {{"service.merges", "count", true}, count("service.merges")},
    };
  }

  const WorkloadSpec& spec_;
  const Script& script_;
  const std::string dir_;
  const bool traced_;
  PassResult r_;

  // Traced passes only.
  std::vector<Request> requests_;
  std::vector<std::pair<int, int64_t>> writes_;   // request, ns minus shadows
  std::vector<std::pair<int, int64_t>> flushes_;  // request, ns
  std::vector<slg::LabelId> damage_;  // union since the last Flush
  std::unordered_set<slg::LabelId> damage_seen_;
  int64_t rules_at_flush_ = 0;
  double parse_ms_ = 0;
  double compress_ms_ = 0;
  std::vector<double> clone_ms_, update_ms_, encode_us_, snapshot_ms_;
  std::vector<double> core_label_us_, core_find_us_, repair_ms_;
  std::vector<double> query_compile_us_, query_run_ms_, read_other_us_;
  int64_t rules_visited_ = 0;
  int64_t memo_entries_ = 0;
  int64_t memo_hits_ = 0;
};

// --- the run ---------------------------------------------------------------

// The end-to-end metrics of one pass, in BENCHMARK.json order.
std::vector<std::pair<MetricDef, double>> EndToEnd(const PassResult& p) {
  return {
      {{"setup_s", "s", true}, p.setup_s},
      {{"ops_s", "1/s", false}, static_cast<double>(p.ops) / p.serving_s},
      {{"label_p50_us", "us", true}, Median(p.label_us)},
      {{"label_p90_us", "us", true}, Quantile(p.label_us, 0.9)},
      {{"find_p50_us", "us", true}, Median(p.find_us)},
      {{"query_p50_ms", "ms", true}, Median(p.query_ms)},
      {{"write_p50_ms", "ms", true}, Median(p.write_ms)},
      {{"merge_ms", "ms", true}, Mean(p.merge_ms)},
      {{"recover_s", "s", true}, p.recover_s},
      {{"space_ratio", "ratio", true}, p.space_ratio},
      {{"rss_peak_mb", "MB", true}, p.rss_peak_mb},
  };
}

// Across passes: the fastest pass of a lower-is-better metric, the
// best of a higher-is-better one.
double AcrossPasses(const std::vector<double>& per_pass, bool lower_is_better) {
  return lower_is_better
             ? *std::min_element(per_pass.begin(), per_pass.end())
             : *std::max_element(per_pass.begin(), per_pass.end());
}

// Every pass makes the same calls on the same states, so call i of one
// pass is call i of every other. The result holds, for each call, its
// fastest time over the passes, and the smallest memory peak.
PassResult FastestCalls(const std::vector<PassResult>& passes) {
  PassResult best = passes.front();
  auto fold = [&](std::vector<double> PassResult::*calls) {
    std::vector<double>& b = best.*calls;
    for (const PassResult& p : passes) {
      const std::vector<double>& v = p.*calls;
      for (size_t i = 0; i < b.size(); ++i) b[i] = std::min(b[i], v[i]);
    }
  };
  for (auto calls : {&PassResult::label_us, &PassResult::find_us,
                     &PassResult::query_ms, &PassResult::write_ms,
                     &PassResult::merge_ms}) {
    fold(calls);
  }
  for (const PassResult& p : passes) {
    best.setup_s = std::min(best.setup_s, p.setup_s);
    best.recover_s = std::min(best.recover_s, p.recover_s);
    best.rss_peak_mb = std::min(best.rss_peak_mb, p.rss_peak_mb);
  }
  double us = 0;
  for (double t : best.label_us) us += t;
  for (double t : best.find_us) us += t;
  double ms = 0;
  for (double t : best.query_ms) ms += t;
  for (double t : best.write_ms) ms += t;
  for (double t : best.merge_ms) ms += t;
  best.serving_s = us / 1e6 + ms / 1e3;
  return best;
}

const char* FlagValue(int argc, char** argv, const char* flag,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) return argv[i + 1];
  }
  return fallback;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].second);
    out += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].first.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].first.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  std::string workload = FlagValue(argc, argv, "--workload", "");
  uint64_t seed =
      std::strtoull(FlagValue(argc, argv, "--seed", "1"), nullptr, 10);
  double seconds = std::atof(FlagValue(argc, argv, "--seconds", "10"));
  bool trace = std::string(FlagValue(argc, argv, "--trace", "0")) == "1";
  std::string workdir =
      FlagValue(argc, argv, "--workdir", ".bench_build/perfbench/work");
  std::string trace_out = FlagValue(argc, argv, "--trace-out", "");
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: lifecycle --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }

  Script script = MakeScript(*spec, seed);
  std::map<StepKind, int> per_kind;
  for (const Step& s : script.steps) ++per_kind[s.kind];
  // Each reported percentile needs at least ten samples beyond it in
  // every pass: 20 for a median, 100 for label_p90_us.
  if (per_kind[StepKind::kLabelAt] < 100 || per_kind[StepKind::kFind] < 20 ||
      per_kind[StepKind::kQuery] < 20 || per_kind[StepKind::kBatch] < 20 ||
      per_kind[StepKind::kFlush] < 1) {
    std::fprintf(stderr, "workload %s has too few samples per pass\n",
                 spec->name);
    return 2;
  }

  std::string doc_dir = (fs::path(workdir) / "doc").string();
  std::string trace_path = (fs::path(workdir) / "pass-trace.json").string();
  std::vector<PassResult> passes;
  SelfTimeTable table;
  int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int min_passes = trace ? 4 : 3;
  try {
    for (int i = 0; i < min_passes || NowNs() < deadline; ++i) {
      bool traced = trace && i % 2 == 1;
      Pass pass(*spec, script, doc_dir, traced);
      int64_t pass_start = NowNs();
      passes.push_back(pass.Run(trace_path, &table, traced ? trace_out : ""));
      const PassResult& p = passes.back();
      std::string line = "pass " + std::to_string(i) +
                         (traced ? " traced" : "") + ": wall_s=" +
                         std::to_string((NowNs() - pass_start) / 1e9) +
                         " serving_s=" + std::to_string(p.serving_s);
      for (const auto& [def, v] : EndToEnd(p)) {
        line += " " + def.name + "=" + std::to_string(v);
      }
      if (i == 0) {
        line += "\ncounts:";
        for (const auto& [name, v] : p.counts) {
          line += " " + name + "=" + std::to_string(v);
        }
      }
      std::fprintf(stderr, "%s\n", line.c_str());
      // Work counts repeat exactly between passes of the same kind.
      for (const PassResult& q : passes) {
        if (q.traced != p.traced) continue;
        for (const auto& [name, v] : p.counts) {
          auto it = q.counts.find(name);
          Expect(it != q.counts.end() && it->second == v,
                 "count " + name + " differs between passes");
        }
        break;
      }
    }
  } catch (const Mismatch& m) {
    std::fprintf(stderr, "MISMATCH: %s\n", m.what());
    fs::remove_all(workdir);
    int64_t attempted = 1;
    int64_t failed = 0;
    for (const PassResult& p : passes) {
      attempted += p.attempted;
      failed += p.failed;
    }
    PrintResult(false, attempted, failed + 1, {});
    return 1;
  }
  fs::remove_all(workdir);

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  std::vector<std::pair<MetricDef, double>> out;
  if (!trace) {
    out = EndToEnd(FastestCalls(passes));
  } else {
    std::vector<const PassResult*> traced;
    std::vector<double> traced_s;
    std::vector<double> plain_s;
    for (const PassResult& p : passes) {
      (p.traced ? traced_s : plain_s).push_back(p.serving_s);
      if (p.traced) traced.push_back(&p);
    }
    std::printf("per-layer self time, %s, seed %llu, %zu traced passes\n%s",
                spec->name, static_cast<unsigned long long>(seed),
                traced.size(), table.Format().c_str());
    for (size_t m = 0; m < traced.front()->layers.size(); ++m) {
      std::vector<double> v;
      for (const PassResult* p : traced) v.push_back(p->layers[m].second);
      const MetricDef& def = traced.front()->layers[m].first;
      out.push_back({def, AcrossPasses(v, def.lower_is_better)});
    }
    double overhead = 100.0 * (AcrossPasses(traced_s, true) /
                                   AcrossPasses(plain_s, true) -
                               1.0);
    out.push_back({{"trace.overhead_pct", "%", true}, overhead});
  }
  PrintResult(failed == 0, attempted, failed, out);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
