// Batched vs per-operation update engine (the fig5/fig6-style macro
// loop, timed). For each corpus we replay the same §V-C workload (90%
// inserts / 10% deletes) and the fig6 rename workload through both
// engines:
//
//   per-op    isolate + edit (+ GC on delete) per operation — a fresh
//             RuleIndex build every single call (update_ops.h);
//   batched   one BatchUpdater per recompression period — one shared
//             index, incremental derived sizes, one GC per period.
//
// Both pipelines recompress with GrammarRePair at the same checkpoints
// (every --period operations), so the comparison isolates the engine
// cost; an apply-only pair (no recompression at all) is reported too.
// Writes BENCH_updates.json (override with --out=...) via the shared
// JSON reporter; the committed copy at the repo root records the
// numbers quoted in docs/PERF.md.
//
// A second section measures the damage-localized checkpoint engine on
// all six fig4/fig5 corpora (at --lscale, default 0.5): the same
// workload is replayed with a GrammarRePair checkpoint every --period
// ops and with a LocalizedGrammarRePair checkpoint at the identical
// ops, timing only the repair legs; an adaptive-trigger run
// (ApplyWorkloadBatched, growth_trigger --growth) reports its
// checkpoint count and final size. Grammar sizes and checkpoint
// counts are deterministic — tools/bench_compare.py gates CI on them;
// timings are advisory (1-core runners are noisy).
//
// A third section compares the two udc baseline strengths on all six
// corpora (at --uscale, default 0.2) in the canonical udc loop: the
// grammar accumulates batched updates *naively* (udc is the
// recompressor, nothing else repairs in between) and at every
// checkpoint the recompression-from-scratch reference is computed both
// as classic udc (materialize the tree, TreeRePair) and through a
// DAG-shared UdcSession (decompress to a minimal DAG against the
// session's cross-round subtree pool, forest repair over the DAG).
// Grammar sizes, the size ratio, peak-space counts and the pool reuse
// statistics are deterministic and CI-gated; timings advisory.
//
// A fourth section drives the sharded pipeline and the durable store
// on one small corpus (at --sscale, default 0.1) so a single
// instrumented run covers every subsystem: ShardedCompress (pinned
// shard and thread counts — the output and the metrics row stay
// hardware-independent), then a durable DocumentService write loop
// and a recovery Open. Journal bytes and replayed batch counts are
// read back from the metrics registry — the registry is the one
// source of truth, and the journal-bytes counter is asserted against
// the file's size on disk.
//
// Flags: --scale, --lscale, --uscale, --sscale, --updates, --lupdates,
// --period, --renames, --growth, --seed, --out; plus --trace=out.json
// and --metrics=out.json (obs::ObsSession) for a Chrome trace of the
// whole run and a JSON snapshot of every registry metric.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/bench_util/reporting.h"
#include "src/common/timer.h"
#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/stats.h"
#include "src/grammar/value.h"
#include "src/obs/metrics.h"
#include "src/obs/session.h"
#include "src/pipeline/sharded_compressor.h"
#include "src/repair/tree_repair.h"
#include "src/service/document_service.h"
#include "src/store/io.h"
#include "src/update/batch.h"
#include "src/update/udc.h"
#include "src/update/update_ops.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

// The store writes a flat directory; empty it (and drop the directory
// itself) so repeated runs start clean.
void RemoveStoreDir(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      (void)RemoveFile(JoinPath(dir, name), nullptr);
    }
  }
  std::remove(dir.c_str());
}

int Run(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  double scale = FlagDouble(argc, argv, "--scale", 0.05);
  int updates = static_cast<int>(FlagInt(argc, argv, "--updates", 400));
  int period = static_cast<int>(FlagInt(argc, argv, "--period", 100));
  int renames = static_cast<int>(FlagInt(argc, argv, "--renames", 300));
  uint64_t seed = static_cast<uint64_t>(FlagInt(argc, argv, "--seed", 7));

  std::printf(
      "Batched vs per-op update engine (scale %.3g, %d updates, "
      "recompress every %d, %d renames)\n\n",
      scale, updates, period, renames);
  TablePrinter table({"dataset", "#edges", "perop(s)", "batch(s)", "speedup",
                      "perop+rc(s)", "batch+rc(s)", "speedup", "ren/op(s)",
                      "ren/bat(s)", "speedup"});
  JsonBenchWriter json;

  std::vector<Corpus> corpora = {Corpus::kExiWeblog, Corpus::kExiTelecomp,
                                 Corpus::kMedline, Corpus::kNcbi};
  for (Corpus c : corpora) {
    const CorpusInfo& info = InfoFor(c);
    XmlTree xml = GenerateCorpus(c, scale);
    LabelTable labels;
    Tree final_tree = EncodeBinary(xml, &labels);

    WorkloadOptions wopts;
    wopts.num_ops = updates;
    wopts.seed = seed;
    UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);

    GrammarRepairOptions recompress;
    recompress.repair.require_positive_savings = true;
    Grammar seed_grammar =
        GrammarRePair(Grammar::ForTree(Tree(w.seed), labels), recompress)
            .grammar;

    // --- apply-only: the engine cost in isolation ---------------------
    Timer timer;
    Grammar perop = seed_grammar.Clone();
    for (const UpdateOp& op : w.ops) {
      SLG_CHECK(ApplyOpToGrammar(&perop, op).ok());
    }
    CollectGarbageRules(&perop);
    double perop_apply = timer.ElapsedSeconds();

    timer.Reset();
    Grammar batched = seed_grammar.Clone();
    {
      BatchUpdater batch(&batched);
      for (const UpdateOp& op : w.ops) {
        SLG_CHECK(batch.Apply(op).ok());
      }
      batch.Finish();
    }
    double batch_apply = timer.ElapsedSeconds();
    SLG_CHECK(ComputeStats(perop).edge_count ==
              ComputeStats(batched).edge_count);

    // --- full pipeline: recompress at the same checkpoints ------------
    timer.Reset();
    Grammar perop_rc = seed_grammar.Clone();
    {
      int done = 0;
      for (const UpdateOp& op : w.ops) {
        SLG_CHECK(ApplyOpToGrammar(&perop_rc, op).ok());
        if (++done % period == 0 || done == static_cast<int>(w.ops.size())) {
          perop_rc = GrammarRePair(std::move(perop_rc), recompress).grammar;
        }
      }
    }
    double perop_pipeline = timer.ElapsedSeconds();

    timer.Reset();
    Grammar batch_rc = seed_grammar.Clone();
    {
      size_t i = 0;
      while (i < w.ops.size()) {
        size_t end = std::min(i + static_cast<size_t>(period), w.ops.size());
        BatchUpdater batch(&batch_rc);
        for (; i < end; ++i) {
          SLG_CHECK(batch.Apply(w.ops[i]).ok());
        }
        batch.Finish();
        batch_rc = GrammarRePair(std::move(batch_rc), recompress).grammar;
      }
    }
    double batch_pipeline = timer.ElapsedSeconds();
    SLG_CHECK(ComputeStats(perop_rc).edge_count ==
              ComputeStats(batch_rc).edge_count);

    // --- fig6-style rename workload -----------------------------------
    std::vector<RenameOp> rops;
    {
      Tree full = Value(seed_grammar).take();
      rops = MakeRenameWorkload(full, seed_grammar.labels(), renames, seed);
    }
    timer.Reset();
    Grammar ren_perop = seed_grammar.Clone();
    for (const RenameOp& op : rops) {
      SLG_CHECK(RenameNode(&ren_perop, op.preorder, op.label).ok());
    }
    double rename_perop = timer.ElapsedSeconds();

    timer.Reset();
    Grammar ren_batch = seed_grammar.Clone();
    {
      BatchUpdater batch(&ren_batch);
      for (const RenameOp& op : rops) {
        SLG_CHECK(batch.Rename(op.preorder, op.label).ok());
      }
      batch.Finish();
    }
    double rename_batch = timer.ElapsedSeconds();

    double apply_speedup = batch_apply > 0 ? perop_apply / batch_apply : 0;
    double pipeline_speedup =
        batch_pipeline > 0 ? perop_pipeline / batch_pipeline : 0;
    double rename_speedup = rename_batch > 0 ? rename_perop / rename_batch : 0;

    table.AddRow({info.name, TablePrinter::Num(xml.EdgeCount()),
                  TablePrinter::Fixed(perop_apply, 3),
                  TablePrinter::Fixed(batch_apply, 3),
                  TablePrinter::Fixed(apply_speedup, 2),
                  TablePrinter::Fixed(perop_pipeline, 3),
                  TablePrinter::Fixed(batch_pipeline, 3),
                  TablePrinter::Fixed(pipeline_speedup, 2),
                  TablePrinter::Fixed(rename_perop, 3),
                  TablePrinter::Fixed(rename_batch, 3),
                  TablePrinter::Fixed(rename_speedup, 2)});
    json.Add(std::string("updates/") + info.name,
             {{"edges", static_cast<double>(xml.EdgeCount())},
              {"ops", static_cast<double>(updates)},
              {"period", static_cast<double>(period)},
              {"renames", static_cast<double>(renames)},
              {"perop_apply_s", perop_apply},
              {"batch_apply_s", batch_apply},
              {"apply_speedup", apply_speedup},
              {"perop_pipeline_s", perop_pipeline},
              {"batch_pipeline_s", batch_pipeline},
              {"pipeline_speedup", pipeline_speedup},
              {"perop_rename_s", rename_perop},
              {"batch_rename_s", rename_batch},
              {"rename_speedup", rename_speedup}});
  }
  table.Print();

  // --- localized vs full checkpoint recompression (fig4/fig5 corpora) --
  double lscale = FlagDouble(argc, argv, "--lscale", 0.5);
  int lupdates = static_cast<int>(FlagInt(argc, argv, "--lupdates", 400));
  double growth = FlagDouble(argc, argv, "--growth", 0.25);
  std::printf(
      "\nLocalized vs full checkpoint recompression (scale %.3g, %d "
      "updates,\ncheckpoint every %d ops, 10%% renames; adaptive trigger "
      "%.2f)\n\n",
      lscale, lupdates, period, growth);
  TablePrinter ltable({"dataset", "full-rc(s)", "local-rc(s)", "speedup",
                       "full-scans", "local-scans", "full-edges",
                       "local-edges", "ratio", "adapt(s)", "adapt-ckpts",
                       "adapt-edges"});
  for (const CorpusInfo& info : AllCorpora()) {
    XmlTree xml = GenerateCorpus(info.id, lscale);
    LabelTable labels;
    Tree final_tree = EncodeBinary(xml, &labels);
    WorkloadOptions wopts;
    wopts.num_ops = lupdates;
    wopts.seed = seed;
    wopts.rename_fraction = 0.1;
    UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);
    GrammarRepairOptions recompress;
    recompress.repair.require_positive_savings = true;
    Grammar seed_grammar =
        GrammarRePair(Grammar::ForTree(Tree(w.seed), labels), recompress)
            .grammar;

    // Identical checkpoints, repair engine the only variable; only the
    // repair legs are timed. Rounds and whole-rule index (re)scans are
    // summed over all checkpoints — both are deterministic and CI-gated
    // (a rescan count creeping back toward rounds * #rules means a
    // sweep silently stopped being damage-proportional). The sums are
    // read as metrics-registry deltas around each replay: the repair
    // drivers publish repair.rounds / repair.rules_rescanned
    // themselves, so the bench no longer keeps its own accumulators.
    obs::Counter& rounds_counter =
        obs::MetricsRegistry::Global().GetCounter("repair.rounds");
    obs::Counter& rescanned_counter =
        obs::MetricsRegistry::Global().GetCounter("repair.rules_rescanned");
    auto replay = [&](bool localized, double* repair_s) {
      Grammar g = seed_grammar.Clone();
      size_t i = 0;
      while (i < w.ops.size()) {
        size_t end = std::min(i + static_cast<size_t>(period), w.ops.size());
        BatchUpdater batch(&g);
        for (; i < end; ++i) {
          SLG_CHECK(batch.Apply(w.ops[i]).ok());
        }
        batch.Finish();
        std::vector<LabelId> damage = batch.DamagedRules();
        Timer t;
        GrammarRepairResult r =
            localized
                ? LocalizedGrammarRePair(std::move(g), damage, recompress)
                : GrammarRePair(std::move(g), recompress);
        *repair_s += t.ElapsedSeconds();
        g = std::move(r.grammar);
      }
      return ComputeStats(g).edge_count;
    };
    double full_rc = 0, local_rc = 0;
    int64_t rounds_before = rounds_counter.Value();
    int64_t rescanned_before = rescanned_counter.Value();
    int64_t full_edges = replay(false, &full_rc);
    int64_t full_rounds = rounds_counter.Value() - rounds_before;
    int64_t full_rescanned = rescanned_counter.Value() - rescanned_before;
    rounds_before = rounds_counter.Value();
    rescanned_before = rescanned_counter.Value();
    int64_t local_edges = replay(true, &local_rc);
    int64_t local_rounds = rounds_counter.Value() - rounds_before;
    int64_t local_rescanned = rescanned_counter.Value() - rescanned_before;

    Timer adapt_timer;
    UpdateOptions aopts;
    aopts.repair = recompress;
    aopts.growth_trigger = growth;
    auto adaptive =
        ApplyWorkloadBatched(seed_grammar.Clone(), w.ops, aopts);
    SLG_CHECK(adaptive.ok());
    double adapt_s = adapt_timer.ElapsedSeconds();
    int64_t adapt_edges = ComputeStats(adaptive.value().grammar).edge_count;
    int adapt_ckpts =
        static_cast<int>(adaptive.value().checkpoint_schedule.size());

    double local_speedup = local_rc > 0 ? full_rc / local_rc : 0;
    double size_ratio = full_edges > 0 ? static_cast<double>(local_edges) /
                                             static_cast<double>(full_edges)
                                       : 0;
    ltable.AddRow({info.name, TablePrinter::Fixed(full_rc, 3),
                   TablePrinter::Fixed(local_rc, 3),
                   TablePrinter::Fixed(local_speedup, 2),
                   TablePrinter::Num(full_rescanned),
                   TablePrinter::Num(local_rescanned),
                   TablePrinter::Num(full_edges), TablePrinter::Num(local_edges),
                   TablePrinter::Fixed(size_ratio, 4),
                   TablePrinter::Fixed(adapt_s, 3),
                   TablePrinter::Num(adapt_ckpts),
                   TablePrinter::Num(adapt_edges)});
    json.Add(std::string("localized/") + info.name,
             {{"edges", static_cast<double>(xml.EdgeCount())},
              {"ops", static_cast<double>(lupdates)},
              {"period", static_cast<double>(period)},
              {"full_checkpoint_s", full_rc},
              {"localized_checkpoint_s", local_rc},
              {"localized_speedup", local_speedup},
              {"full_rounds", static_cast<double>(full_rounds)},
              {"full_rescanned", static_cast<double>(full_rescanned)},
              {"localized_rounds", static_cast<double>(local_rounds)},
              {"localized_rescanned", static_cast<double>(local_rescanned)},
              {"full_final_edges", static_cast<double>(full_edges)},
              {"localized_final_edges", static_cast<double>(local_edges)},
              {"localized_vs_full_edges", size_ratio},
              {"adaptive_s", adapt_s},
              {"adaptive_checkpoint_count", static_cast<double>(adapt_ckpts)},
              {"adaptive_final_edges", static_cast<double>(adapt_edges)}});
  }
  ltable.Print();

  // --- classic vs DAG-shared udc baseline (all six corpora) ------------
  double uscale = FlagDouble(argc, argv, "--uscale", 0.2);
  std::printf(
      "\nClassic vs DAG-shared udc baseline (scale %.3g, %d updates, "
      "checkpoint\nevery %d ops, 10%% renames); times summed over all "
      "checkpoints\n\n",
      uscale, updates, period);
  TablePrinter utable({"dataset", "cl-dec(s)", "cl-comp(s)", "dag-dec(s)",
                       "dag-comp(s)", "comp-spd", "cl-edges", "dag-edges",
                       "ratio", "tree-peak",
                       "dag-peak", "reused"});
  for (const CorpusInfo& info : AllCorpora()) {
    XmlTree xml = GenerateCorpus(info.id, uscale);
    LabelTable labels;
    Tree final_tree = EncodeBinary(xml, &labels);
    WorkloadOptions wopts;
    wopts.num_ops = updates;
    wopts.seed = seed;
    wopts.rename_fraction = 0.1;
    UpdateWorkload w = MakeUpdateWorkload(final_tree, labels, wopts);
    GrammarRepairOptions recompress;
    recompress.repair.require_positive_savings = true;
    Grammar g =
        GrammarRePair(Grammar::ForTree(Tree(w.seed), labels), recompress)
            .grammar;

    UdcOptions dag_opts;
    dag_opts.mode = UdcOptions::Mode::kDagShared;
    UdcSession dag_session(dag_opts);

    double classic_dec = 0, classic_comp = 0, dag_dec = 0, dag_comp = 0;
    int64_t classic_edges = 0, dag_edges = 0;
    int64_t tree_peak = 0, dag_peak = 0, pool_final = 0, reused_total = 0;
    size_t i = 0;
    while (i < w.ops.size()) {
      size_t end = std::min(i + static_cast<size_t>(period), w.ops.size());
      {
        BatchUpdater batch(&g);
        for (; i < end; ++i) {
          SLG_CHECK(batch.Apply(w.ops[i]).ok());
        }
        batch.Finish();
      }

      auto classic = UpdateDecompressCompress(g);
      SLG_CHECK(classic.ok());
      classic_dec += classic.value().decompress_seconds;
      classic_comp += classic.value().compress_seconds;
      classic_edges = ComputeStats(classic.value().grammar).edge_count;
      tree_peak = std::max(tree_peak, classic.value().tree_nodes);

      auto dag = dag_session.Run(g);
      SLG_CHECK(dag.ok());
      dag_dec += dag.value().decompress_seconds;
      dag_comp += dag.value().compress_seconds;
      dag_edges = ComputeStats(dag.value().grammar).edge_count;
      dag_peak = std::max(dag_peak, dag.value().dag_nodes);
      pool_final = dag.value().pool_nodes;
      reused_total += dag.value().rules_reused;
      SLG_CHECK(dag.value().dag_nodes < classic.value().tree_nodes);
      SLG_CHECK(dag.value().tree_nodes == classic.value().tree_nodes);
      SLG_CHECK(ValueNodeCount(dag.value().grammar) ==
                classic.value().tree_nodes);
    }
    double comp_speedup = dag_comp > 0 ? classic_comp / dag_comp : 0;
    double size_ratio = classic_edges > 0
                            ? static_cast<double>(dag_edges) /
                                  static_cast<double>(classic_edges)
                            : 0;
    utable.AddRow({info.name, TablePrinter::Fixed(classic_dec, 3),
                   TablePrinter::Fixed(classic_comp, 3),
                   TablePrinter::Fixed(dag_dec, 3),
                   TablePrinter::Fixed(dag_comp, 3),
                   TablePrinter::Fixed(comp_speedup, 2),
                   TablePrinter::Num(classic_edges),
                   TablePrinter::Num(dag_edges),
                   TablePrinter::Fixed(size_ratio, 4),
                   TablePrinter::Num(tree_peak), TablePrinter::Num(dag_peak),
                   TablePrinter::Num(reused_total)});
    json.Add(std::string("udc/") + info.name,
             {{"edges", static_cast<double>(xml.EdgeCount())},
              {"ops", static_cast<double>(updates)},
              {"period", static_cast<double>(period)},
              {"classic_decompress_s", classic_dec},
              {"classic_compress_s", classic_comp},
              {"dag_decompress_s", dag_dec},
              {"dag_compress_s", dag_comp},
              {"dag_compress_speedup", comp_speedup},
              {"udc_classic_edges", static_cast<double>(classic_edges)},
              {"udc_dag_edges", static_cast<double>(dag_edges)},
              {"udc_dag_vs_classic_edges", size_ratio},
              {"tree_nodes_peak", static_cast<double>(tree_peak)},
              {"dag_nodes_peak", static_cast<double>(dag_peak)},
              {"dag_pool_nodes", static_cast<double>(pool_final)},
              {"dag_rules_reused", static_cast<double>(reused_total)}});
  }
  utable.Print();

  // --- sharded pipeline + durable store (one small corpus) -------------
  // Pinned shard/thread counts: the grammar and the metrics row depend
  // on the shard count only, so the numbers are identical on any
  // machine. Journal bytes and replayed batches come from the metrics
  // registry (the store publishes them); the byte counter is checked
  // against the journal's on-disk size.
  double sscale = FlagDouble(argc, argv, "--sscale", 0.1);
  std::printf(
      "\nSharded pipeline + durable store (EXI-Weblog, scale %.3g)\n\n",
      sscale);
  TablePrinter stable({"dataset", "#edges", "shards", "sharded-edges",
                       "journal KiB", "batches", "replayed", "rec-edges"});
  {
    const CorpusInfo& info = InfoFor(Corpus::kExiWeblog);
    XmlTree xml = GenerateCorpus(Corpus::kExiWeblog, sscale);
    LabelTable labels;
    Tree bin = EncodeBinary(xml, &labels);

    ShardedCompressorOptions sopts;
    sopts.num_shards = 4;
    sopts.num_threads = 2;
    sopts.min_shard_nodes = 512;
    sopts.final_repair = FinalRepairMode::kFull;
    sopts.merge_repair.repair.require_positive_savings = true;
    ShardedCompressResult sharded =
        ShardedCompress(Tree(bin), labels, sopts);
    int64_t sharded_edges = ComputeStats(sharded.grammar).edge_count;

    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    obs::Counter& journal_bytes_counter =
        reg.GetCounter("store.journal.append_bytes");
    obs::Counter& replayed_counter =
        reg.GetCounter("store.journal.replayed_batches");

    WorkloadOptions wopts;
    wopts.num_ops = 80;
    wopts.rename_fraction = 0.1;
    wopts.seed = seed;
    UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
    GrammarRepairOptions recompress;
    recompress.repair.require_positive_savings = true;
    Grammar store_seed =
        GrammarRePair(Grammar::ForTree(Tree(w.seed), labels), recompress)
            .grammar;

    std::string dir = "bench_updates_store";
    RemoveStoreDir(dir);
    ServiceOptions sopts_durable;
    sopts_durable.update.growth_trigger = 0;  // no merges: one journal file
    sopts_durable.durable_dir = dir;
    sopts_durable.journal.policy = FsyncPolicy::kEveryN;
    sopts_durable.journal.every_n = 8;
    int64_t bytes_before = journal_bytes_counter.Value();
    constexpr int kBatch = 4;
    int64_t batches = 0;
    {
      auto svc =
          DocumentService::FromGrammar(store_seed.Clone(), sopts_durable);
      SLG_CHECK(svc.ok());
      DocumentService::Writer writer = svc.value()->OpenWriter();
      for (size_t i = 0; i < w.ops.size(); i += kBatch) {
        size_t end = std::min(w.ops.size(), i + kBatch);
        std::vector<UpdateOp> batch(w.ops.begin() + static_cast<int64_t>(i),
                                    w.ops.begin() + static_cast<int64_t>(end));
        SLG_CHECK(writer.Apply(batch).ok());
        ++batches;
      }
    }  // closing syncs the batches the policy left unsynced
    int64_t journal_bytes = journal_bytes_counter.Value() - bytes_before;
    // The registry's byte count is the journal's size — the counter
    // includes the file header, so the two agree exactly.
    SLG_CHECK(journal_bytes ==
              FileSize(JoinPath(dir, JournalFileName(1))).value());

    int64_t replayed_before = replayed_counter.Value();
    auto back = DocumentService::Open(sopts_durable);
    SLG_CHECK(back.ok());
    int64_t replayed = replayed_counter.Value() - replayed_before;
    int64_t recovered_edges = back.value()->OpenReader().CompressedSize();
    back.value().reset();
    RemoveStoreDir(dir);

    stable.AddRow({info.name, TablePrinter::Num(xml.EdgeCount()),
                   TablePrinter::Num(sharded.shards_used),
                   TablePrinter::Num(sharded_edges),
                   TablePrinter::Num(journal_bytes / 1024),
                   TablePrinter::Num(batches), TablePrinter::Num(replayed),
                   TablePrinter::Num(recovered_edges)});
    json.Add(std::string("store/") + info.name,
             {{"edges", static_cast<double>(xml.EdgeCount())},
              {"shards", static_cast<double>(sharded.shards_used)},
              {"sharded_edges", static_cast<double>(sharded_edges)},
              {"journal_bytes", static_cast<double>(journal_bytes)},
              {"batches", static_cast<double>(batches)},
              {"replayed_batches", static_cast<double>(replayed)},
              {"recovered_edges", static_cast<double>(recovered_edges)}});
  }
  stable.Print();

  std::string out = FlagString(argc, argv, "--out", "BENCH_updates.json");
  if (json.WriteTo(out)) {
    std::printf("\nwrote %s\n", out.c_str());
  } else {
    std::printf("\nfailed to write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace slg

int main(int argc, char** argv) { return slg::Run(argc, argv); }
