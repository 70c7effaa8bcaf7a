// Durable serving overhead: write cost per fsync policy, and recovery
// (Open) cost as a function of journal length.
//
// Section 1 replays the same batched §V-C workload through a durable
// DocumentService once per fsync policy (kNone / kEveryBatch /
// kEveryN=8) with merges disabled (growth_trigger 0, no Flush), so the
// runs differ only in when the journal fsyncs. Journal bytes, op and
// batch counts are deterministic context; write timings (clone, apply,
// journal, publish, and the final close) are advisory (CI runners are
// 1-core and noisy, and fsync cost is filesystem-dependent).
//
// Section 2 builds a document whose journal holds L committed batches
// (L in 25,50,100 and every batch the workload holds, at most 200),
// closes it, and times DocumentService::Open —
// snapshot decode + CRC check + replay of every batch through the
// service's apply path + one snapshot build. Replayed batch counts and
// the recovered grammar's edge count are deterministic and CI-gated
// via tools/bench_compare.py; recovery timings are advisory.
//
// Writes BENCH_durability.json (override with --out=...); the
// committed copy at the repo root records the numbers quoted in
// docs/DURABILITY.md.
//
// Flags: --scale, --batches, --batch, --seed, --out, --dir.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/bench_util/reporting.h"
#include "src/common/timer.h"
#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/session.h"
#include "src/service/document_service.h"
#include "src/store/io.h"
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

struct Prepared {
  Grammar start;
  std::vector<std::vector<UpdateOp>> batches;
};

Prepared PrepareWorkload(double scale, int num_batches, int batch_size,
                         uint64_t seed) {
  XmlTree xml = GenerateCorpus(Corpus::kExiWeblog, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = num_batches * batch_size;
  wopts.rename_fraction = 0.15;
  wopts.seed = seed;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Prepared p;
  p.start = GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), {})
                .grammar;
  for (size_t i = 0; i < w.ops.size(); i += static_cast<size_t>(batch_size)) {
    size_t end = std::min(w.ops.size(), i + static_cast<size_t>(batch_size));
    p.batches.emplace_back(w.ops.begin() + i, w.ops.begin() + end);
  }
  return p;
}

ServiceOptions StoreOptions(const std::string& dir, FsyncPolicy policy,
                            int every_n) {
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // no merges: isolate append/replay cost
  opts.durable_dir = dir;
  opts.journal.policy = policy;
  opts.journal.every_n = every_n;
  return opts;
}

// Applies batches[0, count) through one writer; false on the first
// failure (reported on stderr).
bool ApplyAll(DocumentService* svc,
              const std::vector<std::vector<UpdateOp>>& batches,
              size_t count) {
  DocumentService::Writer writer = svc->OpenWriter();
  for (size_t i = 0; i < count; ++i) {
    Status s = writer.Apply(batches[i]);
    if (!s.ok()) {
      std::fprintf(stderr, "Apply failed: %s\n", s.ToString().c_str());
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  double scale = FlagDouble(argc, argv, "--scale", 0.02);
  int num_batches = static_cast<int>(FlagInt(argc, argv, "--batches", 50));
  int batch_size = static_cast<int>(FlagInt(argc, argv, "--batch", 4));
  uint64_t seed = static_cast<uint64_t>(FlagInt(argc, argv, "--seed", 11));
  std::string out = FlagString(argc, argv, "--out", "BENCH_durability.json");
  std::string base_dir =
      FlagString(argc, argv, "--dir", "bench_durability_store");

  JsonBenchWriter json;

  // The journal publishes its own byte and replay counters to the
  // metrics registry; both sections read them back as deltas instead
  // of stat()ing files or poking recovery stats. The byte counter
  // includes the journal file header, so a writer-lifetime delta is
  // exactly the file's size — section 1 asserts that equivalence.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& journal_bytes_counter =
      reg.GetCounter("store.journal.append_bytes");
  obs::Counter& replayed_counter =
      reg.GetCounter("store.journal.replayed_batches");

  // ---- Section 1: journal append cost per fsync policy ---------------
  std::printf("Journal append (scale %.3g, %d batches x %d ops)\n\n", scale,
              num_batches, batch_size);
  TablePrinter append_table(
      {"policy", "batches", "ops", "journal KiB", "write(ms)", "ms/batch"});
  Prepared p = PrepareWorkload(scale, num_batches, batch_size, seed);

  struct PolicyRow {
    const char* name;
    FsyncPolicy policy;
    int every_n;
  };
  const PolicyRow kPolicies[] = {
      {"none", FsyncPolicy::kNone, 8},
      {"every-batch", FsyncPolicy::kEveryBatch, 8},
      {"every-8", FsyncPolicy::kEveryN, 8},
  };
  for (const PolicyRow& row : kPolicies) {
    std::string dir = base_dir + "-append-" + row.name;
    RemoveStoreDir(dir);
    int64_t bytes_before = journal_bytes_counter.Value();
    auto svc = DocumentService::FromGrammar(
        p.start.Clone(), StoreOptions(dir, row.policy, row.every_n));
    if (!svc.ok()) {
      std::fprintf(stderr, "FromGrammar failed: %s\n",
                   svc.status().ToString().c_str());
      return 1;
    }
    Timer timer;
    int64_t ops = 0;
    for (const std::vector<UpdateOp>& batch : p.batches) {
      ops += static_cast<int64_t>(batch.size());
    }
    if (!ApplyAll(svc.value().get(), p.batches, p.batches.size())) return 1;
    svc.value().reset();  // closing syncs what the policy left unsynced
    double ms = timer.ElapsedMillis();
    int64_t journal_bytes = journal_bytes_counter.Value() - bytes_before;
    SLG_CHECK(journal_bytes ==
              FileSize(JoinPath(dir, JournalFileName(1))).value());
    append_table.AddRow(
        {row.name, TablePrinter::Num(num_batches), TablePrinter::Num(ops),
         TablePrinter::Num(journal_bytes / 1024), TablePrinter::Fixed(ms, 1),
         TablePrinter::Fixed(ms / num_batches, 3)});
    json.Add(std::string("durability/append/") + row.name,
             {{"batches", static_cast<double>(num_batches)},
              {"ops", static_cast<double>(ops)},
              {"journal_bytes", static_cast<double>(journal_bytes)},
              {"append_ms", ms}});
    RemoveStoreDir(dir);
  }
  append_table.Print();

  // ---- Section 2: recovery cost vs journal length --------------------
  std::vector<int> lengths = {25, 50, 100, 200};
  std::printf("\nRecovery (Open) vs journal length\n\n");
  TablePrinter recover_table({"journal batches", "journal KiB", "edges",
                              "open(ms)", "ms/batch"});
  Prepared big = PrepareWorkload(scale, lengths.back(), batch_size, seed + 1);
  // The generator stops once its backward walk has emptied the
  // document, so the longest journal holds every batch it made.
  lengths.back() =
      std::min(lengths.back(), static_cast<int>(big.batches.size()));
  for (int len : lengths) {
    std::string dir = base_dir + "-recover-" + std::to_string(len);
    RemoveStoreDir(dir);
    ServiceOptions opts = StoreOptions(dir, FsyncPolicy::kEveryBatch, 8);
    int64_t bytes_before = journal_bytes_counter.Value();
    {
      auto svc = DocumentService::FromGrammar(big.start.Clone(), opts);
      if (!svc.ok()) {
        std::fprintf(stderr, "FromGrammar failed: %s\n",
                     svc.status().ToString().c_str());
        return 1;
      }
      if (!ApplyAll(svc.value().get(), big.batches,
                    static_cast<size_t>(len))) {
        return 1;
      }
    }
    int64_t journal_bytes = journal_bytes_counter.Value() - bytes_before;
    int64_t replayed_before = replayed_counter.Value();
    Timer timer;
    auto back = DocumentService::Open(opts);
    double ms = timer.ElapsedMillis();
    if (!back.ok()) {
      std::fprintf(stderr, "Open failed: %s\n",
                   back.status().ToString().c_str());
      return 1;
    }
    int64_t replayed = replayed_counter.Value() - replayed_before;
    int64_t edges = back.value()->OpenReader().CompressedSize();
    recover_table.AddRow({TablePrinter::Num(replayed),
                          TablePrinter::Num(journal_bytes / 1024),
                          TablePrinter::Num(edges),
                          TablePrinter::Fixed(ms, 1),
                          TablePrinter::Fixed(ms / len, 3)});
    json.Add("durability/recover/L" + std::to_string(len),
             {{"batches", static_cast<double>(len)},
              {"journal_bytes", static_cast<double>(journal_bytes)},
              {"replayed_batches", static_cast<double>(replayed)},
              {"recovered_edges", static_cast<double>(edges)},
              {"recover_ms", ms}});
    back.value().reset();
    RemoveStoreDir(dir);
  }
  recover_table.Print();

  if (!json.WriteTo(out)) {
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  } else {
    std::printf("\nwrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace slg

int main(int argc, char** argv) { return slg::Run(argc, argv); }
