// Crash-consistency proof obligations for durable serving
// (DocumentService with durable_dir set, over src/store/):
//
//  * crash matrix — a fault-free recording pass counts every
//    injectable I/O operation of a FromGrammar + batches + Flush +
//    destroy scenario; then, for every operation index and three crash
//    flavors (clean crash, torn+bit-flipped write, power loss dropping
//    unsynced bytes), the scenario is crashed there, reopened, and the
//    recovered effective grammar must be byte-identical
//    (SerializeGrammar) to a committed-prefix state — never a torn
//    in-between;
//  * fsync-policy equivalence — under the power-loss model, kNone /
//    kEveryN / kEveryBatch all recover committed prefixes, and
//    kEveryBatch never loses an acknowledged batch;
//  * corruption sweep — every byte flip and every truncation of every
//    on-disk file must leave Open returning a Status (possibly
//    falling back a generation), never crashing, and any grammar it
//    does return must validate;
//  * snapshot fallback — a corrupt or unpublished newest snapshot is
//    rebuilt by re-running the merge on the sealed journal's folded
//    prefix, byte-identical, and healed on disk;
//  * reopen determinism — close + reopen mid-workload, then a later
//    Flush, yields the same grammar bytes as one continuous run, on
//    all six corpora: recovery rebuilds the unmerged batches' damage,
//    so the next merge is the uninterrupted one;
//  * a clean Open writes nothing, and replays only what the last
//    merge left unmerged.
//
// Every scenario merges only on Flush (growth_trigger 0), so the I/O
// sequence — and with it the crash-matrix domain — is deterministic.
// A rotation that carries batches acknowledged during its merge is
// written through DocumentStore directly, for the same reason.
// The committed-prefix chain comes from a test-local mirror that
// reimplements decode-apply-merge from the public pieces; the
// reference run asserts served == mirror at every step.

#include "src/service/document_service.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/validate.h"
#include "src/obs/metrics.h"
#include "src/store/crc32c.h"
#include "src/store/document_store.h"
#include "src/store/io.h"
#include "src/store/journal.h"
#include "src/store/snapshot.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_tree.h"

namespace slg {
namespace {

// --------------------------------------------------------------------
// Filesystem scratch helpers.

void RemoveTree(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      ::unlink(JoinPath(dir, name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

std::string NewDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "slg_store_" + tag + "_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(++counter);
  RemoveTree(dir);
  return dir;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

std::string ReadRaw(const std::string& path) {
  std::string bytes;
  Status s = ReadFileToString(path, &bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return bytes;
}

// Every file of `dir`, by name.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> files;
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  EXPECT_TRUE(names.ok()) << names.status().ToString();
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      files[name] = ReadRaw(JoinPath(dir, name));
    }
  }
  return files;
}

int64_t ReplayedBatches() {
  return obs::MetricsRegistry::Global()
      .GetCounter("store.journal.replayed_batches")
      .Value();
}

// --------------------------------------------------------------------
// Scenario: a starting grammar plus a batched workload, with Flush()
// after the batches listed in flush_after.

struct Scenario {
  Grammar start;
  std::vector<std::vector<UpdateOp>> batches;
  std::set<int> flush_after;
  int NumSteps() const {
    return static_cast<int>(batches.size() + flush_after.size());
  }
};

void MakeScenario(Corpus corpus, double scale, int num_ops, int batch_size,
                  uint64_t seed, Scenario* sc) {
  XmlTree xml = GenerateCorpus(corpus, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  WorkloadOptions wopts;
  wopts.num_ops = num_ops;
  wopts.seed = seed;
  wopts.rename_fraction = 0.15;  // exercise the rename leg of the codec
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  GrammarRepairOptions ropts;
  ropts.repair.require_positive_savings = true;
  sc->start =
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels), ropts)
          .grammar;
  for (size_t at = 0; at < w.ops.size(); at += batch_size) {
    size_t end = std::min(w.ops.size(), at + batch_size);
    sc->batches.emplace_back(w.ops.begin() + at, w.ops.begin() + end);
  }
  const int n = static_cast<int>(sc->batches.size());
  sc->flush_after = {n / 3, 2 * n / 3};
}

ServiceOptions DurableOpts(const std::string& dir,
                           FaultInjector* fi = nullptr) {
  ServiceOptions opts;
  opts.update.growth_trigger = 0;  // merge only on Flush()
  opts.durable_dir = dir;
  opts.fault_injector = fi;
  return opts;
}

std::string ServedBytes(const DocumentService& svc) {
  return SerializeGrammar(svc.OpenReader().snapshot().grammar());
}

struct RunOutcome {
  bool create_ok = false;
  int acked = 0;  // steps (Apply / Flush) that returned Ok
};

// Runs the scenario to its end or its first failed step, then destroys
// the service (which closes the journal).
RunOutcome RunScenario(const Scenario& sc, const ServiceOptions& opts) {
  RunOutcome out;
  auto created = DocumentService::FromGrammar(sc.start.Clone(), opts);
  if (!created.ok()) return out;
  out.create_ok = true;
  std::unique_ptr<DocumentService> svc = created.take();
  DocumentService::Writer writer = svc->OpenWriter();
  for (size_t i = 0; i < sc.batches.size(); ++i) {
    if (!writer.Apply(sc.batches[i]).ok()) return out;
    ++out.acked;
    if (sc.flush_after.count(static_cast<int>(i)) > 0) {
      if (!svc->Flush().ok()) return out;
      ++out.acked;
    }
  }
  return out;
}

// --------------------------------------------------------------------
// Mirror: decode-apply-merge reimplemented from the public pieces, in
// place on one grammar, used to enumerate every committed-prefix state
// a crash may recover to.

class Mirror {
 public:
  explicit Mirror(Grammar g) : g_(std::move(g)) {}

  void Apply(const std::vector<UpdateOp>& ops) {
    std::vector<UpdateOp> decoded;
    ASSERT_TRUE(
        DecodeBatch(EncodeBatch(ops, g_.labels()), &g_.labels(), &decoded)
            .ok());
    BatchUpdater batch(&g_);
    for (const UpdateOp& op : decoded) ASSERT_TRUE(batch.Apply(op).ok());
    batch.Finish();
    for (LabelId rule : batch.DamagedRules()) {
      if (seen_.insert(rule).second) damage_.push_back(rule);
    }
  }

  void Merge() {
    UpdateOptions update;
    g_ = LocalizedGrammarRePair(std::move(g_), damage_, update.repair).grammar;
    g_.CompactOwnedBodies();  // as the service's merge does
    damage_.clear();
    seen_.clear();
  }

  const Grammar& grammar() const { return g_; }
  std::string Bytes() const { return SerializeGrammar(g_); }

 private:
  Grammar g_;
  std::vector<LabelId> damage_;
  std::unordered_set<LabelId> seen_;
};

struct Reference {
  // Every committed-prefix state, in commit order: after FromGrammar,
  // then after each step.
  std::vector<std::string> chain;
  // chain index reached after step s completes (index 0 = after
  // FromGrammar); size NumSteps() + 1.
  std::vector<int> pos_after_step;
};

void BuildReference(const Scenario& sc, Reference* ref) {
  std::string dir = NewDir("ref");
  auto created = DocumentService::FromGrammar(sc.start.Clone(),
                                              DurableOpts(dir));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<DocumentService> svc = created.take();
  DocumentService::Writer writer = svc->OpenWriter();
  Mirror mirror(sc.start.Clone());
  auto step = [&]() {
    ref->chain.push_back(mirror.Bytes());
    ref->pos_after_step.push_back(static_cast<int>(ref->chain.size()) - 1);
    // The load-bearing assertion: the served grammar is byte-identical
    // to the mirror's in-place replay at every step — exactly why
    // recovery reproduces served states.
    ASSERT_EQ(ServedBytes(*svc), ref->chain.back())
        << "served and mirrored state diverge after step "
        << ref->chain.size() - 1;
  };
  ASSERT_NO_FATAL_FAILURE(step());
  for (size_t i = 0; i < sc.batches.size(); ++i) {
    Status applied = writer.Apply(sc.batches[i]);
    ASSERT_TRUE(applied.ok()) << applied.ToString();
    ASSERT_NO_FATAL_FAILURE(mirror.Apply(sc.batches[i]));
    ASSERT_NO_FATAL_FAILURE(step());
    if (sc.flush_after.count(static_cast<int>(i)) > 0) {
      ASSERT_TRUE(svc->Flush().ok());
      mirror.Merge();
      ASSERT_NO_FATAL_FAILURE(step());
    }
  }
  svc.reset();
  RemoveTree(dir);
}

// Asserts `got` matches some chain state in [lo, hi].
void ExpectCommittedPrefix(const Reference& ref, const std::string& got,
                           int lo, int hi, const std::string& context) {
  for (int j = lo; j <= hi; ++j) {
    if (ref.chain[static_cast<size_t>(j)] == got) return;
  }
  ADD_FAILURE() << context << ": recovered grammar matches no committed "
                << "prefix state in chain[" << lo << ".." << hi << "]";
}

// The recovered document must take writes and merges again: a Flush
// (which rotates when batches were replayed) and a rename of the root
// to its own tag.
void ExpectUsable(DocumentService* svc, const std::string& context) {
  Status flushed = svc->Flush();
  EXPECT_TRUE(flushed.ok()) << context << ": " << flushed.ToString();
  StatusOr<std::string> root = svc->OpenReader().LabelAt(1);
  ASSERT_TRUE(root.ok()) << context;
  Status renamed = svc->OpenWriter().Rename(1, root.value());
  EXPECT_TRUE(renamed.ok()) << context << ": " << renamed.ToString();
}

// --------------------------------------------------------------------
// Crash matrix.

// The three crash flavors: a clean crash, a torn write with a flipped
// bit, and a power loss that drops unsynced bytes.
struct Mode {
  const char* name;
  double fraction;
  bool flip;
  bool drop;

  FaultInjector::Plan PlanAt(int64_t k) const {
    FaultInjector::Plan plan;
    plan.crash_at = k;
    plan.short_write_fraction = fraction;
    plan.flip_bit = flip;
    plan.drop_unsynced = drop;
    return plan;
  }
};

TEST(DurableServiceCrashMatrix, EveryCrashPointRecoversCommittedPrefix) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.02, 24, 3, 11, &sc);
  Reference ref;
  ASSERT_NO_FATAL_FAILURE(BuildReference(sc, &ref));
  const int S = sc.NumSteps();

  // Recording pass: enumerate the injection domain.
  FaultInjector counter;
  {
    std::string dir = NewDir("count");
    RunOutcome r = RunScenario(sc, DurableOpts(dir, &counter));
    ASSERT_TRUE(r.create_ok);
    ASSERT_EQ(r.acked, S);
    RemoveTree(dir);
  }
  const int64_t total_ops = counter.ops_seen();
  ASSERT_GT(total_ops, 30) << "scenario exercises too few I/O points";

  const Mode kModes[] = {
      {"crash", 1.0, false, false},
      {"torn+flip", 0.5, true, false},
      {"powerloss", 1.0, false, true},
  };
  for (const Mode& mode : kModes) {
    for (int64_t k = 0; k < total_ops; ++k) {
      FaultInjector fi(mode.PlanAt(k));
      std::string dir = NewDir("crash");
      RunOutcome r = RunScenario(sc, DurableOpts(dir, &fi));
      ASSERT_TRUE(fi.crashed()) << mode.name << " k=" << k;
      const std::string context =
          std::string(mode.name) + " at op " + std::to_string(k);

      auto opened = DocumentService::Open(DurableOpts(dir));
      if (!r.create_ok) {
        // FromGrammar died before acknowledging: either nothing
        // durable exists yet, or the generation-1 document survives.
        if (opened.ok()) {
          EXPECT_EQ(ServedBytes(*opened.value()), ref.chain[0]) << context;
        } else {
          EXPECT_EQ(opened.status().code(), StatusCode::kNotFound) << context;
        }
        RemoveTree(dir);
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << context << ": " << opened.status().ToString();
      std::unique_ptr<DocumentService> svc = opened.take();
      const Grammar& g = svc->OpenReader().snapshot().grammar();
      Status valid = Validate(g);
      EXPECT_TRUE(valid.ok()) << context << ": " << valid.ToString();
      const int lo = ref.pos_after_step[static_cast<size_t>(r.acked)];
      const int hi =
          ref.pos_after_step[static_cast<size_t>(std::min(r.acked + 1, S))];
      ExpectCommittedPrefix(ref, SerializeGrammar(g), lo, hi, context);
      // Subsample: the recovered document must be fully usable.
      if (k % 7 == 0) ExpectUsable(svc.get(), context);
      svc.reset();
      RemoveTree(dir);
    }
  }
}

// A rotation that carries a tail: the merge folded batches 0-1 while
// batches 2-3 were acknowledged, so journal 2 starts with 2-3. Writes
// racing a merge make that timing-dependent in a live service, so the
// directory is written through the store itself, with the merged base
// from the mirror; recovery still runs through DocumentService::Open.
struct TailRun {
  Reference ref;
  std::vector<std::string> encoded;  // batches 0-4
  Grammar merged;                    // batches 0-1, merged
};

void BuildTailRun(const Scenario& sc, TailRun* run) {
  Mirror plain(sc.start.Clone());
  Mirror folded(sc.start.Clone());
  run->ref.chain.push_back(plain.Bytes());
  run->ref.pos_after_step.push_back(0);
  for (int i = 0; i < 5; ++i) {
    run->encoded.push_back(EncodeBatch(sc.batches[i], sc.start.labels()));
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_NO_FATAL_FAILURE(plain.Apply(sc.batches[i]));
    run->ref.chain.push_back(plain.Bytes());
    run->ref.pos_after_step.push_back(i + 1);
  }
  for (int i : {0, 1}) ASSERT_NO_FATAL_FAILURE(folded.Apply(sc.batches[i]));
  folded.Merge();
  run->merged = folded.grammar().Clone();
  for (int i : {2, 3}) ASSERT_NO_FATAL_FAILURE(folded.Apply(sc.batches[i]));
  run->ref.chain.push_back(folded.Bytes());  // after the rotation
  run->ref.pos_after_step.push_back(5);
  ASSERT_NO_FATAL_FAILURE(folded.Apply(sc.batches[4]));
  run->ref.chain.push_back(folded.Bytes());
  run->ref.pos_after_step.push_back(6);
}

// Create, append 0-3, rotate (folded 2, tail 2-3), append 4, close;
// returns the steps that returned Ok, or -1 if Create failed.
int WriteTailRun(const std::string& dir, const TailRun& run,
                 const Grammar& start, FaultInjector* fi) {
  StatusOr<DocumentStore> created =
      DocumentStore::Create(dir, start, JournalOptions{}, fi);
  if (!created.ok()) return -1;
  DocumentStore store = created.take();
  int acked = 0;
  for (int i = 0; i < 4; ++i) {
    if (!store.Append(run.encoded[static_cast<size_t>(i)]).ok()) return acked;
    ++acked;
  }
  if (!store.Rotate(run.merged, 2, {run.encoded[2], run.encoded[3]}).ok()) {
    return acked;
  }
  ++acked;
  if (!store.Append(run.encoded[4]).ok()) return acked;
  ++acked;
  (void)store.Close();
  return acked;
}

TEST(DurableServiceCrashMatrix, RotationCarryingATailRecoversCommittedPrefix) {
  Scenario sc;
  MakeScenario(Corpus::kXMark, 0.02, 15, 3, 57, &sc);
  TailRun run;
  ASSERT_NO_FATAL_FAILURE(BuildTailRun(sc, &run));
  const int S = 6;

  FaultInjector counter;
  {
    std::string dir = NewDir("tailcount");
    ASSERT_EQ(WriteTailRun(dir, run, sc.start, &counter), S);
    auto opened = DocumentService::Open(DurableOpts(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(ServedBytes(*opened.value()), run.ref.chain.back());
    opened.value().reset();
    // A lost snapshot 2 is rebuilt from journal 1's folded prefix, byte
    // for byte, and journal 2's tail is replayed on top of it.
    const std::string snap2 = JoinPath(dir, SnapshotFileName(2));
    const std::string published = ReadRaw(snap2);
    ASSERT_EQ(::unlink(snap2.c_str()), 0);
    const int64_t replayed_before = ReplayedBatches();
    opened = DocumentService::Open(DurableOpts(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(ReplayedBatches() - replayed_before, 2 + 3);
    EXPECT_EQ(ServedBytes(*opened.value()), run.ref.chain.back());
    EXPECT_EQ(ReadRaw(snap2), published);
    opened.value().reset();
    RemoveTree(dir);
  }
  const Mode kModes[] = {
      {"crash", 1.0, false, false},
      {"torn+flip", 0.5, true, false},
      {"powerloss", 1.0, false, true},
  };
  for (const Mode& mode : kModes) {
    for (int64_t k = 0; k < counter.ops_seen(); ++k) {
      FaultInjector fi(mode.PlanAt(k));
      std::string dir = NewDir("tailcrash");
      const int acked = WriteTailRun(dir, run, sc.start, &fi);
      const std::string context =
          std::string(mode.name) + " at op " + std::to_string(k);
      auto opened = DocumentService::Open(DurableOpts(dir));
      if (acked < 0) {
        if (opened.ok()) {
          EXPECT_EQ(ServedBytes(*opened.value()), run.ref.chain[0])
              << context;
        }
        RemoveTree(dir);
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << context << ": " << opened.status().ToString();
      const int lo = run.ref.pos_after_step[static_cast<size_t>(acked)];
      const int hi = run.ref.pos_after_step[static_cast<size_t>(
          std::min(acked + 1, S))];
      ExpectCommittedPrefix(run.ref, ServedBytes(*opened.value()), lo, hi,
                            context);
      opened.value().reset();
      RemoveTree(dir);
    }
  }
}

// --------------------------------------------------------------------
// Fsync-policy equivalence under the power-loss model.

TEST(DurableServiceFsyncPolicy, AllPoliciesRecoverCommittedPrefixes) {
  Scenario sc;
  MakeScenario(Corpus::kMedline, 0.02, 18, 3, 23, &sc);
  Reference ref;
  ASSERT_NO_FATAL_FAILURE(BuildReference(sc, &ref));
  const int S = sc.NumSteps();

  struct Policy {
    const char* name;
    FsyncPolicy policy;
    int every_n;
  };
  const Policy kPolicies[] = {
      {"none", FsyncPolicy::kNone, 0},
      {"every-batch", FsyncPolicy::kEveryBatch, 0},
      {"every-3", FsyncPolicy::kEveryN, 3},
  };
  for (const Policy& p : kPolicies) {
    auto opts_for = [&](const std::string& dir, FaultInjector* fi) {
      ServiceOptions opts = DurableOpts(dir, fi);
      opts.journal.policy = p.policy;
      if (p.every_n > 0) opts.journal.every_n = p.every_n;
      return opts;
    };
    FaultInjector counter;
    {
      std::string dir = NewDir("pcount");
      RunOutcome r = RunScenario(sc, opts_for(dir, &counter));
      ASSERT_TRUE(r.create_ok && r.acked == S) << p.name;
      RemoveTree(dir);
    }
    for (int64_t k = 0; k < counter.ops_seen(); k += 2) {
      FaultInjector::Plan plan;
      plan.crash_at = k;
      plan.drop_unsynced = true;  // the model where policies differ
      FaultInjector fi(plan);
      std::string dir = NewDir("policy");
      RunOutcome r = RunScenario(sc, opts_for(dir, &fi));
      const std::string context =
          std::string("policy ") + p.name + " powerloss at op " +
          std::to_string(k);
      auto opened = DocumentService::Open(DurableOpts(dir));
      if (!r.create_ok) {
        if (opened.ok()) {
          EXPECT_EQ(ServedBytes(*opened.value()), ref.chain[0]) << context;
        }
        RemoveTree(dir);
        continue;
      }
      ASSERT_TRUE(opened.ok())
          << context << ": " << opened.status().ToString();
      std::string got = ServedBytes(*opened.value());
      // Weaker policies may lose unsynced committed batches, but every
      // recovered state is still some committed prefix...
      const int hi =
          ref.pos_after_step[static_cast<size_t>(std::min(r.acked + 1, S))];
      ExpectCommittedPrefix(ref, got, 0, hi, context);
      // ...and with kEveryBatch an acknowledged step is never lost.
      if (p.policy == FsyncPolicy::kEveryBatch) {
        const int lo = ref.pos_after_step[static_cast<size_t>(r.acked)];
        ExpectCommittedPrefix(ref, got, lo, hi, context + " (durability)");
      }
      opened.value().reset();
      RemoveTree(dir);
    }
  }
}

// --------------------------------------------------------------------
// Corruption sweep: every byte flip, every truncation, of every file.

TEST(DurableServiceCorruptionSweep, OpenNeverCrashesOnMangledFiles) {
  Scenario sc;
  MakeScenario(Corpus::kExiTelecomp, 0.015, 12, 3, 31, &sc);
  sc.flush_after = {1};  // two generations, with batches on both sides
  std::string dir = NewDir("sweep");
  ASSERT_EQ(RunScenario(sc, DurableOpts(dir)).acked, sc.NumSteps());
  const std::map<std::string, std::string> pristine = DirContents(dir);
  ASSERT_EQ(pristine.size(), 4u);  // two generations of both files

  auto restore_with = [&](const std::string& mutated_name,
                          const std::string& mutated_bytes) {
    RemoveTree(dir);
    ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
    for (const auto& [name, bytes] : pristine) {
      WriteRaw(JoinPath(dir, name),
               name == mutated_name ? mutated_bytes : bytes);
    }
  };
  auto check_open = [&](const std::string& context) {
    auto opened = DocumentService::Open(DurableOpts(dir));
    if (opened.ok()) {
      Status valid = Validate(opened.value()->OpenReader().snapshot().grammar());
      EXPECT_TRUE(valid.ok()) << context << ": " << valid.ToString();
    } else {
      StatusCode code = opened.status().code();
      EXPECT_TRUE(code == StatusCode::kNotFound ||
                  code == StatusCode::kDataLoss ||
                  code == StatusCode::kIoError ||
                  code == StatusCode::kInvalidArgument)
          << context << ": " << opened.status().ToString();
    }
  };

  for (const auto& [name, bytes] : pristine) {
    // Stride 1 for the small files the scenario is sized to produce;
    // degrade gracefully if a corpus tweak ever inflates them.
    const size_t stride = std::max<size_t>(1, bytes.size() / 2048);
    for (size_t at = 0; at < bytes.size(); at += stride) {
      std::string mangled = bytes;
      mangled[at] = static_cast<char>(mangled[at] ^ 0x10);
      restore_with(name, mangled);
      check_open("flip " + name + "[" + std::to_string(at) + "]");
    }
    for (size_t len = 0; len < bytes.size(); len += stride) {
      restore_with(name, bytes.substr(0, len));
      check_open("truncate " + name + " to " + std::to_string(len));
    }
  }
  RemoveTree(dir);
}

// A record that passes its CRC but cannot be applied — the corruption
// beat the checksum, or a writer bug — is DataLoss, never a crash.
TEST(DurableServiceCorruptionSweep, UnreplayableCommittedBatchIsDataLoss) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.01, 4, 2, 33, &sc);
  std::string dir = NewDir("unreplayable");
  {
    StatusOr<DocumentStore> created =
        DocumentStore::Create(dir, sc.start, JournalOptions{}, nullptr);
    ASSERT_TRUE(created.ok());
    std::vector<UpdateOp> out_of_range(1);
    out_of_range[0].kind = UpdateOp::Kind::kDelete;
    out_of_range[0].preorder = 1 << 30;
    ASSERT_TRUE(created.value()
                    .Append(EncodeBatch(out_of_range, sc.start.labels()))
                    .ok());
    ASSERT_TRUE(created.value().Close().ok());
  }
  auto opened = DocumentService::Open(DurableOpts(dir));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
      << opened.status().ToString();
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Reopen determinism, all six corpora: the recovered document, and the
// merge it runs next, match one continuous run.

TEST(DurableServiceReopen, ReopenMidWorkloadThenFlushMatchesContinuous) {
  for (const CorpusInfo& info : AllCorpora()) {
    Scenario sc;
    MakeScenario(info.id, 0.02, 20, 4, 40 + static_cast<uint64_t>(info.id),
                 &sc);
    const size_t quarter = sc.batches.size() / 4;
    const size_t half = sc.batches.size() / 2;
    auto run = [&](DocumentService* svc, size_t from, size_t to) {
      for (size_t i = from; i < to; ++i) {
        ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[i]).ok()) << info.name;
        if (i + 1 == quarter) {
          ASSERT_TRUE(svc->Flush().ok()) << info.name;
        }
      }
    };

    std::string dir_a = NewDir("cont");
    std::string at_half;
    std::string continuous;
    {
      auto a = DocumentService::FromGrammar(sc.start.Clone(),
                                            DurableOpts(dir_a));
      ASSERT_TRUE(a.ok()) << info.name;
      ASSERT_NO_FATAL_FAILURE(run(a.value().get(), 0, half));
      at_half = ServedBytes(*a.value());
      ASSERT_NO_FATAL_FAILURE(run(a.value().get(), half, sc.batches.size()));
      ASSERT_TRUE(a.value()->Flush().ok());
      continuous = ServedBytes(*a.value());
    }

    std::string dir_b = NewDir("split");
    {
      auto b = DocumentService::FromGrammar(sc.start.Clone(),
                                            DurableOpts(dir_b));
      ASSERT_TRUE(b.ok()) << info.name;
      ASSERT_NO_FATAL_FAILURE(run(b.value().get(), 0, half));
    }
    const int64_t replayed_before = ReplayedBatches();
    auto b = DocumentService::Open(DurableOpts(dir_b));
    ASSERT_TRUE(b.ok()) << info.name << ": " << b.status().ToString();
    // Only the batches since the Flush at `quarter` are replayed.
    EXPECT_EQ(ReplayedBatches() - replayed_before,
              static_cast<int64_t>(half - quarter))
        << info.name;
    EXPECT_EQ(ServedBytes(*b.value()), at_half) << info.name;
    ASSERT_NO_FATAL_FAILURE(run(b.value().get(), half, sc.batches.size()));
    ASSERT_TRUE(b.value()->Flush().ok());
    EXPECT_EQ(ServedBytes(*b.value()), continuous)
        << "reopen diverges from the continuous run on " << info.name;
    b.value().reset();
    RemoveTree(dir_a);
    RemoveTree(dir_b);
  }
}

// Recovery rebuilds every rule body from a snapshot, node by node in
// preorder, while the running service's bodies carry the slot layout of
// their edit history. The repair breaks ties between overlapping digram
// occurrences by NodeId, so both must number nodes alike for a reopened
// service to keep merging exactly like one that never stopped: several
// merges after the reopen, on a corpus whose repairs hit such ties.
TEST(DurableServiceReopen, ReopenedServiceKeepsMergingLikeTheContinuousOne) {
  Scenario sc;
  MakeScenario(Corpus::kExiTelecomp, 0.05, 192, 4, 11, &sc);
  const size_t reopen_after = static_cast<size_t>(*sc.flush_after.begin());
  auto run = [&](DocumentService* svc, size_t from, size_t to,
                 std::vector<std::string>* merged) {
    for (size_t i = from; i < to; ++i) {
      ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[i]).ok());
      if (sc.flush_after.count(static_cast<int>(i)) > 0 ||
          i + 1 == sc.batches.size()) {
        ASSERT_TRUE(svc->Flush().ok());
        merged->push_back(ServedBytes(*svc));
      }
    }
  };

  std::string dir_a = NewDir("keep_cont");
  std::vector<std::string> continuous;
  {
    auto a = DocumentService::FromGrammar(sc.start.Clone(), DurableOpts(dir_a));
    ASSERT_TRUE(a.ok());
    ASSERT_NO_FATAL_FAILURE(
        run(a.value().get(), 0, sc.batches.size(), &continuous));
  }

  std::string dir_b = NewDir("keep_split");
  std::vector<std::string> reopened;
  {
    auto b = DocumentService::FromGrammar(sc.start.Clone(), DurableOpts(dir_b));
    ASSERT_TRUE(b.ok());
    ASSERT_NO_FATAL_FAILURE(
        run(b.value().get(), 0, reopen_after + 1, &reopened));
  }
  auto b = DocumentService::Open(DurableOpts(dir_b));
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_NO_FATAL_FAILURE(run(b.value().get(), reopen_after + 1,
                              sc.batches.size(), &reopened));
  ASSERT_EQ(reopened.size(), continuous.size());
  for (size_t m = 0; m < continuous.size(); ++m) {
    EXPECT_EQ(reopened[m], continuous[m]) << "merge " << m;
  }
  b.value().reset();
  RemoveTree(dir_a);
  RemoveTree(dir_b);
}

// --------------------------------------------------------------------
// Snapshot generation fallback + self-healing.

TEST(DurableServiceFallback, CorruptOrMissingNewestSnapshotIsRebuilt) {
  Scenario sc;
  MakeScenario(Corpus::kXMark, 0.02, 12, 3, 55, &sc);
  Mirror mirror(sc.start.Clone());
  for (int i : {0, 1}) ASSERT_NO_FATAL_FAILURE(mirror.Apply(sc.batches[i]));
  mirror.Merge();
  ASSERT_NO_FATAL_FAILURE(mirror.Apply(sc.batches[2]));
  const std::string served = mirror.Bytes();
  mirror.Merge();
  const std::string flushed = mirror.Bytes();

  for (const char* damage : {"corrupt", "missing"}) {
    std::string dir = NewDir("fallback");
    {
      auto created = DocumentService::FromGrammar(sc.start.Clone(),
                                                  DurableOpts(dir));
      ASSERT_TRUE(created.ok());
      std::unique_ptr<DocumentService> svc = created.take();
      ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[0]).ok());
      ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[1]).ok());
      ASSERT_TRUE(svc->Flush().ok());
      ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[2]).ok());
      ASSERT_EQ(ServedBytes(*svc), served);
    }
    // Recovery must fall back to snapshot 1, replay the two batches
    // journal 1's seal says were folded, re-run the merge, publish
    // snapshot 2 again, and replay journal 2 on top.
    std::string snap2 = JoinPath(dir, SnapshotFileName(2));
    std::string bytes = ReadRaw(snap2);
    if (std::string(damage) == "corrupt") {
      bytes[bytes.size() / 2] =
          static_cast<char>(bytes[bytes.size() / 2] ^ 0xff);
      WriteRaw(snap2, bytes);
    } else {
      ASSERT_EQ(::unlink(snap2.c_str()), 0);
    }

    const int64_t replayed_before = ReplayedBatches();
    auto opened = DocumentService::Open(DurableOpts(dir));
    ASSERT_TRUE(opened.ok()) << damage << ": " << opened.status().ToString();
    EXPECT_EQ(ReplayedBatches() - replayed_before, 3) << damage;
    EXPECT_EQ(ServedBytes(*opened.value()), served) << damage;
    // Healed: snapshot 2 decodes to the merged base again.
    StatusOr<Grammar> healed = DecodeSnapshot(ReadRaw(snap2));
    ASSERT_TRUE(healed.ok()) << damage;
    // The replayed batch is pending again, with its damage: the next
    // merge is the uninterrupted one.
    ASSERT_TRUE(opened.value()->Flush().ok());
    EXPECT_EQ(ServedBytes(*opened.value()), flushed) << damage;
    opened.value().reset();
    RemoveTree(dir);
  }
}

// --------------------------------------------------------------------
// Checkpoint cadence and read-only recovery.

TEST(DurableServiceCheckpoint, FlushOnlyServiceCheckpointsEveryMerge) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.01, 16, 4, 17, &sc);
  std::string dir = NewDir("flushonly");
  {
    auto created = DocumentService::FromGrammar(sc.start.Clone(),
                                                DurableOpts(dir));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<DocumentService> svc = created.take();
    ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[0]).ok());
    ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[1]).ok());
    ASSERT_TRUE(svc->Flush().ok());
    ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[2]).ok());
    ASSERT_TRUE(svc->OpenWriter().Apply(sc.batches[3]).ok());
  }
  const std::map<std::string, std::string> files = DirContents(dir);
  EXPECT_EQ(files.count(SnapshotFileName(2)), 1u);
  EXPECT_EQ(files.count(JournalFileName(2)), 1u);
  const int64_t replayed_before = ReplayedBatches();
  auto opened = DocumentService::Open(DurableOpts(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Only the batches acknowledged after the Flush.
  EXPECT_EQ(ReplayedBatches() - replayed_before, 2);
  opened.value().reset();
  RemoveTree(dir);
}

TEST(DurableServiceCheckpoint, OpenOnACleanDirectoryWritesNothing) {
  Scenario sc;
  MakeScenario(Corpus::kNcbi, 0.02, 12, 3, 19, &sc);
  sc.flush_after = {1};
  std::string dir = NewDir("clean");
  ASSERT_EQ(RunScenario(sc, DurableOpts(dir)).acked, sc.NumSteps());
  const std::map<std::string, std::string> before = DirContents(dir);
  int64_t first_replay = -1;
  for (int round = 0; round < 3; ++round) {
    const int64_t replayed_before = ReplayedBatches();
    auto opened = DocumentService::Open(DurableOpts(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const int64_t replayed = ReplayedBatches() - replayed_before;
    if (round == 0) first_replay = replayed;
    EXPECT_EQ(replayed, first_replay) << "round " << round;
    opened.value().reset();
    EXPECT_EQ(DirContents(dir), before) << "round " << round;
  }
  EXPECT_EQ(first_replay, static_cast<int64_t>(sc.batches.size() - 2));
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Label-id hygiene: ids from another document's table are rejected
// before EncodeBatch indexes the table.

TEST(DurableServiceApply, AlienLabelIdsAreRejectedNotIndexed) {
  Scenario sc;
  MakeScenario(Corpus::kExiWeblog, 0.01, 4, 2, 91, &sc);
  std::string dir = NewDir("alien");
  auto created = DocumentService::FromGrammar(sc.start.Clone(),
                                              DurableOpts(dir));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<DocumentService> svc = created.take();
  DocumentService::Writer writer = svc->OpenWriter();
  const std::string before = ServedBytes(*svc);
  const std::string journal = JoinPath(dir, JournalFileName(1));
  const int64_t journal_size = FileSize(journal).value();
  // One past the table: exactly the id a caller that interned a new
  // tag into its own table first would hand us.
  const LabelId alien = sc.start.labels().size();

  std::vector<UpdateOp> rename(1);
  rename[0].kind = UpdateOp::Kind::kRename;
  rename[0].preorder = 1;
  rename[0].label = alien;
  EXPECT_EQ(writer.Apply(rename).code(), StatusCode::kInvalidArgument);

  std::vector<UpdateOp> insert(1);
  insert[0].kind = UpdateOp::Kind::kInsert;
  insert[0].preorder = 2;
  insert[0].fragment.SetRoot(insert[0].fragment.NewNode(alien));
  EXPECT_EQ(writer.Apply(insert).code(), StatusCode::kInvalidArgument);

  // Clean rejection: nothing published, journaled, or poisoned.
  EXPECT_EQ(svc->OpenReader().version(), 0);
  EXPECT_EQ(ServedBytes(*svc), before);
  EXPECT_EQ(FileSize(journal).value(), journal_size);
  ASSERT_TRUE(writer.Apply(sc.batches[0]).ok());
  EXPECT_GT(FileSize(journal).value(), journal_size);
  EXPECT_TRUE(svc->Flush().ok());
  svc.reset();
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Poisoning: a durability failure taints the service, not the disk.

TEST(DurableServicePoison, IoFailurePoisonsServiceAndReopenRecovers) {
  Scenario sc;
  MakeScenario(Corpus::kNcbi, 0.02, 6, 3, 77, &sc);
  // Count FromGrammar's ops so the failure lands on the first journal
  // append of batch 0.
  FaultInjector counter;
  std::string probe = NewDir("poisonprobe");
  {
    auto svc = DocumentService::FromGrammar(sc.start.Clone(),
                                            DurableOpts(probe, &counter));
    ASSERT_TRUE(svc.ok());
  }
  RemoveTree(probe);

  FaultInjector::Plan plan;
  plan.fail_at = counter.ops_seen() - 1;  // the destructor's close counted too
  FaultInjector fi(plan);
  std::string dir = NewDir("poison");
  {
    auto created = DocumentService::FromGrammar(sc.start.Clone(),
                                                DurableOpts(dir, &fi));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<DocumentService> svc = created.take();
    DocumentService::Writer writer = svc->OpenWriter();
    const std::string committed = ServedBytes(*svc);

    Status failed = writer.Apply(sc.batches[0]);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(writer.Apply(sc.batches[1]).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(svc->Flush().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(svc->OpenReader().version(), 0);
    EXPECT_EQ(ServedBytes(*svc), committed);
  }

  auto opened = DocumentService::Open(DurableOpts(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(ServedBytes(*opened.value()), SerializeGrammar(sc.start));
  ASSERT_TRUE(opened.value()->OpenWriter().Apply(sc.batches[0]).ok());
  EXPECT_TRUE(opened.value()->Flush().ok());
  opened.value().reset();
  RemoveTree(dir);
}

// --------------------------------------------------------------------
// Journal unit tests: framing, torn tails, seals.

TEST(Journal, ReplayReturnsCommittedBatchesAndDropsGarbageTail) {
  std::string dir = NewDir("wal");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::string path = JoinPath(dir, JournalFileName(1));
  {
    StatusOr<JournalWriter> w =
        JournalWriter::Create(path, JournalOptions{}, nullptr);
    ASSERT_TRUE(w.ok());
    JournalWriter writer = w.take();
    ASSERT_TRUE(writer.AppendBatch("batch-one").ok());
    ASSERT_TRUE(writer.AppendBatch("batch-two").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().header_ok);
    ASSERT_EQ(r.value().batches.size(), 2u);
    EXPECT_EQ(r.value().batches[0], "batch-one");
    EXPECT_EQ(r.value().batches[1], "batch-two");
    EXPECT_FALSE(r.value().ends_with_checkpoint);
    EXPECT_FALSE(r.value().truncated_tail);
  }
  // Garbage appended after the last commit marker is cut, committed
  // batches survive.
  std::string pristine = ReadRaw(path);
  WriteRaw(path, pristine + "\x03\x07garbage-not-a-record");
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().batches.size(), 2u);
    EXPECT_TRUE(r.value().truncated_tail);
    EXPECT_EQ(r.value().valid_bytes, static_cast<int64_t>(pristine.size()));
  }
  // A torn commit marker drops exactly the last batch.
  WriteRaw(path, pristine.substr(0, pristine.size() - 3));
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().batches.size(), 1u);
    EXPECT_EQ(r.value().batches[0], "batch-one");
    EXPECT_TRUE(r.value().truncated_tail);
  }
  // A checkpoint marker ends the file and reports the next generation.
  WriteRaw(path, pristine);
  {
    StatusOr<JournalWriter> w =
        JournalWriter::OpenExisting(path, 2, JournalOptions{}, nullptr);
    ASSERT_TRUE(w.ok());
    JournalWriter writer = w.take();
    ASSERT_TRUE(writer.AppendCheckpoint(7, 1).ok());
    ASSERT_TRUE(writer.Close().ok());
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.value().batches.size(), 2u);
    EXPECT_TRUE(r.value().ends_with_checkpoint);
    EXPECT_EQ(r.value().next_generation, 7);
    EXPECT_EQ(r.value().folded, 1);
  }
  // A header that never became durable replays as empty.
  WriteRaw(path, pristine.substr(0, 5));
  {
    StatusOr<JournalReplay> r = ReplayJournal(path);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().header_ok);
    EXPECT_TRUE(r.value().batches.empty());
    EXPECT_EQ(r.value().valid_bytes, 0);
  }
  RemoveTree(dir);
}

TEST(Journal, BatchCodecRoundTripsAndRejectsRankMismatch) {
  LabelTable labels;
  LabelId leaf = labels.Intern("leaf", 0);
  Tree fragment;
  NodeId root = fragment.NewNode(labels.Intern("pair", 2));
  fragment.SetRoot(root);
  fragment.AppendChild(root, fragment.NewNode(leaf));
  fragment.AppendChild(root, fragment.NewNode(kNullLabel));

  std::vector<UpdateOp> ops(3);
  ops[0].kind = UpdateOp::Kind::kInsert;
  ops[0].preorder = 2;
  ops[0].fragment = fragment;
  ops[1].kind = UpdateOp::Kind::kDelete;
  ops[1].preorder = 4;
  ops[2].kind = UpdateOp::Kind::kRename;
  ops[2].preorder = 1;
  ops[2].label = labels.Intern("renamed", 2);

  std::string encoded = EncodeBatch(ops, labels);
  LabelTable fresh;  // decode against a table missing every name
  std::vector<UpdateOp> decoded;
  Status s = DecodeBatch(encoded, &fresh, &decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].kind, UpdateOp::Kind::kInsert);
  EXPECT_EQ(decoded[0].preorder, 2);
  EXPECT_EQ(decoded[0].fragment.LiveCount(), 3);
  EXPECT_EQ(fresh.Name(decoded[0].fragment.label(decoded[0].fragment.root())),
            "pair");
  EXPECT_EQ(decoded[1].kind, UpdateOp::Kind::kDelete);
  EXPECT_EQ(decoded[2].kind, UpdateOp::Kind::kRename);
  EXPECT_EQ(fresh.Name(decoded[2].label), "renamed");
  EXPECT_EQ(fresh.Rank(decoded[2].label), 2);

  // Same payload against a table where "pair" is a leaf: the codec
  // must refuse (Intern would abort on the rank mismatch).
  LabelTable clashing;
  clashing.Intern("pair", 0);
  Status clash = DecodeBatch(encoded, &clashing, &decoded);
  EXPECT_EQ(clash.code(), StatusCode::kInvalidArgument);

  // Truncated payloads are malformed, not fatal.
  for (size_t len = 0; len < encoded.size(); len += 3) {
    Status torn = DecodeBatch(encoded.substr(0, len), &fresh, &decoded);
    EXPECT_FALSE(torn.ok()) << "prefix of length " << len << " decoded";
  }
}

// --------------------------------------------------------------------
// CRC32C known-answer and chaining tests.

TEST(Crc32c, KnownVectorsAndChaining) {
  // RFC 3720 test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // Incremental computation chains through the crc parameter.
  uint32_t half = Crc32c("12345", 5);
  EXPECT_EQ(Crc32c("6789", 4, half), 0xe3069283u);
  EXPECT_NE(Crc32c("123456788", 9), 0xe3069283u);
}

}  // namespace
}  // namespace slg
