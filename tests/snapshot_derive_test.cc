// Copy-on-write rule bodies and parent-derived snapshots.
//
//  * sharing — a Clone() shares every rule body; mutable_rhs() copies
//    a shared body once and never touches the other grammar;
//  * differential — on all six corpora, after every batch of a
//    MakeUpdateWorkload run and through a merge whose splice tail
//    replays batches onto the merged base, the snapshot derived from
//    its parent answers every RuleIndex accessor, over all labels and
//    all body nodes, exactly like GrammarSnapshot::Make of the same
//    grammar — also every snapshot a DocumentService with racing
//    merges serves, and every snapshot of a batch that interns labels
//    the parent's index has never seen;
//  * isolation — a parent's serialized grammar is unchanged by a child
//    write, a failed batch and a merge of a clone, and its index by a
//    write that interns labels;
//  * concurrency — one thread clones a snapshot's grammar and repairs
//    it while another derives children from the same snapshot (the
//    merge thread against the writer); this is the TSan subject.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/binary_format.h"
#include "src/grammar/value.h"
#include "src/service/apply.h"
#include "src/service/document_service.h"
#include "src/service/snapshot.h"
#include "src/store/journal.h"
#include "src/update/update_ops.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_writer.h"

namespace slg {
namespace {

// A compressed seed and its workload, as encoded batches of four ops.
struct Fixture {
  std::shared_ptr<const GrammarSnapshot> seed;
  std::vector<std::vector<UpdateOp>> ops;  // label ids of seed's table
  std::vector<std::string> batches;        // the same, encoded
};

Fixture MakeFixture(Corpus corpus, double scale, int num_ops, uint64_t seed) {
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(corpus, scale), &labels);
  WorkloadOptions wopts;
  wopts.num_ops = num_ops;
  wopts.seed = seed;
  wopts.rename_fraction = 0.2;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Fixture f;
  f.seed = GrammarSnapshot::Make(
      GrammarRePair(Grammar::ForTree(std::move(w.seed), labels)).grammar);
  for (size_t at = 0; at < w.ops.size(); at += 4) {
    std::vector<UpdateOp> batch(
        w.ops.begin() + static_cast<std::ptrdiff_t>(at),
        w.ops.begin() + static_cast<std::ptrdiff_t>(std::min(at + 4, w.ops.size())));
    f.batches.push_back(EncodeBatch(batch, labels));
    f.ops.push_back(std::move(batch));
  }
  return f;
}

// Every index accessor of `got` equals that of a from-scratch build of
// the same grammar.
void ExpectSameAsMake(const GrammarSnapshot& got) {
  std::shared_ptr<const GrammarSnapshot> want_snap =
      GrammarSnapshot::Make(got.grammar().Clone(), got.version());
  const GrammarSnapshot& want = *want_snap;
  const Grammar& g = got.grammar();
  const RuleIndex& gs = *got.index();
  const RuleIndex& ws = *want.index();

  EXPECT_EQ(got.edges(), want.edges());
  EXPECT_EQ(got.node_count(), want.node_count());
  EXPECT_EQ(got.element_count(), want.element_count());
  ASSERT_EQ(gs.num_labels(), ws.num_labels());
  EXPECT_EQ(gs.DerivedSize(), ws.DerivedSize());
  EXPECT_EQ(gs.DerivedElementCount(), ws.DerivedElementCount());
  EXPECT_EQ(gs.EdgeCount(), ws.EdgeCount());

  // The start rule's call counts (a batch's seed), up to trailing
  // labels the derived table has not seen called yet.
  std::vector<int32_t> gc = gs.StartCalls(g.start());
  std::vector<int32_t> wc = ws.StartCalls(g.start());
  gc.resize(wc.size(), 0);
  EXPECT_EQ(gc, wc);

  const LabelId n = static_cast<LabelId>(gs.num_labels());
  for (LabelId l = 0; l < n; ++l) {
    ASSERT_EQ(gs.IsNonterminal(l), ws.IsNonterminal(l)) << l;
    ASSERT_EQ(gs.Rank(l), ws.Rank(l)) << l;
    ASSERT_EQ(gs.ParamIndex(l), ws.ParamIndex(l)) << l;
    ASSERT_EQ(gs.SegTotal(l), ws.SegTotal(l)) << l;
    ASSERT_EQ(gs.OuterRefs(l), ws.OuterRefs(l)) << l;
    if (!gs.IsNonterminal(l)) continue;
    // Both index the grammar's own (shared) body objects.
    ASSERT_EQ(&gs.Rhs(l), &g.rhs(l)) << l;
    ASSERT_EQ(&ws.Rhs(l), &g.rhs(l)) << l;
    ASSERT_EQ(gs.RhsRoot(l), ws.RhsRoot(l)) << l;
    for (int j = 1; j <= gs.Rank(l); ++j) {
      ASSERT_EQ(gs.ParamNode(l, j), ws.ParamNode(l, j)) << l;
    }
    for (int i = 0; i <= gs.Rank(l); ++i) {
      ASSERT_EQ(gs.SegSize(l, i), ws.SegSize(l, i)) << l;
    }
    ASSERT_EQ(gs.MaterialElements(l), ws.MaterialElements(l)) << l;
    const Tree& t = g.rhs(l);
    t.VisitPreorder(t.root(), [&](NodeId v) {
      ASSERT_EQ(gs.StaticSize(l, v), ws.StaticSize(l, v)) << l << "/" << v;
      ASSERT_EQ(gs.ParamLo(l, v), ws.ParamLo(l, v)) << l << "/" << v;
      ASSERT_EQ(gs.ParamHi(l, v), ws.ParamHi(l, v)) << l << "/" << v;
    });
    for (LabelId m = 0; m < n; ++m) {
      ASSERT_EQ(gs.MayContain(l, m), ws.MayContain(l, m)) << l << "/" << m;
    }
  }
}

std::vector<LabelId> DamageUnion(const std::vector<BatchEffects>& done) {
  std::vector<LabelId> out;
  for (const BatchEffects& e : done) {
    for (LabelId r : e.damage) {
      if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
    }
  }
  return out;
}

class DeriveTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(DeriveTest, EveryBatchAndMergeMatchesFromScratchBuild) {
  Fixture f = MakeFixture(GetParam(), 0.03, 64, 17);
  std::shared_ptr<const GrammarSnapshot> snap = f.seed;
  std::vector<BatchEffects> pending;
  const size_t localized_at = f.batches.size() / 2;
  const size_t full_at = f.batches.size() * 3 / 4;
  for (size_t i = 0; i < f.batches.size(); ++i) {
    if (i == localized_at || i == full_at) {
      // The merge, as the service runs it (localized, then a full
      // repair): repair a clone, derive the base from the snapshot it
      // was cloned from; the batches after it are the splice tail
      // replayed onto that base.
      GrammarRepairResult r =
          i == localized_at
              ? LocalizedGrammarRePair(snap->grammar().Clone(),
                                       DamageUnion(pending), {})
              : GrammarRePair(snap->grammar().Clone(), {});
      snap = GrammarSnapshot::Derive(*snap, std::move(r.grammar),
                                     snap->version());
      pending.clear();
      ExpectSameAsMake(*snap);
    }
    BatchEffects effects;
    StatusOr<std::shared_ptr<const GrammarSnapshot>> next = ApplyEncodedBatch(
        *snap, f.batches[i], snap->version() + 1, &effects);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    snap = next.take();
    pending.push_back(effects);
    ExpectSameAsMake(*snap);
    if (HasFatalFailure()) return;
    // The batch's count-based garbage collection left nothing a full
    // recount would still remove.
    Grammar recount = snap->grammar().Clone();
    EXPECT_EQ(CollectGarbageRules(&recount), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCorpora, DeriveTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark, Corpus::kExiTelecomp,
                      Corpus::kTreebank, Corpus::kMedline, Corpus::kNcbi));

// The same through the service, whose merges race the writer: every
// snapshot it serves — overlays derived from their parents, bases
// derived from the snapshot the merge cloned, overlays replayed onto a
// fresh base by the splice — equals a from-scratch build.
TEST(DeriveServiceTest, ServedSnapshotsMatchFromScratchBuild) {
  Fixture f = MakeFixture(Corpus::kXMark, 0.03, 96, 29);
  ServiceOptions opts;
  opts.update.growth_trigger = 0.05;
  opts.update.min_checkpoint_ops = 4;
  auto svc = DocumentService::FromSnapshot(f.seed, opts).take();
  auto writer = svc->OpenWriter();
  for (const std::vector<UpdateOp>& batch : f.ops) {
    ASSERT_TRUE(writer.Apply(batch).ok());
    DocumentService::Reader r = svc->OpenReader();
    ExpectSameAsMake(r.snapshot());
    ExpectSameAsMake(r.base());
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(svc->Flush().ok());
  EXPECT_GT(svc->GetStats().merges, 0);
  ExpectSameAsMake(svc->OpenReader().snapshot());
}

// A batch that interns labels the parent's index has never seen (the
// workloads above only draw rename targets from the document's own
// alphabet): it renames a node to an unseen tag, inserts a fragment of
// unseen tags, then isolates inside the fragment, renaming one of its
// nodes and deleting another. The updater borrows the parent's index
// and reads the new labels as terminals. The child equals a fresh
// build and holds the document the plain tree holds after the same
// ops; the parent's grammar and index are unchanged.
TEST(DeriveTest, BatchInterningUnseenLabels) {
  for (Corpus c : {Corpus::kXMark, Corpus::kTreebank}) {
    SCOPED_TRACE(InfoFor(c).name);
    Fixture f = MakeFixture(c, 0.03, 8, 41);
    std::shared_ptr<const GrammarSnapshot> parent = f.seed;
    const std::string image = SerializeGrammar(parent->grammar());
    const int64_t n = parent->node_count();
    // Two element positions, the rename's before the insert's.
    auto element_at_or_after = [&](int64_t p) {
      while (parent->nav().LabelAt(p).value() == kNullLabel) ++p;
      return p;
    };
    const int64_t renamed = element_at_or_after(n / 4);
    const int64_t inserted = element_at_or_after(n / 2);

    LabelTable names = parent->grammar().labels();
    // <fresh-a><fresh-b/><fresh-c/></fresh-a>, the insert hole as
    // fresh-a's next sibling.
    Tree frag;
    NodeId a = frag.NewNode(names.Intern("fresh-a", 2));
    frag.SetRoot(a);
    NodeId b = frag.NewNode(names.Intern("fresh-b", 2));
    NodeId cn = frag.NewNode(names.Intern("fresh-c", 2));
    frag.AppendChild(a, b);
    frag.AppendChild(a, frag.NewNode(kNullLabel));
    frag.AppendChild(b, frag.NewNode(kNullLabel));
    frag.AppendChild(b, cn);
    frag.AppendChild(cn, frag.NewNode(kNullLabel));
    frag.AppendChild(cn, frag.NewNode(kNullLabel));
    std::vector<UpdateOp> ops(5);
    ops[0].kind = UpdateOp::Kind::kRename;
    ops[0].preorder = renamed;
    ops[0].label = names.Intern("fresh-rename", 2);
    ops[1].kind = UpdateOp::Kind::kInsert;
    ops[1].preorder = inserted;
    ops[1].fragment = frag;
    // fresh-a at `inserted`, fresh-b right after it, fresh-c after
    // fresh-b's empty first child.
    ops[2].kind = UpdateOp::Kind::kRename;
    ops[2].preorder = inserted + 3;
    ops[2].label = names.Intern("fresh-d", 2);
    ops[3].kind = UpdateOp::Kind::kDelete;
    ops[3].preorder = inserted + 1;
    ops[4].kind = UpdateOp::Kind::kRename;
    ops[4].preorder = inserted + 1;
    ops[4].label = ops[0].label;

    BatchEffects effects;
    auto child =
        ApplyEncodedBatch(*parent, EncodeBatch(ops, names), 1, &effects);
    ASSERT_TRUE(child.ok()) << child.status().ToString();
    const GrammarSnapshot& cs = *child.value();
    EXPECT_GT(cs.grammar().labels().size(), parent->index()->num_labels());
    ExpectSameAsMake(cs);
    EXPECT_EQ(cs.LabelAt(renamed).value(), "fresh-rename");
    EXPECT_EQ(cs.LabelAt(inserted).value(), "fresh-a");
    EXPECT_EQ(cs.LabelAt(inserted + 1).value(), "fresh-rename");

    Tree plain = Value(parent->grammar()).take();
    for (const UpdateOp& op : ops) ApplyOpToTree(&plain, op);
    XmlTree want = DecodeBinary(plain, names).take();
    EXPECT_EQ(cs.ToXml().value(), WriteXml(want, {}));

    EXPECT_EQ(SerializeGrammar(parent->grammar()), image);
    ExpectSameAsMake(*parent);

    // The new labels are the index's own from here on: a batch and a
    // merge on top.
    std::shared_ptr<const GrammarSnapshot> next = child.take();
    BatchEffects more;
    auto grand = ApplyEncodedBatch(*next, f.batches[0], 2, &more);
    ASSERT_TRUE(grand.ok()) << grand.status().ToString();
    ExpectSameAsMake(*grand.value());
    GrammarRepairResult r = LocalizedGrammarRePair(
        grand.value()->grammar().Clone(), DamageUnion({effects, more}), {});
    ExpectSameAsMake(*GrammarSnapshot::Derive(*grand.value(),
                                              std::move(r.grammar), 2));
  }
}

TEST(CopyOnWriteTest, CloneSharesBodiesUntilEdited) {
  Fixture f = MakeFixture(Corpus::kXMark, 0.01, 4, 3);
  const Grammar& parent = f.seed->grammar();
  Grammar child = parent.Clone();
  for (LabelId r : parent.Nonterminals()) {
    EXPECT_EQ(&child.rhs(r), &parent.rhs(r));
  }
  const LabelId s = parent.start();
  const std::string before = SerializeGrammar(parent);
  Tree& edit = child.mutable_rhs(s);
  EXPECT_NE(&edit, &parent.rhs(s));
  // The copy is the child's own now: no second copy.
  EXPECT_EQ(&child.mutable_rhs(s), &edit);
  edit.set_label(edit.root(), kNullLabel);
  EXPECT_EQ(SerializeGrammar(parent), before);
  EXPECT_NE(SerializeGrammar(child), before);
}

TEST(CopyOnWriteTest, ParentUnchangedByWriteFailedBatchAndMerge) {
  for (Corpus c : {Corpus::kXMark, Corpus::kTreebank, Corpus::kMedline}) {
    Fixture f = MakeFixture(c, 0.015, 16, 5);
    std::shared_ptr<const GrammarSnapshot> parent = f.seed;
    const std::string image = SerializeGrammar(parent->grammar());

    BatchEffects effects;
    auto child = ApplyEncodedBatch(*parent, f.batches[0], 1, &effects);
    ASSERT_TRUE(child.ok()) << child.status().ToString();
    EXPECT_EQ(SerializeGrammar(parent->grammar()), image);
    // The write unshared the start rule and nothing it did not drop.
    const Grammar& cg = child.value()->grammar();
    EXPECT_NE(&cg.rhs(cg.start()), &parent->grammar().rhs(cg.start()));
    for (LabelId r : cg.Nonterminals()) {
      if (r != cg.start()) {
        EXPECT_EQ(&cg.rhs(r), &parent->grammar().rhs(r));
      }
    }

    // A batch whose first op edits the clone and whose second fails.
    LabelTable names = parent->grammar().labels();
    std::vector<UpdateOp> bad;
    ASSERT_TRUE(DecodeBatch(f.batches[0], &names, &bad).ok());
    bad.resize(2);
    bad[1].kind = UpdateOp::Kind::kDelete;
    bad[1].preorder = parent->node_count() * 4 + 100;
    BatchEffects unused;
    auto failed =
        ApplyEncodedBatch(*parent, EncodeBatch(bad, names), 1, &unused);
    EXPECT_EQ(failed.status().code(), StatusCode::kOutOfRange)
        << failed.status().ToString();
    EXPECT_EQ(SerializeGrammar(parent->grammar()), image);

    LocalizedGrammarRePair(parent->grammar().Clone(), effects.damage, {});
    EXPECT_EQ(SerializeGrammar(parent->grammar()), image);
  }
}

TEST(CopyOnWriteTest, CloneAndRepairWhileAnotherThreadDerives) {
  Fixture f = MakeFixture(Corpus::kMedline, 0.015, 24, 9);
  std::shared_ptr<const GrammarSnapshot> parent = f.seed;
  BatchEffects first;
  auto overlay = ApplyEncodedBatch(*parent, f.batches[0], 1, &first);
  ASSERT_TRUE(overlay.ok());
  std::shared_ptr<const GrammarSnapshot> shared = overlay.take();
  const std::string image = SerializeGrammar(shared->grammar());

  // The merge thread's side: clone the shared snapshot and repair it.
  std::vector<std::string> merges;
  std::thread merger([&] {
    for (int i = 0; i < 4; ++i) {
      GrammarRepairResult r = LocalizedGrammarRePair(
          shared->grammar().Clone(), first.damage, {});
      merges.push_back(SerializeGrammar(r.grammar));
    }
  });
  // The writer's side: derive children of the same snapshot.
  std::vector<std::string> writes;
  for (int i = 0; i < 4; ++i) {
    for (size_t b = 1; b < f.batches.size(); ++b) {
      BatchEffects effects;
      auto child = ApplyEncodedBatch(*shared, f.batches[b], 2, &effects);
      if (child.ok()) writes.push_back(SerializeGrammar(child.value()->grammar()));
    }
  }
  merger.join();

  EXPECT_EQ(SerializeGrammar(shared->grammar()), image);
  ASSERT_EQ(merges.size(), 4u);
  for (const std::string& m : merges) EXPECT_EQ(m, merges[0]);
  ASSERT_FALSE(writes.empty());
  ASSERT_EQ(writes.size() % 4, 0u);
  const size_t per_round = writes.size() / 4;
  for (size_t i = per_round; i < writes.size(); ++i) {
    EXPECT_EQ(writes[i], writes[i % per_round]);
  }
}

}  // namespace
}  // namespace slg
