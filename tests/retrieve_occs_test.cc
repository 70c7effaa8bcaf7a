// Focused tests for the weighted grammar digram index: delta
// add/remove round-trips, weight adjustment, rescans, the
// positive-savings filter, and a seeded lockstep run against the
// reference index of tests/legacy_grammar_index.h.

#include "src/core/retrieve_occs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/tree_links.h"
#include "src/datasets/generators.h"
#include "src/grammar/orders.h"
#include "src/grammar/text_format.h"
#include "src/grammar/usage.h"
#include "src/repair/tree_repair.h"
#include "src/update/batch.h"
#include "src/workload/update_workload.h"
#include "src/xml/binary_encoding.h"
#include "tests/legacy_grammar_index.h"

namespace slg {
namespace {

Grammar TwoRuleGrammar() {
  auto g = GrammarFromRules({
      "S -> f(A,A,a(b(e)))",
      "A -> a(b(e))",
  });
  SLG_CHECK(g.ok());
  return g.take();
}

TEST(GrammarDigramIndexTest, WeightedCounts) {
  Grammar g = TwoRuleGrammar();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  LabelId a = g.labels().Find("a");
  LabelId b = g.labels().Find("b");
  // (a,1,b): once in S (weight 1) and once in A (weight 2) = 3.
  EXPECT_EQ(index.WeightedCount(Digram{a, 1, b}), 3u);
  // (f,1,a): the A call site resolves to A's root a; two such + the
  // literal a child at index 3.
  LabelId f = g.labels().Find("f");
  EXPECT_EQ(index.WeightedCount(Digram{f, 1, a}), 1u);
  EXPECT_EQ(index.WeightedCount(Digram{f, 2, a}), 1u);
  EXPECT_EQ(index.WeightedCount(Digram{f, 3, a}), 1u);
}

TEST(GrammarDigramIndexTest, DropRuleRemovesItsOccurrences) {
  Grammar g = TwoRuleGrammar();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  LabelId a = g.labels().Find("a");
  LabelId b = g.labels().Find("b");
  LabelId rule_a = g.labels().Find("A");
  index.DropRule(rule_a);
  // Only S's occurrence remains.
  EXPECT_EQ(index.WeightedCount(Digram{a, 1, b}), 1u);
}

TEST(GrammarDigramIndexTest, AdjustWeightRescalesCounts) {
  Grammar g = TwoRuleGrammar();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  LabelId a = g.labels().Find("a");
  LabelId b = g.labels().Find("b");
  LabelId rule_a = g.labels().Find("A");
  index.AdjustWeight(rule_a, 7);
  EXPECT_EQ(index.WeightedCount(Digram{a, 1, b}), 8u);  // 1 + 7
  index.AdjustWeight(rule_a, 2);
  EXPECT_EQ(index.WeightedCount(Digram{a, 1, b}), 3u);
}

TEST(GrammarDigramIndexTest, AddRemoveGeneratorRoundTrip) {
  Grammar g = TwoRuleGrammar();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  LabelId a = g.labels().Find("a");
  LabelId b = g.labels().Find("b");
  Digram d{a, 1, b};
  LabelId s = g.start();
  // Locate S's b node (generator of its (a,1,b) occurrence).
  const Tree& t = g.rhs(s);
  NodeId gen = kNilNode;
  t.VisitPreorder(t.root(), [&](NodeId v) {
    if (gen == kNilNode && t.label(v) == b) gen = v;
  });
  ASSERT_NE(gen, kNilNode);
  index.RemoveGenerator(d, RuleNode{s, gen});
  EXPECT_EQ(index.WeightedCount(d), 2u);
  index.AddGenerator(g, RuleNode{s, gen}, 1);
  EXPECT_EQ(index.WeightedCount(d), 3u);
  // Double add is idempotent.
  index.AddGenerator(g, RuleNode{s, gen}, 1);
  EXPECT_EQ(index.WeightedCount(d), 3u);
}

TEST(GrammarDigramIndexTest, EqualLabelOverlapRejectedBothDirections) {
  // Chain r -> c(c(c(e,~),~),~): digram (c,1,c) twice, overlapping.
  auto g = GrammarFromRules({"S -> c(c(c(e,~),~),~)"}).take();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  LabelId c = g.labels().Find("c");
  EXPECT_EQ(index.WeightedCount(Digram{c, 1, c}), 1u);
}

TEST(GrammarDigramIndexTest, PositiveSavingsFilter) {
  Grammar g = TwoRuleGrammar();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  RepairOptions plain;
  // Without the filter some digram is offered.
  EXPECT_TRUE(index.MostFrequent(g.labels(), plain).has_value());
  // With it, rank-1 digrams need weighted count >= 3; (a,1,b) with
  // count 3 still qualifies, count-2 digrams do not.
  RepairOptions strict;
  strict.require_positive_savings = true;
  auto d = index.MostFrequent(g.labels(), strict);
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(index.WeightedCount(*d),
            static_cast<uint64_t>(DigramRank(*d, g.labels())) + 2);
}

TEST(GrammarDigramIndexTest, TakeClearsAndSorts) {
  Grammar g = TwoRuleGrammar();
  auto usage = ComputeUsage(g);
  GrammarDigramIndex index;
  index.Build(g, usage);
  LabelId a = g.labels().Find("a");
  LabelId b = g.labels().Find("b");
  Digram d{a, 1, b};
  std::vector<RuleNode> gens = index.Take(d);
  EXPECT_EQ(gens.size(), 2u);
  EXPECT_TRUE(gens[0].rule < gens[1].rule ||
              (gens[0].rule == gens[1].rule && gens[0].node < gens[1].node));
  EXPECT_EQ(index.WeightedCount(d), 0u);
  EXPECT_TRUE(index.Take(d).empty());
}

// ---------------------------------------------------------------------
// Lockstep: GrammarDigramIndex against the reference index
// (tests/legacy_grammar_index.h) through the index API alone. Both see
// the same seeded sequence of Build, DropRule + RescanRules,
// AdjustWeight, AddGenerator, RemoveGenerator, RemoveGeneratorAt and
// Take calls on an updated corpus grammar, including pure-local
// replacement rounds in the start rule (Take, then ReplaceDigramNodes
// between the neighbourhood removals and additions, as the repair
// drivers run them). After every call, MostFrequent under each option
// set, the weighted counts of the digrams the call touched and
// TotalOccurrences must agree, and so must every Take.

// The reference index's lazy heap drops the entries an option set
// rejects, so it answers MostFrequent for one option set only: the
// lockstep keeps one reference index per set.
std::vector<RepairOptions> LockstepOptions() {
  std::vector<RepairOptions> out(5);
  out[1].max_rank = 2;
  out[2].min_count = 3;
  out[3].require_positive_savings = true;
  out[4].max_rank = 1;
  out[4].min_count = 1;
  return out;
}

// The digram a generator stands for, or nullopt where the index stores
// none (a rule root or a parameter).
std::optional<Digram> GeneratorDigram(const Grammar& g, RuleNode gen) {
  const Tree& t = g.rhs(gen.rule);
  if (gen.node == t.root() || g.labels().IsParam(t.label(gen.node))) {
    return std::nullopt;
  }
  TreeParentResult tp = TreeParentOf(g, gen);
  RuleNode tc = TreeChildOf(g, gen);
  return Digram{g.rhs(tp.parent.rule).label(tp.parent.node), tp.child_index,
                g.rhs(tc.rule).label(tc.node)};
}

class GrammarLockstep {
 public:
  explicit GrammarLockstep(const Grammar* g)
      : g_(g), options_(LockstepOptions()), refs_(options_.size()) {}

  void Build(const std::vector<uint64_t>& usage,
             const std::vector<LabelId>& anti_sl_order) {
    bucket_.Build(*g_, usage, anti_sl_order);
    for (LegacyGrammarDigramIndex& r : refs_) {
      r.Build(*g_, usage, anti_sl_order);
    }
    Check({});
  }

  // Drops `rules`, then rescans them (already in anti-SL order).
  void DropAndRescan(const std::vector<uint64_t>& usage,
                     const std::vector<LabelId>& rules) {
    std::vector<Digram> touched;
    for (LabelId rule : rules) {
      AppendRuleDigrams(rule, &touched);
      bucket_.DropRule(rule);
      for (LegacyGrammarDigramIndex& r : refs_) r.DropRule(rule);
      Check(touched);
    }
    bucket_.RescanRules(*g_, usage, rules);
    for (LegacyGrammarDigramIndex& r : refs_) r.RescanRules(*g_, usage, rules);
    Check(touched);
  }

  void AdjustWeight(LabelId rule, uint64_t usage) {
    bucket_.AdjustWeight(rule, usage);
    for (LegacyGrammarDigramIndex& r : refs_) r.AdjustWeight(rule, usage);
    std::vector<Digram> touched;
    AppendRuleDigrams(rule, &touched);
    Check(touched);
  }

  void AddGenerator(RuleNode gen, uint64_t usage) {
    bucket_.AddGenerator(*g_, gen, usage);
    for (LegacyGrammarDigramIndex& r : refs_) r.AddGenerator(*g_, gen, usage);
    CheckAt(gen);
  }

  void RemoveGenerator(const Digram& d, RuleNode gen) {
    bucket_.RemoveGenerator(d, gen);
    for (LegacyGrammarDigramIndex& r : refs_) r.RemoveGenerator(d, gen);
    Check({d});
  }

  void RemoveGeneratorAt(RuleNode gen) {
    bucket_.RemoveGeneratorAt(gen);
    for (LegacyGrammarDigramIndex& r : refs_) r.RemoveGeneratorAt(gen);
    CheckAt(gen);
  }

  std::vector<RuleNode> Take(const Digram& d) {
    std::vector<RuleNode> gens = bucket_.Take(d);
    for (LegacyGrammarDigramIndex& r : refs_) {
      std::vector<RuleNode> ref = r.Take(d);
      EXPECT_TRUE(ref == gens) << "Take diverges: " << ref.size() << " vs "
                               << gens.size() << " generators";
    }
    Check({d});
    return gens;
  }

  std::optional<Digram> MostFrequent() {
    return bucket_.MostFrequent(g_->labels(), options_[0]);
  }

  // The weighted count of every generator's digram.
  void CheckAllCounts() {
    std::vector<Digram> all;
    for (LabelId rule : AntiSlOrder(*g_)) AppendRuleDigrams(rule, &all);
    Check(all);
  }

 private:
  void AppendRuleDigrams(LabelId rule, std::vector<Digram>* out) const {
    const Tree& t = g_->rhs(rule);
    t.VisitPreorder(t.root(), [&](NodeId n) {
      if (auto d = GeneratorDigram(*g_, RuleNode{rule, n})) out->push_back(*d);
    });
  }

  void CheckAt(RuleNode gen) {
    std::optional<Digram> d = GeneratorDigram(*g_, gen);
    Check(d ? std::vector<Digram>{*d} : std::vector<Digram>{});
  }

  void Check(const std::vector<Digram>& touched) {
    for (size_t k = 0; k < refs_.size(); ++k) {
      LegacyGrammarDigramIndex& r = refs_[k];
      EXPECT_EQ(bucket_.MostFrequent(g_->labels(), options_[k]),
                r.MostFrequent(g_->labels(), options_[k]))
          << "MostFrequent diverges under option set " << k;
      EXPECT_EQ(bucket_.TotalOccurrences(), r.TotalOccurrences());
      for (const Digram& d : touched) {
        EXPECT_EQ(bucket_.WeightedCount(d), r.WeightedCount(d))
            << "count of " << DigramToString(d, g_->labels());
      }
    }
  }

  const Grammar* g_;
  std::vector<RepairOptions> options_;
  GrammarDigramIndex bucket_;
  std::vector<LegacyGrammarDigramIndex> refs_;
};

// TreeRePair of a workload's seed document, then the workload as one
// batch: shared rules with usage above 1 and a start rule holding the
// isolated paths.
Grammar UpdatedCorpusGrammar(Corpus c) {
  LabelTable labels;
  Tree bin = EncodeBinary(GenerateCorpus(c, 0.02), &labels);
  WorkloadOptions wopts;
  wopts.num_ops = 30;
  wopts.seed = 7;
  UpdateWorkload w = MakeUpdateWorkload(bin, labels, wopts);
  Grammar g = TreeRePair(Tree(w.seed), labels).grammar;
  BatchUpdater batch(&g);
  for (const UpdateOp& op : w.ops) SLG_CHECK(batch.Apply(op).ok());
  batch.Finish();
  return g;
}

class GrammarIndexLockstepTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(GrammarIndexLockstepTest, EveryAnswerMatchesTheReference) {
  Grammar g = UpdatedCorpusGrammar(GetParam());
  const LabelId start = g.start();
  std::vector<uint64_t> usage = DenseUsage(g);
  const std::vector<LabelId> order = AntiSlOrder(g);
  std::unordered_map<LabelId, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  const uint64_t kWeights[] = {1, 2, 3, 7, 5000, uint64_t{1} << 61};

  GrammarLockstep lock(&g);
  lock.Build(usage, order);
  Rng rng(0x10c4u + static_cast<uint64_t>(GetParam()));
  std::unordered_map<LabelId, std::vector<NodeId>> nodes;  // by rule
  auto random_gen = [&]() {
    LabelId r = order[rng.Below(order.size())];
    std::vector<NodeId>& ns = nodes[r];
    if (ns.empty()) ns = g.rhs(r).Preorder();
    return RuleNode{r, ns[rng.Below(ns.size())]};
  };
  std::vector<RuleNode> out;  // removed or taken, for later re-adds

  for (int step = 0; step < 400 && !HasFailure(); ++step) {
    RuleNode gen = random_gen();
    switch (rng.Below(10)) {
      case 0:
      case 1: {  // a pure-local replacement round in the start rule
        for (const RuleNode& o : out) {
          lock.AddGenerator(o, usage[static_cast<size_t>(o.rule)]);
        }
        out.clear();
        const Tree& ts = g.rhs(start);
        auto pure_local = [&](NodeId n) {
          return n != ts.root() && !g.IsNonterminal(ts.label(n)) &&
                 !g.IsNonterminal(ts.label(ts.parent(n)));
        };
        // The top digram, or one a pure-local start-rule node generates.
        std::optional<Digram> d = lock.MostFrequent();
        std::vector<NodeId>& ns = nodes[start];
        if (ns.empty()) ns = ts.Preorder();
        for (int tries = rng.Chance(0.3) ? 0 : 16; tries > 0; --tries) {
          NodeId n = ns[rng.Below(ns.size())];
          if (pure_local(n)) {
            d = GeneratorDigram(g, RuleNode{start, n});
            break;
          }
        }
        if (!d) {
          lock.Build(usage, order);
          break;
        }
        LabelId x = g.labels().Fresh("X", DigramRank(*d, g.labels()));
        std::vector<NodeId> local;
        for (const RuleNode& t : lock.Take(*d)) {
          if (t.rule == start && pure_local(t.node)) local.push_back(t.node);
        }
        const uint64_t w = usage[static_cast<size_t>(start)];
        for (NodeId c : local) {
          Tree& t = g.mutable_rhs(start);
          NodeId v = t.parent(c);
          std::vector<NodeId> around;
          if (t.parent(v) != kNilNode) around.push_back(v);
          int j = 0;
          for (NodeId n = t.first_child(v); n != kNilNode;
               n = t.next_sibling(n)) {
            if (++j != d->child_index) around.push_back(n);
          }
          for (NodeId n = t.first_child(c); n != kNilNode;
               n = t.next_sibling(n)) {
            around.push_back(n);
          }
          for (NodeId n : around) {
            RuleNode rn{start, n};
            lock.RemoveGenerator(*GeneratorDigram(g, rn), rn);
          }
          NodeId x_node = ReplaceDigramNodes(&t, v, d->child_index, x);
          if (t.parent(x_node) != kNilNode) {
            lock.AddGenerator(RuleNode{start, x_node}, w);
          }
          for (NodeId n = t.first_child(x_node); n != kNilNode;
               n = t.next_sibling(n)) {
            lock.AddGenerator(RuleNode{start, n}, w);
          }
        }
        nodes.erase(start);
        break;
      }
      case 2: {  // drop and rescan a few rules
        std::vector<LabelId> rules;
        for (int i = 0, n = static_cast<int>(rng.Range(1, 3)); i < n; ++i) {
          LabelId r = order[rng.Below(order.size())];
          if (std::find(rules.begin(), rules.end(), r) == rules.end()) {
            rules.push_back(r);
          }
        }
        std::sort(rules.begin(), rules.end(),
                  [&](LabelId a, LabelId b) { return pos[a] < pos[b]; });
        lock.DropAndRescan(usage, rules);
        break;
      }
      case 3: {
        uint64_t u = kWeights[rng.Below(std::size(kWeights))];
        usage[static_cast<size_t>(gen.rule)] = u;
        lock.AdjustWeight(gen.rule, u);
        break;
      }
      case 4:
        lock.RemoveGeneratorAt(gen);
        out.push_back(gen);
        break;
      case 5:
        if (std::optional<Digram> d = GeneratorDigram(g, gen)) {
          if (rng.Chance(0.25)) ++d->child_index;  // not stored: a no-op
          lock.RemoveGenerator(*d, gen);
          out.push_back(gen);
        }
        break;
      case 6:
        // Out-of-order re-adds exercise both equal-label overlap checks.
        if (!out.empty() && rng.Chance(0.7)) {
          size_t i = rng.Below(out.size());
          gen = out[i];
          out[i] = out.back();
          out.pop_back();
        }
        lock.AddGenerator(gen, usage[static_cast<size_t>(gen.rule)]);
        break;
      case 7:
        if (std::optional<Digram> d = GeneratorDigram(g, gen)) {
          for (const RuleNode& t : lock.Take(*d)) out.push_back(t);
        }
        break;
      case 8:
        if (std::optional<Digram> d = lock.MostFrequent()) {
          for (const RuleNode& t : lock.Take(*d)) out.push_back(t);
        }
        break;
      default:
        if (rng.Chance(0.2)) lock.Build(usage, order);
        lock.CheckAllCounts();
        break;
    }
  }
  lock.CheckAllCounts();
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, GrammarIndexLockstepTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark, Corpus::kMedline,
                      Corpus::kNcbi, Corpus::kTreebank, Corpus::kExiTelecomp));

}  // namespace
}  // namespace slg
