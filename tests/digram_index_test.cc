// Tests for the bucketed (Larsson-Moffat-style) TreeDigramIndex:
// neighborhood Add/Remove invariants, the equal-label overlap rule,
// MostFrequent tie/threshold/rank behavior, and a seeded lockstep run
// that drives the bucket index and the original hash-set + lazy-heap
// index through the same calls on corpus trees and compares every
// answer.

#include "src/repair/digram_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/datasets/generators.h"
#include "src/grammar/text_format.h"
#include "src/common/rng.h"
#include "src/repair/digram.h"
#include "src/tree/tree_io.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

// ---------------------------------------------------------------------
// Reference implementation: the pre-bucket index (unordered_set per
// digram + lazy max-heap of count snapshots), kept as the reference
// the bucket index must match answer for answer (the lockstep test at
// the end of this file).

class LegacyTreeDigramIndex {
 public:
  explicit LegacyTreeDigramIndex(const LabelTable* labels) : labels_(labels) {}

  void Build(const Tree& t) {
    table_.clear();
    total_ = 0;
    heap_ = {};
    std::vector<NodeId> order = t.Preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId v = *it;
      int i = 0;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        ++i;
        Add(t, v, i);
      }
    }
  }

  void Add(const Tree& t, NodeId v, int child_index) {
    NodeId w = t.Child(v, child_index);
    LabelId a = t.label(v);
    LabelId b = t.label(w);
    if (labels_->IsParam(a) || labels_->IsParam(b)) return;
    Digram d{a, child_index, b};
    Entry& e = table_[d];
    if (a == b) {
      if (e.parents.count(w) > 0) return;
      NodeId p = t.parent(v);
      if (p != kNilNode && t.label(p) == a && e.parents.count(p) > 0 &&
          t.Child(p, child_index) == v) {
        return;
      }
    }
    if (e.parents.insert(v).second) {
      ++total_;
      PushHeap(d, static_cast<long long>(e.parents.size()));
    }
  }

  void Remove(const Digram& d, NodeId v) {
    auto it = table_.find(d);
    if (it == table_.end()) return;
    if (it->second.parents.erase(v) > 0) {
      --total_;
      PushHeap(d, static_cast<long long>(it->second.parents.size()));
    }
  }

  std::vector<NodeId> Take(const Digram& d) {
    auto it = table_.find(d);
    if (it == table_.end()) return {};
    std::vector<NodeId> out(it->second.parents.begin(),
                            it->second.parents.end());
    std::sort(out.begin(), out.end());
    total_ -= static_cast<long long>(out.size());
    table_.erase(it);
    return out;
  }

  long long Count(const Digram& d) const {
    auto it = table_.find(d);
    return it == table_.end()
               ? 0
               : static_cast<long long>(it->second.parents.size());
  }

  std::optional<Digram> MostFrequent(const RepairOptions& options) {
    auto less = [](const Digram& a, const Digram& b) {
      if (a.parent_label != b.parent_label) {
        return a.parent_label < b.parent_label;
      }
      if (a.child_index != b.child_index) return a.child_index < b.child_index;
      return a.child_label < b.child_label;
    };
    while (!heap_.empty()) {
      HeapItem top = heap_.top();
      heap_.pop();
      long long current = Count(top.d);
      if (current != top.count) continue;  // stale snapshot
      if (current < options.min_count) continue;
      if (DigramRank(top.d, *labels_) > options.max_rank) continue;
      Digram best = top.d;
      std::vector<Digram> requeue;
      while (!heap_.empty() && heap_.top().count == top.count) {
        HeapItem other = heap_.top();
        heap_.pop();
        if (Count(other.d) != other.count) continue;
        if (DigramRank(other.d, *labels_) > options.max_rank) continue;
        requeue.push_back(other.d);
        if (less(other.d, best)) best = other.d;
      }
      // Every entry goes back, the answer's too: MostFrequent is a
      // query, and the answer stays stored until it is taken.
      requeue.push_back(top.d);
      for (const Digram& d : requeue) PushHeap(d, top.count);
      return best;
    }
    return std::nullopt;
  }

  long long TotalOccurrences() const { return total_; }

 private:
  struct Entry {
    std::unordered_set<NodeId> parents;
  };
  struct HeapItem {
    long long count;
    Digram d;
    bool operator<(const HeapItem& o) const { return count < o.count; }
  };

  void PushHeap(const Digram& d, long long count) {
    if (count > 0) heap_.push(HeapItem{count, d});
  }

  const LabelTable* labels_;
  std::unordered_map<Digram, Entry, DigramHash> table_;
  std::priority_queue<HeapItem> heap_;
  long long total_ = 0;
};

// ---------------------------------------------------------------------
// Unit tests of the bucket index.

TEST(BucketDigramIndexTest, AddRemoveInvariants) {
  LabelTable labels;
  Tree t = ParseTerm("f(a(c,c),a(c,c))", &labels).take();
  TreeDigramIndex index(&labels);
  index.Build(t);
  LabelId f = labels.Find("f");
  LabelId a = labels.Find("a");
  LabelId c = labels.Find("c");
  Digram ac1{a, 1, c};
  EXPECT_EQ(index.Count(ac1), 2);
  EXPECT_EQ(index.TotalOccurrences(), 6);

  NodeId a1 = t.Child(t.root(), 1);
  index.Remove(ac1, a1);
  EXPECT_EQ(index.Count(ac1), 1);
  EXPECT_EQ(index.TotalOccurrences(), 5);
  // Removing again is a no-op.
  index.Remove(ac1, a1);
  EXPECT_EQ(index.Count(ac1), 1);
  EXPECT_EQ(index.TotalOccurrences(), 5);
  // Removing a never-seen digram is a no-op.
  index.Remove(Digram{f, 1, c}, t.root());
  EXPECT_EQ(index.TotalOccurrences(), 5);

  // Re-adding restores the occurrence exactly once.
  index.Add(t, a1, 1);
  index.Add(t, a1, 1);
  EXPECT_EQ(index.Count(ac1), 2);
  EXPECT_EQ(index.TotalOccurrences(), 6);
}

TEST(BucketDigramIndexTest, EqualLabelOverlapRule) {
  // Chain a-a-a-a along child 2: greedy children-before-parents keeps
  // (a3,a4) and (a1,a2), so the middle edge (a2,a3) is rejected.
  LabelTable labels;
  Tree t = ParseTerm("a(x,a(x,a(x,a(x,y))))", &labels).take();
  TreeDigramIndex index(&labels);
  index.Build(t);
  LabelId a = labels.Find("a");
  Digram aa{a, 2, a};
  EXPECT_EQ(index.Count(aa), 2);

  // The stored parents are a1 (root) and a3.
  NodeId a1 = t.root();
  NodeId a2 = t.Child(a1, 2);
  NodeId a3 = t.Child(a2, 2);
  std::vector<NodeId> occs = index.Take(aa);
  std::vector<NodeId> expect = {a1, a3};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(occs, expect);
  EXPECT_EQ(index.Count(aa), 0);

  // After Take, the middle edge can be stored: nothing overlaps.
  index.Add(t, a2, 2);
  EXPECT_EQ(index.Count(aa), 1);
  // Now (a1,a2) overlaps via its child a2, and (a3,a4) overlaps via
  // its parent a3 being the stored child — both rejected.
  index.Add(t, a1, 2);
  EXPECT_EQ(index.Count(aa), 1);
  index.Add(t, a3, 2);
  EXPECT_EQ(index.Count(aa), 1);
}

TEST(BucketDigramIndexTest, MostFrequentThreshold) {
  LabelTable labels;
  // Every digram occurs exactly once.
  Tree t = ParseTerm("f(a(c,c),b)", &labels).take();
  TreeDigramIndex index(&labels);
  index.Build(t);
  LabelId a = labels.Find("a");
  LabelId c = labels.Find("c");
  EXPECT_EQ(index.Count(Digram{a, 1, c}), 1);
  RepairOptions opts;
  opts.min_count = 2;  // nothing reaches the threshold
  EXPECT_FALSE(index.MostFrequent(opts).has_value());
  opts.min_count = 1;
  EXPECT_TRUE(index.MostFrequent(opts).has_value());
}

TEST(BucketDigramIndexTest, MostFrequentTieBreakLexicographic) {
  LabelTable labels;
  // (f,1,a) and (f,2,b) both occur twice; the lexicographically
  // smaller key — smaller child_index — must win, deterministically.
  Tree t = ParseTerm("r(f(a,b),f(a,b))", &labels).take();
  TreeDigramIndex index(&labels);
  index.Build(t);
  RepairOptions opts;
  auto d = index.MostFrequent(opts);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->parent_label, labels.Find("f"));
  EXPECT_EQ(d->child_index, 1);
  EXPECT_EQ(d->child_label, labels.Find("a"));
}

TEST(BucketDigramIndexTest, MostFrequentSkipsHighRankInTopBucket) {
  LabelTable labels;
  // (f,1,g) has rank 1+3-1 = 3 and count 2; every other digram has
  // count 1 (the g subtrees use distinct leaves), so the top bucket
  // holds only the rank-ineligible digram.
  Tree t = ParseTerm("r(f(g(x,y,z)),f(g(u,v,w)))", &labels).take();
  TreeDigramIndex index(&labels);
  index.Build(t);
  RepairOptions opts;
  opts.max_rank = 2;
  opts.min_count = 1;
  // The count-2 bucket holds only the rank-3 digram; selection must
  // fall through to an eligible count-1 digram.
  auto d = index.MostFrequent(opts);
  ASSERT_TRUE(d.has_value());
  EXPECT_LE(DigramRank(*d, labels), 2);
  EXPECT_EQ(index.Count(*d), 1);
}

TEST(BucketDigramIndexTest, TakeClearsAndSorts) {
  LabelTable labels;
  Tree t = ParseTerm("f(a(c,c),a(c,c),a(c,c))", &labels).take();
  TreeDigramIndex index(&labels);
  index.Build(t);
  LabelId a = labels.Find("a");
  LabelId c = labels.Find("c");
  std::vector<NodeId> occs = index.Take(Digram{a, 1, c});
  EXPECT_EQ(occs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(occs.begin(), occs.end()));
  EXPECT_EQ(index.Count(Digram{a, 1, c}), 0);
  EXPECT_TRUE(index.Take(Digram{a, 1, c}).empty());
  // The a,2,c occurrences are untouched.
  EXPECT_EQ(index.Count(Digram{a, 2, c}), 3);
}

// ---------------------------------------------------------------------
// Lockstep: the bucket index against the reference index above, through
// the index API alone. Both see the same seeded sequence of Build, Add,
// Remove and Take calls on one corpus tree, including whole TreeRePair
// rounds (Take, then ReplaceDigramNodes between the neighborhood
// Removes and Adds). After every call, MostFrequent under each option
// set, the counts of the digrams the call touched and TotalOccurrences
// must agree, and so must every Take.

// The reference index's lazy heap drops the entries an option set
// rejects, so it answers MostFrequent for one option set only: the
// lockstep keeps one reference index per set.
std::vector<RepairOptions> LockstepOptions() {
  std::vector<RepairOptions> out(4);
  out[1].max_rank = 2;
  out[2].min_count = 1;
  out[3].max_rank = 1;
  out[3].min_count = 3;
  return out;
}

class TreeLockstep {
 public:
  TreeLockstep(Tree* t, LabelTable* labels)
      : t_(t), options_(LockstepOptions()), bucket_(labels) {
    for (size_t k = 0; k < options_.size(); ++k) refs_.emplace_back(labels);
  }

  void Build() {
    bucket_.Build(*t_);
    for (LegacyTreeDigramIndex& r : refs_) r.Build(*t_);
    Check({});
  }

  void Add(NodeId v, int child_index) {
    bucket_.Add(*t_, v, child_index);
    for (LegacyTreeDigramIndex& r : refs_) r.Add(*t_, v, child_index);
    Check({EdgeDigram(v, child_index)});
  }

  void Remove(const Digram& d, NodeId v) {
    bucket_.Remove(d, v);
    for (LegacyTreeDigramIndex& r : refs_) r.Remove(d, v);
    Check({d});
  }

  std::vector<NodeId> Take(const Digram& d) {
    std::vector<NodeId> occs = bucket_.Take(d);
    for (LegacyTreeDigramIndex& r : refs_) {
      EXPECT_EQ(r.Take(d), occs) << "Take diverges";
    }
    Check({d});
    return occs;
  }

  std::optional<Digram> MostFrequent() {
    return bucket_.MostFrequent(options_[0]);
  }

  // One TreeRePair round of `d`, as the driver runs it.
  void Replace(const Digram& d, LabelId x) {
    for (NodeId v : Take(d)) {
      NodeId w = t_->Child(v, d.child_index);
      NodeId p = t_->parent(v);
      if (p != kNilNode) Remove(EdgeDigram(p, t_->ChildIndex(v)), p);
      int j = 0;
      for (NodeId c = t_->first_child(v); c != kNilNode;
           c = t_->next_sibling(c)) {
        if (++j != d.child_index) Remove(EdgeDigram(v, j), v);
      }
      for (int k = 1; k <= t_->NumChildren(w); ++k) {
        Remove(EdgeDigram(w, k), w);
      }
      NodeId x_node = ReplaceDigramNodes(t_, v, d.child_index, x);
      if (t_->parent(x_node) != kNilNode) {
        Add(t_->parent(x_node), t_->ChildIndex(x_node));
      }
      for (int k = 1; k <= t_->NumChildren(x_node); ++k) Add(x_node, k);
    }
  }

  // The count of every edge's digram, not just the touched ones.
  void CheckAllCounts() {
    for (NodeId v : t_->Preorder()) {
      for (int k = 1; k <= t_->NumChildren(v); ++k) Check({EdgeDigram(v, k)});
    }
  }

  Digram EdgeDigram(NodeId v, int child_index) const {
    return Digram{t_->label(v), child_index,
                  t_->label(t_->Child(v, child_index))};
  }

 private:
  void Check(const std::vector<Digram>& touched) {
    for (size_t k = 0; k < refs_.size(); ++k) {
      LegacyTreeDigramIndex& r = refs_[k];
      EXPECT_EQ(bucket_.MostFrequent(options_[k]), r.MostFrequent(options_[k]))
          << "MostFrequent diverges under option set " << k;
      EXPECT_EQ(bucket_.TotalOccurrences(), r.TotalOccurrences());
      for (const Digram& d : touched) {
        EXPECT_EQ(bucket_.Count(d), r.Count(d))
            << "count of (" << d.parent_label << "," << d.child_index << ","
            << d.child_label << ")";
      }
    }
  }

  Tree* t_;
  std::vector<RepairOptions> options_;
  TreeDigramIndex bucket_;
  std::vector<LegacyTreeDigramIndex> refs_;
};

class TreeIndexLockstepTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(TreeIndexLockstepTest, EveryAnswerMatchesTheReference) {
  LabelTable labels;
  Tree t = EncodeBinary(GenerateCorpus(GetParam(), 0.01), &labels);
  Rng rng(0x5eed0000u + static_cast<uint64_t>(GetParam()));
  TreeLockstep lock(&t, &labels);
  lock.Build();
  std::vector<NodeId> inner;  // nodes with children, refreshed on edits
  auto refresh = [&] {
    inner.clear();
    for (NodeId v : t.Preorder()) {
      if (t.NumChildren(v) > 0) inner.push_back(v);
    }
  };
  refresh();
  for (int step = 0; step < 300 && !HasFailure(); ++step) {
    NodeId v = inner[rng.Below(inner.size())];
    int k = static_cast<int>(rng.Range(1, t.NumChildren(v)));
    switch (rng.Below(10)) {
      case 0:
      case 1:
      case 2: {  // a TreeRePair round
        std::optional<Digram> d = lock.MostFrequent();
        if (!d) {
          lock.Build();
          break;
        }
        lock.Replace(*d, labels.Fresh("X", DigramRank(*d, labels)));
        refresh();
        break;
      }
      case 3:
      case 4:
        lock.Remove(lock.EdgeDigram(v, k), v);
        break;
      case 5:  // a digram not stored at v: a no-op for both
        lock.Remove(Digram{t.label(v), k + 1, t.label(v)}, v);
        break;
      case 6:
      case 7:  // out-of-order adds exercise both overlap checks
        lock.Add(v, k);
        break;
      case 8:  // taken occurrences stay out until re-added
        lock.Take(lock.EdgeDigram(v, k));
        break;
      default:
        if (rng.Chance(0.2)) lock.Build();
        lock.CheckAllCounts();
        break;
    }
  }
  lock.CheckAllCounts();
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, TreeIndexLockstepTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark, Corpus::kMedline,
                      Corpus::kNcbi, Corpus::kTreebank, Corpus::kExiTelecomp));

}  // namespace
}  // namespace slg
