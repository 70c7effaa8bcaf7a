#include "src/core/retrieve_occs.h"

#include <algorithm>

#include "src/grammar/orders.h"

namespace slg {

void GrammarDigramIndex::Build(
    const Grammar& g, const std::unordered_map<LabelId, uint64_t>& usage) {
  std::vector<uint64_t> dense(g.labels().size(), 0);
  for (const auto& [r, u] : usage) dense[static_cast<size_t>(r)] = u;
  Build(g, dense, AntiSlOrder(g));
}

void GrammarDigramIndex::Build(const Grammar& g,
                               const std::vector<uint64_t>& usage,
                               const std::vector<LabelId>& anti_sl_order) {
  table_.Clear();
  books_.clear();
  books_.resize(static_cast<size_t>(g.labels().size()));
  for (LabelId r : anti_sl_order) {
    ScanRule(g, r, usage[static_cast<size_t>(r)]);
  }
}

void GrammarDigramIndex::RescanRules(const Grammar& g,
                                     const std::vector<uint64_t>& usage,
                                     const std::vector<LabelId>& rules) {
  for (LabelId r : rules) {
    ScanRule(g, r, usage[static_cast<size_t>(r)]);
  }
}

GrammarDigramIndex::RuleBook& GrammarDigramIndex::BookFor(LabelId rule) {
  if (static_cast<size_t>(rule) >= books_.size()) {
    books_.resize(static_cast<size_t>(rule) + 1);
  }
  return books_[static_cast<size_t>(rule)];
}

OccId GrammarDigramIndex::OccOf(RuleNode rn) const {
  if (static_cast<size_t>(rn.rule) >= books_.size()) return kNilId;
  const RuleBook& book = books_[static_cast<size_t>(rn.rule)];
  if (static_cast<size_t>(rn.node) >= book.node_occ.size()) return kNilId;
  return book.node_occ[static_cast<size_t>(rn.node)];
}

void GrammarDigramIndex::UnlinkRule(OccId o) {
  const Occ& occ = table_.occ(o);
  RuleBook& book = books_[static_cast<size_t>(occ.rule)];
  if (occ.rprev != kNilId) {
    table_.occ(occ.rprev).rnext = occ.rnext;
  } else {
    book.head = occ.rnext;
  }
  if (occ.rnext != kNilId) table_.occ(occ.rnext).rprev = occ.rprev;
  book.node_occ[static_cast<size_t>(occ.node)] = kNilId;
}

void GrammarDigramIndex::AddGenerator(const Grammar& g, RuleNode gen,
                                      uint64_t usage) {
  const Tree& t = g.rhs(gen.rule);
  if (gen.node == t.root()) return;
  LabelId l = t.label(gen.node);
  if (g.labels().IsParam(l)) return;
  TreeParentResult tp = TreeParentOf(g, gen);
  RuleNode tc = TreeChildOf(g, gen);
  LabelId a = g.rhs(tp.parent.rule).label(tp.parent.node);
  LabelId b = g.rhs(tc.rule).label(tc.node);
  Digram alpha{a, tp.child_index, b};
  DigramId id = table_.Intern(alpha, g.labels());
  if (a == b) {
    // Equal labels: only terminal generators, and only if the tree
    // parent is not already a stored generator of the same digram.
    if (g.IsNonterminal(l)) return;
    OccId up = OccOf(tp.parent);
    if (up != kNilId && table_.occ(up).digram == id) return;
    // Downward overlap: the occurrence below (this node as tree
    // parent) may already be stored — possible only for
    // out-of-preorder delta additions (§IV-C), never during a scan.
    NodeId ci = t.Child(gen.node, alpha.child_index);
    if (ci != kNilNode && t.label(ci) == b) {
      OccId down = OccOf(RuleNode{gen.rule, ci});
      if (down != kNilId && table_.occ(down).digram == id) return;
    }
  }
  RuleBook& book = BookFor(gen.rule);
  if (static_cast<size_t>(gen.node) >= book.node_occ.size()) {
    book.node_occ.resize(static_cast<size_t>(gen.node) + 1, kNilId);
  }
  OccId& slot = book.node_occ[static_cast<size_t>(gen.node)];
  if (slot != kNilId) {
    // A generator stores at most one occurrence; re-adding it is a
    // no-op (and the remove-before-restructure protocol guarantees a
    // stored occurrence always matches the current structure).
    SLG_DCHECK(table_.occ(slot).digram == id);
    return;
  }
  OccId o = table_.AddOcc(id, usage);
  Occ& occ = table_.occ(o);
  occ.rule = gen.rule;
  occ.node = gen.node;
  occ.rnext = book.head;
  if (book.head != kNilId) table_.occ(book.head).rprev = o;
  book.head = o;
  slot = o;
}

void GrammarDigramIndex::RemoveGeneratorAt(RuleNode gen) {
  OccId o = OccOf(gen);
  if (o == kNilId) return;
  UnlinkRule(o);
  table_.RemoveOcc(o, books_[static_cast<size_t>(gen.rule)].scan_usage);
}

void GrammarDigramIndex::ScanRule(const Grammar& g, LabelId rule,
                                  uint64_t usage) {
  RuleBook& book = BookFor(rule);
  SLG_DCHECK(book.head == kNilId);
  book.scan_usage = usage;
  const Tree& t = g.rhs(rule);
  t.VisitPreorder(t.root(), [&](NodeId n) {
    AddGenerator(g, RuleNode{rule, n}, usage);
  });
}

void GrammarDigramIndex::DropRule(LabelId rule) {
  if (static_cast<size_t>(rule) >= books_.size()) return;
  RuleBook& book = books_[static_cast<size_t>(rule)];
  for (OccId o = book.head; o != kNilId;) {
    OccId next = table_.occ(o).rnext;
    table_.RemoveOcc(o, book.scan_usage);
    o = next;
  }
  book = RuleBook{};
}

void GrammarDigramIndex::AdjustWeight(LabelId rule, uint64_t new_usage) {
  if (static_cast<size_t>(rule) >= books_.size()) return;
  RuleBook& book = books_[static_cast<size_t>(rule)];
  if (book.scan_usage == new_usage) return;
  for (OccId o = book.head; o != kNilId; o = table_.occ(o).rnext) {
    table_.Reweight(table_.occ(o).digram, book.scan_usage, new_usage);
  }
  book.scan_usage = new_usage;
}

std::vector<RuleNode> GrammarDigramIndex::Take(const Digram& d) {
  std::vector<RuleNode> out = table_.Take<RuleNode>(d, [&](OccId o) {
    UnlinkRule(o);
    return RuleNode{table_.occ(o).rule, table_.occ(o).node};
  });
  std::sort(out.begin(), out.end(), [](const RuleNode& x, const RuleNode& y) {
    return x.rule != y.rule ? x.rule < y.rule : x.node < y.node;
  });
  return out;
}

}  // namespace slg
