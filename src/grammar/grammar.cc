#include "src/grammar/grammar.h"

#include <atomic>
#include <utility>

namespace slg {

Grammar Grammar::Clone() const {
  Grammar g;
  g.labels_ = labels_;
  g.rules_ = rules_;
  g.rule_index_ = rule_index_;
  g.start_ = start_;
  g.live_rules_ = live_rules_;
  return g;
}

void Grammar::AddRule(LabelId lhs, Tree rhs) {
  SLG_CHECK_MSG(!HasRule(lhs), "duplicate rule");
  SLG_CHECK(!rhs.empty());
  if (static_cast<size_t>(lhs) >= rule_index_.size()) {
    rule_index_.resize(static_cast<size_t>(lhs) + 1, -1);
  }
  rule_index_[static_cast<size_t>(lhs)] = static_cast<int64_t>(rules_.size());
  rules_.push_back(StoredRule{lhs, std::make_shared<Tree>(std::move(rhs))});
  ++live_rules_;
}

Tree& Grammar::mutable_rhs(LabelId l) {
  std::shared_ptr<Tree>& body = rules_[IndexOf(l)].rhs;
  if (body.use_count() == 1) {
    // Sole owner. The count is read relaxed; the fence orders this
    // grammar's edits after everything a grammar on another thread did
    // with the body before it released its share.
    std::atomic_thread_fence(std::memory_order_acquire);
  } else {
    body = std::make_shared<Tree>(*body);
  }
  return *body;
}

void Grammar::CompactOwnedBodies() {
  for (StoredRule& r : rules_) {
    // use_count() == 1 as in mutable_rhs: no other grammar can gain a
    // share of a body only this one holds.
    if (r.rhs != nullptr && r.rhs.use_count() == 1) {
      std::atomic_thread_fence(std::memory_order_acquire);
      r.rhs->Compact();
    }
  }
}

void Grammar::set_rhs(LabelId l, Tree rhs) {
  SLG_CHECK(!rhs.empty());
  rules_[IndexOf(l)].rhs = std::make_shared<Tree>(std::move(rhs));
}

void Grammar::RemoveRule(LabelId lhs) {
  size_t idx = IndexOf(lhs);
  rules_[idx].rhs.reset();
  rule_index_[static_cast<size_t>(lhs)] = -1;
  --live_rules_;
}

std::vector<LabelId> Grammar::Nonterminals() const {
  std::vector<LabelId> out;
  out.reserve(static_cast<size_t>(live_rules_));
  for (const StoredRule& r : rules_) {
    if (r.rhs != nullptr) out.push_back(r.lhs);
  }
  return out;
}

Grammar Grammar::ForTree(Tree t, LabelTable labels) {
  Grammar g;
  g.labels_ = std::move(labels);
  LabelId s = g.labels_.Fresh("S", 0);
  g.AddRule(s, std::move(t));
  g.set_start(s);
  return g;
}

}  // namespace slg
