#include "src/core/cursor.h"

#include <utility>

namespace slg {

GrammarCursor::GrammarCursor(const Grammar* g,
                             std::shared_ptr<const RuleIndex> index)
    : g_(g), index_(std::move(index)) {
  ToRoot();
}

void GrammarCursor::ToRoot() {
  stack_.clear();
  cur_rule_ = g_->start();
  cur_ = index_->RhsRoot(cur_rule_);
  depth_ = 0;
  ResolveDown();
}

void GrammarCursor::ResolveDown() {
  // The boundary crossings live in the shared index-layer helper
  // (ResolveToTerminal): a parameter pops to the instantiating call's
  // argument, a call pushes a frame and enters the callee at its root.
  ResolveToTerminal(
      *index_, cur_rule_, cur_,
      [&]() -> std::pair<LabelId, NodeId> {
        SLG_CHECK_MSG(!stack_.empty(), "parameter at derivation top");
        Frame f = stack_.back();
        stack_.pop_back();
        return {f.rule, f.call};
      },
      [&](LabelId) {
        stack_.push_back(Frame{cur_rule_, cur_});
      });
}

LabelId GrammarCursor::Label() const {
  return RuleTree(cur_rule_).label(cur_);
}

const std::string& GrammarCursor::LabelName() const {
  return g_->labels().Name(Label());
}

int GrammarCursor::NumChildren() const { return index_->Rank(Label()); }

bool GrammarCursor::Down(int i) {
  const Tree& t = RuleTree(cur_rule_);
  NodeId c = t.Child(cur_, i);
  if (c == kNilNode) return false;
  cur_ = c;
  ++depth_;
  ResolveDown();
  return true;
}

int GrammarCursor::DerivedChildIndex() const {
  // Index of the current derived node under its derived parent (0 at
  // the derived root): walk the same boundaries Up() crosses, without
  // moving the cursor.
  const RuleIndex& index = *index_;
  const Tree* t = &RuleTree(cur_rule_);
  LabelId rule = cur_rule_;
  NodeId c = cur_;
  size_t frames_left = stack_.size();
  std::vector<Frame> extra;  // frames pushed while crossing arguments
  for (;;) {
    NodeId p = t->parent(c);
    if (p == kNilNode) {
      Frame f;
      if (!extra.empty()) {
        f = extra.back();
        extra.pop_back();
      } else if (frames_left > 0) {
        f = stack_[--frames_left];
      } else {
        return 0;  // derived root
      }
      rule = f.rule;
      t = &RuleTree(rule);
      c = f.call;
      continue;
    }
    if (index.IsNonterminal(t->label(p))) {
      int j = t->ChildIndex(c);
      extra.push_back(Frame{rule, p});
      rule = t->label(p);
      t = &RuleTree(rule);
      c = index.ParamNode(rule, j);
      continue;
    }
    return t->ChildIndex(c);
  }
}

bool GrammarCursor::Up() {
  const RuleIndex& index = *index_;
  for (;;) {
    const Tree& t = RuleTree(cur_rule_);
    NodeId p = t.parent(cur_);
    if (p == kNilNode) {
      // Root of a rule body: the derived parent is around the
      // instantiating call, one frame up.
      if (stack_.empty()) return false;  // derived root
      Frame f = stack_.back();
      stack_.pop_back();
      cur_rule_ = f.rule;
      cur_ = f.call;
      continue;
    }
    LabelId pl = t.label(p);
    if (index.IsNonterminal(pl)) {
      // Current node is the j-th argument of a call: the derived
      // parent is the parent of the j-th parameter inside the callee.
      int j = t.ChildIndex(cur_);
      stack_.push_back(Frame{cur_rule_, p});
      cur_rule_ = pl;
      cur_ = index.ParamNode(pl, j);
      continue;
    }
    cur_ = p;
    --depth_;
    return true;
  }
}

bool GrammarCursor::Right() {
  // Fast path: when the in-rule parent is a terminal, the derived
  // siblings are exactly the rule-tree siblings — one link hop, no
  // cursor copy, no Up/Down round trip.
  const Tree& t = RuleTree(cur_rule_);
  NodeId p = t.parent(cur_);
  if (p != kNilNode && !index_->IsNonterminal(t.label(p))) {
    NodeId s = t.next_sibling(cur_);
    if (s == kNilNode) return false;
    cur_ = s;
    ResolveDown();
    return true;
  }
  int index = DerivedChildIndex();
  if (index == 0) return false;
  GrammarCursor probe = *this;
  if (!Up()) return false;
  if (Down(index + 1)) return true;
  *this = probe;
  return false;
}

bool GrammarCursor::Left() {
  const Tree& t = RuleTree(cur_rule_);
  NodeId p = t.parent(cur_);
  if (p != kNilNode && !index_->IsNonterminal(t.label(p))) {
    NodeId s = t.prev_sibling(cur_);
    if (s == kNilNode) return false;
    cur_ = s;
    ResolveDown();
    return true;
  }
  int index = DerivedChildIndex();
  if (index <= 1) return false;
  GrammarCursor probe = *this;
  if (!Up()) return false;
  if (Down(index - 1)) return true;
  *this = probe;
  return false;
}

bool GrammarCursor::AtRoot() const { return depth_ == 0; }

bool GrammarCursor::FirstChildElement() {
  GrammarCursor probe = *this;
  if (!Down(1)) return false;
  if (IsNull()) {
    *this = probe;
    return false;
  }
  return true;
}

bool GrammarCursor::NextSiblingElement() {
  GrammarCursor probe = *this;
  if (!Down(2)) return false;
  if (IsNull()) {
    *this = probe;
    return false;
  }
  return true;
}

bool GrammarCursor::ParentElement() {
  // The XML parent is the first ancestor reached through a first-child
  // (index 1) edge; index-2 edges are next-sibling links.
  GrammarCursor probe = *this;
  for (;;) {
    int index = DerivedChildIndex();
    if (index == 0) {
      *this = probe;
      return false;  // document root has no parent element
    }
    bool ok = Up();
    SLG_CHECK(ok);
    if (index == 1) return true;
  }
}

}  // namespace slg
