#include "src/tree/label_table.h"

#include <atomic>
#include <string>
#include <utility>

namespace slg {

const std::shared_ptr<LabelTable::State>& LabelTable::EmptyState() {
  // Leaked on purpose: tables may outlive static destruction order.
  static const std::shared_ptr<State>* empty = [] {
    auto s = std::make_shared<State>();
    // Id 0 is the ⊥ empty-node label.
    s->entries.push_back(Entry{"~", 0, 0});
    s->by_name.emplace("~", kNullLabel);
    return new std::shared_ptr<State>(std::move(s));
  }();
  return *empty;
}

LabelTable::LabelTable() : state_(EmptyState()) {}

LabelTable::LabelTable(LabelTable&& other) noexcept
    : state_(std::exchange(other.state_, EmptyState())) {}

LabelTable& LabelTable::operator=(LabelTable&& other) noexcept {
  if (this != &other) state_ = std::exchange(other.state_, EmptyState());
  return *this;
}

LabelTable::State& LabelTable::Mutable() {
  if (state_.use_count() == 1) {
    // Sole owner. As in Grammar::mutable_rhs: the count is read
    // relaxed, and the fence orders this table's edits after whatever
    // a table on another thread read before it released its share.
    std::atomic_thread_fence(std::memory_order_acquire);
  } else {
    state_ = std::make_shared<State>(*state_);
  }
  return *state_;
}

LabelId LabelTable::Intern(std::string_view name, int rank) {
  LabelId found = Find(name);
  if (found != kNoLabel) {
    SLG_CHECK_MSG(Get(found).rank == rank,
                  "label re-interned with different rank");
    return found;
  }
  State& s = Mutable();
  LabelId id = static_cast<LabelId>(s.entries.size());
  s.entries.push_back(Entry{std::string(name), rank, 0});
  s.by_name.emplace(std::string(name), id);
  return id;
}

LabelId LabelTable::Find(std::string_view name) const {
  auto it = state_->by_name.find(std::string(name));
  return it == state_->by_name.end() ? kNoLabel : it->second;
}

LabelId LabelTable::Param(int index) {
  SLG_CHECK(index >= 1);
  if (static_cast<int>(state_->params.size()) < index) {
    State& s = Mutable();
    while (static_cast<int>(s.params.size()) < index) {
      int next = static_cast<int>(s.params.size()) + 1;
      std::string name = "$" + std::to_string(next);
      SLG_CHECK_MSG(s.by_name.find(name) == s.by_name.end(),
                    "parameter name already taken by a non-parameter label");
      LabelId id = static_cast<LabelId>(s.entries.size());
      s.entries.push_back(Entry{name, 0, next});
      s.by_name.emplace(name, id);
      s.params.push_back(id);
    }
  }
  return state_->params[static_cast<size_t>(index - 1)];
}

LabelId LabelTable::Fresh(std::string_view prefix, int rank) {
  State& s = Mutable();
  for (;;) {
    std::string name = std::string(prefix) + std::to_string(s.fresh_counter++);
    if (s.by_name.find(name) == s.by_name.end()) {
      return Intern(name, rank);
    }
  }
}

void LabelTable::set_fresh_counter(int counter) {
  if (state_->fresh_counter != counter) Mutable().fresh_counter = counter;
}

}  // namespace slg
