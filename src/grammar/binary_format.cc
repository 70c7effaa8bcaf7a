#include "src/grammar/binary_format.h"

#include <vector>

#include "src/grammar/validate.h"

namespace slg {

namespace {

constexpr char kMagic[4] = {'S', 'L', 'G', '1'};

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadVarint(uint64_t* v) {
    *v = 0;
    int shift = 0;
    while (pos_ < bytes_.size() && shift < 64) {
      uint8_t b = static_cast<uint8_t>(bytes_[pos_++]);
      *v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  }

  bool ReadBytes(size_t n, std::string_view* out) {
    if (pos_ + n > bytes_.size()) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Corrupt(const char* what) {
  return Status::InvalidArgument(std::string("corrupt grammar image: ") +
                                 what);
}

}  // namespace

std::string SerializeGrammar(const Grammar& g) {
  std::string out(kMagic, sizeof(kMagic));
  const LabelTable& labels = g.labels();
  PutVarint(&out, static_cast<uint64_t>(labels.size()));
  for (LabelId id = 0; id < labels.size(); ++id) {
    const std::string& name = labels.Name(id);
    PutVarint(&out, name.size());
    out += name;
    PutVarint(&out, static_cast<uint64_t>(labels.Rank(id)));
    PutVarint(&out, static_cast<uint64_t>(labels.ParamIndex(id)));
  }
  // Fresh-name generator state: restoring it keeps post-deserialize
  // recompressions byte-identical to the live grammar's (the durable
  // store's recovery guarantee depends on this).
  PutVarint(&out, static_cast<uint64_t>(labels.fresh_counter()));
  PutVarint(&out, static_cast<uint64_t>(g.start()));
  PutVarint(&out, static_cast<uint64_t>(g.RuleCount()));
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    PutVarint(&out, static_cast<uint64_t>(lhs));
    PutVarint(&out, static_cast<uint64_t>(rhs.LiveCount()));
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      PutVarint(&out, static_cast<uint64_t>(rhs.label(v)));
    });
  });
  return out;
}

StatusOr<Grammar> DeserializeGrammar(std::string_view bytes) {
  Reader r(bytes);
  std::string_view magic;
  if (!r.ReadBytes(4, &magic) ||
      magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Corrupt("bad magic");
  }
  Grammar g;
  LabelTable& labels = g.labels();

  uint64_t label_count = 0;
  if (!r.ReadVarint(&label_count) || label_count < 1 ||
      label_count > (uint64_t{1} << 31)) {
    return Corrupt("label count");
  }
  int params_seen = 0;
  for (uint64_t i = 0; i < label_count; ++i) {
    uint64_t len = 0;
    std::string_view name;
    uint64_t rank = 0;
    uint64_t pidx = 0;
    if (!r.ReadVarint(&len) || !r.ReadBytes(len, &name) ||
        !r.ReadVarint(&rank) || !r.ReadVarint(&pidx)) {
      return Corrupt("label entry");
    }
    if (rank > 1'000'000) return Corrupt("label rank");
    LabelId id;
    if (i == 0) {
      // ⊥ is pre-interned by the LabelTable constructor.
      if (name != "~" || rank != 0) return Corrupt("slot 0 is not ⊥");
      id = kNullLabel;
    } else if (pidx > 0) {
      // Param entries must appear in index order with their canonical
      // spelling — anything else would make Param() mint labels whose
      // ids diverge from the image's (or trip its name-collision
      // check, which is a CHECK, not a Status).
      if (pidx != static_cast<uint64_t>(params_seen) + 1) {
        return Corrupt("parameter entries out of order");
      }
      if (rank != 0) return Corrupt("parameter with nonzero rank");
      if (name != "$" + std::to_string(pidx)) {
        return Corrupt("parameter spelling");
      }
      if (labels.Find(name) != kNoLabel) return Corrupt("duplicate label");
      id = labels.Param(static_cast<int>(pidx));
      ++params_seen;
    } else {
      // Intern() CHECKs on a re-intern with a different rank, so a
      // duplicate must be rejected here — the dense-id check below
      // would be too late for the equal-rank case only.
      if (labels.Find(name) != kNoLabel) return Corrupt("duplicate label");
      id = labels.Intern(name, static_cast<int>(rank));
    }
    if (id != static_cast<LabelId>(i)) {
      return Corrupt("label ids not dense / out of order");
    }
  }

  uint64_t fresh_counter = 0;
  if (!r.ReadVarint(&fresh_counter) || fresh_counter > (uint64_t{1} << 31)) {
    return Corrupt("fresh-name counter");
  }
  labels.set_fresh_counter(static_cast<int>(fresh_counter));

  uint64_t start = 0;
  uint64_t rule_count = 0;
  if (!r.ReadVarint(&start) || start >= label_count ||
      !r.ReadVarint(&rule_count)) {
    return Corrupt("header");
  }
  for (uint64_t i = 0; i < rule_count; ++i) {
    uint64_t lhs = 0;
    uint64_t nodes = 0;
    if (!r.ReadVarint(&lhs) || lhs >= label_count || !r.ReadVarint(&nodes) ||
        nodes == 0 || nodes > (uint64_t{1} << 31)) {
      return Corrupt("rule header");
    }
    Tree t;
    // Reconstruct from the preorder label sequence: maintain a stack of
    // (node, children still missing).
    struct Slot {
      NodeId node;
      int missing;
    };
    std::vector<Slot> stack;
    for (uint64_t k = 0; k < nodes; ++k) {
      uint64_t label = 0;
      if (!r.ReadVarint(&label) || label >= label_count) {
        return Corrupt("node label");
      }
      LabelId l = static_cast<LabelId>(label);
      int rank = labels.IsParam(l) ? 0 : labels.Rank(l);
      NodeId v = t.NewNode(l);
      if (stack.empty()) {
        if (k != 0) return Corrupt("multiple roots in rule");
        t.SetRoot(v);
      } else {
        t.AppendChild(stack.back().node, v);
        if (--stack.back().missing == 0) stack.pop_back();
      }
      if (rank > 0) stack.push_back(Slot{v, rank});
    }
    if (!stack.empty()) return Corrupt("truncated rule tree");
    if (g.HasRule(static_cast<LabelId>(lhs))) return Corrupt("duplicate rule");
    g.AddRule(static_cast<LabelId>(lhs), std::move(t));
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes");
  g.set_start(static_cast<LabelId>(start));
  // A well-framed image can still encode a structurally invalid
  // grammar (bad ranks, dangling rule references, cyclic calls, a
  // terminal too wide for a document). ValidateDocument() classifies
  // those as precondition failures of the live API; from a
  // deserializer they are corrupt *input*, so remap to InvalidArgument
  // — callers branch on the code, and every later pass (navigation,
  // repair, value, queries) assumes a validated document grammar.
  Status valid = ValidateDocument(g);
  if (!valid.ok()) {
    return Corrupt(valid.message().c_str());
  }
  return g;
}

}  // namespace slg
