#include "perfbench/script.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace perfbench {

using slg::LabelId;
using slg::NodeId;
using slg::Tree;
using slg::UpdateOp;

const std::vector<WorkloadSpec>& Workloads() {
  // Sizes keep one pass within about three seconds on a 4-core VM, so
  // a run times each call of the script in many passes and its fastest
  // instance can avoid the host's slow moments (README.md).
  static const std::vector<WorkloadSpec> kSpecs = {
      // name, corpus, scale, fsync, batches, ryw_labels, labels, finds,
      // queries, query_stride
      {"read_mostly", slg::Corpus::kMedline, 0.5, false, 20, 0, 200, 32, 4, 1},
      {"write_durable", slg::Corpus::kTreebank, 0.25, true, 40, 2, 16, 1, 1,
       2},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Workloads()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

namespace {

// The XML subtree at preorder position pos as an insertable fragment:
// the node, its first-child subtree, and a ⊥ in its next-sibling slot,
// the shape of the fragments MakeUpdateWorkload cuts (its helper is
// internal to the library).
Tree XmlSubtreeAt(const Tree& t, int64_t pos) {
  NodeId v = t.AtPreorderIndex(pos);
  Tree frag;
  NodeId root = frag.NewNode(t.label(v));
  frag.SetRoot(root);
  if (t.first_child(v) != slg::kNilNode) {
    frag.AppendChild(root, frag.CopySubtreeFrom(t, t.first_child(v)));
  }
  frag.AppendChild(root, frag.NewNode(slg::kNullLabel));
  return frag;
}

// The sequence that undoes w: replays w.ops from w.seed on a plain
// tree, takes before each op the op that reverts it, and returns those
// last first. It starts at the document w ends at and ends at w.seed.
std::vector<UpdateOp> Inverse(const slg::UpdateWorkload& w) {
  Tree t = w.seed;
  std::vector<UpdateOp> inverse;
  for (const UpdateOp& op : w.ops) {
    switch (op.kind) {
      case UpdateOp::Kind::kInsert:
        inverse.push_back({UpdateOp::Kind::kDelete, op.preorder, Tree()});
        break;
      case UpdateOp::Kind::kDelete:
        inverse.push_back({UpdateOp::Kind::kInsert, op.preorder,
                           XmlSubtreeAt(t, op.preorder)});
        break;
      case UpdateOp::Kind::kRename:
        inverse.push_back({UpdateOp::Kind::kRename, op.preorder, Tree(),
                           t.label(t.AtPreorderIndex(op.preorder))});
        break;
    }
    slg::ApplyOpToTree(&t, op);
  }
  std::reverse(inverse.begin(), inverse.end());
  return inverse;
}

// Update mix of every workload: 40% renames to a tag of the document,
// then deletes and inserts half and half, of XML subtrees copied from
// the document with at most this many binary nodes, which keeps the
// document's size stationary.
constexpr double kRenameFraction = 0.4;
constexpr double kDeleteFraction = 0.5;
constexpr int kMaxFragmentNodes = 40;

// What a plain binary tree answers at one version.
struct Oracle {
  std::vector<LabelId> at;  // label by preorder position - 1
  // Ascending positions of each label.
  std::vector<std::vector<int64_t>> positions;
  // Elements per (XML parent label, label).
  std::map<std::pair<LabelId, LabelId>, int64_t> child_counts;
  std::vector<LabelId> tags;  // element labels present, ascending
};

Oracle BuildOracle(const Tree& t, const slg::LabelTable& labels) {
  Oracle o;
  o.positions.resize(static_cast<size_t>(labels.size()));
  std::vector<LabelId> xml_parent;  // by NodeId
  t.VisitPreorder(t.root(), [&](NodeId v) {
    if (static_cast<size_t>(v) >= xml_parent.size()) {
      xml_parent.resize(static_cast<size_t>(v) * 2 + 16, slg::kNoLabel);
    }
    LabelId l = t.label(v);
    o.at.push_back(l);
    NodeId u = t.parent(v);
    // Binary first child = XML first child; second child = next
    // sibling, which shares the binary parent's XML parent.
    LabelId xp = slg::kNoLabel;
    if (u != slg::kNilNode) {
      xp = t.first_child(u) == v ? t.label(u)
                                 : xml_parent[static_cast<size_t>(u)];
    }
    xml_parent[static_cast<size_t>(v)] = xp;
    if (l == slg::kNullLabel) return;
    o.positions[static_cast<size_t>(l)].push_back(
        static_cast<int64_t>(o.at.size()));
    ++o.child_counts[{xp, l}];
  });
  for (LabelId l = 0; l < static_cast<LabelId>(o.positions.size()); ++l) {
    if (!o.positions[static_cast<size_t>(l)].empty()) o.tags.push_back(l);
  }
  return o;
}

class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed, Script* s)
      : spec_(spec), seed_(seed), rng_(seed), s_(s) {}

  void Run() {
    // The service ingests the workload's fixed document, the same for
    // every seed, so the seed moves the traffic and not the grammar
    // the reads start on (README.md, "Seeds"). The seed's update
    // sequence comes from MakeUpdateWorkload, which walks backwards
    // from the fixed document to a seeded one; the script replays the
    // inverse of that walk, from the fixed document to the seeded one.
    slg::XmlTree xml = slg::GenerateCorpus(spec_.corpus, spec_.scale);
    tree_ = slg::EncodeBinary(xml, &s_->labels);
    slg::WorkloadOptions wo;
    wo.num_ops = spec_.batches * kBatchOps;
    wo.rename_fraction = kRenameFraction;
    wo.delete_fraction = kDeleteFraction;
    wo.max_fragment_nodes = kMaxFragmentNodes;
    wo.seed = seed_;
    slg::UpdateWorkload w = slg::MakeUpdateWorkload(tree_, s_->labels, wo);
    SLG_CHECK(static_cast<int>(w.ops.size()) == wo.num_ops);
    std::vector<UpdateOp> script_ops = Inverse(w);
    s_->ingest_xml = slg::WriteXml(xml);
    Refresh();
    PickRotation();

    int64_t acked_ops = 0;
    for (int b = 0; b < spec_.batches; ++b) {
      std::vector<UpdateOp> ops;
      for (int i = 0; i < kBatchOps; ++i) {
        ops.push_back(
            std::move(script_ops[static_cast<size_t>(b * kBatchOps + i)]));
        slg::ApplyOpToTree(&tree_, ops.back());
      }
      s_->ops += static_cast<int64_t>(ops.size());
      Step step;
      step.kind = StepKind::kBatch;
      step.batch = b;
      s_->steps.push_back(step);
      Refresh();
      for (int i = 0; i < spec_.ryw_labels && i < kBatchOps; ++i) {
        int64_t written = ops[ops.size() - 1 - static_cast<size_t>(i)].preorder;
        int64_t nodes = static_cast<int64_t>(oracle_.at.size());
        AddLabelAt(std::min(written, nodes));
      }
      s_->batches.push_back(std::move(ops));
      for (int i = 0; i < spec_.labels_per_batch; ++i) AddLabelAt(RandomPos());
      for (int i = 0; i < spec_.finds_per_batch; ++i) AddFind();
      if (b % spec_.query_stride == 0) {
        for (int i = 0; i < spec_.queries_per_batch; ++i) AddQuery();
      }
      acked_ops += kBatchOps;
      if (acked_ops % kFlushEveryOps == 0) {
        Step flush;
        flush.kind = StepKind::kFlush;
        s_->steps.push_back(flush);
      }
    }
    s_->final_xml =
        slg::WriteXml(slg::DecodeBinary(tree_, s_->labels).take());
    SLG_CHECK(s_->final_xml ==
              slg::WriteXml(slg::DecodeBinary(w.seed, s_->labels).take()));
  }

 private:
  enum class Template { kCount, kExists, kFirst, kNth, kChildCount };
  static constexpr int kTemplates = 5;
  // Finds and queries rotate over the fixed document's most frequent
  // tags and (parent, child) pairs, and over k, in a fixed order, so
  // every seed asks the same mix and a median does not depend on which
  // few (tag, k) a seed happened to draw. The seed moves the state
  // they are asked on.
  static constexpr size_t kRotation = 4;

  void PickRotation() {
    std::vector<std::pair<int64_t, LabelId>> tags;
    for (LabelId l : oracle_.tags) {
      tags.push_back({-static_cast<int64_t>(
                          oracle_.positions[static_cast<size_t>(l)].size()),
                      l});
    }
    std::sort(tags.begin(), tags.end());
    for (size_t i = 0; i < tags.size() && i < kRotation; ++i) {
      top_tags_.push_back(tags[i].second);
    }
    std::vector<std::pair<int64_t, std::pair<LabelId, LabelId>>> pairs;
    for (const auto& [pair, n] : oracle_.child_counts) {
      if (pair.first != slg::kNoLabel) pairs.push_back({-n, pair});
    }
    std::sort(pairs.begin(), pairs.end());
    for (size_t i = 0; i < pairs.size() && i < kRotation; ++i) {
      top_pairs_.push_back(pairs[i].second);
    }
    SLG_CHECK(!top_tags_.empty() && !top_pairs_.empty());
  }

  void Refresh() {
    oracle_ = BuildOracle(tree_, s_->labels);
  }

  int64_t RandomPos() {
    return 1 + static_cast<int64_t>(rng_.Below(oracle_.at.size()));
  }

  void AddLabelAt(int64_t pos) {
    Step s;
    s.kind = StepKind::kLabelAt;
    s.pos = pos;
    s.label = s_->labels.Name(oracle_.at[static_cast<size_t>(pos - 1)]);
    s_->steps.push_back(std::move(s));
  }

  void AddFind() {
    size_t i = finds_++;
    LabelId tag = top_tags_[i % top_tags_.size()];
    Step s;
    s.kind = StepKind::kFind;
    s.text = s_->labels.Name(tag);
    s.pos = 1 + static_cast<int64_t>(i / top_tags_.size() % 3);
    const std::vector<int64_t>& p = oracle_.positions[static_cast<size_t>(tag)];
    s.found = static_cast<int64_t>(p.size()) >= s.pos;
    if (s.found) s.value = p[static_cast<size_t>(s.pos - 1)];
    s_->steps.push_back(std::move(s));
  }

  void AddQuery() {
    size_t i = queries_++;
    size_t slot = i / kTemplates;
    LabelId tag = top_tags_[slot % top_tags_.size()];
    const std::string& name = s_->labels.Name(tag);
    switch (static_cast<Template>(i % kTemplates)) {
      case Template::kCount:
        return AddQueryText("count(//" + name + ")", Template::kCount, tag, 0);
      case Template::kExists:
        return AddQueryText("exists(//" + name + ")", Template::kExists, tag,
                            0);
      case Template::kFirst:
        return AddQueryText("first(//" + name + ")", Template::kFirst, tag, 1);
      case Template::kNth: {
        int64_t k = 1 + static_cast<int64_t>(slot / top_tags_.size() % 4);
        return AddQueryText("nth(//" + name + ", " + std::to_string(k) + ")",
                            Template::kNth, tag, k);
      }
      case Template::kChildCount: {
        auto [parent, child] = top_pairs_[slot % top_pairs_.size()];
        Step s;
        s.kind = StepKind::kQuery;
        s.text = "count(//" + s_->labels.Name(parent) + "/" +
                 s_->labels.Name(child) + ")";
        auto it = oracle_.child_counts.find({parent, child});
        s.count = it == oracle_.child_counts.end() ? 0 : it->second;
        s.exists = s.count > 0;
        s_->steps.push_back(std::move(s));
        return;
      }
    }
  }

  void AddQueryText(std::string text, Template t, LabelId tag, int64_t k) {
    Step s;
    s.kind = StepKind::kQuery;
    s.text = std::move(text);
    const std::vector<int64_t>& p = oracle_.positions[static_cast<size_t>(tag)];
    s.count = static_cast<int64_t>(p.size());
    s.exists = s.count > 0;
    if (t == Template::kFirst || t == Template::kNth) {
      s.found = s.count >= k;
      if (s.found) s.value = p[static_cast<size_t>(k - 1)];
    }
    s_->steps.push_back(std::move(s));
  }

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  slg::Rng rng_;
  Script* s_;
  Tree tree_;
  Oracle oracle_;
  std::vector<LabelId> top_tags_;
  std::vector<std::pair<LabelId, LabelId>> top_pairs_;
  size_t finds_ = 0;
  size_t queries_ = 0;
};

}  // namespace

Script MakeScript(const WorkloadSpec& spec, uint64_t seed) {
  Script s;
  Generator(spec, seed, &s).Run();
  return s;
}

}  // namespace perfbench
