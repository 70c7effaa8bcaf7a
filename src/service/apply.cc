#include "src/service/apply.h"

#include <utility>

#include "src/store/journal.h"
#include "src/update/batch.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

namespace slg {

StatusOr<std::shared_ptr<const GrammarSnapshot>> ApplyEncodedBatch(
    const GrammarSnapshot& parent, std::string_view encoded, int64_t version,
    BatchEffects* effects) {
  Grammar g = parent.grammar().Clone();
  std::vector<UpdateOp> ops;
  SLG_RETURN_IF_ERROR(DecodeBatch(encoded, &g.labels(), &ops));
  BatchUpdater bu(&g, parent.index().get());
  for (const UpdateOp& op : ops) SLG_RETURN_IF_ERROR(bu.Apply(op));
  effects->damage = bu.DamagedRules();
  effects->edges_added = bu.EdgesAdded();
  effects->ops = static_cast<int64_t>(ops.size());
  std::vector<int64_t> start_sizes = bu.TakeStartSizes();
  bu.Finish();
  return GrammarSnapshot::Derive(parent, std::move(g), version,
                                 std::move(start_sizes));
}

std::shared_ptr<const GrammarSnapshot> RecompressSnapshot(
    const GrammarSnapshot& in, const std::vector<LabelId>& damage,
    bool localized, const GrammarRepairOptions& repair, int64_t version,
    int64_t* rules_rescanned) {
  Grammar g = in.grammar().Clone();
  GrammarRepairResult r =
      localized ? LocalizedGrammarRePair(std::move(g), damage, repair)
                : GrammarRePair(std::move(g), repair);
  if (rules_rescanned != nullptr) *rules_rescanned = r.rules_rescanned;
  // Compacts what the repair rewrote (the start rule above all): reads
  // and the next writes walk a tenth of the memory, and the bodies get
  // the numbering a loaded snapshot has, so a reopened service goes on
  // repairing exactly like this one (the repair's tie-breaks see
  // NodeIds).
  r.grammar.CompactOwnedBodies();
  return GrammarSnapshot::Derive(in, std::move(r.grammar), version);
}

std::string EncodeRename(int64_t preorder, std::string_view new_tag) {
  LabelTable names;
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kRename;
  ops[0].preorder = preorder;
  // A fresh table already spells ⊥; the apply step rejects renaming to it.
  LabelId id = names.Find(new_tag);
  ops[0].label = id != kNoLabel ? id : names.Intern(new_tag, 2);
  return EncodeBatch(ops, names);
}

StatusOr<std::string> EncodeInsertXml(int64_t preorder,
                                      std::string_view xml_fragment) {
  StatusOr<XmlTree> parsed = ParseXml(xml_fragment);
  if (!parsed.ok()) return parsed.status();
  LabelTable names;
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kInsert;
  ops[0].preorder = preorder;
  ops[0].fragment = EncodeBinary(parsed.value(), &names);
  return EncodeBatch(ops, names);
}

std::string EncodeDelete(int64_t preorder) {
  std::vector<UpdateOp> ops(1);
  ops[0].kind = UpdateOp::Kind::kDelete;
  ops[0].preorder = preorder;
  return EncodeBatch(ops, LabelTable());
}

}  // namespace slg
