#include "src/api/compressed_xml_tree.h"

#include <utility>

#include "src/grammar/binary_format.h"
#include "src/grammar/validate.h"
#include "src/obs/trace.h"
#include "src/service/apply.h"

namespace slg {

StatusOr<CompressedXmlTree> CompressedXmlTree::FromXml(
    std::string_view xml, const CompressOptions& compress,
    const UpdateOptions& update) {
  obs::TraceSpan span("api.from_xml");
  StatusOr<std::shared_ptr<const GrammarSnapshot>> snap =
      CompressXmlToSnapshot(xml, compress);
  if (!snap.ok()) return snap.status();
  return CompressedXmlTree(snap.take(), update);
}

StatusOr<CompressedXmlTree> CompressedXmlTree::FromGrammar(
    Grammar g, const UpdateOptions& update) {
  SLG_RETURN_IF_ERROR(ValidateDocument(g));
  return CompressedXmlTree(GrammarSnapshot::Make(std::move(g)), update);
}

StatusOr<CompressedXmlTree> CompressedXmlTree::FromSnapshot(
    std::shared_ptr<const GrammarSnapshot> snapshot,
    const UpdateOptions& update) {
  if (snapshot == nullptr) return Status::InvalidArgument("null snapshot");
  return CompressedXmlTree(std::move(snapshot), update);
}

Status CompressedXmlTree::Rename(int64_t preorder, std::string_view new_tag) {
  return ApplyEncoded(EncodeRename(preorder, new_tag));
}

Status CompressedXmlTree::InsertXmlBefore(int64_t preorder,
                                          std::string_view xml_fragment) {
  StatusOr<std::string> encoded = EncodeInsertXml(preorder, xml_fragment);
  if (!encoded.ok()) return encoded.status();
  return ApplyEncoded(encoded.value());
}

Status CompressedXmlTree::Delete(int64_t preorder) {
  return ApplyEncoded(EncodeDelete(preorder));
}

Status CompressedXmlTree::ApplyEncoded(std::string_view encoded) {
  // The update derives a child snapshot; any failure discards it, and
  // the published snapshot — and with it Serialize(), the damage set,
  // the counter — is untouched.
  BatchEffects effects;
  StatusOr<std::shared_ptr<const GrammarSnapshot>> next =
      ApplyEncodedBatch(*snap_, encoded, snap_->version() + 1, &effects);
  if (!next.ok()) return next.status();
  NoteDamage(effects.damage);
  snap_ = next.take();
  ++updates_since_recompress_;
  edges_added_since_recompress_ += effects.edges_added;
  if (RecompressDue(options_, updates_since_recompress_,
                    edges_added_since_recompress_, edges_at_recompress_)) {
    Recompress();
  }
  return Status::Ok();
}

void CompressedXmlTree::Recompress() {
  // The damage accumulated since the last recompression: the start
  // rule (every update isolates its path there) plus the rules whose
  // bodies those isolations inlined — without the frontier the copies
  // in the start rule could never be folded back (see
  // BatchUpdater::DamagedRules). With no update since the last repair
  // there is no damage to seed from, and the full repair runs.
  std::vector<LabelId> damage = std::move(pending_damage_);
  pending_damage_.clear();
  pending_damage_seen_.clear();
  snap_ = RecompressSnapshot(
      *snap_, damage, options_.localized && updates_since_recompress_ > 0,
      options_.repair, snap_->version() + 1);
  updates_since_recompress_ = 0;
  edges_added_since_recompress_ = 0;
  edges_at_recompress_ = snap_->edges();
}

void CompressedXmlTree::NoteDamage(const std::vector<LabelId>& rules) {
  for (LabelId r : rules) {
    if (pending_damage_seen_.insert(r).second) pending_damage_.push_back(r);
  }
}

std::string CompressedXmlTree::Serialize() const {
  return SerializeGrammar(snap_->grammar());
}

StatusOr<CompressedXmlTree> CompressedXmlTree::Deserialize(
    std::string_view bytes, const UpdateOptions& update) {
  StatusOr<Grammar> g = DeserializeGrammar(bytes);
  if (!g.ok()) return g.status();
  return CompressedXmlTree(GrammarSnapshot::Make(g.take()), update);
}

}  // namespace slg
