// The one apply path of a served document, and its one merge.
//
// A batch travels as its journal payload (EncodeBatch: ops by label
// name) and is applied parent snapshot → child snapshot: decode
// against a Clone() of the parent's grammar (which shares every rule
// body), run one BatchUpdater seeded from the parent's index, then
// GrammarSnapshot::Derive the child, which rebuilds only the rules the
// batch changed. DocumentService's writes, its merge splice and its
// recovery replay, and CompressedXmlTree's mutators all apply batches
// through ApplyEncodedBatch — so every surface interns labels in the
// same order and serves byte-identical grammars.
//
// RecompressSnapshot folds what the batches added back into the
// grammar. The service's merge thread, its recovery (re-running a
// merge whose snapshot never became durable) and
// CompressedXmlTree::Recompress all call it, so a document recompresses
// the same way on every surface.

#ifndef SLG_SERVICE_APPLY_H_
#define SLG_SERVICE_APPLY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/grammar_repair.h"
#include "src/service/snapshot.h"

namespace slg {

// What a batch did besides producing the child: the input the merge
// consumes.
struct BatchEffects {
  std::vector<LabelId> damage;  // BatchUpdater::DamagedRules
  int64_t edges_added = 0;      // BatchUpdater::EdgesAdded
  int64_t ops = 0;
};

// Applies the encoded batch to parent's document and returns the child
// snapshot, stamped `version`. All or nothing: on error the parent is
// untouched and nothing is returned.
StatusOr<std::shared_ptr<const GrammarSnapshot>> ApplyEncodedBatch(
    const GrammarSnapshot& parent, std::string_view encoded, int64_t version,
    BatchEffects* effects);

// Recompresses `in`'s document and returns the result stamped
// `version`: clones the grammar (the clone shares every rule body),
// runs LocalizedGrammarRePair seeded with `damage` (the union of the
// merged batches' BatchEffects::damage) when `localized`, else the full
// GrammarRePair, compacts the bodies the repair rewrote, and derives
// the snapshot from `in`, so the rules the repair left alone keep their
// bodies and index entries. A pure function of its arguments. Stores
// the repair's whole-rule rescans in `*rules_rescanned` when non-null.
std::shared_ptr<const GrammarSnapshot> RecompressSnapshot(
    const GrammarSnapshot& in, const std::vector<LabelId>& damage,
    bool localized, const GrammarRepairOptions& repair, int64_t version,
    int64_t* rules_rescanned = nullptr);

// One-op payloads for the Rename / InsertXmlBefore / Delete
// conveniences (1-based binary preorder addressing). They carry label
// names, so a new tag need not be in the document yet.
std::string EncodeRename(int64_t preorder, std::string_view new_tag);
StatusOr<std::string> EncodeInsertXml(int64_t preorder,
                                      std::string_view xml_fragment);
std::string EncodeDelete(int64_t preorder);

}  // namespace slg

#endif  // SLG_SERVICE_APPLY_H_
