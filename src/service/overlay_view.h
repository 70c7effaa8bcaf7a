// ServiceState + OverlayView — what a reader sees.
//
// The rdf3x DifferentialIndex split, in grammar form: `base` is the
// last merged (recompressed) snapshot, `overlay` — when non-null — is
// base plus every batch acknowledged since, materialized as its own
// snapshot. Readers always consult overlay-then-base through
// effective(): every acknowledged write is visible the moment its
// publisher swapped the state in, and the merge thread replacing the
// pair (new base, replayed overlay) is invisible to value queries —
// it only changes which grammar serves them.
//
// A ServiceState is itself immutable once published; DocumentService
// swaps a shared_ptr<const ServiceState> atomically. An OverlayView
// (aka DocumentService::Reader) pins one such state: wholly
// self-contained, valid after the service has moved on arbitrarily
// far, and — because all it holds is two snapshot references — cheap
// to take per-operation for fresh-read semantics or held for long
// scans that need one consistent version.

#ifndef SLG_SERVICE_OVERLAY_VIEW_H_
#define SLG_SERVICE_OVERLAY_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/core/cursor.h"
#include "src/service/snapshot.h"

namespace slg {

struct ServiceState {
  std::shared_ptr<const GrammarSnapshot> base;
  // Null when every acknowledged batch is folded into base. A
  // recovered document replays its unmerged batches in place on the
  // loaded snapshot, so until its first merge base and overlay are the
  // same snapshot.
  std::shared_ptr<const GrammarSnapshot> overlay;
  // Batches / gross un-recompressed edges the overlay carries beyond
  // base (the merge trigger's inputs, and the overlay gauges' values).
  int64_t overlay_batches = 0;
  int64_t overlay_edges = 0;

  const GrammarSnapshot& effective() const { return overlay ? *overlay : *base; }
  std::shared_ptr<const GrammarSnapshot> effective_ptr() const {
    return overlay ? overlay : base;
  }
};

class OverlayView {
 public:
  explicit OverlayView(std::shared_ptr<const ServiceState> state)
      : state_(std::move(state)) {}

  // Count of acknowledged batches this view reflects — the
  // read-your-writes check: a view taken after Writer acked batch n
  // has version() >= n.
  int64_t version() const { return state_->effective().version(); }

  // The snapshot serving value queries (overlay when present). The
  // returned reference lives as long as this view.
  const GrammarSnapshot& snapshot() const { return state_->effective(); }
  std::shared_ptr<const GrammarSnapshot> snapshot_ptr() const {
    return state_->effective_ptr();
  }
  const GrammarSnapshot& base() const { return *state_->base; }
  bool has_overlay() const { return state_->overlay != nullptr; }
  int64_t overlay_batches() const { return state_->overlay_batches; }

  // --- document queries (instrumented: service.read span + counter) ------

  StatusOr<std::string> LabelAt(int64_t preorder) const;
  StatusOr<int64_t> FindElement(std::string_view tag, int64_t k = 1) const;
  StatusOr<QueryResult> RunQuery(std::string_view query) const;
  StatusOr<std::string> ToXml(bool pretty = false) const;
  GrammarCursor Cursor() const { return snapshot().Cursor(); }

  int64_t ElementCount() const { return snapshot().element_count(); }
  int64_t BinaryNodeCount() const { return snapshot().node_count(); }
  int64_t CompressedSize() const { return snapshot().edges(); }

 private:
  std::shared_ptr<const ServiceState> state_;
};

}  // namespace slg

#endif  // SLG_SERVICE_OVERLAY_VIEW_H_
