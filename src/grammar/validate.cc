#include "src/grammar/validate.h"

#include <limits>
#include <string>
#include <vector>

#include "src/grammar/orders.h"

namespace slg {

namespace {

// Validate, with terminals limited to `max_terminal_rank`.
Status ValidateRanked(const Grammar& g, int max_terminal_rank) {
  const LabelTable& labels = g.labels();

  if (g.start() == kNoLabel || !g.HasRule(g.start())) {
    return Status::FailedPrecondition("grammar has no start rule");
  }
  if (labels.Rank(g.start()) != 0) {
    return Status::FailedPrecondition("start nonterminal must have rank 0");
  }
  if (!IsStraightLine(g)) {
    return Status::FailedPrecondition(
        "grammar is recursive (not straight-line)");
  }

  Status status = Status::Ok();
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    if (!status.ok()) return;
    const std::string rule_name = labels.Name(lhs);
    if (labels.IsParam(lhs)) {
      // Every reader takes a parameter for a parameter, never a call.
      status = Status::FailedPrecondition("parameter " + rule_name +
                                          " has a rule");
      return;
    }
    if (rhs.empty()) {
      status = Status::FailedPrecondition("rule " + rule_name + " is empty");
      return;
    }
    if (!rhs.CheckConsistency()) {
      status = Status::Internal("rule " + rule_name +
                                " has a corrupt arena");
      return;
    }
    if (labels.IsParam(rhs.label(rhs.root()))) {
      status = Status::FailedPrecondition(
          "rule " + rule_name + " derives a bare parameter");
      return;
    }
    int next_param = 1;
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      if (!status.ok()) return;
      LabelId l = rhs.label(v);
      int want = labels.IsParam(l) ? 0 : labels.Rank(l);
      int got = rhs.NumChildren(v);
      if (want != got) {
        status = Status::FailedPrecondition(
            "rule " + rule_name + ": node '" + labels.Name(l) + "' has " +
            std::to_string(got) + " children, rank is " +
            std::to_string(want));
        return;
      }
      int pidx = labels.ParamIndex(l);
      if (pidx > 0) {
        if (pidx != next_param) {
          status = Status::FailedPrecondition(
              "rule " + rule_name + ": expected $" +
              std::to_string(next_param) + " next in preorder, found $" +
              std::to_string(pidx));
          return;
        }
        ++next_param;
      }
      if (want > max_terminal_rank && !labels.IsParam(l) && !g.HasRule(l)) {
        status = Status::FailedPrecondition(
            "rule " + rule_name + ": terminal '" + labels.Name(l) +
            "' has rank " + std::to_string(want) + ", above " +
            std::to_string(max_terminal_rank));
        return;
      }
      if (g.HasRule(l) && l == g.start()) {
        status = Status::FailedPrecondition(
            "start nonterminal referenced inside rule " + rule_name);
      }
    });
    if (!status.ok()) return;
    int rank = labels.Rank(lhs);
    if (next_param - 1 != rank) {
      status = Status::FailedPrecondition(
          "rule " + rule_name + " of rank " + std::to_string(rank) +
          " uses " + std::to_string(next_param - 1) + " parameters");
    }
  });
  return status;
}

}  // namespace

Status Validate(const Grammar& g) {
  return ValidateRanked(g, std::numeric_limits<int>::max());
}

Status ValidateDocument(const Grammar& g) { return ValidateRanked(g, 2); }

}  // namespace slg
