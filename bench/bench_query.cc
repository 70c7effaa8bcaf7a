// Path queries on the grammar vs decompress-then-scan: the memoized
// engine (src/query/) answers count / exists / first directly on the
// rule DAG, so its work tracks the *grammar* (rules × contexts), not
// the document. Per corpus: a fixed query set derived
// deterministically from the document (the most frequent element tag),
// engine answers cross-checked against a full materialize-and-scan
// oracle, with work counters and advisory timings. A scaling series
// then grows one corpus ~8× while the query work counters stay put —
// the sub-linear claim, gated exactly.
//
// CI gating (tools/bench_compare.py): result_matches / rules_visited /
// memo_entries / memo_hits / nodes_walked / tree_nodes are
// deterministic for the pinned workload and must match the committed
// BENCH_query.json exactly (nodes_walked is the body nodes the
// evaluation walked: once per memoized (rule, context) pair);
// engine_ms / oracle_ms / speedup are advisory timings.
// rules is workload context. The bench itself hard-checks
// rules_visited <= rule count and engine == oracle on every query.
//
// Per corpus, two find rows time GrammarSnapshot::FindElement of the
// middle occurrence of the same tag on a served snapshot: `cold` is
// the snapshot's first find of the tag (the occurrence pass plus the
// descent), `warm` the second (the descent over the memoized table).
// nodes_walked is the body nodes each walked, gated exactly; find_us
// is advisory. Both answers are checked against the scan.
//
// Flags: --scale (default 0.01), --reps (timing repetitions), --out.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/bench_util/reporting.h"
#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/value.h"
#include "src/obs/session.h"
#include "src/query/engine.h"
#include "src/service/snapshot.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c, double scale) {
  XmlTree xml = GenerateCorpus(c, scale);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  // Sequential repair — deterministic whatever the runner's cores.
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// What the scan oracle needs to know about a query.
enum class OracleKind { kCountLabel, kCountAll, kFirstLabel, kExistsLabel };

struct QueryCase {
  std::string key;   // metric row suffix
  std::string text;  // engine query
  OracleKind kind;
  std::string label;
};

// The decompress-then-scan baseline: materialize val(G) and walk it.
// Returns the oracle's answer in the engine's result convention
// (count, or first position, or 0/1 existence).
int64_t OracleScan(const Grammar& g, const QueryCase& q) {
  Tree full = Value(g).take();
  LabelId want = q.label.empty() ? kNoLabel : g.labels().Find(q.label);
  int64_t count = 0;
  int64_t pos = 0;
  int64_t first_pos = 0;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    ++pos;
    LabelId l = full.label(v);
    if (l == kNullLabel) return;
    if (q.kind == OracleKind::kCountAll) {
      ++count;
    } else if (l == want) {
      ++count;
      if (first_pos == 0) first_pos = pos;
    }
  });
  switch (q.kind) {
    case OracleKind::kCountLabel:
    case OracleKind::kCountAll:
      return count;
    case OracleKind::kFirstLabel:
      return first_pos;
    case OracleKind::kExistsLabel:
      return count > 0 ? 1 : 0;
  }
  return 0;
}

// Most frequent element tag — deterministic for a fixed corpus, and
// the natural "selective descendant query" target.
std::string FrequentTag(const Grammar& g) {
  Tree full = Value(g).take();
  std::map<LabelId, int64_t> counts;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    if (full.label(v) != kNullLabel) ++counts[full.label(v)];
  });
  LabelId best = kNoLabel;
  int64_t best_n = -1;
  for (const auto& [l, n] : counts) {
    if (n > best_n) {
      best = l;
      best_n = n;
    }
  }
  return g.labels().Name(best);
}

// Preorder position of the k-th node labeled `tag` in val(G), by scan.
int64_t OracleFind(const Grammar& g, const std::string& tag, int64_t k) {
  Tree full = Value(g).take();
  LabelId want = g.labels().Find(tag);
  int64_t pos = 0;
  int64_t found = 0;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    ++pos;
    if (full.label(v) == want && --k == 0) found = pos;
  });
  return found;
}

struct FindResult {
  NavStats stats;
  double us = 0;
};

// The first (cold) and second (warm) find of the k-th `tag` on fresh
// snapshots of g, compacted as served snapshots are, each checked
// against `expect`; times are means over `reps` snapshots.
std::pair<FindResult, FindResult> RunFinds(const Grammar& g,
                                           const std::string& tag, int64_t k,
                                           int64_t expect, int reps) {
  FindResult cold, warm;
  for (int i = 0; i < reps; ++i) {
    Grammar served = g.Clone();
    for (LabelId r : served.Nonterminals()) served.mutable_rhs(r);  // unshare
    served.CompactOwnedBodies();
    auto snap = GrammarSnapshot::Make(std::move(served));
    for (FindResult* r : {&cold, &warm}) {
      Timer t;
      StatusOr<int64_t> pos = snap->FindElement(tag, k, &r->stats);
      r->us += t.ElapsedSeconds() * 1e6 / reps;
      SLG_CHECK_MSG(pos.ok() && pos.value() == expect,
                    "find diverged from scan oracle");
    }
  }
  return {cold, warm};
}

struct CaseResult {
  int64_t answer = 0;
  QueryStats stats;
  double engine_ms = 0;
  double oracle_ms = 0;
};

CaseResult RunCase(const Grammar& g, const QueryEngine& eng,
                   const QueryCase& q, int reps) {
  CaseResult r;
  Timer et;
  for (int i = 0; i < reps; ++i) {
    StatusOr<QueryResult> res = eng.Run(q.text);
    SLG_CHECK_MSG(res.ok(), "bench query must succeed");
    const QueryResult& qr = res.value();
    r.answer = q.kind == OracleKind::kFirstLabel   ? qr.position
               : q.kind == OracleKind::kExistsLabel ? (qr.exists ? 1 : 0)
                                                    : qr.count;
    r.stats = qr.stats;
  }
  r.engine_ms = et.ElapsedSeconds() * 1e3 / reps;
  SLG_CHECK_MSG(r.stats.rules_visited <= g.RuleCount(),
                "rules_visited must be bounded by the rule count");
  Timer ot;
  int64_t oracle = OracleScan(g, q);
  r.oracle_ms = ot.ElapsedSeconds() * 1e3;
  SLG_CHECK_MSG(r.answer == oracle, "engine diverged from scan oracle");
  return r;
}

std::vector<QueryCase> CasesFor(const std::string& tag) {
  return {
      {"count_tag", "count(//" + tag + ")", OracleKind::kCountLabel, tag},
      {"count_all", "count(//*)", OracleKind::kCountAll, ""},
      {"first_tag", "first(//" + tag + ")", OracleKind::kFirstLabel, tag},
      {"exists_absent", "exists(//zz_no_such_tag)", OracleKind::kExistsLabel,
       "zz_no_such_tag"},
  };
}

int Run(int argc, char** argv) {
  double scale = FlagDouble(argc, argv, "--scale", 0.01);
  int reps = static_cast<int>(FlagInt(argc, argv, "--reps", 10));
  std::string out = FlagString(argc, argv, "--out", "BENCH_query.json");
  obs::ObsSession obs_session(argc, argv);

  struct CorpusRow {
    const char* name;
    Corpus corpus;
  };
  const CorpusRow kCorpora[] = {
      {"weblog", Corpus::kExiWeblog},     {"xmark", Corpus::kXMark},
      {"telecomp", Corpus::kExiTelecomp}, {"treebank", Corpus::kTreebank},
      {"medline", Corpus::kMedline},      {"ncbi", Corpus::kNcbi},
  };

  JsonBenchWriter json;
  std::printf("Path queries on the grammar vs decompress-then-scan (scale "
              "%.3g, %d reps)\n\n",
              scale, reps);

  for (const CorpusRow& row : kCorpora) {
    Grammar g = CompressedCorpus(row.corpus, scale);
    RuleIndex index = RuleIndex::Build(g);
    QueryEngine eng(&g, &index);
    std::string tag = FrequentTag(g);

    TablePrinter table({"query", "matches", "rules visited", "memo entries",
                        "memo hits", "nodes walked", "engine ms", "scan ms",
                        "speedup"});
    for (const QueryCase& q : CasesFor(tag)) {
      CaseResult r = RunCase(g, eng, q, reps);
      double speedup = r.engine_ms > 0 ? r.oracle_ms / r.engine_ms : 0;
      table.AddRow({q.text, TablePrinter::Num(r.answer),
                    TablePrinter::Num(r.stats.rules_visited),
                    TablePrinter::Num(r.stats.memo_entries),
                    TablePrinter::Num(r.stats.memo_hits),
                    TablePrinter::Num(r.stats.nodes_walked),
                    TablePrinter::Fixed(r.engine_ms, 3),
                    TablePrinter::Fixed(r.oracle_ms, 3),
                    TablePrinter::Fixed(speedup, 1)});
      json.Add(std::string("query/") + row.name + "/" + q.key,
               {{"result_matches", static_cast<double>(r.answer)},
                {"rules_visited", static_cast<double>(r.stats.rules_visited)},
                {"memo_entries", static_cast<double>(r.stats.memo_entries)},
                {"memo_hits", static_cast<double>(r.stats.memo_hits)},
                {"nodes_walked", static_cast<double>(r.stats.nodes_walked)},
                {"rules", static_cast<double>(g.RuleCount())},
                {"engine_ms", r.engine_ms},
                {"oracle_ms", r.oracle_ms},
                {"speedup", speedup}});
    }
    std::printf("%s (%lld rules, %lld binary nodes)\n", row.name,
                static_cast<long long>(g.RuleCount()),
                static_cast<long long>(index.DerivedSize()));
    table.Print();

    QueryResult count = eng.Run("count(//" + tag + ")").take();
    const int64_t k = (count.count + 1) / 2;
    auto [cold, warm] = RunFinds(g, tag, k, OracleFind(g, tag, k), reps);
    std::printf("find(%s, %lld): cold %lld nodes walked, %.1f us; warm %lld "
                "nodes walked, %.2f us\n\n",
                tag.c_str(), static_cast<long long>(k),
                static_cast<long long>(cold.stats.steps), cold.us,
                static_cast<long long>(warm.stats.steps), warm.us);
    auto add_find = [&](const char* key, const FindResult& r) {
      json.Add(std::string("find/") + row.name + "/" + key,
               {{"nodes_walked", static_cast<double>(r.stats.steps)},
                {"rules", static_cast<double>(g.RuleCount())},
                {"find_us", r.us}});
    };
    add_find("cold", cold);
    add_find("warm", warm);
  }

  // Scaling series: the document grows ~8x, the engine's work
  // counters follow the grammar. tree_nodes pins the workload, the
  // counters are gated exactly.
  std::printf("scaling (weblog, count(//tag))\n");
  TablePrinter stable({"scale", "tree nodes", "rules", "rules visited",
                       "memo entries", "nodes walked", "engine ms",
                       "scan ms"});
  const double kScales[] = {0.005, 0.01, 0.02, 0.04};
  int si = 0;
  for (double s : kScales) {
    Grammar g = CompressedCorpus(Corpus::kExiWeblog, s);
    RuleIndex index = RuleIndex::Build(g);
    QueryEngine eng(&g, &index);
    std::string tag = FrequentTag(g);
    QueryCase q{"scale", "count(//" + tag + ")", OracleKind::kCountLabel, tag};
    CaseResult r = RunCase(g, eng, q, reps);
    stable.AddRow({TablePrinter::Fixed(s, 3),
                   TablePrinter::Num(index.DerivedSize()),
                   TablePrinter::Num(g.RuleCount()),
                   TablePrinter::Num(r.stats.rules_visited),
                   TablePrinter::Num(r.stats.memo_entries),
                   TablePrinter::Num(r.stats.nodes_walked),
                   TablePrinter::Fixed(r.engine_ms, 3),
                   TablePrinter::Fixed(r.oracle_ms, 3)});
    json.Add("query/scaling/weblog/s" + std::to_string(si++),
             {{"tree_nodes", static_cast<double>(index.DerivedSize())},
              {"rules", static_cast<double>(g.RuleCount())},
              {"rules_visited", static_cast<double>(r.stats.rules_visited)},
              {"memo_entries", static_cast<double>(r.stats.memo_entries)},
              {"nodes_walked", static_cast<double>(r.stats.nodes_walked)},
              {"result_matches", static_cast<double>(r.answer)},
              {"engine_ms", r.engine_ms},
              {"oracle_ms", r.oracle_ms}});
  }
  stable.Print();
  std::printf("\n");

  if (!json.WriteTo(out)) {
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  } else {
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace slg

int main(int argc, char** argv) { return slg::Run(argc, argv); }
