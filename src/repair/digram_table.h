// The digram frequency table under both digram indexes: TreeDigramIndex
// (TreeRePair, occurrences in one tree) and GrammarDigramIndex
// (GrammarRePair, usage-weighted occurrences in a grammar). It owns the
// step both compressors run every round: "which digram is most
// frequent, and where are its occurrences".
//
// Layout after Larsson & Moffat ("Off-line dictionary-based
// compression", Proc. IEEE 88(11), 2000): digrams are interned to
// dense ids once (one open-addressing probe per operation, the only
// hashing anywhere), occurrences live in a free-listed pool of flat
// records threaded onto a per-digram doubly-linked list, and
// most-frequent selection uses frequency buckets of doubly-linked
// digram lists. Counts are uint64_t and saturate at kUsageCap, so the
// buckets are hybrid: counts up to kDigramBucketCap live in a dense
// bucket array (O(1) moves; MostFrequent walks down from the tracked
// maximum), larger counts on one overflow list that MostFrequent
// scans first. Exponential grammars have few astronomically-weighted
// digrams, so that scan is short.
//
// The occurrence record `Occ` belongs to the index: it carries the
// fields `digram`, `dprev` and `dnext` (the per-digram list, kept
// here), and any other list it threads (per parent node, per rule) is
// the index's to keep. No virtual call anywhere: the index's part of
// Take is a lambda the template inlines.

#ifndef SLG_REPAIR_DIGRAM_TABLE_H_
#define SLG_REPAIR_DIGRAM_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/grammar/usage.h"
#include "src/repair/digram.h"
#include "src/repair/repair_options.h"

namespace slg {

// Dense ids of an interned digram and of a pooled occurrence record;
// kNilId stands for none.
using DigramId = int32_t;
using OccId = int32_t;
inline constexpr int32_t kNilId = -1;

// Counts above this live on the overflow list instead of a dense
// bucket slot.
inline constexpr uint64_t kDigramBucketCap = 4096;

template <class Occ>
class DigramTable {
 public:
  // Forgets every digram and occurrence.
  void Clear() {
    digrams_.clear();
    slots_.clear();
    occs_.clear();
    occ_free_.clear();
    buckets_.clear();
    overflow_head_ = kNilId;
    max_count_ = 0;
    total_ = 0;
  }

  // kNilId when d was never interned.
  DigramId Find(const Digram& d) const {
    if (slots_.empty()) return kNilId;
    size_t mask = slots_.size() - 1;
    for (size_t pos = DigramHash()(d) & mask;; pos = (pos + 1) & mask) {
      int32_t s = slots_[pos];
      if (s == 0) return kNilId;
      if (info(s - 1).key == d) return s - 1;
    }
  }

  // Insert-or-find; the rank is fixed here, once per digram.
  DigramId Intern(const Digram& d, const LabelTable& labels) {
    DigramId id = Find(d);
    if (id != kNilId) return id;
    if (digrams_.size() * 10 >= slots_.size() * 7) GrowSlots();
    id = static_cast<DigramId>(digrams_.size());
    Info fresh;
    fresh.key = d;
    fresh.rank = DigramRank(d, labels);
    digrams_.push_back(fresh);
    Place(id);
    return id;
  }

  Occ& occ(OccId o) { return occs_[static_cast<size_t>(o)]; }
  const Occ& occ(OccId o) const { return occs_[static_cast<size_t>(o)]; }

  // A fresh record of digram `id`, linked at the head of the digram's
  // occurrence list; the count grows by `weight`. The caller fills in
  // and links the record's other fields.
  OccId AddOcc(DigramId id, uint64_t weight) {
    OccId o;
    if (!occ_free_.empty()) {
      o = occ_free_.back();
      occ_free_.pop_back();
    } else {
      o = static_cast<OccId>(occs_.size());
      occs_.emplace_back();
    }
    Info& in = info(id);
    Occ& rec = occ(o);
    rec.digram = id;
    rec.dprev = kNilId;
    rec.dnext = in.occ_head;
    if (in.occ_head != kNilId) occ(in.occ_head).dprev = o;
    in.occ_head = o;
    ++total_;
    SetCount(id, UsageSatAdd(in.count, weight));
    return o;
  }

  // Unlinks `o` from its digram's list, takes `weight` off the count
  // (stopping at 0) and frees the record. The caller unlinks the
  // record's other lists first.
  void RemoveOcc(OccId o, uint64_t weight) {
    const Occ& rec = occ(o);
    DigramId id = rec.digram;
    if (rec.dprev != kNilId) {
      occ(rec.dprev).dnext = rec.dnext;
    } else {
      info(id).occ_head = rec.dnext;
    }
    if (rec.dnext != kNilId) occ(rec.dnext).dprev = rec.dprev;
    Free(o);
    --total_;
    Reweight(id, weight, 0);
  }

  // One occurrence of `id` changes its weight from old_w to new_w.
  void Reweight(DigramId id, uint64_t old_w, uint64_t new_w) {
    uint64_t c = info(id).count;
    SetCount(id, UsageSatAdd(c >= old_w ? c - old_w : 0, new_w));
  }

  // Frees every occurrence of d and zeroes its count. Before a record
  // is freed, release(o) unlinks the index's own lists and returns
  // what the index reports for it. The results come in list order:
  // the index sorts them.
  template <class Out, class Release>
  std::vector<Out> Take(const Digram& d, Release release) {
    std::vector<Out> out;
    DigramId id = Find(d);
    if (id == kNilId) return out;
    for (OccId o = info(id).occ_head; o != kNilId;) {
      OccId next = occ(o).dnext;
      out.push_back(release(o));
      Free(o);
      o = next;
    }
    info(id).occ_head = kNilId;
    SetCount(id, 0);
    total_ -= static_cast<int64_t>(out.size());
    return out;
  }

  uint64_t Count(const Digram& d) const {
    DigramId id = Find(d);
    return id == kNilId ? 0 : info(id).count;
  }

  int64_t total() const { return total_; }

  // The most frequent appropriate digram: count >= options.min_count,
  // rank <= options.max_rank and, under
  // options.require_positive_savings, count > rank + 1. Among the
  // eligible digrams of maximal count, the DigramLess-smallest: a pure
  // function of the count table, so where a digram sits (bucket or
  // overflow list) never changes the answer.
  std::optional<Digram> MostFrequent(const RepairOptions& options) {
    uint64_t floor =
        options.min_count > 1 ? static_cast<uint64_t>(options.min_count) : 1;
    auto eligible = [&](const Info& in) {
      if (in.count < floor || in.rank > options.max_rank) return false;
      // A digram with count c <= rank(α) + 1 yields a rule X with
      // sav(X) <= 0 even in the best case, so pruning would remove it
      // again: pure replace-then-prune churn.
      return !options.require_positive_savings ||
             in.count > static_cast<uint64_t>(in.rank) + 1;
    };
    // Overflow list first: every count there exceeds every bucketed one.
    DigramId best = kNilId;
    for (DigramId id = overflow_head_; id != kNilId;
         id = info(id).bucket_next) {
      const Info& in = info(id);
      if (!eligible(in)) continue;
      if (best == kNilId || in.count > info(best).count ||
          (in.count == info(best).count &&
           DigramLess(in.key, info(best).key))) {
        best = id;
      }
    }
    if (best != kNilId) return info(best).key;
    while (max_count_ > 0 &&
           buckets_[static_cast<size_t>(max_count_)] == kNilId) {
      --max_count_;
    }
    for (uint64_t c = max_count_; c >= floor && c > 0; --c) {
      for (DigramId id = buckets_[static_cast<size_t>(c)]; id != kNilId;
           id = info(id).bucket_next) {
        const Info& in = info(id);
        if (eligible(in) &&
            (best == kNilId || DigramLess(in.key, info(best).key))) {
          best = id;
        }
      }
      if (best != kNilId) return info(best).key;
    }
    return std::nullopt;
  }

 private:
  struct Info {
    Digram key;
    int rank = 0;  // DigramRank, fixed at interning time
    uint64_t count = 0;
    OccId occ_head = kNilId;
    DigramId bucket_prev = kNilId;
    DigramId bucket_next = kNilId;  // bucket or overflow list, by count
  };

  Info& info(DigramId id) { return digrams_[static_cast<size_t>(id)]; }
  const Info& info(DigramId id) const {
    return digrams_[static_cast<size_t>(id)];
  }

  void Free(OccId o) {
    occ(o) = Occ{};
    occ_free_.push_back(o);
  }

  // Puts interned digram `id` into its empty probe slot.
  void Place(DigramId id) {
    size_t mask = slots_.size() - 1;
    size_t pos = DigramHash()(info(id).key) & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = id + 1;
  }

  void GrowSlots() {
    slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, 0);
    for (size_t id = 0; id < digrams_.size(); ++id) {
      Place(static_cast<DigramId>(id));
    }
  }

  // Moves digram `id` to the bucket (or overflow list) of its new
  // count; 0 = none.
  void SetCount(DigramId id, uint64_t count) {
    Info& in = info(id);
    if (in.count > 0) {
      if (in.bucket_prev != kNilId) {
        info(in.bucket_prev).bucket_next = in.bucket_next;
      } else if (in.count > kDigramBucketCap) {
        overflow_head_ = in.bucket_next;
      } else {
        buckets_[static_cast<size_t>(in.count)] = in.bucket_next;
      }
      if (in.bucket_next != kNilId) {
        info(in.bucket_next).bucket_prev = in.bucket_prev;
      }
      in.bucket_prev = in.bucket_next = kNilId;
    }
    in.count = count;
    if (count == 0) return;
    DigramId* head = &overflow_head_;
    if (count <= kDigramBucketCap) {
      if (static_cast<size_t>(count) >= buckets_.size()) {
        buckets_.resize(static_cast<size_t>(count) + 1, kNilId);
      }
      head = &buckets_[static_cast<size_t>(count)];
      if (count > max_count_) max_count_ = count;
    }
    in.bucket_next = *head;
    if (*head != kNilId) info(*head).bucket_prev = id;
    *head = id;
  }

  std::vector<Info> digrams_;
  // Open-addressing intern table: slot holds DigramId + 1, 0 = empty.
  std::vector<int32_t> slots_;
  std::vector<Occ> occs_;
  std::vector<OccId> occ_free_;
  // buckets_[c] = head of the list of digrams with count c
  // (1 <= c <= kDigramBucketCap); larger counts chain off
  // overflow_head_.
  std::vector<DigramId> buckets_;
  DigramId overflow_head_ = kNilId;
  uint64_t max_count_ = 0;  // maximum bucketed (<= kDigramBucketCap) count
  int64_t total_ = 0;
};

}  // namespace slg

#endif  // SLG_REPAIR_DIGRAM_TABLE_H_
