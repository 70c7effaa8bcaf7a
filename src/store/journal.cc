#include "src/store/journal.h"

#include <cstdio>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/store/crc32c.h"

namespace slg {

namespace {

// store.journal.append_bytes counts every byte successfully handed to
// File::Append, including the 12-byte file header — its delta across a
// writer's lifetime equals the journal file's size, and the durability
// bench asserts exactly that.
struct JournalMetrics {
  obs::Counter& append_bytes;
  obs::Counter& batches;
  obs::Counter& fsyncs;
  obs::Histogram& append_us;
  obs::Histogram& fsync_us;

  static JournalMetrics& Get() {
    static JournalMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new JournalMetrics{reg.GetCounter("store.journal.append_bytes"),
                                reg.GetCounter("store.journal.batches"),
                                reg.GetCounter("store.journal.fsyncs"),
                                reg.GetHistogram("store.journal.append_us"),
                                reg.GetHistogram("store.journal.fsync_us")};
    }();
    return *m;
  }
};

constexpr char kMagic[8] = {'S', 'L', 'G', 'W', 'A', 'L', '1', '\n'};
constexpr size_t kFileHeaderSize = 8 + 4;
constexpr size_t kRecordHeaderSize = 4 + 4;
// A record body larger than this cannot have been written by us; a
// huge length field is corruption, not data.
constexpr uint64_t kMaxRecordBody = uint64_t{1} << 30;

constexpr uint8_t kOpsRecord = 1;
constexpr uint8_t kCommitRecord = 2;
constexpr uint8_t kCheckpointRecord = 3;

constexpr uint8_t kInsertOp = 1;
constexpr uint8_t kDeleteOp = 2;
constexpr uint8_t kRenameOp = 3;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(std::string_view bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

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

  bool ReadByte(uint8_t* b) {
    if (pos_ >= bytes_.size()) return false;
    *b = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }

  bool ReadBytes(size_t n, std::string_view* out) {
    if (n > bytes_.size() - pos_) return false;
    *out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed journal batch: " + what);
}

// Serializes a fragment tree as preorder (name, rank) pairs — label
// ids are table-relative and must not leak into durable bytes.
void PutFragment(std::string* out, const Tree& t, const LabelTable& labels) {
  PutVarint(out, static_cast<uint64_t>(t.LiveCount()));
  t.VisitPreorder(t.root(), [&](NodeId v) {
    const std::string& name = labels.Name(t.label(v));
    PutVarint(out, name.size());
    *out += name;
    PutVarint(out, static_cast<uint64_t>(labels.IsParam(t.label(v))
                                             ? 0
                                             : labels.Rank(t.label(v))));
  });
}

// Resolves (name, rank) against the table, interning when absent.
// Never calls Intern on a rank mismatch (that would abort): mismatch
// is a malformed-payload error instead.
Status ResolveLabel(LabelTable* labels, std::string_view name, int rank,
                    LabelId* out) {
  LabelId id = labels->Find(name);
  if (id == kNoLabel) {
    *out = labels->Intern(name, rank);
    return Status::Ok();
  }
  if (labels->IsParam(id)) {
    return Malformed("fragment label '" + std::string(name) +
                     "' is a parameter");
  }
  if (labels->Rank(id) != rank) {
    return Malformed("label '" + std::string(name) + "' has rank " +
                     std::to_string(labels->Rank(id)) +
                     " in the document, journal says " + std::to_string(rank));
  }
  *out = id;
  return Status::Ok();
}

Status ReadFragment(Reader* r, LabelTable* labels, Tree* t) {
  uint64_t nodes = 0;
  if (!r->ReadVarint(&nodes) || nodes == 0 || nodes > kMaxRecordBody) {
    return Malformed("fragment node count");
  }
  struct Slot {
    NodeId node;
    int missing;
  };
  std::vector<Slot> stack;
  for (uint64_t k = 0; k < nodes; ++k) {
    uint64_t len = 0;
    std::string_view name;
    uint64_t rank = 0;
    if (!r->ReadVarint(&len) || !r->ReadBytes(len, &name) ||
        !r->ReadVarint(&rank) || rank > 1'000'000) {
      return Malformed("fragment node");
    }
    LabelId l = kNoLabel;
    SLG_RETURN_IF_ERROR(
        ResolveLabel(labels, name, static_cast<int>(rank), &l));
    NodeId v = t->NewNode(l);
    if (stack.empty()) {
      if (k != 0) return Malformed("fragment has multiple roots");
      t->SetRoot(v);
    } else {
      t->AppendChild(stack.back().node, v);
      if (--stack.back().missing == 0) stack.pop_back();
    }
    if (rank > 0) stack.push_back(Slot{v, static_cast<int>(rank)});
  }
  if (!stack.empty()) return Malformed("fragment tree truncated");
  return Status::Ok();
}

}  // namespace

std::string JournalFileName(int64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal-%010lld.wal",
                static_cast<long long>(generation));
  return buf;
}

bool ParseJournalFileName(std::string_view name, int64_t* generation) {
  constexpr std::string_view kPrefix = "journal-";
  constexpr std::string_view kSuffix = ".wal";
  if (name.size() != kPrefix.size() + 10 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  int64_t gen = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + 10; ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    gen = gen * 10 + (c - '0');
  }
  *generation = gen;
  return true;
}

std::string EncodeBatch(const std::vector<UpdateOp>& ops,
                        const LabelTable& labels) {
  std::string out;
  PutVarint(&out, ops.size());
  for (const UpdateOp& op : ops) {
    switch (op.kind) {
      case UpdateOp::Kind::kInsert:
        out.push_back(static_cast<char>(kInsertOp));
        PutVarint(&out, static_cast<uint64_t>(op.preorder));
        PutFragment(&out, op.fragment, labels);
        break;
      case UpdateOp::Kind::kDelete:
        out.push_back(static_cast<char>(kDeleteOp));
        PutVarint(&out, static_cast<uint64_t>(op.preorder));
        break;
      case UpdateOp::Kind::kRename: {
        out.push_back(static_cast<char>(kRenameOp));
        PutVarint(&out, static_cast<uint64_t>(op.preorder));
        const std::string& name = labels.Name(op.label);
        PutVarint(&out, name.size());
        out += name;
        break;
      }
    }
  }
  return out;
}

Status DecodeBatch(std::string_view payload, LabelTable* labels,
                   std::vector<UpdateOp>* ops) {
  ops->clear();
  Reader r(payload);
  uint64_t count = 0;
  if (!r.ReadVarint(&count) || count > kMaxRecordBody) {
    return Malformed("op count");
  }
  ops->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t kind = 0;
    uint64_t preorder = 0;
    if (!r.ReadByte(&kind) || !r.ReadVarint(&preorder)) {
      return Malformed("op header");
    }
    UpdateOp op;
    op.preorder = static_cast<int64_t>(preorder);
    switch (kind) {
      case kInsertOp: {
        op.kind = UpdateOp::Kind::kInsert;
        SLG_RETURN_IF_ERROR(ReadFragment(&r, labels, &op.fragment));
        break;
      }
      case kDeleteOp:
        op.kind = UpdateOp::Kind::kDelete;
        break;
      case kRenameOp: {
        op.kind = UpdateOp::Kind::kRename;
        uint64_t len = 0;
        std::string_view name;
        if (!r.ReadVarint(&len) || !r.ReadBytes(len, &name)) {
          return Malformed("rename label");
        }
        // Renames always target rank-2 element labels; interning here
        // reproduces the id the live path would have interned at apply
        // time (BatchUpdater::Rename). A name that exists with another
        // rank resolves to that id and is rejected downstream.
        LabelId id = labels->Find(name);
        if (id == kNoLabel) id = labels->Intern(name, 2);
        op.label = id;
        break;
      }
      default:
        return Malformed("unknown op kind " + std::to_string(kind));
    }
    ops->push_back(std::move(op));
  }
  if (!r.AtEnd()) return Malformed("trailing bytes");
  return Status::Ok();
}

StatusOr<JournalWriter> JournalWriter::Create(const std::string& path,
                                              const JournalOptions& options,
                                              FaultInjector* fi) {
  StatusOr<File> f = File::Create(path, fi);
  if (!f.ok()) return f.status();
  File file = f.take();
  std::string header(kMagic, sizeof(kMagic));
  PutU32(&header, kJournalFormatVersion);
  SLG_RETURN_IF_ERROR(file.Append(header));
  JournalMetrics::Get().append_bytes.Add(static_cast<int64_t>(header.size()));
  SLG_RETURN_IF_ERROR(file.Sync());
  return JournalWriter(std::move(file), 0, options);
}

StatusOr<JournalWriter> JournalWriter::OpenExisting(
    const std::string& path, int64_t committed_batches,
    const JournalOptions& options, FaultInjector* fi) {
  StatusOr<File> f = File::OpenForAppend(path, fi);
  if (!f.ok()) return f.status();
  return JournalWriter(f.take(), committed_batches, options);
}

Status JournalWriter::AppendRecord(uint8_t type, std::string_view payload) {
  std::string record;
  record.reserve(kRecordHeaderSize + 1 + payload.size());
  PutU32(&record, static_cast<uint32_t>(1 + payload.size()));
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body.append(payload.data(), payload.size());
  PutU32(&record, Crc32c(body.data(), body.size()));
  record += body;
  JournalMetrics& metrics = JournalMetrics::Get();
  int64_t start_ns = obs::internal::TraceNowNs();
  Status s = file_.Append(record);
  metrics.append_us.Record((obs::internal::TraceNowNs() - start_ns) / 1000);
  // Bytes count only on success: a fault-injected short write returns
  // an error, and the file's durable length is whatever recovery keeps.
  if (s.ok()) {
    metrics.append_bytes.Add(static_cast<int64_t>(record.size()));
  }
  return s;
}

Status JournalWriter::AppendBatch(std::string_view encoded) {
  SLG_RETURN_IF_ERROR(AppendRecord(kOpsRecord, encoded));
  std::string seq;
  PutVarint(&seq, static_cast<uint64_t>(next_seq_));
  SLG_RETURN_IF_ERROR(AppendRecord(kCommitRecord, seq));
  ++next_seq_;
  ++unsynced_batches_;
  JournalMetrics::Get().batches.Increment();
  if (options_.policy == FsyncPolicy::kEveryBatch ||
      (options_.policy == FsyncPolicy::kEveryN &&
       unsynced_batches_ >= options_.every_n)) {
    return Sync();
  }
  return Status::Ok();
}

Status JournalWriter::AppendCheckpoint(int64_t next_generation,
                                       int64_t folded) {
  std::string payload;
  PutVarint(&payload, static_cast<uint64_t>(next_generation));
  PutVarint(&payload, static_cast<uint64_t>(folded));
  SLG_RETURN_IF_ERROR(AppendRecord(kCheckpointRecord, payload));
  return Sync();
}

Status JournalWriter::Sync() {
  unsynced_batches_ = 0;
  JournalMetrics& metrics = JournalMetrics::Get();
  obs::TraceSpan span("store.fsync");
  int64_t start_ns = obs::internal::TraceNowNs();
  Status s = file_.Sync();
  metrics.fsync_us.Record((obs::internal::TraceNowNs() - start_ns) / 1000);
  metrics.fsyncs.Increment();
  return s;
}

Status JournalWriter::Close() {
  if (unsynced_batches_ > 0) SLG_RETURN_IF_ERROR(Sync());
  return file_.Close();
}

StatusOr<JournalReplay> ReplayJournal(const std::string& path) {
  std::string bytes;
  SLG_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  JournalReplay out;
  if (bytes.size() < kFileHeaderSize ||
      std::string_view(bytes).substr(0, 8) != std::string_view(kMagic, 8) ||
      GetU32(bytes, 8) != kJournalFormatVersion) {
    // Torn or foreign header: replay as empty. valid_bytes = 0 tells
    // the opener to rebuild the file from scratch.
    out.truncated_tail = !bytes.empty();
    return out;
  }
  out.header_ok = true;
  size_t pos = kFileHeaderSize;
  out.valid_bytes = static_cast<int64_t>(pos);
  std::string pending;      // ops payload awaiting its commit marker
  bool have_pending = false;
  while (pos + kRecordHeaderSize <= bytes.size()) {
    uint64_t len = GetU32(bytes, pos);
    uint32_t want_crc = GetU32(bytes, pos + 4);
    if (len == 0 || len > kMaxRecordBody ||
        len > bytes.size() - pos - kRecordHeaderSize) {
      break;  // torn or corrupt length: truncate here
    }
    std::string_view body =
        std::string_view(bytes).substr(pos + kRecordHeaderSize, len);
    if (Crc32c(body.data(), body.size()) != want_crc) break;
    uint8_t type = static_cast<uint8_t>(body[0]);
    std::string_view payload = body.substr(1);
    pos += kRecordHeaderSize + len;
    if (type == kOpsRecord) {
      if (have_pending) break;  // two ops records without a commit
      pending.assign(payload.data(), payload.size());
      have_pending = true;
      continue;  // not committed yet: valid_bytes stays put
    }
    if (type == kCommitRecord) {
      Reader r(payload);
      uint64_t seq = 0;
      if (!have_pending || !r.ReadVarint(&seq) || !r.AtEnd() ||
          seq != out.batches.size()) {
        break;  // commit without ops, or sequence mismatch
      }
      out.batches.push_back(std::move(pending));
      pending.clear();
      have_pending = false;
      out.valid_bytes = static_cast<int64_t>(pos);
      continue;
    }
    if (type == kCheckpointRecord) {
      Reader r(payload);
      uint64_t gen = 0;
      // A marker without a folded count predates tail carrying: its
      // rotation folded every batch of the file.
      uint64_t folded = out.batches.size();
      if (have_pending || !r.ReadVarint(&gen) ||
          (!r.AtEnd() && !r.ReadVarint(&folded)) || !r.AtEnd() ||
          folded > out.batches.size()) {
        break;
      }
      out.ends_with_checkpoint = true;
      out.next_generation = static_cast<int64_t>(gen);
      out.folded = static_cast<int64_t>(folded);
      out.valid_bytes = static_cast<int64_t>(pos);
      break;  // a checkpoint marker always ends its file
    }
    break;  // unknown record type: corrupt
  }
  out.truncated_tail =
      static_cast<int64_t>(bytes.size()) > out.valid_bytes;
  return out;
}

}  // namespace slg
