#include "src/store/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/grammar/binary_format.h"
#include "src/store/crc32c.h"
#include "src/store/io.h"

namespace slg {

namespace {

constexpr char kHeaderMagic[8] = {'S', 'L', 'G', 'S', 'N', 'P', '1', '\n'};
constexpr char kFooterMagic[8] = {'S', 'L', 'G', 'S', 'N', 'P', 'E', '\n'};
constexpr size_t kHeaderSize = 8 + 4 + 8;
constexpr size_t kFooterSize = 4 + 8;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(std::string_view bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(std::string_view bytes, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt snapshot: " + what);
}

}  // namespace

std::string EncodeSnapshot(const Grammar& g) {
  std::string payload = SerializeGrammar(g);
  std::string out(kHeaderMagic, sizeof(kHeaderMagic));
  PutU32(&out, kSnapshotFormatVersion);
  PutU64(&out, payload.size());
  out += payload;
  uint32_t crc = Crc32c(out.data(), out.size());
  PutU32(&out, crc);
  out.append(kFooterMagic, sizeof(kFooterMagic));
  return out;
}

StatusOr<Grammar> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize + kFooterSize) return Corrupt("truncated");
  if (bytes.substr(0, 8) != std::string_view(kHeaderMagic, 8)) {
    return Corrupt("bad header magic");
  }
  uint32_t version = GetU32(bytes, 8);
  if (version != kSnapshotFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version));
  }
  uint64_t payload_len = GetU64(bytes, 12);
  if (payload_len != bytes.size() - kHeaderSize - kFooterSize) {
    return Corrupt("payload length does not match file size");
  }
  if (bytes.substr(bytes.size() - 8) != std::string_view(kFooterMagic, 8)) {
    return Corrupt("bad footer magic");
  }
  size_t crc_at = kHeaderSize + payload_len;
  uint32_t want = GetU32(bytes, crc_at);
  uint32_t got = Crc32c(bytes.data(), crc_at);
  if (want != got) return Corrupt("checksum mismatch");
  StatusOr<Grammar> g =
      DeserializeGrammar(bytes.substr(kHeaderSize, payload_len));
  if (!g.ok()) {
    // CRC passed but the image is bad: either the writer persisted a
    // broken grammar (a bug) or the corruption hit payload and CRC
    // consistently; either way the caller treats it as a corrupt file.
    return Status::InvalidArgument("corrupt snapshot payload: " +
                                   g.status().message());
  }
  return g;
}

std::string SnapshotFileName(int64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snapshot-%010lld.slg",
                static_cast<long long>(generation));
  return buf;
}

bool ParseSnapshotFileName(std::string_view name, int64_t* generation) {
  constexpr std::string_view kPrefix = "snapshot-";
  constexpr std::string_view kSuffix = ".slg";
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

Status WriteSnapshot(const std::string& dir, int64_t generation,
                     const Grammar& g, FaultInjector* fi) {
  return WriteFileAtomic(dir, SnapshotFileName(generation), EncodeSnapshot(g),
                         fi);
}

StatusOr<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir) {
  StatusOr<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<int64_t> gens;
  for (const std::string& name : names.value()) {
    int64_t gen = 0;
    if (ParseSnapshotFileName(name, &gen)) gens.push_back(gen);
  }
  if (gens.empty()) {
    return Status::NotFound("no snapshot in " + dir);
  }
  std::sort(gens.begin(), gens.end(), std::greater<int64_t>());
  std::string last_error;
  for (int64_t gen : gens) {
    std::string bytes;
    Status read = ReadFileToString(JoinPath(dir, SnapshotFileName(gen)), &bytes);
    if (read.ok()) {
      StatusOr<Grammar> g = DecodeSnapshot(bytes);
      if (g.ok()) {
        LoadedSnapshot out{g.take(), gen};
        return out;
      }
      last_error = g.status().message();
    } else {
      last_error = read.message();
    }
  }
  return Status::DataLoss("every snapshot generation in " + dir +
                          " is corrupt or unreadable (last: " + last_error +
                          ")");
}

}  // namespace slg
