// Checksummed snapshot container for serialized grammars.
//
// A snapshot is one generation of the durable document: the
// SerializeGrammar image wrapped in an integrity envelope and
// published atomically (temp file + fsync + rename + directory
// fsync). On-disk layout, all fixed-width fields little-endian:
//
//   header:  magic "SLGSNP1\n" (8) | format version u32 | payload len u64
//   payload: SerializeGrammar bytes
//   footer:  CRC32C(header + payload) u32 | magic "SLGSNPE\n" (8)
//
// The CRC covers the header too, so a flipped version or length byte
// is caught as corruption rather than misread. Decoding a snapshot
// runs the full DeserializeGrammar + Validate pipeline — a snapshot
// that decodes is a grammar every pass downstream can trust.
//
// Files are named snapshot-<generation, 10 digits>.slg; loading walks
// generations newest-first and falls back past corrupt ones.

#ifndef SLG_STORE_SNAPSHOT_H_
#define SLG_STORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/store/fault_injection.h"

namespace slg {

inline constexpr uint32_t kSnapshotFormatVersion = 1;

// Envelope only (no I/O). EncodeSnapshot never fails; DecodeSnapshot
// returns InvalidArgument on any framing, checksum, or grammar-image
// problem — never crashes, whatever the bytes.
std::string EncodeSnapshot(const Grammar& g);
StatusOr<Grammar> DecodeSnapshot(std::string_view bytes);

std::string SnapshotFileName(int64_t generation);
// True and sets *generation if `name` is a snapshot file name.
bool ParseSnapshotFileName(std::string_view name, int64_t* generation);

// Atomic durable publish of generation `gen` into `dir`.
Status WriteSnapshot(const std::string& dir, int64_t generation,
                     const Grammar& g, FaultInjector* fi);

struct LoadedSnapshot {
  Grammar grammar;
  int64_t generation = 0;
};

// Loads the newest valid snapshot in `dir`. NotFound if no snapshot
// file exists; DataLoss if snapshots exist but none decodes.
StatusOr<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir);

}  // namespace slg

#endif  // SLG_STORE_SNAPSHOT_H_
