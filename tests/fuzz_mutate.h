// The seeded mutation driver of the fuzz tests (grammar images, batch
// payloads): no fuzzing engine, a fixed std::mt19937 stream, so every
// run sweeps the same mutants and a failure names its mutant.

#ifndef SLG_TESTS_FUZZ_MUTATE_H_
#define SLG_TESTS_FUZZ_MUTATE_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>

namespace slg {

// Past its first `header` bytes the input is a sequence of varints —
// names are ASCII, one single-byte varint per character — so a varint
// can be rewritten in place while the framing around it stays intact.
inline void RewriteVarint(std::string& s, size_t header, size_t index,
                          std::mt19937& rng) {
  size_t begin = header;
  for (size_t i = 0; begin < s.size(); ++i) {
    size_t end = begin;
    uint64_t v = 0;
    int shift = 0;
    while (end < s.size()) {
      uint8_t b = static_cast<uint8_t>(s[end++]);
      if (shift < 64) v |= static_cast<uint64_t>(b & 0x7f) << shift;
      shift += 7;
      if ((b & 0x80) == 0) break;
    }
    if (i == index) {
      // A neighbour (the next label id, an off-by-one count) or any
      // value up to twice the old one.
      switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
        case 0:
          ++v;
          break;
        case 1:
          v = v == 0 ? 0 : v - 1;
          break;
        default:
          v = std::uniform_int_distribution<uint64_t>(0, 2 * v + 2)(rng);
      }
      std::string enc;
      for (; v >= 0x80; v >>= 7) {
        enc.push_back(static_cast<char>((v & 0x7f) | 0x80));
      }
      enc.push_back(static_cast<char>(v));
      s.replace(begin, end - begin, enc);
      return;
    }
    begin = end;
  }
}

// One to three seeded mutations of `s`: flip, insert, delete or replace
// bytes, rewrite one varint in place, splice long varints, duplicate or
// truncate spans. Only flips, duplicates and truncations touch the
// first `header` bytes (a magic), so most mutants pass it.
inline std::string Mutate(std::string s, size_t header, std::mt19937& rng) {
  std::uniform_int_distribution<int> byte_d(0, 255);
  std::uniform_int_distribution<int> op_d(0, 9);
  std::uniform_int_distribution<int> count_d(1, 3);
  auto pos = [&](size_t bound) {
    return std::uniform_int_distribution<size_t>(0, bound)(rng);
  };
  // Offsets past the header, so most mutants reach the decoder proper:
  // a gap to insert at, or (s.size() > header) a byte to change.
  auto gap = [&]() {
    return s.size() < header ? s.size() : header + pos(s.size() - header);
  };
  auto byte_at = [&]() { return header + pos(s.size() - header - 1); };
  auto any_byte = [&]() -> char {
    // Half small varints (label ids, counts, ranks), half raw bytes.
    if (byte_d(rng) < 128) return static_cast<char>(pos(15));
    return static_cast<char>(byte_d(rng));
  };
  for (int n = count_d(rng); n > 0; --n) {
    switch (op_d(rng)) {
      case 0:  // flip one bit
        if (!s.empty()) s[pos(s.size() - 1)] ^= static_cast<char>(1 << pos(7));
        break;
      case 1:  // insert a byte
        s.insert(gap(), 1, any_byte());
        break;
      case 2:  // delete a byte
        if (s.size() > header) s.erase(byte_at(), 1);
        break;
      case 3:  // replace a byte
        if (s.size() > header) s[byte_at()] = any_byte();
        break;
      case 4: {  // duplicate a span
        if (s.empty()) break;
        size_t from = pos(s.size() - 1);
        s.insert(gap(), s.substr(from, 1 + pos(8)));
        break;
      }
      case 5:  // truncate
        s.resize(pos(s.size()));
        break;
      case 6:  // a long varint (a huge count, id or rank)
        s.insert(gap(), std::string(1 + pos(9), static_cast<char>(0xff)) +
                            static_cast<char>(pos(127)));
        break;
      default:  // rewrite one varint, framing kept
        if (s.size() > header) {
          RewriteVarint(s, header, pos(s.size() - header - 1), rng);
        }
        break;
    }
  }
  return s;
}

}  // namespace slg

#endif  // SLG_TESTS_FUZZ_MUTATE_H_
