#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lbmf {

/// A 128-bit hash value. 128 bits keep the birthday-bound collision
/// probability for explorer state dedup negligible: at 10^9 distinct states
/// the expected number of colliding pairs is ~1.5e-21, so fingerprint-based
/// dedup is exact for all practical purposes (and the explorer's
/// `exact_dedup` audit mode can verify it on any given workload).
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Hash128&) const noexcept = default;
};

namespace detail {

inline std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t fmix64(std::uint64_t k) noexcept {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

inline std::uint64_t load64(const unsigned char* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr std::uint64_t kMurmurC1 = 0x87c37b91114253d5ULL;
constexpr std::uint64_t kMurmurC2 = 0x4cf5ad432745937fULL;

inline std::uint64_t mix_k1(std::uint64_t k1) noexcept {
  k1 *= kMurmurC1;
  k1 = rotl64(k1, 31);
  return k1 * kMurmurC2;
}

inline std::uint64_t mix_k2(std::uint64_t k2) noexcept {
  k2 *= kMurmurC2;
  k2 = rotl64(k2, 33);
  return k2 * kMurmurC1;
}

/// MurmurHash3 x64 128's body: fold one 16-byte block (k1, k2) into h1/h2.
inline void mix_block(std::uint64_t& h1, std::uint64_t& h2, std::uint64_t k1,
                      std::uint64_t k2) noexcept {
  h1 ^= mix_k1(k1);
  h1 = rotl64(h1, 27);
  h1 += h2;
  h1 = h1 * 5 + 0x52dce729;
  h2 ^= mix_k2(k2);
  h2 = rotl64(h2, 31);
  h2 += h1;
  h2 = h2 * 5 + 0x38495ab5;
}

/// MurmurHash3 x64 128's finalization over `len` hashed bytes.
inline Hash128 finish(std::uint64_t h1, std::uint64_t h2,
                      std::uint64_t len) noexcept {
  h1 ^= len;
  h2 ^= len;
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;
  return Hash128{h1, h2};
}

}  // namespace detail

/// MurmurHash3 x64 128-bit over an arbitrary byte range. Not cryptographic;
/// chosen for speed (one pass, two multiplies per 16 bytes) and very good
/// avalanche behaviour, which is what a dedup fingerprint needs.
inline Hash128 hash128(const void* data, std::size_t len,
                       std::uint64_t seed = 0) noexcept {
  using detail::load64;

  const auto* p = static_cast<const unsigned char*>(data);
  const std::size_t nblocks = len / 16;

  std::uint64_t h1 = seed;
  std::uint64_t h2 = seed;
  for (std::size_t i = 0; i < nblocks; ++i) {
    detail::mix_block(h1, h2, load64(p + i * 16), load64(p + i * 16 + 8));
  }

  const unsigned char* tail = p + nblocks * 16;
  std::uint64_t k1 = 0;
  std::uint64_t k2 = 0;
  switch (len & 15) {
    case 15: k2 ^= std::uint64_t{tail[14]} << 48; [[fallthrough]];
    case 14: k2 ^= std::uint64_t{tail[13]} << 40; [[fallthrough]];
    case 13: k2 ^= std::uint64_t{tail[12]} << 32; [[fallthrough]];
    case 12: k2 ^= std::uint64_t{tail[11]} << 24; [[fallthrough]];
    case 11: k2 ^= std::uint64_t{tail[10]} << 16; [[fallthrough]];
    case 10: k2 ^= std::uint64_t{tail[9]} << 8; [[fallthrough]];
    case 9:
      k2 ^= std::uint64_t{tail[8]};
      h2 ^= detail::mix_k2(k2);
      [[fallthrough]];
    case 8: k1 ^= std::uint64_t{tail[7]} << 56; [[fallthrough]];
    case 7: k1 ^= std::uint64_t{tail[6]} << 48; [[fallthrough]];
    case 6: k1 ^= std::uint64_t{tail[5]} << 40; [[fallthrough]];
    case 5: k1 ^= std::uint64_t{tail[4]} << 32; [[fallthrough]];
    case 4: k1 ^= std::uint64_t{tail[3]} << 24; [[fallthrough]];
    case 3: k1 ^= std::uint64_t{tail[2]} << 16; [[fallthrough]];
    case 2: k1 ^= std::uint64_t{tail[1]} << 8; [[fallthrough]];
    case 1:
      k1 ^= std::uint64_t{tail[0]};
      h1 ^= detail::mix_k1(k1);
      break;
    case 0: break;
  }
  return detail::finish(h1, h2, len);
}

/// hash128() streamed over 64-bit words: the result equals hash128() of
/// the words' little-endian bytes, but nothing is serialized first. The
/// explorer fingerprints machine state with it straight from the fields.
class WordHasher {
 public:
  explicit WordHasher(std::uint64_t seed = 0) noexcept : h1_(seed), h2_(seed) {}

  void add(std::uint64_t w) noexcept {
    if ((words_++ & 1) == 0) {
      pending_ = w;
    } else {
      detail::mix_block(h1_, h2_, pending_, w);
    }
  }
  void add(const Hash128& h) noexcept {
    add(h.lo);
    add(h.hi);
  }

  Hash128 finish() const noexcept {
    std::uint64_t h1 = h1_;
    if ((words_ & 1) != 0) h1 ^= detail::mix_k1(pending_);
    return detail::finish(h1, h2_, words_ * 8);
  }

 private:
  std::uint64_t h1_;
  std::uint64_t h2_;
  std::uint64_t pending_ = 0;  // first word of an unfinished 16-byte block
  std::uint64_t words_ = 0;
};

}  // namespace lbmf
