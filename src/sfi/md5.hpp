// MD5 (RFC 1321), implemented from scratch.
//
// The message digest workload of the paper's sandboxing study: arithmetic-
// heavy with comparatively few memory accesses per byte, so it shows the
// *lowest* SFI overhead of the three target applications.  The block
// transform reads its input through a sandboxable memory policy.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

namespace gridtrust::sfi {

/// A 128-bit MD5 digest.
using Md5Digest = std::array<std::uint8_t, 16>;

namespace detail {

struct Md5State {
  std::uint32_t a = 0x67452301u;
  std::uint32_t b = 0xefcdab89u;
  std::uint32_t c = 0x98badcfeu;
  std::uint32_t d = 0x10325476u;
};

inline std::uint32_t rotl(std::uint32_t x, std::uint32_t n) {
  return (x << n) | (x >> (32u - n));
}

/// Per-round sine-derived constants (RFC 1321 T table).
extern const std::uint32_t kMd5T[64];
/// Per-round shift amounts.
extern const std::uint32_t kMd5S[64];

/// One 512-bit block transform; `block[16]` holds little-endian words.
void md5_transform(Md5State& state, const std::uint32_t block[16]);

/// Block transform reading its 16 words through a heap policy on demand,
/// the way SFI-instrumented compiled code touches its in-memory block:
/// one checked load per round.  `addr` must be 4-byte aligned.
template <typename Heap>
void md5_transform_heap(Md5State& state, const Heap& heap, std::size_t addr) {
  std::uint32_t a = state.a;
  std::uint32_t b = state.b;
  std::uint32_t c = state.c;
  std::uint32_t d = state.d;
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::uint32_t f;
    std::uint32_t g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) & 15u;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) & 15u;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) & 15u;
    }
    const std::uint32_t word = heap.load32(addr + g * 4);
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + rotl(a + f + kMd5T[i] + word, kMd5S[i]);
    a = tmp;
  }
  state.a += a;
  state.b += b;
  state.c += c;
  state.d += d;
}

}  // namespace detail

/// Streaming MD5 over bytes read from a memory policy heap.
///
/// `Heap` must provide load8(addr).  The digest consumes `len` bytes
/// starting at `addr`.
template <typename Heap>
Md5Digest md5_of_heap(const Heap& heap, std::size_t addr, std::size_t len) {
  detail::Md5State state;
  std::uint8_t buffer[64];
  std::size_t buffered = 0;
  std::uint64_t total_bits = static_cast<std::uint64_t>(len) * 8;

  auto flush = [&] {
    std::uint32_t words[16];
    for (int w = 0; w < 16; ++w) {
      const std::size_t base = static_cast<std::size_t>(w) * 4;
      words[w] = static_cast<std::uint32_t>(buffer[base]) |
                 (static_cast<std::uint32_t>(buffer[base + 1]) << 8) |
                 (static_cast<std::uint32_t>(buffer[base + 2]) << 16) |
                 (static_cast<std::uint32_t>(buffer[base + 3]) << 24);
    }
    detail::md5_transform(state, words);
    buffered = 0;
  };

  std::size_t consumed = 0;
  if (addr % 4 == 0) {
    // Full 64-byte blocks stream straight from the heap, one checked load
    // per transform round (requires a little-endian host, like the rest of
    // the load32/store32 word convention in this module).
    while (len - consumed >= 64) {
      detail::md5_transform_heap(state, heap, addr + consumed);
      consumed += 64;
    }
  }

  for (std::size_t i = consumed; i < len; ++i) {
    buffer[buffered++] = heap.load8(addr + i);
    if (buffered == 64) flush();
  }

  // Padding: 0x80, zeros, then the 64-bit bit length.
  buffer[buffered++] = 0x80;
  if (buffered > 56) {
    while (buffered < 64) buffer[buffered++] = 0;
    flush();
  }
  while (buffered < 56) buffer[buffered++] = 0;
  for (int i = 0; i < 8; ++i) {
    buffer[buffered++] =
        static_cast<std::uint8_t>((total_bits >> (8 * i)) & 0xff);
  }
  flush();

  Md5Digest digest;
  const std::uint32_t out[4] = {state.a, state.b, state.c, state.d};
  for (int w = 0; w < 4; ++w) {
    for (int b = 0; b < 4; ++b) {
      digest[static_cast<std::size_t>(w * 4 + b)] =
          static_cast<std::uint8_t>((out[w] >> (8 * b)) & 0xff);
    }
  }
  return digest;
}

}  // namespace gridtrust::sfi
