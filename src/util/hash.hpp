#pragma once
// Hashing utilities used for global-state fingerprints.
//
// The oscillation detectors (engine/oscillation.hpp) fingerprint the entire
// routing configuration every step and look for repeats; a strong 64-bit mix
// keeps false positives negligible over the millions of states a sweep can
// visit.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace ibgp::util {

/// 64-bit FNV-1a over raw bytes.
std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

/// 64-bit FNV-1a over a string.
std::uint64_t fnv1a(std::string_view text) noexcept;

/// The 16 lowercase hex digits of a fingerprint: the spelling of every
/// trace hash and fingerprint in sweep documents and BENCH files (wire
/// replies prefix "0x").
std::string hex64(std::uint64_t value);

/// Strong 64-bit finalizer (murmur3 fmix64).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent combiner: fold `value` into accumulator `h`.
constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t value) noexcept {
  return mix64(h ^ (value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Incremental fingerprint builder for heterogeneous state.
class Fingerprint {
 public:
  constexpr Fingerprint() = default;

  constexpr Fingerprint& add(std::uint64_t value) noexcept {
    state_ = hash_combine(state_, value);
    return *this;
  }

  Fingerprint& add(std::string_view text) noexcept {
    state_ = hash_combine(state_, fnv1a(text));
    return *this;
  }

  template <typename Iterable>
  Fingerprint& add_range(const Iterable& items) noexcept {
    for (const auto& item : items) add(static_cast<std::uint64_t>(item));
    return *this;
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return mix64(state_); }

 private:
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;  // pi digits
};

}  // namespace ibgp::util
