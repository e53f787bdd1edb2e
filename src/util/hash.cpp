#include "util/hash.hpp"

#include <cstdio>

namespace ibgp::util {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace ibgp::util
