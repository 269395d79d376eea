#include "text/tokenizer.h"

#include <array>
#include <atomic>
#include <cctype>
#include <mutex>
#include <shared_mutex>

#include "common/string_util.h"

namespace llmdm::text {
namespace {

bool IsWordChar(char c) { return IsWordByte(c); }

}  // namespace

std::vector<std::string> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsWordChar(c)) {
      size_t start = i;
      while (i < input.size() && IsWordChar(input[i])) ++i;
      std::string_view word = input.substr(start, i - start);
      // Chunk long words into fixed-size pieces, approximating how BPE breaks
      // rare words into several sub-words.
      for (size_t off = 0; off < word.size(); off += kMaxPieceLen) {
        out.emplace_back(word.substr(off, kMaxPieceLen));
      }
    } else {
      out.emplace_back(1, c);
      ++i;
    }
  }
  return out;
}

size_t Tokenizer::CountTokens(std::string_view input) const {
  size_t count = 0;
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (IsWordChar(c)) {
      size_t start = i;
      while (i < input.size() && IsWordChar(input[i])) ++i;
      size_t len = i - start;
      count += (len + kMaxPieceLen - 1) / kMaxPieceLen;
    } else {
      ++count;
      ++i;
    }
  }
  return count;
}

size_t CountTokens(std::string_view input) {
  static const Tokenizer kDefault{};
  return kDefault.CountTokens(input);
}

namespace {

struct CountSlot {
  uint64_t key = 0;
  size_t count = 0;
  bool valid = false;
};

// Direct-mapped: a slot per low-bits bucket, overwritten on conflict. The
// working set (distinct prompt prefixes alive at once) is tiny compared to
// 1024, so conflict evictions are rare; reads take the shared lock.
constexpr size_t kCountCacheSlots = 1024;
static_assert((kCountCacheSlots & (kCountCacheSlots - 1)) == 0);

struct CountCache {
  std::shared_mutex mu;
  std::array<CountSlot, kCountCacheSlots> slots;
  // Read only by GetTokenCountCacheStats.
  std::atomic<size_t> hits{0};
  std::atomic<size_t> misses{0};
};

CountCache& GlobalCountCache() {
  static CountCache* cache = new CountCache();  // leaked: process lifetime
  return *cache;
}

}  // namespace

std::optional<size_t> LookupTokenCount(uint64_t key) {
  CountCache& cache = GlobalCountCache();
  {
    std::shared_lock<std::shared_mutex> lock(cache.mu);
    const CountSlot& slot = cache.slots[key & (kCountCacheSlots - 1)];
    if (slot.valid && slot.key == key) {
      cache.hits.fetch_add(1, std::memory_order_relaxed);
      return slot.count;
    }
  }
  cache.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void StoreTokenCount(uint64_t key, size_t count) {
  CountCache& cache = GlobalCountCache();
  std::unique_lock<std::shared_mutex> lock(cache.mu);
  cache.slots[key & (kCountCacheSlots - 1)] = CountSlot{key, count, true};
}

TokenCountCacheStats GetTokenCountCacheStats() {
  CountCache& cache = GlobalCountCache();
  return TokenCountCacheStats{cache.hits.load(std::memory_order_relaxed),
                              cache.misses.load(std::memory_order_relaxed)};
}

std::vector<std::string> CharNgrams(std::string_view input, size_t n) {
  std::vector<std::string> out;
  if (n == 0) return out;
  std::string padded = "^";
  padded.append(common::ToLower(input));
  padded.push_back('$');
  if (padded.size() < n) return out;
  out.reserve(padded.size() - n + 1);
  for (size_t i = 0; i + n <= padded.size(); ++i) {
    out.emplace_back(padded.substr(i, n));
  }
  return out;
}

}  // namespace llmdm::text
