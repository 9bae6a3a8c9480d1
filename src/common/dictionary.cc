#include "common/dictionary.h"

#include <cassert>

namespace triq {

Dictionary::Dictionary()
    : chunks_(new std::atomic<std::string*>[kMaxChunks]) {
  for (uint32_t c = 0; c < kMaxChunks; ++c) {
    chunks_[c].store(nullptr, std::memory_order_relaxed);
  }
  // Reserve id 0: chunk 0 exists from the start, so Text() never has to
  // branch on a missing chunk for valid ids.
  chunks_[0].store(new std::string[kChunkSize], std::memory_order_release);
}

Dictionary::~Dictionary() {
  for (uint32_t c = 0; c < kMaxChunks; ++c) {
    delete[] chunks_[c].load(std::memory_order_relaxed);
  }
}

SymbolId Dictionary::Intern(std::string_view text, bool* created) {
  if (created != nullptr) *created = false;
  {
    ReaderLock lock(mu_);
    auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
  }
  WriterLock lock(mu_);
  auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;  // raced another interner
  if (created != nullptr) *created = true;

  SymbolId id = next_id_;
  uint32_t chunk_index = id >> kChunkBits;
  assert(chunk_index < kMaxChunks && "dictionary symbol space exhausted");
  std::string* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new std::string[kChunkSize];
    // Release: a reader that later learns `id` (via the map under mu_,
    // or any happens-after channel) acquires this store in Text() and
    // therefore sees the string assignment below.
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  std::string& slot = chunk[id & kChunkMask];
  slot.assign(text.data(), text.size());
  // Re-publish so the string contents' writes are ordered before any
  // reader's acquire load of the chunk pointer.
  chunks_[chunk_index].store(chunk, std::memory_order_release);
  ids_.emplace(std::string_view(slot), id);
  ++next_id_;
  size_.store(next_id_ - 1, std::memory_order_release);
  return id;
}

SymbolId Dictionary::Find(std::string_view text) const {
  ReaderLock lock(mu_);
  auto it = ids_.find(text);
  return it == ids_.end() ? kInvalidSymbol : it->second;
}

void Dictionary::Reserve(size_t n) {
  WriterLock lock(mu_);
  ids_.reserve(n + 1);
}

}  // namespace triq
