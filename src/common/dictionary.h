#ifndef TRIQ_COMMON_DICTIONARY_H_
#define TRIQ_COMMON_DICTIONARY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/thread_annotations.h"

namespace triq {

/// Interned-string identifier. Id 0 is reserved and never handed out.
using SymbolId = uint32_t;

inline constexpr SymbolId kInvalidSymbol = 0;

/// Bidirectional string interner shared by the RDF store, the Datalog
/// engine and the SPARQL evaluator, so URIs/constants compare as integers.
///
/// Lookups are heterogeneous: the id map is keyed by string_views into
/// the interned text storage (chunked, so element addresses are stable),
/// and Intern/Find hash the caller's string_view directly — no
/// per-lookup std::string materialization.
///
/// Thread safety: many engine reader threads decode answers while a
/// writer loads facts, so the dictionary is internally synchronized.
///  * Text(id) is lock-free: storage is a two-level chunked array whose
///    chunk pointers are published with release stores, and interned
///    strings are immutable, so any thread holding a valid id may decode
///    it without taking the lock.
///  * Find() takes the id-map lock shared; Intern() probes shared first
///    and only upgrades to the exclusive lock when the symbol is new.
/// The synchronization makes the class immovable (engines share it via
/// shared_ptr anyway).
class Dictionary {
 public:
  Dictionary();
  ~Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = delete;
  Dictionary& operator=(Dictionary&&) = delete;

  /// Interns `text`, returning its id (existing id if already present).
  /// When `created` is given, it is set to whether this call added the
  /// symbol — decided under the interning lock, so of several threads
  /// interning one new text exactly one sees true.
  SymbolId Intern(std::string_view text, bool* created = nullptr);

  /// Const lookup: returns the id of `text`, or kInvalidSymbol if it was
  /// never interned. Never allocates a new id.
  SymbolId Find(std::string_view text) const;

  /// Returns the text for `id`. `id` must be a valid interned id
  /// (obtained from Intern/Find, i.e. its publication happened-before
  /// this call). Lock-free.
  const std::string& Text(SymbolId id) const {
    const std::string* chunk =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    return chunk[id & kChunkMask];
  }

  /// Number of interned symbols (excluding the reserved id 0).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Pre-sizes the id map for ~`n` symbols (bulk ingestion paths).
  void Reserve(size_t n);

 private:
  // Two-level text storage: 8192 chunks of 8192 strings each (up to
  // ~67M symbols). The top-level pointer array is fixed, so readers
  // never race a reallocation; chunks are allocated on demand by the
  // (mutex-serialized) writer and published with a release store.
  static constexpr uint32_t kChunkBits = 13;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kChunkMask = kChunkSize - 1;
  static constexpr uint32_t kMaxChunks = 1u << 13;

  std::unique_ptr<std::atomic<std::string*>[]> chunks_;
  std::atomic<size_t> size_{0};

  mutable SharedMutex mu_;
  SymbolId next_id_ TRIQ_GUARDED_BY(mu_) = 1;  // id 0 reserved
  // text -> id; keys view into the chunk storage (stable addresses).
  std::unordered_map<std::string_view, SymbolId> ids_ TRIQ_GUARDED_BY(mu_);
};

}  // namespace triq

#endif  // TRIQ_COMMON_DICTIONARY_H_
