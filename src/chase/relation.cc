#include "chase/relation.h"

#include <cassert>
#include <cmath>

#include "common/thread_pool.h"

namespace triq::chase {

namespace {

// Initial open-addressing capacity PER PARTITION; must be a power of
// two (total initial table = kDedupPartitions * this).
constexpr uint32_t kInitialSubSlots = 16;
// Initial column capacity (tuples per column).
constexpr uint32_t kInitialCapacity = 16;
// Below this many stored tuples a rehash is too cheap to fan out.
constexpr uint32_t kParallelRehashMinTuples = 1u << 15;

// Keep every partition's sub-table below 7/8 load.
inline bool Overloaded(uint32_t entries, uint32_t sub_size) {
  return (static_cast<uint64_t>(entries) + 1) * 8 > uint64_t{sub_size} * 7;
}

// The one permutation order everything agrees on: column value, with
// ascending tuple index as the tiebreak (Equal() slices double as
// posting lists and the merge cursor assumes the same order).
auto ByValueThenIndex(const Term* column) {
  return [column](uint32_t a, uint32_t b) {
    return column[a] != column[b] ? column[a] < column[b] : a < b;
  };
}

}  // namespace

const uint32_t* SortedRange::SeekValue(const uint32_t* from, Term v) const {
  // Gallop: bracket the target with doubling steps from `from`, then
  // binary-search the bracket. Monotone cursors touch O(log gap) entries
  // per seek instead of O(log n).
  const uint32_t* lo = from;
  size_t step = 1;
  while (lo + step < end_ && column_[lo[step]] < v) {
    lo += step;
    step *= 2;
  }
  const uint32_t* hi = lo + step < end_ ? lo + step : end_;
  return std::lower_bound(lo, hi, v, [this](uint32_t e, Term value) {
    return column_[e] < value;
  });
}

SortedRange SortedRange::Equal(Term v) const {
  const uint32_t* lo = std::lower_bound(
      begin_, end_, v,
      [this](uint32_t e, Term value) { return column_[e] < value; });
  const uint32_t* hi = std::upper_bound(
      lo, end_, v,
      [this](Term value, uint32_t e) { return value < column_[e]; });
  return SortedRange(lo, hi, column_);
}

uint32_t Relation::FindIndex(TupleView t) const {
  assert(t.size() == arity_);
  if (slots_.empty()) return kNotFound;
  uint32_t h = HashView(t);
  uint32_t mask = sub_size() - 1;
  size_t base = static_cast<size_t>(PartitionOf(h)) * sub_size();
  size_t i = base + (h & mask);
  for (uint32_t slot; (slot = slots_[i]) != 0;
       i = base + ((i - base + 1) & mask)) {
    uint32_t idx = slot - 1;
    if (hashes_[idx] == h && EqualsStored(idx, t)) return idx;
  }
  return kNotFound;
}

void Relation::GrowSlots(common::ThreadPool* pool) {
  uint32_t sub = slots_.empty() ? kInitialSubSlots : sub_size() * 2;
  slots_.assign(static_cast<size_t>(sub) * kDedupPartitions, 0);
  std::fill(part_counts_.begin(), part_counts_.end(), 0);
  uint32_t mask = sub - 1;
  auto reprobe = [&](uint32_t idx, uint32_t p) {
    uint32_t h = hashes_[idx];
    size_t base = static_cast<size_t>(p) * sub;
    size_t i = base + (h & mask);
    while (slots_[i] != 0) i = base + ((i - base + 1) & mask);
    slots_[i] = idx + 1;
  };
  if (pool == nullptr || count_ < kParallelRehashMinTuples) {
    for (uint32_t idx = 0; idx < count_; ++idx) {
      uint32_t p = PartitionOf(hashes_[idx]);
      reprobe(idx, p);
      ++part_counts_[p];
    }
    return;
  }
  // Counting-sort the tuple indices by partition (a stable pass, so each
  // bucket ascends), then let each partition re-probe its own disjoint
  // slot region. Probe order within a partition is ascending tuple index
  // either way, so the rebuilt table is bit-identical to the serial one.
  std::vector<uint32_t> bucketed(count_);
  uint32_t counts[kDedupPartitions] = {0};
  for (uint32_t idx = 0; idx < count_; ++idx) {
    ++counts[PartitionOf(hashes_[idx])];
  }
  uint32_t offsets[kDedupPartitions];
  uint32_t running = 0;
  for (uint32_t p = 0; p < kDedupPartitions; ++p) {
    offsets[p] = running;
    running += counts[p];
  }
  uint32_t cursor[kDedupPartitions];
  std::copy(offsets, offsets + kDedupPartitions, cursor);
  for (uint32_t idx = 0; idx < count_; ++idx) {
    bucketed[cursor[PartitionOf(hashes_[idx])]++] = idx;
  }
  pool->ParallelFor(kDedupPartitions, [&](size_t p) {
    const uint32_t* it = bucketed.data() + offsets[p];
    const uint32_t* end = it + counts[p];
    for (; it != end; ++it) reprobe(*it, static_cast<uint32_t>(p));
    part_counts_[p] = counts[p];
  });
}

void Relation::GrowStore(uint32_t needed) {
  if (needed <= capacity_) return;
  uint32_t new_capacity = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
  while (new_capacity < needed) new_capacity *= 2;
  std::vector<Term> fresh(static_cast<size_t>(arity_) * new_capacity);
  for (uint32_t pos = 0; pos < arity_; ++pos) {
    std::copy(ColumnData(pos), ColumnData(pos) + count_,
              fresh.begin() + static_cast<size_t>(pos) * new_capacity);
  }
  store_.swap(fresh);
  capacity_ = new_capacity;
}

void Relation::Reserve(uint32_t n) {
  GrowStore(n);
  hashes_.reserve(n);
  // Assume an even spread over the partitions (Insert rebalances if one
  // runs hot), with the same 7/8 per-partition load bound.
  while (slots_.empty() ||
         Overloaded(n / kDedupPartitions + 1, sub_size())) {
    GrowSlots();
  }
}

bool Relation::Insert(TupleView t, uint32_t* index_out) {
  assert(t.size() == arity_);
  if (slots_.empty()) GrowSlots();
  uint32_t h = HashView(t);
  uint32_t p = PartitionOf(h);
  // Keep the probe sub-table below 7/8 load so lookups stay short.
  if (Overloaded(part_counts_[p], sub_size())) GrowSlots();
  uint32_t mask = sub_size() - 1;
  size_t base = static_cast<size_t>(p) * sub_size();
  size_t i = base + (h & mask);
  for (uint32_t slot; (slot = slots_[i]) != 0;
       i = base + ((i - base + 1) & mask)) {
    uint32_t idx = slot - 1;
    if (hashes_[idx] == h && EqualsStored(idx, t)) {
      if (index_out != nullptr) *index_out = idx;
      return false;
    }
  }
  // `t` may view into store_ itself (re-inserting a stored tuple), and
  // growing the store moves every column; gather into a scratch tuple
  // before the append.
  insert_scratch_.clear();
  for (uint32_t pos = 0; pos < arity_; ++pos) {
    insert_scratch_.push_back(t[pos]);
  }
  uint32_t idx = count_;
  GrowStore(count_ + 1);
  for (uint32_t pos = 0; pos < arity_; ++pos) {
    store_[static_cast<size_t>(pos) * capacity_ + idx] = insert_scratch_[pos];
  }
  hashes_.push_back(h);
  slots_[i] = idx + 1;
  ++part_counts_[p];
  ++count_;
  NoteAppend(TupleView(insert_scratch_));
  if (index_out != nullptr) *index_out = idx;
  return true;
}

Relation::Indexes::Indexes(const Indexes& other)
    : synced(other.synced.size()) {
  MutexLock lock(other.mu);
  sorted = other.sorted;
  lex = other.lex;
  for (size_t pos = 0; pos < sorted.size(); ++pos) {
    synced[pos].store(static_cast<uint32_t>(sorted[pos].size()),
                      std::memory_order_relaxed);
  }
}

void Relation::SyncSorted(uint32_t pos) const {
  MutexLock lock(index_.mu);
  std::vector<uint32_t>& perm = index_.sorted[pos];
  uint32_t synced = static_cast<uint32_t>(perm.size());
  if (synced == count_) return;  // another reader built it first
  perm.resize(count_);
  for (uint32_t idx = synced; idx < count_; ++idx) perm[idx] = idx;
  auto by_value = ByValueThenIndex(ColumnData(pos));
  std::sort(perm.begin() + synced, perm.end(), by_value);
  if (synced > 0) {
    std::inplace_merge(perm.begin(), perm.begin() + synced, perm.end(),
                       by_value);
  }
  index_.synced[pos].store(count_, std::memory_order_release);
}

SortedRange Relation::Sorted(uint32_t position) const {
  assert(position < arity_);
  if (index_.synced[position].load(std::memory_order_acquire) != count_) {
    SyncSorted(position);
  }
  const std::vector<uint32_t>& perm = index_.sorted[position];
  return SortedRange(perm.data(), perm.data() + count_, ColumnData(position));
}

SortedRange Relation::Postings(uint32_t position, Term value) const {
  return Sorted(position).Equal(value);
}

void Relation::SortWindow(uint32_t position, uint32_t begin, uint32_t end,
                          std::vector<uint32_t>* out) const {
  assert(position < arity_);
  if (end > count_) end = count_;
  out->clear();
  if (begin >= end) return;
  // The full window is the permutation itself — the window an overlay
  // chase over a published snapshot asks of the base.
  if (begin == 0 && end == count_) {
    SortedRange all = Sorted(position);
    out->assign(all.begin(), all.end());
    return;
  }
  out->reserve(end - begin);
  for (uint32_t idx = begin; idx < end; ++idx) out->push_back(idx);
  std::sort(out->begin(), out->end(), ByValueThenIndex(ColumnData(position)));
}

// ---- cardinality statistics -------------------------------------------

double Relation::DistinctSketch::Estimate() const {
  // Standard HLL estimate with the small-range linear-counting
  // correction; m = 64 registers, alpha_64 ≈ 0.709.
  constexpr double kM = 64.0;
  constexpr double kAlpha = 0.709;
  double sum = 0.0;
  uint32_t zeros = 0;
  for (uint8_t r : reg) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double raw = kAlpha * kM * kM / sum;
  if (raw <= 2.5 * kM && zeros > 0) {
    return kM * std::log(kM / zeros);
  }
  return raw;
}

double Relation::EstimatedDistinct(uint32_t position) const {
  assert(position < arity_);
  if (count_ == 0) return 0.0;
  double est = sketches_[position].Estimate();
  return std::min(std::max(est, 1.0), static_cast<double>(count_));
}

const std::vector<uint32_t>& Relation::LexPerm(
    const std::vector<uint32_t>& key) const {
  assert(!key.empty());
  for (uint32_t pos : key) {
    assert(pos < arity_);
    (void)pos;
  }
  if (key.size() == 1) {
    // A one-position lex order IS the sorted permutation (same value
    // order, same tuple-index tiebreak) — alias it instead of holding a
    // second copy of the index.
    Sorted(key[0]);
    return index_.sorted[key[0]];
  }
  MutexLock lock(index_.mu);
  std::vector<uint32_t>& perm = index_.lex[key];
  uint32_t synced = static_cast<uint32_t>(perm.size());
  if (synced == count_) return perm;
  perm.resize(count_);
  for (uint32_t idx = synced; idx < count_; ++idx) perm[idx] = idx;
  auto by_lex = [this, &key](uint32_t a, uint32_t b) {
    for (uint32_t pos : key) {
      Term va = Value(pos, a);
      Term vb = Value(pos, b);
      if (va != vb) return va < vb;
    }
    return a < b;
  };
  std::sort(perm.begin() + synced, perm.end(), by_lex);
  if (synced > 0) {
    std::inplace_merge(perm.begin(), perm.begin() + synced, perm.end(),
                       by_lex);
  }
  return perm;
}

// ---- BatchInserter ----------------------------------------------------

void BatchInserter::AddShard(const Term* tuples, const uint32_t* hashes,
                             uint32_t n) {
  shards_.push_back(Shard{tuples, hashes, n, total_});
  total_ += n;
}

void BatchInserter::Prepare(common::ThreadPool* pool) {
  Relation& rel = *rel_;
  assert(static_cast<uint64_t>(rel.count_) + total_ < kStagedTag);
  // Size the column store once for the all-new worst case. The hash
  // array must grow geometrically here — an exact-fit reserve() every
  // pass would reallocate (and copy) the whole array each time.
  rel.GrowStore(rel.count_ + total_);
  if (rel.hashes_.capacity() < rel.count_ + total_) {
    rel.hashes_.reserve(std::max<size_t>(rel.count_ + total_,
                                         rel.hashes_.capacity() * 2));
  }
  // Size every sub-table for its exact staged influx (upper bound: all
  // staged tuples new), so ScanPartition never needs to grow or rehash.
  uint32_t staged_per_partition[Relation::kDedupPartitions] = {0};
  for (const Shard& shard : shards_) {
    for (uint32_t j = 0; j < shard.n; ++j) {
      ++staged_per_partition[Relation::PartitionOf(shard.hashes[j])];
    }
  }
  auto needs_grow = [&]() {
    if (rel.slots_.empty()) return true;
    for (uint32_t p = 0; p < Relation::kDedupPartitions; ++p) {
      if (Overloaded(rel.part_counts_[p] + staged_per_partition[p],
                     rel.sub_size())) {
        return true;
      }
    }
    return false;
  };
  while (needs_grow()) rel.GrowSlots(pool);
}

void BatchInserter::ScanPartition(uint32_t partition) {
  Relation& rel = *rel_;
  const uint32_t sub = rel.sub_size();
  const uint32_t mask = sub - 1;
  const size_t base = static_cast<size_t>(partition) * sub;
  const uint32_t arity = rel.arity_;
  std::vector<Winner>& winners = winners_[partition];
  for (const Shard& shard : shards_) {
    for (uint32_t j = 0; j < shard.n; ++j) {
      uint32_t h = shard.hashes[j];
      if (Relation::PartitionOf(h) != partition) continue;
      const Term* tuple = shard.tuples + static_cast<size_t>(j) * arity;
      uint32_t pos = shard.pos_base + j;
      size_t i = base + (h & mask);
      for (;;) {
        uint32_t slot = rel.slots_[i];
        if (slot == 0) {
          // First occurrence in table and stream: claim the slot with a
          // tagged stream position; CommitWinners assigns the index.
          rel.slots_[i] = kStagedTag | pos;
          ++rel.part_counts_[partition];
          winners.push_back(Winner{pos, static_cast<uint32_t>(i), h, 0});
          break;
        }
        if (slot & kStagedTag) {
          // Staged-vs-staged comparison: an earlier stream position
          // already claimed this slot.
          const Term* prev = TupleAt(slot & ~kStagedTag);
          bool equal = true;
          for (uint32_t k = 0; k < arity; ++k) {
            if (prev[k] != tuple[k]) {
              equal = false;
              break;
            }
          }
          if (equal) break;  // duplicate within the stream
        } else {
          uint32_t idx = slot - 1;
          if (rel.hashes_[idx] == h &&
              rel.EqualsStored(idx, TupleView(tuple, arity))) {
            break;  // already stored before this pass
          }
        }
        i = base + ((i - base + 1) & mask);
      }
    }
  }
}

uint32_t BatchInserter::CommitWinners() {
  Relation& rel = *rel_;
  merged_.clear();
  size_t num_winners = 0;
  for (const auto& w : winners_) num_winners += w.size();
  merged_.reserve(num_winners);
  for (const auto& w : winners_) {
    merged_.insert(merged_.end(), w.begin(), w.end());
  }
  // Stream order = the order a sequential drain would have inserted in;
  // per-partition lists are already ascending, so this is a P-way merge
  // done the simple way.
  std::sort(merged_.begin(), merged_.end(),
            [](const Winner& a, const Winner& b) { return a.pos < b.pos; });
  const uint32_t arity = rel.arity_;
  // merged_ ascends by stream position and shards_ by pos_base, so one
  // monotone cursor resolves every winner's tuple without the per-call
  // shard scan of TupleAt.
  size_t shard = 0;
  for (Winner& w : merged_) {
    while (shard + 1 < shards_.size() &&
           w.pos - shards_[shard].pos_base >= shards_[shard].n) {
      ++shard;
    }
    const Shard& s = shards_[shard];
    const Term* tuple =
        s.tuples + static_cast<size_t>(w.pos - s.pos_base) * arity;
    uint32_t idx = rel.count_;
    for (uint32_t pos = 0; pos < arity; ++pos) {
      rel.MutableColumnData(pos)[idx] = tuple[pos];
    }
    rel.hashes_.push_back(w.hash);
    ++rel.count_;
    rel.NoteAppend(TupleView(tuple, arity));
    w.index = idx;
  }
  // Rebucket by SLOT partition so FinalizeSlots(p) touches only its own
  // winners instead of filtering the full list kDedupPartitions times.
  for (auto& w : winners_) w.clear();
  const uint32_t sub = rel.sub_size();
  for (const Winner& w : merged_) {
    winners_[w.slot / sub].push_back(w);
  }
  return static_cast<uint32_t>(merged_.size());
}

void BatchInserter::FinalizeSlots(uint32_t partition) {
  Relation& rel = *rel_;
  for (const Winner& w : winners_[partition]) {
    rel.slots_[w.slot] = w.index + 1;
  }
}

}  // namespace triq::chase
