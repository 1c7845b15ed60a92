// Open-addressing hash map keyed by small unsigned integers (interned
// symbol ids, packed reference keys).
//
// The linker's symbol spaces were std::map<std::string, …>: every lookup
// re-hashed/compared a string and every copy re-allocated one node per
// symbol. With names interned to dense u32 ids (src/support/interner.h) the
// tables become flat arrays of POD-keyed slots — O(1) lookups with no
// allocation, and copying a table is a single vector copy. Iteration order
// is unspecified (it depends on insertion history), so callers that need
// deterministic output sort by interned name first.
#ifndef OMOS_SRC_SUPPORT_FLAT_MAP_H_
#define OMOS_SRC_SUPPORT_FLAT_MAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace omos {

template <typename K, typename V>
class FlatMap {
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kFull = 1;
  static constexpr uint8_t kTombstone = 2;

  struct Slot {
    std::pair<K, V> kv{};
    uint8_t state = kEmpty;
  };

 public:
  using value_type = std::pair<K, V>;

  template <typename SlotT, typename ValueT>
  class Iter {
   public:
    Iter() = default;
    Iter(SlotT* slot, SlotT* end) : slot_(slot), end_(end) { SkipHoles(); }
    ValueT& operator*() const { return slot_->kv; }
    ValueT* operator->() const { return &slot_->kv; }
    Iter& operator++() {
      ++slot_;
      SkipHoles();
      return *this;
    }
    bool operator==(const Iter& other) const { return slot_ == other.slot_; }

   private:
    friend class FlatMap;
    void SkipHoles() {
      while (slot_ != end_ && slot_->state != kFull) {
        ++slot_;
      }
    }
    SlotT* slot_ = nullptr;
    SlotT* end_ = nullptr;
  };

  using iterator = Iter<Slot, value_type>;
  using const_iterator = Iter<const Slot, const value_type>;

  FlatMap() = default;

  iterator begin() { return iterator(slots_.data(), slots_.data() + slots_.size()); }
  iterator end() { return iterator(slots_.data() + slots_.size(), slots_.data() + slots_.size()); }
  const_iterator begin() const {
    return const_iterator(slots_.data(), slots_.data() + slots_.size());
  }
  const_iterator end() const {
    return const_iterator(slots_.data() + slots_.size(), slots_.data() + slots_.size());
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots allocated (a power of two, or 0 before the first insert).
  size_t capacity() const { return slots_.size(); }

  // Drops every entry but keeps the slots, so a table refilled to its
  // previous size after a clear does not regrow.
  void clear() {
    if (used_ != 0) {
      std::fill(slots_.begin(), slots_.end(), Slot{});
    }
    size_ = 0;
    used_ = 0;
  }

  // Ensure capacity for `n` entries without rehashing mid-insert.
  void reserve(size_t n) {
    size_t want = NormalizeCapacity(n);
    if (want > slots_.size()) {
      Rehash(want);
    }
  }

  const_iterator find(K key) const {
    size_t index = FindIndex(key);
    return index == kNpos
               ? end()
               : const_iterator(slots_.data() + index, slots_.data() + slots_.size());
  }
  iterator find(K key) {
    size_t index = FindIndex(key);
    return index == kNpos ? end()
                          : iterator(slots_.data() + index, slots_.data() + slots_.size());
  }
  bool contains(K key) const { return FindIndex(key) != kNpos; }
  size_t count(K key) const { return contains(key) ? 1 : 0; }

  V& at(K key) {
    size_t index = FindIndex(key);
    assert(index != kNpos && "FlatMap::at: missing key");
    return slots_[index].kv.second;
  }
  const V& at(K key) const {
    size_t index = FindIndex(key);
    assert(index != kNpos && "FlatMap::at: missing key");
    return slots_[index].kv.second;
  }

  V& operator[](K key) { return try_emplace(key).first->second; }

  // Insert `key` with a default (or given) value if absent; returns the slot
  // and whether an insert happened (existing entries are left untouched).
  std::pair<iterator, bool> try_emplace(K key, V value = V()) {
    GrowIfNeeded();
    auto [index, inserted] = InsertIndex(key);
    if (inserted) {
      slots_[index].kv.second = std::move(value);
    }
    return {iterator(slots_.data() + index, slots_.data() + slots_.size()), inserted};
  }

  std::pair<iterator, bool> insert_or_assign(K key, V value) {
    GrowIfNeeded();
    auto [index, inserted] = InsertIndex(key);
    slots_[index].kv.second = std::move(value);
    return {iterator(slots_.data() + index, slots_.data() + slots_.size()), inserted};
  }

  bool erase(K key) {
    size_t index = FindIndex(key);
    if (index == kNpos) {
      return false;
    }
    slots_[index].state = kTombstone;
    slots_[index].kv = value_type{};
    --size_;
    return true;
  }

 private:
  static constexpr size_t kNpos = ~size_t{0};

  // Multiplicative mix (splitmix64 finalizer) so sequential ids spread.
  static size_t HashKey(K key) {
    uint64_t x = static_cast<uint64_t>(key);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return static_cast<size_t>(x ^ (x >> 31));
  }

  static size_t NormalizeCapacity(size_t n) {
    size_t cap = 16;
    while (cap * 3 < n * 4 + 4) {  // keep load factor under 3/4
      cap *= 2;
    }
    return cap;
  }

  size_t FindIndex(K key) const {
    if (slots_.empty()) {
      return kNpos;
    }
    size_t mask = slots_.size() - 1;
    size_t index = HashKey(key) & mask;
    while (true) {
      const Slot& slot = slots_[index];
      if (slot.state == kEmpty) {
        return kNpos;
      }
      if (slot.state == kFull && slot.kv.first == key) {
        return index;
      }
      index = (index + 1) & mask;
    }
  }

  // Slot for `key`, inserting (possibly into a tombstone) if absent.
  std::pair<size_t, bool> InsertIndex(K key) {
    size_t mask = slots_.size() - 1;
    size_t index = HashKey(key) & mask;
    size_t grave = kNpos;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.state == kEmpty) {
        size_t target = grave != kNpos ? grave : index;
        if (grave == kNpos) {
          ++used_;
        }
        slots_[target].state = kFull;
        slots_[target].kv.first = key;
        ++size_;
        return {target, true};
      }
      if (slot.state == kTombstone) {
        if (grave == kNpos) {
          grave = index;
        }
      } else if (slot.kv.first == key) {
        return {index, false};
      }
      index = (index + 1) & mask;
    }
  }

  void GrowIfNeeded() {
    if (slots_.empty()) {
      Rehash(16);
    } else if ((used_ + 1) * 4 > slots_.size() * 3) {
      // Grow on live entries; a tombstone-heavy table rehashes in place.
      Rehash(NormalizeCapacity(size_ + 1));
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    size_ = 0;
    used_ = 0;
    for (Slot& slot : old) {
      if (slot.state == kFull) {
        auto [index, inserted] = InsertIndex(slot.kv.first);
        (void)inserted;
        slots_[index].kv.second = std::move(slot.kv.second);
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;  // live entries
  size_t used_ = 0;  // live entries + tombstones (probe-chain occupancy)
};

}  // namespace omos

#endif  // OMOS_SRC_SUPPORT_FLAT_MAP_H_
