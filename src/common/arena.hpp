// Arena / pool allocation for hot-path objects.
//
// The DES kernel schedules and retires millions of short-lived event and
// task objects per run; allocating each one on the general-purpose heap
// dominates the event loop at scale.  ObjectPool<T> carves objects out of
// fixed-size slabs and recycles retired slots through an intrusive free
// list, so steady-state allocate/release is two pointer moves and no
// malloc traffic.  Handles carry a per-slot generation so a stale handle
// (slot since recycled) is detected instead of corrupting the new tenant.
//
// Each slot's {generation, free-link} header lives in the slot itself,
// directly in front of the object: allocate, release, and valid() touch
// the same cache line the caller is about to use, not a separate metadata
// array (measured ~2 fewer misses per event cycle at DES scale — see
// docs/performance.md).  Liveness is encoded in the generation's parity:
// even = free, odd = live; a handle stores the (odd) generation it was
// minted with, so both staleness and double-release reduce to one compare.
//
// Slabs are allocated uninitialised; a slot's header is written when the
// slot is first handed out.  Only slots below count_ are ever read, so a
// short run pays for the slots it uses, not for the whole slab.
//
// Ownership rules (see docs/performance.md, "Allocator ownership"):
//   - the pool owns all storage; handles and raw pointers never outlive it;
//   - release() recycles a slot immediately — the caller must drop every
//     copy of the handle first;
//   - reset() destroys all live objects and recycles every slot, keeping
//     slab storage warm for the next run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace gridtrust {

/// Opaque pool handle: slot index in the low 32 bits, generation above.
/// Value 0 is reserved as "null" (slots are numbered from 1).
using PoolHandle = std::uint64_t;

inline constexpr PoolHandle kNullPoolHandle = 0;

/// Slab-backed fixed-type object pool with generation-checked handles.
///
/// Not thread-safe: each simulation owns its pools, mirroring the
/// one-Simulator-per-replication model of the sweep engine.
template <typename T>
class ObjectPool {
 public:
  /// `slab_objects` is the number of objects per slab (power of two keeps
  /// the index arithmetic cheap; enforced).
  explicit ObjectPool(std::size_t slab_objects = 1024)
      : slab_objects_(slab_objects) {
    GT_REQUIRE(slab_objects_ > 0 && (slab_objects_ & (slab_objects_ - 1)) == 0,
               "slab size must be a positive power of two");
    slab_shift_ = 0;
    while ((std::size_t{1} << slab_shift_) < slab_objects_) ++slab_shift_;
    slab_mask_ = slab_objects_ - 1;
  }

  ~ObjectPool() { reset(); }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Constructs a T in a recycled (or fresh) slot; returns its handle.
  template <typename... Args>
  PoolHandle allocate(Args&&... args) {
    std::uint32_t slot;
    if (free_head_ != 0) {
      slot = free_head_ - 1;
      free_head_ = at(slot).next_free;
      // The free list visits slots in release order (effectively random at
      // scale); start loading the next slot's line so the following
      // allocate does not stall on it.
#if defined(__GNUC__) || defined(__clang__)
      if (free_head_ != 0) __builtin_prefetch(&at(free_head_ - 1), 1);
#endif
    } else {
      GT_REQUIRE(count_ < 0xffffffffu, "object pool exhausted 2^32 slots");
      slot = static_cast<std::uint32_t>(count_);
      if ((slot >> slab_shift_) >= slabs_.size()) {
        slabs_.push_back(std::make_unique_for_overwrite<Slot[]>(slab_objects_));
      }
      ++count_;
      Slot& fresh = at(slot);
      fresh.generation = 0;
      fresh.next_free = 0;
    }
    Slot& s = at(slot);
    ::new (static_cast<void*>(s.storage)) T(std::forward<Args>(args)...);
    ++s.generation;  // even (free) -> odd (live)
    ++live_;
    return make_handle(slot, s.generation);
  }

  /// True when the handle refers to a currently live object.
  bool valid(PoolHandle h) const {
    if (h == kNullPoolHandle) return false;
    const std::uint32_t slot = slot_of(h);
    if (slot >= count_) return false;
    const std::uint32_t gen = at(slot).generation;
    return (gen & 1u) != 0 && gen == generation_of(h);
  }

  /// The object behind a handle; the handle must be valid().
  T& get(PoolHandle h) {
    GT_ASSERT(valid(h));
    return *object(slot_of(h));
  }
  const T& get(PoolHandle h) const {
    GT_ASSERT(valid(h));
    return *object(slot_of(h));
  }

  /// Destroys the object and recycles its slot.  The handle (and every copy
  /// of it) becomes invalid; a later allocate() may reuse the slot under a
  /// new generation.
  void release(PoolHandle h) {
    GT_REQUIRE(valid(h), "releasing an invalid pool handle");
    const std::uint32_t slot = slot_of(h);
    Slot& s = at(slot);
    object(slot)->~T();
    ++s.generation;  // odd (live) -> even (free)
    s.next_free = free_head_;
    free_head_ = slot + 1;
    --live_;
  }

  /// Destroys all live objects and recycles every slot.  Slab storage is
  /// retained so the next run reuses warm memory.
  void reset() {
    for (std::uint32_t slot = 0; slot < count_; ++slot) {
      Slot& s = at(slot);
      if ((s.generation & 1u) != 0) {
        object(slot)->~T();
        ++s.generation;
      }
    }
    // Rebuild the free list front-to-back so post-reset allocation order is
    // deterministic regardless of the release pattern before the reset.
    free_head_ = 0;
    for (std::uint32_t slot = static_cast<std::uint32_t>(count_); slot > 0;
         --slot) {
      at(slot - 1).next_free = free_head_;
      free_head_ = slot;
    }
    live_ = 0;
  }

  /// Currently live objects.
  std::size_t live() const { return live_; }

  /// Total slots ever created (live + recycled).
  std::size_t capacity() const { return count_; }

  /// Slabs allocated (each slab_objects() objects).
  std::size_t slabs() const { return slabs_.size(); }

  std::size_t slab_objects() const { return slab_objects_; }

 private:
  /// One slot: generation/free-link header followed by (correctly aligned)
  /// storage for the object, so header and object share cache lines.
  struct Slot {
    std::uint32_t generation;  // even = free, odd = live
    std::uint32_t next_free;   // 1-based; 0 = end of list
    alignas(T) unsigned char storage[sizeof(T)];
  };
  // What leaves a fresh slab unwritten (no default member initialisers).
  static_assert(std::is_trivially_default_constructible_v<Slot>);

  static PoolHandle make_handle(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }
  static std::uint32_t slot_of(PoolHandle h) {
    return static_cast<std::uint32_t>((h & 0xffffffffu) - 1);
  }
  static std::uint32_t generation_of(PoolHandle h) {
    return static_cast<std::uint32_t>(h >> 32);
  }

  Slot& at(std::uint32_t slot) {
    return slabs_[slot >> slab_shift_][slot & slab_mask_];
  }
  const Slot& at(std::uint32_t slot) const {
    return slabs_[slot >> slab_shift_][slot & slab_mask_];
  }
  T* object(std::uint32_t slot) {
    return reinterpret_cast<T*>(at(slot).storage);
  }
  const T* object(std::uint32_t slot) const {
    return reinterpret_cast<const T*>(at(slot).storage);
  }

  std::size_t slab_objects_;
  std::size_t slab_shift_ = 0;
  std::size_t slab_mask_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::size_t count_ = 0;        // slots ever created
  std::uint32_t free_head_ = 0;  // 1-based; 0 = empty
  std::size_t live_ = 0;
};

}  // namespace gridtrust
