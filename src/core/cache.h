// The OMOS image cache: bound, relocated, mappable images keyed by
// (meta-object, specialization, placement). "By treating executables as a
// cache, OMOS avoids unnecessary repetition of work" (§1); cache hits are
// the entire speed story of the self-contained scheme.
//
// Concurrency model (PR 3): the cache is internally synchronized so many
// server worker threads can Get/Put/Evict at once.
//
//  * Entries are sharded by cache-key hash; each shard has its own mutex,
//    so lookups for different keys rarely contend. Eviction order is still
//    a single global LRU list (its own mutex; critical sections are one
//    list splice), because the byte budget is global — see
//    `Cache.LruEvictionByBytes`.
//  * `CacheStats` counters are atomics; read them individually.
//  * Checksum verification — the expensive part of a warm Get — runs
//    *outside* any lock, on a shared_ptr-pinned entry, so concurrent warm
//    hits on the same key scale.
//  * Single-flight miss deduplication: concurrent misses on the same key
//    elect one builder via JoinBuild/FinishBuild; the rest wait and share
//    the built image (`CacheStats::single_flight_waits`).
//
// Image lifetime: Get/Put/Peek and single-flight hand out
// `std::shared_ptr<const CachedImage>` references. Eviction drops only the
// cache's own reference, so an image lives until its last holder (a
// caller, a task runtime that maps it, an image linked against it) lets
// go, and with it the address placement it holds. Destroying an image
// takes the placement solver's leaf lock, so the cache drops references
// outside its own locks. ReadLease exists only for callers of the public
// raw-pointer OmosServer::Instantiate: it keeps the images handed out on
// its thread alive until it closes.
#ifndef OMOS_SRC_CORE_CACHE_H_
#define OMOS_SRC_CORE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/constraints.h"
#include "src/linker/image.h"
#include "src/support/result.h"
#include "src/vm/address_space.h"

namespace omos {

class ReadSet;

// Cache keys are "<normalized path><kCacheKeySep><spec string>". The
// separator is U+00A7 SECTION SIGN, two bytes in UTF-8, chosen because it
// cannot appear in either half.
inline constexpr std::string_view kCacheKeySep = "\xc2\xa7";

// Builds "<path>§<spec>".
std::string MakeCacheKey(std::string_view path, std::string_view spec);

// Splits a cache key back into its (path, spec) halves. Returns false when
// the separator is absent (not a composed key); outputs are untouched then.
bool SplitCacheKey(std::string_view key, std::string_view* path, std::string_view* spec);

// One cached, mappable image: the linked bytes plus the shareable text
// segment (built once), plus whatever the exec path needs to finish the job
// (library deps to map, stub slots to register). Every cached image is made
// by Put's make_shared, so a holder of a `const CachedImage&` (MapProgram's
// public signature) can take a reference to it (shared_from_this).
struct CachedImage : std::enable_shared_from_this<CachedImage> {
  std::string key;
  LinkedImage image;
  std::optional<SegmentImage> text_seg;
  // Frame-backed master copy of the initialized data segment, mapped CoW
  // into each client task (the paper's vm_map exec path). Absent when the
  // image has no initialized data.
  std::optional<SegmentImage> data_seg;
  // The images of the libraries this image's bytes bind to (lazy ones
  // included). Holding them keeps each dep's placement reserved, so every
  // dep stays at the bases it was linked at while this image lives.
  std::vector<std::shared_ptr<const CachedImage>> dep_images;
  // This image's own address placement (null for an image no solver
  // placed). Its ranges stay reserved until the image and every other
  // holder of the lease are gone.
  PlacementRef placement;
  // The namespace reads of the build (src/core/namespace.h), shared with the
  // memos it hit. The image is stale exactly when one of these paths is
  // redefined or one of `dep_images` is invalidated or moved.
  std::shared_ptr<const ReadSet> inputs;
  std::vector<StubSlot> stub_slots;
  uint64_t build_cost = 0;  // simulated cycles spent constructing this image

  // Integrity sums, set by Put. The linked bytes (text then data, viewed as
  // one stream) are summed per 4 KiB page; the layout fields get their own
  // sum. Get verifies the whole set once per entry lifetime and then
  // amortizes: a constant number of pages per warm hit. A mismatch means the
  // cached copy rotted and must be rebuilt from its blueprint.
  std::vector<uint64_t> page_sums;
  uint64_t layout_sum = 0;

  void ComputeSums();
  // Recomputes the sum of page `page` (an index into page_sums).
  uint64_t PageSum(size_t page) const;
  uint64_t LayoutSum() const;
  // True when `page` and the layout sum still match (layout checked so every
  // probe also covers the O(1)-sized metadata).
  bool VerifyPage(size_t page) const;
  // Recomputes and compares everything. O(bytes).
  bool VerifyAll() const;

  uint32_t bytes() const {
    return static_cast<uint32_t>(image.text.size() + image.data.size());
  }
};

// A reference to a cached image: valid for as long as it is held, evicted
// or not.
using ImageRef = std::shared_ptr<const CachedImage>;

// All counters atomic: worker threads bump them without the shard locks.
struct CacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> bytes_cached{0};
  // Entries that failed checksum verification on Get; each is evicted and
  // counts as a miss, so the caller transparently rebuilds it.
  std::atomic<uint64_t> corruption_rebuilds{0};
  // Full-image verifications (first Get after Put, and fault-sim runs).
  std::atomic<uint64_t> full_verifies{0};
  // Total pages checked across all Gets, full or amortized.
  std::atomic<uint64_t> pages_verified{0};
  // Entries inserted by Put. Under single-flight, N concurrent misses on
  // one key still insert exactly once (tests/concurrency_test.cc asserts).
  std::atomic<uint64_t> inserts{0};
  // Misses that joined another thread's in-flight build instead of
  // building themselves.
  std::atomic<uint64_t> single_flight_waits{0};
};

// Sharded, internally synchronized LRU image cache with a global byte
// budget. See the file comment for the locking and lifetime story.
class ImageCache {
 public:
  // Registers this cache as a metrics-registry source (cache.* names);
  // the destructor unregisters it. CacheStats stays authoritative here.
  explicit ImageCache(uint64_t capacity_bytes = 256ull << 20);
  ~ImageCache();

  // A per-thread pin list for raw pointers into this cache: PinToLease
  // parks a reference in the calling thread's innermost open lease on the
  // cache, and closing the lease drops what it holds. Leases of one thread
  // may close in any order; closing one leaves the others' pins alone.
  // Open and close a lease on the same thread.
  class ReadLease {
   public:
    explicit ReadLease(const ImageCache& cache);
    ~ReadLease();
    ReadLease(const ReadLease&) = delete;
    ReadLease& operator=(const ReadLease&) = delete;

   private:
    friend class ImageCache;
    const ImageCache* cache_;
    // The first pin needs no allocation: most leases hold one Instantiate.
    ImageRef first_pin_;
    std::vector<ImageRef> more_pins_;
  };

  // Lookup; bumps LRU and hit/miss counters. Verification runs unlocked.
  ImageRef Get(const std::string& key);
  // Lookup without touching LRU or statistics (introspection/invalidation).
  ImageRef Peek(const std::string& key) const;
  bool Contains(const std::string& key) const;
  std::vector<std::string> Keys() const;

  ImageRef Put(std::string key, CachedImage image);
  // Puts `image`, an evicted cached image a holder still has, back under its
  // key once a full verification of its sums passes; null when it rotted.
  // Returns what the key serves then: `image`, or an image cached under the
  // key meanwhile. The caller decides whether the image is still current.
  ImageRef Readmit(ImageRef image);
  // Drops the cache's reference; holders keep the image alive.
  void Evict(const std::string& key);

  // Keeps `image` alive until the innermost lease this thread holds on the
  // cache closes and returns its raw pointer. Without a lease the cache's
  // own reference is all there is: the pointer lives until the eviction.
  const CachedImage* PinToLease(ImageRef image) const;

  // ---- Single-flight miss deduplication -----------------------------------
  // After a missed Get, call JoinBuild: the first caller becomes the
  // *leader* (must build the image, Put it, then call FinishBuild exactly
  // once — on failure too, with nullptr). Later callers block until the
  // leader finishes and receive its result. Re-entrant on the leader
  // thread: a recursive JoinBuild on the same key stays leader (dependency
  // cycles surface as eval errors, not deadlocks).
  struct MissJoin {
    bool leader = false;
    // Follower only: the leader's published image; null when the leader's
    // build failed (caller retries or reports its own error).
    ImageRef image;
  };
  MissJoin JoinBuild(const std::string& key);
  void FinishBuild(const std::string& key, ImageRef image);

  const CacheStats& stats() const { return stats_; }
  size_t entry_count() const;

 private:
  // Shard count: cache-key hash & (16 - 1). 16 shards keep the per-shard
  // mutexes all but uncontended at the 8-worker pool size while costing
  // one cache line of mutex each; see docs/perf.md.
  static constexpr size_t kShards = 16;

  struct Entry {
    std::shared_ptr<CachedImage> image;
    std::list<std::string>::iterator lru_it;
    // Verification state: the first Get after Put walks every page; later
    // Gets round-robin a constant number of pages from probe_cursor.
    bool verified_once = false;
    size_t probe_cursor = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
  };

  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ImageRef image;
    std::thread::id leader;
    int depth = 0;  // leader re-entrancy
  };

  // Caches `image` under its key, counting it as an insert. A key that holds
  // an image already has it replaced (an eviction) when `replace`, else
  // keeps it and returns it. `verified`: its sums were just checked in full.
  ImageRef Admit(std::shared_ptr<CachedImage> image, bool replace, bool verified);
  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  void TrimToCapacity();

  uint64_t capacity_bytes_;
  Shard shards_[kShards];

  // Global eviction order; lock after a shard mutex, never before.
  mutable std::mutex lru_mu_;
  std::list<std::string> lru_;  // front = most recent

  std::mutex inflight_mu_;
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;

  CacheStats stats_;
  uint64_t metrics_token_ = 0;
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_CACHE_H_
