#include "src/core/cache.h"

#include <algorithm>

#include "src/support/faultsim.h"
#include "src/support/log.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace omos {

namespace {

// Page granularity for integrity sums. 4 KiB matches the VM page size, so a
// single flipped bit dirties exactly one sum.
constexpr size_t kSumPageSize = 4096;

// Pages probed per warm Get once the entry has been fully verified. Constant,
// so warm-hit cost no longer scales with image size.
constexpr size_t kProbesPerGet = 2;

// The calling thread's open leases, innermost last.
thread_local std::vector<ImageCache::ReadLease*> open_leases;

}  // namespace

std::string MakeCacheKey(std::string_view path, std::string_view spec) {
  std::string key;
  key.reserve(path.size() + kCacheKeySep.size() + spec.size());
  key.append(path);
  key.append(kCacheKeySep);
  key.append(spec);
  return key;
}

bool SplitCacheKey(std::string_view key, std::string_view* path, std::string_view* spec) {
  size_t sep = key.find(kCacheKeySep);
  if (sep == std::string_view::npos) {
    return false;
  }
  if (path != nullptr) {
    *path = key.substr(0, sep);
  }
  if (spec != nullptr) {
    *spec = key.substr(sep + kCacheKeySep.size());
  }
  return true;
}

uint64_t CachedImage::PageSum(size_t page) const {
  // text and data are summed as one contiguous stream of pages.
  size_t begin = page * kSumPageSize;
  size_t end = begin + kSumPageSize;
  uint64_t sum = 0x6b79616765ull + page;  // per-page seed so empty pages differ
  if (begin < image.text.size()) {
    size_t take = std::min(end, image.text.size()) - begin;
    sum = HashBytes(image.text.data() + begin, take, sum);
  }
  size_t data_begin = begin > image.text.size() ? begin - image.text.size() : 0;
  size_t data_end = end > image.text.size() ? end - image.text.size() : 0;
  if (data_begin < image.data.size() && data_end > 0) {
    size_t take = std::min(data_end, image.data.size()) - data_begin;
    sum = HashBytes(image.data.data() + data_begin, take, sum);
  }
  return sum;
}

uint64_t CachedImage::LayoutSum() const {
  uint64_t sum = (static_cast<uint64_t>(image.text_base) << 32 | image.data_base) *
                 0x9E3779B97F4A7C15ull;
  sum ^= static_cast<uint64_t>(image.entry) * 0xBF58476D1CE4E5B9ull;
  sum ^= static_cast<uint64_t>(image.bss_size) * 0x94D049BB133111EBull;
  sum ^= static_cast<uint64_t>(image.text.size()) << 32 | static_cast<uint64_t>(image.data.size());
  return sum;
}

void CachedImage::ComputeSums() {
  size_t total = image.text.size() + image.data.size();
  size_t pages = (total + kSumPageSize - 1) / kSumPageSize;
  page_sums.resize(pages);
  for (size_t p = 0; p < pages; ++p) {
    page_sums[p] = PageSum(p);
  }
  layout_sum = LayoutSum();
}

bool CachedImage::VerifyPage(size_t page) const {
  if (layout_sum != LayoutSum()) {
    return false;
  }
  return page >= page_sums.size() || page_sums[page] == PageSum(page);
}

bool CachedImage::VerifyAll() const {
  if (layout_sum != LayoutSum()) {
    return false;
  }
  size_t total = image.text.size() + image.data.size();
  size_t pages = (total + kSumPageSize - 1) / kSumPageSize;
  if (pages != page_sums.size()) {
    return false;
  }
  for (size_t p = 0; p < pages; ++p) {
    if (page_sums[p] != PageSum(p)) {
      return false;
    }
  }
  return true;
}

ImageCache::ReadLease::ReadLease(const ImageCache& cache) : cache_(&cache) {
  open_leases.push_back(this);
}

ImageCache::ReadLease::~ReadLease() {
  open_leases.erase(std::find(open_leases.begin(), open_leases.end(), this));
}

const CachedImage* ImageCache::PinToLease(ImageRef image) const {
  const CachedImage* raw = image.get();
  for (auto it = open_leases.rbegin(); it != open_leases.rend(); ++it) {
    if ((*it)->cache_ == this) {
      ReadLease& lease = **it;
      if (lease.first_pin_ == nullptr) {
        lease.first_pin_ = std::move(image);
      } else {
        lease.more_pins_.push_back(std::move(image));
      }
      break;
    }
  }
  return raw;
}

ImageCache::ImageCache(uint64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {
  metrics_token_ = MetricsRegistry::Global().AddSource(
      [this](std::vector<std::pair<std::string, uint64_t>>& out) {
        out.emplace_back("cache.hits", stats_.hits.load(std::memory_order_relaxed));
        out.emplace_back("cache.misses", stats_.misses.load(std::memory_order_relaxed));
        out.emplace_back("cache.evictions", stats_.evictions.load(std::memory_order_relaxed));
        out.emplace_back("cache.bytes_cached",
                         stats_.bytes_cached.load(std::memory_order_relaxed));
        out.emplace_back("cache.corruption_rebuilds",
                         stats_.corruption_rebuilds.load(std::memory_order_relaxed));
        out.emplace_back("cache.full_verifies",
                         stats_.full_verifies.load(std::memory_order_relaxed));
        out.emplace_back("cache.pages_verified",
                         stats_.pages_verified.load(std::memory_order_relaxed));
        out.emplace_back("cache.inserts", stats_.inserts.load(std::memory_order_relaxed));
        out.emplace_back("cache.single_flight_waits",
                         stats_.single_flight_waits.load(std::memory_order_relaxed));
      });
}

ImageCache::~ImageCache() { MetricsRegistry::Global().RemoveSource(metrics_token_); }

ImageCache::Shard& ImageCache::ShardFor(const std::string& key) {
  return shards_[Fnv1a(key) & (kShards - 1)];
}

const ImageCache::Shard& ImageCache::ShardFor(const std::string& key) const {
  return shards_[Fnv1a(key) & (kShards - 1)];
}

ImageRef ImageCache::Get(const std::string& key) {
  // Tracing here covers only the interesting outcomes: cache.miss /
  // cache.corrupt instants and a cache.verify span around the full
  // checksum walk. A probe-verified warm hit emits nothing — even one
  // timestamp read per hit would blow the tracing overhead budget, and
  // hits stay visible through cache.hits and the enclosing
  // server.instantiate span.
  Shard& shard = ShardFor(key);
  // Pin the image and copy the verification plan under the shard lock, then
  // hash pages outside it: the checksum walk is the expensive part of a warm
  // hit, and it only reads immutable bytes (the pin keeps them alive even if
  // a concurrent Evict wins the race).
  std::shared_ptr<CachedImage> pinned;
  bool full = false;
  size_t probe_begin = 0;
  size_t probes = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      ++stats_.misses;
      TraceInstant("cache.miss", key);
      return nullptr;
    }
    Entry& entry = it->second;
    CachedImage& stored = *entry.image;
    // Fault site: bit-rot in the cached copy's backing store.
    uint32_t knob = 0;
    if (FaultSim::Trip("cache.bitrot", &knob)) {
      std::vector<uint8_t>& victim =
          stored.image.text.empty() ? stored.image.data : stored.image.text;
      if (!victim.empty()) {
        victim[knob % victim.size()] ^= static_cast<uint8_t>(1u << (1 + knob % 7));
      }
    }
    // Verification policy: the first Get after Put pays a full walk; later
    // warm hits probe a constant number of pages round-robin, so a resident
    // corruption is still caught within size/kProbesPerGet hits. While a
    // bit-rot fault plan is armed we keep full verification so injected
    // corruption is detected on the same Get that trips it.
    size_t pages = stored.page_sums.size();
    if (!entry.verified_once || FaultSim::Armed("cache.bitrot")) {
      full = true;
      entry.verified_once = true;
    } else {
      probes = std::min(kProbesPerGet, pages);
      probe_begin = entry.probe_cursor;
      entry.probe_cursor = pages == 0 ? 0 : (entry.probe_cursor + probes) % pages;
    }
    // Bump LRU while we hold the shard lock (lock order: shard, then LRU).
    {
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      lru_.splice(lru_.begin(), lru_, entry.lru_it);
    }
    pinned = entry.image;
  }

  bool ok;
  if (full) {
    TraceSpan verify("cache.verify", key);
    ok = pinned->VerifyAll();
    ++stats_.full_verifies;
    stats_.pages_verified += pinned->page_sums.size();
  } else {
    ok = true;
    size_t pages = pinned->page_sums.size();
    for (size_t i = 0; i < probes && ok; ++i) {
      ok = pinned->VerifyPage((probe_begin + i) % pages);
    }
    if (pages == 0) {
      ok = ok && pinned->layout_sum == pinned->LayoutSum();
    }
    stats_.pages_verified += probes;
  }
  if (!ok) {
    // The cached bytes rotted. Drop the entry and report a miss: the caller
    // rebuilds from the blueprint. While a client or a task still holds the
    // old image, its placement is live and the rebuild reuses it, so the
    // rebuilt image is byte-identical to the one they map.
    LogMessage(LogLevel::kWarning, "cache", StrCat("checksum mismatch, rebuilding: ", key));
    ++stats_.corruption_rebuilds;
    ++stats_.misses;
    TraceInstant("cache.corrupt", key);
    Evict(key);
    return nullptr;
  }
  ++stats_.hits;
  return pinned;
}

ImageRef ImageCache::Peek(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second.image;
}

bool ImageCache::Contains(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.entries.count(key) != 0;
}

std::vector<std::string> ImageCache::Keys() const {
  std::vector<std::string> keys;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());  // shard order is hash order; stabilize
  return keys;
}

size_t ImageCache::entry_count() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.entries.size();
  }
  return count;
}

ImageRef ImageCache::Put(std::string key, CachedImage image) {
  auto owned = std::make_shared<CachedImage>(std::move(image));
  owned->key = std::move(key);
  // Sums (and the symbol index, for an image that arrives without a current
  // one) are built outside any lock: both are O(image) and touch only the
  // new entry. A linked or decoded image is already indexed.
  owned->ComputeSums();
  if (!owned->image.symbol_index_current()) {
    owned->image.BuildSymbolIndex();
  }
  return Admit(std::move(owned), /*replace=*/true, /*verified=*/false);
}

ImageRef ImageCache::Readmit(ImageRef image) {
  {
    TraceSpan verify("cache.verify", image->key);
    ++stats_.full_verifies;
    stats_.pages_verified += image->page_sums.size();
    if (!image->VerifyAll()) {
      return nullptr;
    }
  }
  // Every cached image was made by Put's make_shared of a mutable
  // CachedImage, so the cache may hold it as its own again.
  return Admit(std::const_pointer_cast<CachedImage>(std::move(image)), /*replace=*/false,
               /*verified=*/true);
}

ImageRef ImageCache::Admit(std::shared_ptr<CachedImage> owned, bool replace, bool verified) {
  ImageRef result = owned;
  const std::string& key = owned->key;
  Shard& shard = ShardFor(key);
  std::shared_ptr<CachedImage> replaced;  // dropped outside the lock
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end() && !replace) {
      return it->second.image;
    }
    if (it != shard.entries.end()) {
      // Replacement is an eviction of the old bytes.
      stats_.bytes_cached -= it->second.image->bytes();
      ++stats_.evictions;
      replaced = std::move(it->second.image);
      it->second.image = std::move(owned);
      it->second.verified_once = verified;
      it->second.probe_cursor = 0;
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    } else {
      std::list<std::string>::iterator lru_it;
      {
        std::lock_guard<std::mutex> lru_lock(lru_mu_);
        lru_.push_front(key);
        lru_it = lru_.begin();
      }
      shard.entries.emplace(key, Entry{std::move(owned), lru_it, verified, /*probe_cursor=*/0});
    }
    stats_.bytes_cached += result->bytes();
    ++stats_.inserts;
  }
  TrimToCapacity();
  return result;
}

void ImageCache::Evict(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::shared_ptr<CachedImage> victim;  // dropped outside the lock
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      return;
    }
    stats_.bytes_cached -= it->second.image->bytes();
    ++stats_.evictions;
    TraceInstant("cache.evict", key);
    {
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      lru_.erase(it->second.lru_it);
    }
    victim = std::move(it->second.image);
    shard.entries.erase(it);
  }
}

void ImageCache::TrimToCapacity() {
  while (stats_.bytes_cached.load(std::memory_order_acquire) > capacity_bytes_) {
    std::string victim;
    {
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      if (lru_.size() <= 1) {
        return;  // never evict the entry just inserted
      }
      victim = lru_.back();
    }
    Evict(victim);
  }
}

ImageCache::MissJoin ImageCache::JoinBuild(const std::string& key) {
  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      auto fresh = std::make_shared<InFlight>();
      fresh->leader = std::this_thread::get_id();
      fresh->depth = 1;
      inflight_.emplace(key, std::move(fresh));
      return MissJoin{/*leader=*/true, nullptr};
    }
    if (it->second->leader == std::this_thread::get_id()) {
      ++it->second->depth;  // recursive build of the same key stays leader
      return MissJoin{/*leader=*/true, nullptr};
    }
    flight = it->second;
  }
  ++stats_.single_flight_waits;
  TraceInstant("cache.single_flight_wait", key);
  std::unique_lock<std::mutex> wait_lock(flight->mu);
  flight->cv.wait(wait_lock, [&] { return flight->done; });
  return MissJoin{/*leader=*/false, flight->image};
}

void ImageCache::FinishBuild(const std::string& key, ImageRef image) {
  std::shared_ptr<InFlight> flight;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      return;
    }
    if (--it->second->depth > 0) {
      return;  // a recursive leader frame; the outermost publishes
    }
    flight = std::move(it->second);
    inflight_.erase(it);
  }
  {
    std::lock_guard<std::mutex> done_lock(flight->mu);
    flight->done = true;
    flight->image = std::move(image);
  }
  flight->cv.notify_all();
}

}  // namespace omos
