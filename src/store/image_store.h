// The persistent, content-addressed image store (PR 6).
//
// The paper's economy is memoizing link work; ImageCache memoizes it for
// one server lifetime. The store extends the memo across process death
// (the cross-process move of Zakaria et al., PAPERS.md): linked images are
// durable, verifiable artifacts on a SimFs "disk", addressed by a content
// fingerprint over everything that went into the link — object bytes, link
// recipe, layout/placement inputs. A restarted server probes the store on a
// cache miss and adopts the stored image instead of re-linking the world.
//
// On-disk layout under `root`:
//   <root>/journal            append-only, checksummed record stream
//   <root>/data/<fp16>.img    one serialized StoreRecord per fingerprint
//   <root>/data/<fp16>.tmp    in-flight publish (never read; removed on
//                             recovery)
//   <root>/snapshot           the server's namespace/placement snapshot
//
// Publish protocol (crash-safe write-ahead):
//   1. append INTENT{fp, key, len, hash} to journal;  fsync journal
//   2. write <fp>.tmp;                                fsync <fp>.tmp
//   3. rename <fp>.tmp -> <fp>.img                    (atomic publish)
//   4. append COMMIT{fp} to journal;                  fsync journal
// Recovery replays the journal: a checksum-bad or truncated tail is cut off
// (torn-tail truncation), COMMITted fingerprints are validated against
// their data files and indexed, INTENTs without COMMIT roll forward when
// the data file already landed intact and roll back otherwise. Invalidation
// appends TOMBSTONE records. Every outcome is counted in StoreStats and
// surfaced as store.* metrics; correctness never depends on invalidation —
// a stale record is unreachable because its fingerprint no longer matches
// (see docs/robustness.md, "Durability guarantees").
//
// Crash points: every journal step trips the "store.crash" fault site.
// When it fires the store fails the operation and goes sticky-crashed —
// all further mutation fails fast, modeling process death. Tests then call
// SimFs::DropUnsynced() (the power loss) and open a fresh ImageStore over
// the same disk to exercise recovery.
#ifndef OMOS_SRC_STORE_IMAGE_STORE_H_
#define OMOS_SRC_STORE_IMAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/linker/image.h"
#include "src/os/cost_model.h"
#include "src/os/sim_fs.h"
#include "src/support/result.h"

namespace omos {

// Everything needed to resurrect a CachedImage without re-linking. The
// adopting server re-instantiates each dep and verifies its bases still
// match before trusting the stored program bytes.
struct StoreRecord {
  std::string cache_key;
  uint64_t fingerprint = 0;
  LinkedImage image;
  std::vector<LibDep> deps;
  std::vector<StubSlot> stub_slots;
  uint64_t build_cost = 0;
};

// Serialization (magic "OSR1"; image payload via the XEX image codec).
std::vector<uint8_t> EncodeStoreRecord(const StoreRecord& record);
Result<StoreRecord> DecodeStoreRecord(const std::vector<uint8_t>& bytes);

// All counters atomic; registered as a store.* metrics source.
struct StoreStats {
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> put_failures{0};
  std::atomic<uint64_t> invalidations{0};
  // Records whose bytes failed hash/decode validation (on Get or replay).
  std::atomic<uint64_t> corrupt_records{0};
  // Journal tails cut off during replay (torn final record).
  std::atomic<uint64_t> torn_tails{0};
  // Recovery outcomes: intents whose data file landed (rolled forward to
  // COMMIT) vs. intents abandoned (tmp/partial state removed).
  std::atomic<uint64_t> recovered_commits{0};
  std::atomic<uint64_t> rolled_back{0};
  // Committed records whose data file did not validate on replay.
  std::atomic<uint64_t> lost_records{0};
  std::atomic<uint64_t> crashes{0};
  std::atomic<uint64_t> replays{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
};

// Thread-safe (one mutex; the store is only touched on cache-miss slow
// paths). Simulated cycles for every operation are billed through the cost
// model into the caller's *cycles out-param.
class ImageStore {
 public:
  // `fs` is "the disk" — it must outlive the store and usually outlives the
  // kernel/server too (that is the point). `costs` may be null (no billing).
  ImageStore(SimFs& fs, std::string root, const CostModel* costs = nullptr);
  ~ImageStore();

  // Replay the journal and recover to a consistent index. Call exactly once
  // before any other operation.
  Result<void> Open();

  // Durably publish `record` under its fingerprint. On any failure the
  // on-disk state stays recoverable (at worst a dangling intent the next
  // Open rolls forward or back).
  Result<void> Put(const StoreRecord& record, uint64_t* cycles = nullptr);

  // Probe by (cache key, fingerprint). A fingerprint hit whose stored key
  // differs (hash collision) or whose bytes fail validation is a miss;
  // corrupt entries are tombstoned so they are not probed again.
  Result<std::optional<StoreRecord>> Get(std::string_view cache_key, uint64_t fingerprint,
                                         uint64_t* cycles = nullptr);

  // Tombstone every record whose cache key starts with `key_prefix` (or
  // equals it). Space management, not correctness: stale records are
  // already unreachable via their fingerprints. Returns how many died.
  Result<size_t> InvalidatePrefix(std::string_view key_prefix, uint64_t* cycles = nullptr);

  // Durably persist / load the server's meta-snapshot (tmp + fsync +
  // atomic rename; the snapshot text is self-checking already).
  Result<void> PutSnapshot(std::string_view snapshot, uint64_t* cycles = nullptr);
  Result<std::string> LoadSnapshot(uint64_t* cycles = nullptr);  // kNotFound if none

  size_t entry_count() const;
  // Sticky after a "store.crash" fire: the simulated process is dead and
  // writes nothing more. Reads also fail — the test reopens a fresh store.
  bool crashed() const;
  const StoreStats& stats() const { return stats_; }

 private:
  struct IndexEntry {
    std::string cache_key;
    uint32_t data_len = 0;
    uint64_t data_hash = 0;
  };

  std::string JournalPath() const;
  std::string SnapshotPath() const;
  std::string DataPath(uint64_t fingerprint) const;
  std::string TmpPath(uint64_t fingerprint) const;

  // One "store.crash" crash point; on fire flips crashed_ and errors.
  Result<void> CrashPoint();
  Result<void> FailIfCrashed() const;

  // Append one framed, checksummed record to the journal (not fsynced).
  Result<void> AppendRecord(uint8_t type, const std::vector<uint8_t>& payload, uint64_t* cycles);
  Result<void> SyncJournal(uint64_t* cycles);
  // Validate `fp`'s data file against (len, hash); returns the bytes.
  Result<std::vector<uint8_t>> ReadValidated(uint64_t fingerprint, const IndexEntry& entry,
                                             uint64_t* cycles);
  void Bill(uint64_t* cycles, uint64_t amount) const;
  uint64_t PageCost(size_t bytes, uint64_t per_page) const;

  Result<void> Replay();

  SimFs* fs_;
  std::string root_;
  const CostModel* costs_;

  mutable std::mutex mu_;
  bool open_ = false;
  bool crashed_ = false;
  std::map<uint64_t, IndexEntry> index_;
  // Latest live fingerprint per cache key (collision-checked on Get).
  std::map<std::string, uint64_t, std::less<>> by_key_;

  StoreStats stats_;
  uint64_t metrics_token_ = 0;
};

}  // namespace omos

#endif  // OMOS_SRC_STORE_IMAGE_STORE_H_
