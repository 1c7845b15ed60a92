#include "src/store/image_store.h"

#include <algorithm>
#include <utility>

#include "src/linker/image_codec.h"
#include "src/objfmt/bytes.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace omos {

namespace {

// Journal record framing: [magic][type][len payload][fnv64 of type+payload].
constexpr uint32_t kJournalMagic = 0x314C4A4Fu;  // "OJL1"
constexpr uint32_t kRecordMagic = 0x3152534Fu;   // "OSR1" (data-file header)

enum JournalType : uint8_t {
  kIntent = 1,
  kCommit = 2,
  kTombstone = 3,
};

constexpr size_t kIoPage = 4096;

uint64_t JournalSum(uint8_t type, const std::vector<uint8_t>& payload) {
  uint64_t sum = Fnv1aBytes(&type, 1);
  // Chain the payload into the type's hash: same FNV stream, continued.
  constexpr uint64_t kPrime = 1099511628211ull;
  for (uint8_t b : payload) {
    sum = (sum ^ b) * kPrime;
  }
  return sum;
}

std::string FpHex(uint64_t fp) {
  char buf[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = digits[fp & 0xF];
    fp >>= 4;
  }
  buf[16] = '\0';
  return std::string(buf);
}

}  // namespace

// ---- StoreRecord codec ------------------------------------------------------

std::vector<uint8_t> EncodeStoreRecord(const StoreRecord& record) {
  ByteWriter w;
  w.U32(kRecordMagic);
  w.Str(record.cache_key);
  w.U64(record.fingerprint);
  w.U64(record.build_cost);
  w.U32(static_cast<uint32_t>(record.deps.size()));
  for (const LibDep& dep : record.deps) {
    w.Str(dep.cache_key);
    w.Str(dep.lib_path);
    w.U32(dep.text_base);
    w.U32(dep.data_base);
  }
  w.U32(static_cast<uint32_t>(record.stub_slots.size()));
  for (const StubSlot& slot : record.stub_slots) {
    w.U32(slot.index);
    w.Str(slot.slot_symbol);
    w.Str(slot.lib_path);
    w.Str(slot.symbol);
  }
  w.Raw(EncodeImage(record.image));
  return w.Take();
}

Result<StoreRecord> DecodeStoreRecord(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  OMOS_TRY(uint32_t magic, r.U32());
  if (magic != kRecordMagic) {
    return Err(ErrorCode::kParseError, "store record: bad magic");
  }
  StoreRecord record;
  OMOS_TRY(record.cache_key, r.Str());
  OMOS_TRY(record.fingerprint, r.U64());
  OMOS_TRY(record.build_cost, r.U64());
  OMOS_TRY(uint32_t ndeps, r.U32());
  record.deps.reserve(ndeps);
  for (uint32_t i = 0; i < ndeps; ++i) {
    LibDep dep;
    OMOS_TRY(dep.cache_key, r.Str());
    OMOS_TRY(dep.lib_path, r.Str());
    OMOS_TRY(dep.text_base, r.U32());
    OMOS_TRY(dep.data_base, r.U32());
    record.deps.push_back(std::move(dep));
  }
  OMOS_TRY(uint32_t nslots, r.U32());
  record.stub_slots.reserve(nslots);
  for (uint32_t i = 0; i < nslots; ++i) {
    StubSlot slot;
    OMOS_TRY(slot.index, r.U32());
    OMOS_TRY(slot.slot_symbol, r.Str());
    OMOS_TRY(slot.lib_path, r.Str());
    OMOS_TRY(slot.symbol, r.Str());
    record.stub_slots.push_back(std::move(slot));
  }
  OMOS_TRY(std::vector<uint8_t> image_bytes, r.Raw());
  OMOS_TRY(record.image, DecodeImage(image_bytes));
  return record;
}

// ---- ImageStore -------------------------------------------------------------

ImageStore::ImageStore(SimFs& fs, std::string root, const CostModel* costs)
    : fs_(&fs), root_(std::move(root)), costs_(costs) {
  metrics_token_ = MetricsRegistry::Global().AddSource(
      [this](std::vector<std::pair<std::string, uint64_t>>& out) {
        out.emplace_back("store.probes", stats_.probes.load(std::memory_order_relaxed));
        out.emplace_back("store.hits", stats_.hits.load(std::memory_order_relaxed));
        out.emplace_back("store.misses", stats_.misses.load(std::memory_order_relaxed));
        out.emplace_back("store.puts", stats_.puts.load(std::memory_order_relaxed));
        out.emplace_back("store.put_failures",
                         stats_.put_failures.load(std::memory_order_relaxed));
        out.emplace_back("store.invalidations",
                         stats_.invalidations.load(std::memory_order_relaxed));
        out.emplace_back("store.corrupt_records",
                         stats_.corrupt_records.load(std::memory_order_relaxed));
        out.emplace_back("store.torn_tails", stats_.torn_tails.load(std::memory_order_relaxed));
        out.emplace_back("store.recovered_commits",
                         stats_.recovered_commits.load(std::memory_order_relaxed));
        out.emplace_back("store.rolled_back", stats_.rolled_back.load(std::memory_order_relaxed));
        out.emplace_back("store.lost_records",
                         stats_.lost_records.load(std::memory_order_relaxed));
        out.emplace_back("store.crashes", stats_.crashes.load(std::memory_order_relaxed));
        out.emplace_back("store.replays", stats_.replays.load(std::memory_order_relaxed));
        out.emplace_back("store.bytes_written",
                         stats_.bytes_written.load(std::memory_order_relaxed));
        out.emplace_back("store.bytes_read", stats_.bytes_read.load(std::memory_order_relaxed));
      });
}

ImageStore::~ImageStore() { MetricsRegistry::Global().RemoveSource(metrics_token_); }

std::string ImageStore::JournalPath() const { return root_ + "/journal"; }
std::string ImageStore::SnapshotPath() const { return root_ + "/snapshot"; }
std::string ImageStore::DataPath(uint64_t fp) const {
  return StrCat(root_, "/data/", FpHex(fp), ".img");
}
std::string ImageStore::TmpPath(uint64_t fp) const {
  return StrCat(root_, "/data/", FpHex(fp), ".tmp");
}

void ImageStore::Bill(uint64_t* cycles, uint64_t amount) const {
  if (cycles != nullptr) {
    *cycles += amount;
  }
}

uint64_t ImageStore::PageCost(size_t bytes, uint64_t per_page) const {
  return per_page * ((bytes + kIoPage - 1) / kIoPage + (bytes == 0 ? 1 : 0));
}

Result<void> ImageStore::CrashPoint() {
  if (FaultSim::Trip("store.crash")) {
    crashed_ = true;
    stats_.crashes.fetch_add(1, std::memory_order_relaxed);
    TraceInstant("store.crash", root_);
    return Err(ErrorCode::kUnavailable, "simulated store crash (process died)");
  }
  return OkResult();
}

Result<void> ImageStore::FailIfCrashed() const {
  if (crashed_) {
    return Err(ErrorCode::kUnavailable, "store crashed; reopen to recover");
  }
  return OkResult();
}

Result<void> ImageStore::AppendRecord(uint8_t type, const std::vector<uint8_t>& payload,
                                      uint64_t* cycles) {
  ByteWriter w;
  w.U32(kJournalMagic);
  w.U8(type);
  w.Raw(payload);
  w.U64(JournalSum(type, payload));
  if (costs_ != nullptr) {
    Bill(cycles, costs_->syscall_overhead + costs_->file_write_page);
  }
  return fs_->TryAppendUnsynced(JournalPath(), w.bytes());
}

Result<void> ImageStore::SyncJournal(uint64_t* cycles) {
  if (costs_ != nullptr) {
    Bill(cycles, costs_->fsync);
  }
  return fs_->Fsync(JournalPath());
}

Result<std::vector<uint8_t>> ImageStore::ReadValidated(uint64_t fp, const IndexEntry& entry,
                                                       uint64_t* cycles) {
  OMOS_TRY(const SimFile* file, fs_->Lookup(DataPath(fp)));
  if (costs_ != nullptr) {
    Bill(cycles, costs_->syscall_overhead + costs_->file_open +
                     PageCost(file->bytes.size(), costs_->file_read_page));
  }
  if (file->bytes.size() != entry.data_len ||
      Fnv1aBytes(file->bytes.data(), file->bytes.size()) != entry.data_hash) {
    return Err(ErrorCode::kCorrupted, StrCat("store data file failed validation: ", FpHex(fp)));
  }
  return file->bytes;
}

Result<void> ImageStore::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) {
    return Err(ErrorCode::kInvalidArgument, "store already open");
  }
  OMOS_TRY_VOID(FailIfCrashed());
  TraceSpan span("store.replay", root_);
  fs_->Mkdir(root_);
  fs_->Mkdir(root_ + "/data");
  OMOS_TRY_VOID(Replay());
  open_ = true;
  stats_.replays.fetch_add(1, std::memory_order_relaxed);
  return OkResult();
}

Result<void> ImageStore::Replay() {
  if (!fs_->Exists(JournalPath())) {
    fs_->WriteFile(JournalPath(), std::vector<uint8_t>{});  // fresh store
    return OkResult();
  }
  OMOS_TRY(const SimFile* journal, fs_->Lookup(JournalPath()));
  // Copy: truncation below rewrites the file we are reading.
  std::vector<uint8_t> bytes = journal->bytes;

  // Pass 1: parse records until the end or a torn/corrupt tail.
  std::map<uint64_t, IndexEntry> pending;  // INTENT without COMMIT yet
  std::map<uint64_t, IndexEntry> live;     // committed, not tombstoned
  std::vector<std::pair<std::string, uint64_t>> commit_order;
  ByteReader r(bytes);
  size_t good_end = 0;
  bool torn = false;
  while (!r.AtEnd()) {
    auto parse_one = [&]() -> Result<void> {
      OMOS_TRY(uint32_t magic, r.U32());
      if (magic != kJournalMagic) {
        return Err(ErrorCode::kParseError, "journal: bad record magic");
      }
      OMOS_TRY(uint8_t type, r.U8());
      OMOS_TRY(std::vector<uint8_t> payload, r.Raw());
      OMOS_TRY(uint64_t sum, r.U64());
      if (sum != JournalSum(type, payload)) {
        return Err(ErrorCode::kCorrupted, "journal: record checksum mismatch");
      }
      ByteReader p(payload);
      switch (type) {
        case kIntent: {
          OMOS_TRY(uint64_t fp, p.U64());
          IndexEntry entry;
          OMOS_TRY(entry.cache_key, p.Str());
          OMOS_TRY(entry.data_len, p.U32());
          OMOS_TRY(entry.data_hash, p.U64());
          pending[fp] = std::move(entry);
          return OkResult();
        }
        case kCommit: {
          OMOS_TRY(uint64_t fp, p.U64());
          auto it = pending.find(fp);
          if (it != pending.end()) {
            commit_order.emplace_back(it->second.cache_key, fp);
            live[fp] = std::move(it->second);
            pending.erase(it);
          }
          return OkResult();
        }
        case kTombstone: {
          OMOS_TRY(uint64_t fp, p.U64());
          live.erase(fp);
          pending.erase(fp);
          return OkResult();
        }
        default:
          return Err(ErrorCode::kParseError, "journal: unknown record type");
      }
    };
    if (!parse_one().ok()) {
      torn = true;
      break;
    }
    good_end = bytes.size() - r.remaining();
  }
  if (torn) {
    // Cut the tail off durably so the next replay starts clean. The records
    // after the tear were never acknowledged (their final fsync cannot have
    // returned), so dropping them loses nothing that was promised.
    stats_.torn_tails.fetch_add(1, std::memory_order_relaxed);
    fs_->WriteFile(JournalPath(), std::vector<uint8_t>(bytes.begin(), bytes.begin() + good_end));
  }

  // Pass 2: validate committed records against their data files.
  bool appended = false;
  for (auto& [fp, entry] : live) {
    if (ReadValidated(fp, entry, nullptr).ok()) {
      index_[fp] = entry;
    } else {
      // Commit says durable but the bytes do not check out: real corruption
      // (or a tear that also ate the commit's data). Drop it loudly.
      stats_.lost_records.fetch_add(1, std::memory_order_relaxed);
      ByteWriter w;
      w.U64(fp);
      (void)AppendRecord(kTombstone, w.bytes(), nullptr);
      appended = true;
    }
  }
  // Keys map to the latest committed fingerprint, in journal order.
  for (const auto& [key, fp] : commit_order) {
    if (index_.count(fp) != 0) {
      by_key_[key] = fp;
    }
  }
  // Pass 3: intents that never committed — roll forward when the data file
  // already landed intact, roll back (remove partials) otherwise.
  for (auto& [fp, entry] : pending) {
    if (ReadValidated(fp, entry, nullptr).ok()) {
      ByteWriter w;
      w.U64(fp);
      OMOS_TRY_VOID(AppendRecord(kCommit, w.bytes(), nullptr));
      appended = true;
      index_[fp] = entry;
      by_key_[entry.cache_key] = fp;
      stats_.recovered_commits.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.rolled_back.fetch_add(1, std::memory_order_relaxed);
      if (fs_->Exists(DataPath(fp))) {
        (void)fs_->Remove(DataPath(fp));
      }
      ByteWriter w;
      w.U64(fp);
      (void)AppendRecord(kTombstone, w.bytes(), nullptr);
      appended = true;
    }
  }
  // Stray publish temporaries die (their intents rolled back above, or the
  // torn tail ate the intent entirely).
  if (auto names = fs_->ListDir(root_ + "/data"); names.ok()) {
    for (const std::string& name : *names) {
      if (EndsWith(name, ".tmp")) {
        (void)fs_->Remove(StrCat(root_, "/data/", name));
      }
    }
  }
  if (appended) {
    OMOS_TRY_VOID(SyncJournal(nullptr));
  }
  return OkResult();
}

Result<void> ImageStore::Put(const StoreRecord& record, uint64_t* cycles) {
  std::lock_guard<std::mutex> lock(mu_);
  OMOS_TRY_VOID(FailIfCrashed());
  if (!open_) {
    return Err(ErrorCode::kInvalidArgument, "store not open");
  }
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  auto body = [&]() -> Result<void> {
    TraceSpan span("store.put", record.cache_key);
    std::vector<uint8_t> payload = EncodeStoreRecord(record);
    const uint64_t fp = record.fingerprint;
    IndexEntry entry;
    entry.cache_key = record.cache_key;
    entry.data_len = static_cast<uint32_t>(payload.size());
    entry.data_hash = Fnv1aBytes(payload.data(), payload.size());

    OMOS_TRY_VOID(CrashPoint());  // 1: before the intent reaches the journal
    ByteWriter intent;
    intent.U64(fp);
    intent.Str(entry.cache_key);
    intent.U32(entry.data_len);
    intent.U64(entry.data_hash);
    OMOS_TRY_VOID(AppendRecord(kIntent, intent.bytes(), cycles));
    OMOS_TRY_VOID(CrashPoint());  // 2: intent in page cache only
    OMOS_TRY_VOID(SyncJournal(cycles));
    OMOS_TRY_VOID(CrashPoint());  // 3: intent durable, no data yet
    if (costs_ != nullptr) {
      Bill(cycles, costs_->syscall_overhead + PageCost(payload.size(), costs_->file_write_page));
    }
    OMOS_TRY_VOID(fs_->TryWriteUnsynced(TmpPath(fp), payload));
    OMOS_TRY_VOID(CrashPoint());  // 4: data in page cache only
    if (costs_ != nullptr) {
      Bill(cycles, costs_->fsync);
    }
    OMOS_TRY_VOID(fs_->Fsync(TmpPath(fp)));
    OMOS_TRY_VOID(CrashPoint());  // 5: data durable under the tmp name
    if (costs_ != nullptr) {
      Bill(cycles, costs_->rename);
    }
    OMOS_TRY_VOID(fs_->Rename(TmpPath(fp), DataPath(fp)));
    OMOS_TRY_VOID(CrashPoint());  // 6: published, commit not yet recorded
    ByteWriter commit;
    commit.U64(fp);
    OMOS_TRY_VOID(AppendRecord(kCommit, commit.bytes(), cycles));
    OMOS_TRY_VOID(CrashPoint());  // 7: commit in page cache only
    OMOS_TRY_VOID(SyncJournal(cycles));
    OMOS_TRY_VOID(CrashPoint());  // 8: fully durable; the "process" dies anyway

    stats_.bytes_written.fetch_add(payload.size(), std::memory_order_relaxed);
    index_[fp] = entry;
    by_key_[entry.cache_key] = fp;
    return OkResult();
  };
  Result<void> result = body();
  if (!result.ok() && !crashed_) {
    stats_.put_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Result<std::optional<StoreRecord>> ImageStore::Get(std::string_view cache_key,
                                                   uint64_t fingerprint, uint64_t* cycles) {
  std::lock_guard<std::mutex> lock(mu_);
  OMOS_TRY_VOID(FailIfCrashed());
  if (!open_) {
    return Err(ErrorCode::kInvalidArgument, "store not open");
  }
  stats_.probes.fetch_add(1, std::memory_order_relaxed);
  TraceSpan span("store.probe", std::string(cache_key));
  auto miss = [&]() -> Result<std::optional<StoreRecord>> {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return std::optional<StoreRecord>();
  };
  auto it = index_.find(fingerprint);
  if (it == index_.end() || it->second.cache_key != cache_key) {
    // Unknown fingerprint, or a fingerprint collision with another key —
    // either way the stored bytes are not this request's image.
    return miss();
  }
  auto drop_corrupt = [&]() {
    stats_.corrupt_records.fetch_add(1, std::memory_order_relaxed);
    TraceInstant("store.corrupt", std::string(cache_key));
    ByteWriter w;
    w.U64(fingerprint);
    (void)AppendRecord(kTombstone, w.bytes(), cycles);
    (void)SyncJournal(cycles);
    (void)fs_->Remove(DataPath(fingerprint));
    by_key_.erase(it->second.cache_key);
    index_.erase(it);
  };
  auto bytes = ReadValidated(fingerprint, it->second, cycles);
  if (!bytes.ok()) {
    if (bytes.error().code() == ErrorCode::kCorrupted) {
      drop_corrupt();
    }
    return miss();
  }
  auto record = DecodeStoreRecord(*bytes);
  if (!record.ok() || record->cache_key != cache_key || record->fingerprint != fingerprint) {
    drop_corrupt();
    return miss();
  }
  if (costs_ != nullptr) {
    Bill(cycles, costs_->header_parse + costs_->symbol_parse * record->image.symbols.size());
  }
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(bytes->size(), std::memory_order_relaxed);
  return std::optional<StoreRecord>(std::move(*record));
}

Result<size_t> ImageStore::InvalidatePrefix(std::string_view key_prefix, uint64_t* cycles) {
  std::lock_guard<std::mutex> lock(mu_);
  OMOS_TRY_VOID(FailIfCrashed());
  if (!open_) {
    return Err(ErrorCode::kInvalidArgument, "store not open");
  }
  std::vector<std::pair<std::string, uint64_t>> victims;
  for (const auto& [key, fp] : by_key_) {
    if (StartsWith(key, key_prefix)) {
      victims.emplace_back(key, fp);
    }
  }
  if (victims.empty()) {
    return size_t{0};
  }
  OMOS_TRY_VOID(CrashPoint());  // invalidation is journaled like any write
  for (const auto& [key, fp] : victims) {
    ByteWriter w;
    w.U64(fp);
    OMOS_TRY_VOID(AppendRecord(kTombstone, w.bytes(), cycles));
    (void)fs_->Remove(DataPath(fp));
    by_key_.erase(key);
    index_.erase(fp);
    stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  OMOS_TRY_VOID(CrashPoint());  // tombstones in page cache only
  OMOS_TRY_VOID(SyncJournal(cycles));
  return victims.size();
}

Result<void> ImageStore::PutSnapshot(std::string_view snapshot, uint64_t* cycles) {
  std::lock_guard<std::mutex> lock(mu_);
  OMOS_TRY_VOID(FailIfCrashed());
  if (!open_) {
    return Err(ErrorCode::kInvalidArgument, "store not open");
  }
  TraceSpan span("store.put", "snapshot");
  std::string tmp = SnapshotPath() + ".tmp";
  OMOS_TRY_VOID(CrashPoint());  // before anything lands
  if (costs_ != nullptr) {
    Bill(cycles, costs_->syscall_overhead + PageCost(snapshot.size(), costs_->file_write_page));
  }
  OMOS_TRY_VOID(
      fs_->TryWriteUnsynced(tmp, std::vector<uint8_t>(snapshot.begin(), snapshot.end())));
  OMOS_TRY_VOID(CrashPoint());  // tmp in page cache only
  if (costs_ != nullptr) {
    Bill(cycles, costs_->fsync);
  }
  OMOS_TRY_VOID(fs_->Fsync(tmp));
  OMOS_TRY_VOID(CrashPoint());  // tmp durable, old snapshot still current
  if (costs_ != nullptr) {
    Bill(cycles, costs_->rename);
  }
  OMOS_TRY_VOID(fs_->Rename(tmp, SnapshotPath()));
  OMOS_TRY_VOID(CrashPoint());  // new snapshot published; process dies anyway
  stats_.bytes_written.fetch_add(snapshot.size(), std::memory_order_relaxed);
  return OkResult();
}

Result<std::string> ImageStore::LoadSnapshot(uint64_t* cycles) {
  std::lock_guard<std::mutex> lock(mu_);
  OMOS_TRY_VOID(FailIfCrashed());
  if (!open_) {
    return Err(ErrorCode::kInvalidArgument, "store not open");
  }
  OMOS_TRY(const SimFile* file, fs_->Lookup(SnapshotPath()));
  if (costs_ != nullptr) {
    Bill(cycles, costs_->syscall_overhead + costs_->file_open +
                     PageCost(file->bytes.size(), costs_->file_read_page));
  }
  stats_.bytes_read.fetch_add(file->bytes.size(), std::memory_order_relaxed);
  return std::string(file->bytes.begin(), file->bytes.end());
}

size_t ImageStore::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

bool ImageStore::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

}  // namespace omos
