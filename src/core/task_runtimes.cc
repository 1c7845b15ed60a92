#include "src/core/task_runtimes.h"

#include <algorithm>
#include <optional>

#include "src/os/loader.h"
#include "src/support/faultsim.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace omos {

namespace {
// After a deferred transfer, let this many old-version instructions retire
// before re-scanning the stack: a failed attempt walked the whole live
// stack, so retrying every instruction would dominate execution.
constexpr uint64_t kTransferRetryInterval = 256;
}  // namespace

Result<void> MapCached(Kernel& kernel, Task& task, const CachedImage& image) {
  if (image.text_seg.has_value()) {
    return MapImageWithSharedText(kernel, task, image.image, *image.text_seg,
                                  image.data_seg ? &*image.data_seg : nullptr);
  }
  return MapLinkedImage(kernel, task, image.image, "");
}

// ---- The runtime table --------------------------------------------------------

void TaskRuntimes::Install(TaskId id, Runtime runtime) {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  std::swap(runtimes_[id], runtime);  // a replaced runtime drops after the lock
}

void TaskRuntimes::Release(TaskId id) {
  decltype(runtimes_)::node_type released;  // its image references drop after the lock
  std::unique_lock<std::mutex> lock(runtimes_mu_);
  released = runtimes_.extract(id);
  // A released task can no longer execute old-version code: it leaves any
  // upgrade's pending set.
  if (upgrade_job_ != nullptr && upgrade_job_->pending.erase(id) > 0) {
    upgrade_job_->retry_at.erase(id);
    ReclaimIfDrained(lock, upgrade_job_);
  }
}

ImageRef TaskRuntimes::Program(TaskId id) const {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  auto it = runtimes_.find(id);
  return it == runtimes_.end() ? nullptr : it->second.program;
}

std::vector<std::pair<TaskId, std::vector<ImageRef>>> TaskRuntimes::Images(TaskId id) const {
  std::vector<std::pair<TaskId, std::vector<ImageRef>>> tasks;
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  for (const auto& [task_id, runtime] : runtimes_) {
    if (id != 0 && task_id != id) {
      continue;
    }
    std::vector<ImageRef>& images = tasks.emplace_back(task_id, std::vector<ImageRef>()).second;
    if (runtime.program != nullptr) {
      images.push_back(runtime.program);
    }
    for (const auto& [key, image] : runtime.libs) {
      images.push_back(image);
    }
    images.insert(images.end(), runtime.dyn_loaded.begin(), runtime.dyn_loaded.end());
  }
  return tasks;
}

void TaskRuntimes::AddDynLoaded(TaskId id, ImageRef image) {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  runtimes_[id].dyn_loaded.push_back(std::move(image));
}

Result<void> TaskRuntimes::Unload(Task& task, uint32_t text_base) {
  ImageRef unloaded;  // dropped after the lock
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  auto rt = runtimes_.find(task.id());
  if (rt == runtimes_.end()) {
    return Err(ErrorCode::kNotFound, StrCat(task.name(), ": no OMOS runtime state"));
  }
  auto& loaded = rt->second.dyn_loaded;
  for (auto it = loaded.begin(); it != loaded.end(); ++it) {
    const LinkedImage& image = (*it)->image;
    if (image.text_base != text_base) {
      continue;
    }
    if (!image.text.empty()) {
      OMOS_TRY_VOID(task.space().Unmap(image.text_base));
    }
    if (image.data.size() + image.bss_size > 0) {
      OMOS_TRY_VOID(task.space().Unmap(image.data_base));
    }
    unloaded = std::move(*it);
    loaded.erase(it);
    return OkResult();
  }
  return Err(ErrorCode::kNotFound,
             StrCat(task.name(), ": no dynamically loaded class at ", Hex32(text_base)));
}

Result<ImageRef> TaskRuntimes::Claim(Task& task, const std::string& key, ImageRef image,
                                     bool* fresh) {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  auto rt = runtimes_.find(task.id());
  if (rt == runtimes_.end()) {
    return Err(ErrorCode::kNotFound, StrCat(task.name(), ": task released"));
  }
  std::map<std::string, ImageRef>& libs = rt->second.libs;
  if (auto lib = libs.find(key); lib != libs.end()) {
    return lib->second;
  }
  // Decided under the repoint's lock: a task either gains the old version
  // before the repoint (which then makes it pending) or the new one after.
  if (upgrade_job_ != nullptr && upgrade_job_->Rolling() && upgrade_job_->lib_key == key) {
    image = upgrade_job_->new_impl;
  }
  if (image != nullptr) {
    libs.emplace(key, image);
    *fresh = true;
  }
  return image;
}

Result<ImageRef> TaskRuntimes::MapLibrary(Task& task, const std::string& key, ImageRef image,
                                          uint64_t first_use_cost) {
  bool fresh = false;
  OMOS_TRY(ImageRef bound, Claim(task, key, std::move(image), &fresh));
  if (bound == nullptr) {
    uint64_t rebuild_work = 0;
    OMOS_TRY(ImageRef cached, host_.GetOrRebuild(key, &rebuild_work));
    task.BillSys(rebuild_work);
    OMOS_TRY(bound, Claim(task, key, std::move(cached), &fresh));
  }
  if (fresh) {
    task.BillSys(first_use_cost);
    OMOS_TRY_VOID(MapCached(kernel_, task, *bound));
  }
  return bound;
}

Result<void> TaskRuntimes::HandleDload(Kernel& kernel, Task& task) {
  uint32_t index = task.reg(12);
  ImageRef program = Program(task.id());
  if (program == nullptr || index >= program->stub_slots.size()) {
    return Err(ErrorCode::kExecFault, StrCat(task.name(), ": bad dload slot ", index));
  }
  const StubSlot& slot = program->stub_slots[index];
  const ImageSymbol* slot_sym = program->image.FindSymbol(slot.slot_symbol);
  if (slot_sym == nullptr) {
    return Err(ErrorCode::kInternal, StrCat("missing stub slot symbol ", slot.slot_symbol));
  }
  // First use in this task: the stub "contacts OMOS and loads in the
  // library" (§4.2) — one IPC round trip plus the mapping work.
  OMOS_TRY(ImageRef impl,
           MapLibrary(task, slot.lib_path, nullptr,
                      kernel.costs().ipc_round_trip + kernel.costs().omos_cache_lookup));
  // "the first time a function is accessed, its name is looked up in the
  // function hash table and the value stored in an indirect branch table" —
  // user-mode work in the stub.
  task.BillUser(kernel.costs().symbol_lookup);
  const ImageSymbol* sym = impl->image.FindSymbol(slot.symbol);
  uint32_t target = sym != nullptr ? sym->addr : 0;
  if (sym == nullptr) {
    // Availability-check semantics mid-roll (docs/upgrade.md): a symbol the
    // new library version dropped binds to its degradation stub — callers
    // get kUpgradeUnavailable back instead of a fault.
    ImageRef stubs;
    {
      std::lock_guard<std::mutex> lock(runtimes_mu_);
      if (upgrade_job_ != nullptr && upgrade_job_->Rolling() && upgrade_job_->new_impl == impl) {
        stubs = upgrade_job_->stubs;
      }
    }
    const ImageSymbol* stub = stubs != nullptr ? stubs->image.FindSymbol(slot.symbol) : nullptr;
    if (stub == nullptr) {
      return Err(ErrorCode::kUnresolvedSymbol,
                 StrCat("symbol ", slot.symbol, " not in ", slot.lib_path));
    }
    OMOS_TRY_VOID(MapLibrary(task, stubs->key, stubs, 0));
    target = stub->addr;
    UpgradeStats().degraded_bindings->Add();
  }
  OMOS_TRY_VOID(task.space().Write32(slot_sym->addr, target));
  task.BillUser(kernel.costs().reloc_apply);
  task.set_pc(target);
  return OkResult();
}

// ---- Live upgrade (docs/upgrade.md) -----------------------------------------------

Result<uint64_t> TaskRuntimes::BeginUpgrade(const std::string& path,
                                            const std::string& new_blueprint) {
  std::shared_ptr<UpgradeJob> job;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (upgrade_job_ != nullptr && upgrade_job_->phase != UpgradePhase::kDone &&
        upgrade_job_->phase != UpgradePhase::kAborted) {
      return Err(ErrorCode::kUnavailable,
                 StrCat("upgrade of ", upgrade_job_->path, " already in flight"));
    }
    job = std::make_shared<UpgradeJob>();
    job->id = ++next_id_;
    job->path = path;
    job->lib_key = MakeCacheKey(path, "lib-dynamic-impl");
    job->new_blueprint = new_blueprint;
    job->phase = UpgradePhase::kLinking;
    upgrade_job_ = job;
  }
  UpgradeStats().begun->Add();
  TraceInstant("upgrade.begin", path);
  // Link on the idle lane (the pool runs it only when no foreground request
  // is pending) so running tasks never stall behind the new version's link.
  host_.SubmitIdle([this, job] { RunLink(job); });
  return job->id;
}

void TaskRuntimes::RunLink(const std::shared_ptr<UpgradeJob>& job) {
  TraceSpan trace("upgrade.link", job->path);
  if (Result<void> linked = Link(*job); !linked.ok()) {
    End(job, UpgradePhase::kAborted, linked.error().ToString());
    return;
  }
  RunRepoint(job);
}

Result<void> TaskRuntimes::Link(UpgradeJob& job) {
  // The new version is a detached image at a fresh placement: old addresses
  // stay live while suspended frames still execute old code, and the real
  // path keeps the old definition until the reclaim redefines it. The old
  // version is the one clients map: a task, a program or the cache holds
  // its placement, so even a rebuilt image lies at the same addresses.
  if (FaultSim::Trip("upgrade.link")) {
    return Err(ErrorCode::kUnavailable, "upgrade.link: injected fault");
  }
  uint64_t work = 0;
  OMOS_TRY(EvalValue value, host_.EvaluateLibrary(job.path, job.new_blueprint, &work));
  OMOS_TRY(job.new_impl, host_.LinkDetached(StrCat(job.path, "@v", job.id), std::move(value),
                                            &work));
  OMOS_TRY(job.old_impl, host_.GetOrRebuild(job.lib_key, &work));
  // Symbols the new version dropped degrade to availability-check stubs
  // (return kUpgradeUnavailable) instead of faulting.
  std::vector<std::string> deleted = DeletedTextSymbols(job.old_impl->image, job.new_impl->image);
  if (!deleted.empty()) {
    OMOS_TRY(ObjectFile stub_obj, GenerateDegradationStubs(deleted, "degrade.o"));
    EvalValue stubs;
    stubs.module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(stub_obj)));
    OMOS_TRY(job.stubs, host_.LinkDetached(StrCat(job.new_impl->key, "/degrade"),
                                           std::move(stubs), &work));
    for (const std::string& name : deleted) {
      if (const ImageSymbol* sym = job.stubs->image.FindSymbol(name)) {
        job.degrade_addrs[name] = sym->addr;
      }
    }
  }
  job.map = FrameTransferMap::Build(job.old_impl->image, job.new_impl->image, job.degrade_addrs);
  return OkResult();
}

void TaskRuntimes::RunRepoint(const std::shared_ptr<UpgradeJob>& job) {
  if (FaultSim::Trip("upgrade.repoint")) {
    // Killed before any runtime was touched: the abort leaves every task on
    // the old version, consistently.
    End(job, UpgradePhase::kAborted, "upgrade.repoint: injected fault");
    return;
  }
  // One critical section makes pending every task that maps the old version
  // and starts the roll: from here on, a lazy slot of the library that a
  // task has not bound yet binds the new version (Claim); already-resolved
  // slots keep calling the (still mapped) old code until the task's
  // safepoint transfer. A flagged task's safepoint waits on this lock, so
  // it sees the pending set it was flagged for.
  uint64_t repointed_tasks = 0;
  std::unique_lock<std::mutex> lock(runtimes_mu_);
  for (auto& [tid, runtime] : runtimes_) {
    auto lib = runtime.libs.find(job->lib_key);
    // The same placement is the same version at the same addresses.
    bool maps_old =
        lib != runtime.libs.end() && lib->second->placement == job->old_impl->placement;
    bool binds_new =
        lib == runtime.libs.end() && runtime.program != nullptr &&
        std::any_of(runtime.program->stub_slots.begin(), runtime.program->stub_slots.end(),
                    [&](const StubSlot& slot) { return slot.lib_path == job->lib_key; });
    // Old code/data mapped: the task needs a frame transfer. One destroyed
    // without ReleaseTask has nothing to drain.
    if (maps_old) {
      if (Task* task = kernel_.FindTask(tid)) {
        job->pending.insert(tid);
        task->RequestSafepoint();
      }
    }
    if (maps_old || binds_new) {
      ++repointed_tasks;
    }
  }
  job->phase = UpgradePhase::kDraining;
  size_t pending = job->pending.size();
  ReclaimIfDrained(lock, job);
  UpgradeStats().tasks_repointed->Add(repointed_tasks);
  TraceInstant("upgrade.repoint", StrCat(job->path, ": ", pending, " task(s) to drain"));
}

Result<void> TaskRuntimes::HandleSafepoint(Kernel& kernel, Task& task) {
  std::shared_ptr<UpgradeJob> job;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    job = upgrade_job_;
    if (job == nullptr || job->phase != UpgradePhase::kDraining ||
        job->pending.count(task.id()) == 0) {
      task.ClearSafepoint();  // stale flag (job aborted or task already done)
      return OkResult();
    }
    auto retry = job->retry_at.find(task.id());
    if (retry != job->retry_at.end() && task.instructions_retired() < retry->second) {
      return OkResult();  // deferred recently; let old code make progress
    }
  }
  // The job stays draining, its images held, until this task leaves the
  // pending set at the end of its transfer.
  const FrameTransferMap& map = job->map;
  auto defer = [&]() {
    UpgradeStats().transfers_deferred->Add();
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    job->retry_at[task.id()] = task.instructions_retired() + kTransferRetryInterval;
    return OkResult();
  };
  if (FaultSim::Trip("upgrade.transfer")) {
    return defer();  // a killed transfer is a deferral, never a torn state
  }
  // Plan every rewrite before applying any: pc, lr, the register file, and
  // each live stack word that lies in the old version's segments. One
  // unmappable value (a frame suspended mid-body of a resized or deleted
  // function) defers the whole transfer — the task resumes old code and we
  // retry at a later safepoint, when that frame has popped.
  auto map_value = [&map](uint32_t value) -> std::optional<uint32_t> {
    return map.Covers(value) ? map.MapAddr(value) : std::optional<uint32_t>(value);
  };
  std::optional<uint32_t> new_pc = map_value(task.pc());
  if (!new_pc.has_value()) {
    return defer();
  }
  uint32_t new_regs[kNumRegisters];
  for (int i = 0; i < kNumRegisters; ++i) {
    std::optional<uint32_t> mapped = i == kRegSp ? task.reg(i) : map_value(task.reg(i));
    if (!mapped.has_value()) {
      return defer();
    }
    new_regs[i] = *mapped;
  }
  uint32_t sp = task.reg(kRegSp);
  std::vector<std::pair<uint32_t, uint32_t>> stack_rewrites;
  for (uint32_t addr = sp & ~3u; addr < kStackTop; addr += 4) {
    Result<uint32_t> word = task.space().Read32(addr);
    if (!word.ok()) {
      break;  // off the mapped stack region
    }
    std::optional<uint32_t> mapped = map_value(*word);
    if (!mapped.has_value()) {
      return defer();
    }
    if (*mapped != *word) {
      stack_rewrites.emplace_back(addr, *mapped);
    }
  }
  // The task binds the new version (and its degradation stubs) from here
  // on. A pending task maps the old version, so both are new to it.
  ImageRef old_impl;  // dropped after the lock
  ImageRef program;  // a task maps the library only through its program
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto rt = runtimes_.find(task.id());
    if (rt == runtimes_.end()) {
      return OkResult();  // released concurrently, which ended its pending
    }
    old_impl = std::exchange(rt->second.libs[job->lib_key], job->new_impl);
    if (job->stubs != nullptr) {
      rt->second.libs.emplace(job->stubs->key, job->stubs);
    }
    program = rt->second.program;
  }
  // Map the new version and carry the old version's same-shape data state
  // (the task's private CoW bytes) into it before any new code can run.
  task.BillSys(kernel.costs().ipc_round_trip + kernel.costs().omos_cache_lookup);
  OMOS_TRY_VOID(MapCached(kernel, task, *job->new_impl));
  if (job->stubs != nullptr) {
    OMOS_TRY_VOID(MapCached(kernel, task, *job->stubs));
  }
  for (const DataCarry& carry : map.data_carries()) {
    std::vector<uint8_t> bytes(carry.size);
    OMOS_TRY_VOID(task.space().ReadBytes(carry.old_addr, bytes.data(), carry.size));
    OMOS_TRY_VOID(task.space().WriteBytes(carry.new_addr, bytes.data(), carry.size));
  }
  // Point of no return: apply the planned rewrites. All writes hit this
  // task's own registers and private pages, on this task's own thread.
  task.set_pc(*new_pc);
  for (int i = 0; i < kNumRegisters; ++i) {
    task.set_reg(i, new_regs[i]);  // sp maps to itself
  }
  for (const auto& [addr, value] : stack_rewrites) {
    OMOS_TRY_VOID(task.space().Write32(addr, value));
  }
  // Already-resolved lazy slots still hold old-version addresses; rebind
  // them to the new symbol so the next call lands in new code without
  // another dload round trip. A slot of a symbol the new version dropped
  // binds its degradation stub now, resolved or not: the stubs go with
  // this task's copy of the new version.
  uint64_t slots_repointed = 0;
  for (const StubSlot& slot : program->stub_slots) {
    const ImageSymbol* slot_sym = program->image.FindSymbol(slot.slot_symbol);
    if (slot.lib_path != job->lib_key || slot_sym == nullptr) {
      continue;
    }
    Result<uint32_t> current = task.space().Read32(slot_sym->addr);
    const ImageSymbol* sym = job->new_impl->image.FindSymbol(slot.symbol);
    auto stub = job->degrade_addrs.find(slot.symbol);
    if (sym != nullptr ? !current.ok() || !map.Covers(*current)
                       : stub == job->degrade_addrs.end()) {
      continue;  // still lazy (trampoline), or a symbol neither version has
    }
    uint32_t target = sym != nullptr ? sym->addr : stub->second;
    if (sym == nullptr) {
      UpgradeStats().degraded_bindings->Add();
    }
    OMOS_TRY_VOID(task.space().Write32(slot_sym->addr, target));
    ++slots_repointed;
  }
  // Drop the old version from this task. Unmapping decrements the shared
  // frames' refcounts; PhysMemory frees them once the last task lets go.
  if (map.old_text_end() > map.old_text_base()) {
    (void)task.space().Unmap(map.old_text_base());
  }
  if (map.old_data_end() > map.old_data_base()) {
    (void)task.space().Unmap(map.old_data_base());
  }
  task.ClearSafepoint();
  UpgradeStats().frames_transferred->Add();
  UpgradeStats().slots_repointed->Add(slots_repointed);
  UpgradeStats().stack_words_rewritten->Add(stack_rewrites.size());
  TraceInstant("upgrade.transfer", task.name());
  std::unique_lock<std::mutex> lock(runtimes_mu_);
  job->pending.erase(task.id());
  job->retry_at.erase(task.id());
  ReclaimIfDrained(lock, job);
  return OkResult();
}

void TaskRuntimes::ReclaimIfDrained(std::unique_lock<std::mutex>& lock,
                                    std::shared_ptr<UpgradeJob> job) {
  bool drained = job->phase == UpgradePhase::kDraining && job->pending.empty();
  if (drained) {
    job->phase = UpgradePhase::kReclaiming;
  }
  lock.unlock();
  if (drained) {
    host_.SubmitIdle([this, job] { RunReclaim(job); });
  }
}

void TaskRuntimes::RunReclaim(const std::shared_ptr<UpgradeJob>& job) {
  TraceSpan trace("upgrade.reclaim", job->path);
  bool killed = FaultSim::Trip("upgrade.reclaim");
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase != UpgradePhase::kReclaiming) {
      return;
    }
    if (killed) {
      // Killed mid-reclaim: retreat to draining so DrainUpgrade (or the next
      // task release) re-attempts. Tasks keep binding the new version.
      job->phase = UpgradePhase::kDraining;
      return;
    }
  }
  // Every task migrated: make the new version THE version. Redefining the
  // real path evicts the old implementation and every cached client image
  // that linked against it and retires their placements — the existing
  // redefinition semantics do the reclamation. Tasks keep their mappings
  // (per-task address spaces hold frame refcounts) and their copies: a task
  // that maps the new version's detached copy keeps binding it, and one
  // that maps neither binds the real path, now the new version.
  if (Result<void> redefined = host_.DefineLibrary(job->path, job->new_blueprint);
      !redefined.ok()) {
    End(job, UpgradePhase::kAborted, redefined.error().ToString());
    return;
  }
  End(job, UpgradePhase::kDone);
}

void TaskRuntimes::End(const std::shared_ptr<UpgradeJob>& job, UpgradePhase phase,
                       std::string why) {
  // An abort comes before the repoint fills the pending set or after the
  // drain emptied it, so no task is left flagged for a transfer.
  std::vector<ImageRef> images;  // destroyed after the lock
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase == UpgradePhase::kDone || job->phase == UpgradePhase::kAborted) {
      return;
    }
    job->phase = phase;
    job->error = why;
    images = {std::move(job->old_impl), std::move(job->new_impl), std::move(job->stubs)};
  }
  if (phase == UpgradePhase::kAborted) {
    UpgradeStats().aborted->Add();
    TraceInstant("upgrade.abort", StrCat(job->path, ": ", why));
    return;
  }
  UpgradeStats().images_reclaimed->Add(images.size() -
                                       std::count(images.begin(), images.end(), nullptr));
  UpgradeStats().completed->Add();
  TraceInstant("upgrade.complete", job->path);
}

UpgradeStatus TaskRuntimes::Status() const {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  if (upgrade_job_ == nullptr) {
    return UpgradeStatus();
  }
  const UpgradeJob& job = *upgrade_job_;
  return UpgradeStatus{job.id, job.path, job.phase, job.pending.size(), job.error};
}

bool TaskRuntimes::Advance() {
  std::unique_lock<std::mutex> lock(runtimes_mu_);
  std::shared_ptr<UpgradeJob> job = upgrade_job_;
  if (job == nullptr || job->phase == UpgradePhase::kDone ||
      job->phase == UpgradePhase::kAborted ||
      (job->phase == UpgradePhase::kDraining && !job->pending.empty())) {
    return false;  // settled, or waiting on tasks the caller must run or release
  }
  ReclaimIfDrained(lock, job);  // e.g. a faulted reclaim retreated to kDraining
  return true;
}

}  // namespace omos
