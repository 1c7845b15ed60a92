// TaskRuntimes — what each task maps and how its lazy slots bind, and the
// live library upgrade that moves running tasks between two versions of a
// library (docs/upgrade.md). Both share one lock, runtimes_mu_, so every
// decision about which version a task maps is made under the lock the
// upgrade's repoint holds. No image is destroyed and nothing builds under
// it; under it: Kernel::tasks_mu_ (FindTask) and PhysMemory's lock
// (Unload's Unmap). The server is reached only through RuntimeHost.
//
// An upgrade job holds the images it moves tasks between: the old version,
// the new version and the degradation stubs. The last two are detached
// (no namespace path names them and no cache keeps them), so their
// placements free once the job ends and the last task mapping them goes.
#ifndef OMOS_SRC_CORE_TASK_RUNTIMES_H_
#define OMOS_SRC_CORE_TASK_RUNTIMES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/cache.h"
#include "src/core/evaluator.h"
#include "src/os/kernel.h"
#include "src/support/result.h"
#include "src/upgrade/upgrade.h"

namespace omos {

// Maps a cached image into `task`: text shared from its master segment and
// data copy-on-write against its data master. An image with no text master
// (empty text) maps by private copy.
Result<void> MapCached(Kernel& kernel, Task& task, const CachedImage& image);

// What the runtime table and the upgrade need of the server.
class RuntimeHost {
 public:
  virtual ~RuntimeHost() = default;
  // The image cached under `key` (or `held`, a copy of it, re-cached),
  // rebuilt from its blueprint when missing; build work adds to *work.
  virtual Result<ImageRef> GetOrRebuild(const std::string& key, uint64_t* work,
                                        const ImageRef& held = nullptr) = 0;
  // Evaluate `blueprint` as DefineLibrary would define it at `path`: the
  // value's placement hints overlay its constraint-list's.
  virtual Result<EvalValue> EvaluateLibrary(std::string_view path, std::string_view blueprint,
                                            uint64_t* work) = 0;
  // Link `value` (its library uses bound as in any build) into an image
  // named `name` that neither the cache nor the namespace holds: its
  // placement lives as long as the image.
  virtual Result<ImageRef> LinkDetached(const std::string& name, EvalValue value,
                                        uint64_t* work) = 0;
  virtual Result<void> DefineLibrary(std::string_view path, std::string_view blueprint) = 0;
  // Queue `job` on the pool's idle lane; it runs only while the host lives.
  virtual void SubmitIdle(std::function<void()> job) = 0;
};

struct UpgradeStatus {
  uint64_t id = 0;
  std::string path;
  UpgradePhase phase = UpgradePhase::kIdle;
  size_t tasks_pending = 0;
  std::string error;
  bool terminal() const {
    return phase == UpgradePhase::kDone || phase == UpgradePhase::kAborted;
  }
};

class TaskRuntimes {
 public:
  // What one task maps. An image evicted from the cache lives until the
  // last runtime that maps it is released.
  struct Runtime {
    // Null for a DynamicLoad-only task. Its stub_slots are the task's lazy
    // slots, each naming its library by cache key.
    ImageRef program;
    // Libraries mapped at exec (eager deps) and on first use (lazy
    // libraries, degradation stubs), by the key the program names them by:
    // a lazy library's entry is the copy the task binds, whichever version.
    std::map<std::string, ImageRef> libs;
    std::vector<ImageRef> dyn_loaded;  // DynamicLoad classes
  };

  TaskRuntimes(Kernel& kernel, RuntimeHost& host) : kernel_(kernel), host_(host) {}

  // Install `runtime` as the task's, replacing any: one lock acquisition.
  void Install(TaskId id, Runtime runtime);
  // Drop the task's runtime (and its place in an upgrade's pending set).
  void Release(TaskId id);
  ImageRef Program(TaskId id) const;  // null without a runtime
  // The images (program, libraries, then DynamicLoad classes) of task `id`,
  // or of every task with a runtime when id == 0.
  std::vector<std::pair<TaskId, std::vector<ImageRef>>> Images(TaskId id) const;
  void AddDynLoaded(TaskId id, ImageRef image);
  // Unmap and forget the class loaded at `text_base`.
  Result<void> Unload(Task& task, uint32_t text_base);
  // kSysDload: bind the task's lazy slot reg(12) and jump to its target.
  Result<void> HandleDload(Kernel& kernel, Task& task);

  // Upgrade the library at normalized `path` to `new_blueprint`;
  // kUnavailable while another upgrade is in flight.
  Result<uint64_t> BeginUpgrade(const std::string& path, const std::string& new_blueprint);
  UpgradeStatus Status() const;
  // A DrainUpgrade round, after the queued background work ran: requeues a
  // reclaim a fault sent back to kDraining; false once no round can help.
  bool Advance();
  // Safepoint hook: attempt the task's OSR frame transfer.
  Result<void> HandleSafepoint(Kernel& kernel, Task& task);

 private:
  // One upgrade. The link writes its plan (images, transfer map, stub
  // addresses) before the repoint makes it kDraining; it is read only after
  // that. The images are dropped at the terminal phase.
  struct UpgradeJob {
    uint64_t id = 0;
    std::string path;     // normalized library path
    std::string lib_key;  // the lib-dynamic-impl key clients' slots name
    std::string new_blueprint;
    ImageRef old_impl, new_impl;
    ImageRef stubs;  // degradation stubs, or null when nothing was deleted
    FrameTransferMap map;
    std::map<std::string, uint32_t> degrade_addrs;  // deleted symbol -> stub

    UpgradePhase phase = UpgradePhase::kIdle;  // guarded by runtimes_mu_
    std::set<TaskId> pending;                  // guarded by runtimes_mu_
    // Deferral backoff: task -> instructions_retired before the next
    // transfer attempt (a failed attempt scanned the whole stack; don't
    // re-scan every instruction).
    std::map<TaskId, uint64_t> retry_at;  // guarded by runtimes_mu_
    std::string error;                    // guarded by runtimes_mu_

    // Repointed and not yet terminal: slots of the library bind new_impl.
    bool Rolling() const {
      return phase == UpgradePhase::kDraining || phase == UpgradePhase::kReclaiming;
    }
  };

  // The copy of library `key` that `task` binds: the one it maps; else, the
  // new version while an upgrade of it rolls out; else `image`, or the
  // cached image of `key` when `image` is null. A copy the task did not map
  // yet is mapped now, billing `first_use_cost`.
  Result<ImageRef> MapLibrary(Task& task, const std::string& key, ImageRef image,
                              uint64_t first_use_cost);
  // MapLibrary's step under runtimes_mu_: the copy `task` binds, recorded
  // as mapped (setting *fresh) unless it already was; null when it binds
  // `key`'s cached image and `image` is null.
  Result<ImageRef> Claim(Task& task, const std::string& key, ImageRef image, bool* fresh);

  void RunLink(const std::shared_ptr<UpgradeJob>& job);
  Result<void> Link(UpgradeJob& job);
  void RunRepoint(const std::shared_ptr<UpgradeJob>& job);
  void RunReclaim(const std::shared_ptr<UpgradeJob>& job);
  // The terminal phase: kDone, or kAborted for reason `why`. The job drops
  // its images.
  void End(const std::shared_ptr<UpgradeJob>& job, UpgradePhase phase, std::string why = {});
  // Releases `lock` (on runtimes_mu_). Before that, a draining job whose
  // pending set is empty moves to kReclaiming; its reclaim is queued after.
  void ReclaimIfDrained(std::unique_lock<std::mutex>& lock, std::shared_ptr<UpgradeJob> job);

  Kernel& kernel_;
  RuntimeHost& host_;
  mutable std::mutex runtimes_mu_;
  std::map<TaskId, Runtime> runtimes_;  // guarded by runtimes_mu_
  std::shared_ptr<UpgradeJob> upgrade_job_;  // guarded; the latest job
  uint64_t next_id_ = 0;                     // guarded by runtimes_mu_
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_TASK_RUNTIMES_H_
