// OmosServer — the persistent object/meta-object server (§3).
//
// The server owns: the hierarchical namespace of meta-objects and fragments,
// the blueprint evaluator (m-graph execution), the address-constraint
// solver, and the image cache. Program loading is a special case of class
// instantiation: clients ask for a meta-object by name (plus an optional
// specialization) and get back mapped segments and an entry point.
//
// Exec paths (§5):
//  * BootstrapExec   — models `#! /bin/omos`: a tiny bootstrap program plus
//                      one IPC round trip to the server.
//  * IntegratedExec  — OMOS wired into the kernel's exec(): no bootstrap
//                      load, no IPC round trip (the OSF/1 configuration that
//                      wins by 56% in Table 1).
// Both end with the server mapping cached segments into the task.
#ifndef OMOS_SRC_CORE_SERVER_H_
#define OMOS_SRC_CORE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cache.h"
#include "src/core/constraints.h"
#include "src/core/evaluator.h"
#include "src/core/namespace.h"
#include "src/core/task_runtimes.h"
#include "src/ipc/channel.h"
#include "src/ipc/message.h"
#include "src/linker/link.h"
#include "src/linker/module.h"
#include "src/objfmt/archive.h"
#include "src/os/kernel.h"
#include "src/os/loader.h"
#include "src/store/image_store.h"
#include "src/support/result.h"

namespace omos {

struct OmosServerConfig {
  SolverArenas arenas;
  uint64_t cache_capacity_bytes = 256ull << 20;
  // Extra user cycles modelling the bootstrap program's own execution.
  uint64_t bootstrap_user_cycles = 300;
};

// Concurrency model: many worker threads may call Instantiate /
// GetOrRebuild / ServeMessage / the exec paths at once. The cache, the
// namespace, the blueprint evaluator (with its memo), the placement solver,
// the kernel's task table and PhysMemory synchronize themselves. The
// server's own state is guarded by four locks, none held across a recursive
// Instantiate or a cache call that can build, plus the runtime table's
// own (src/core/task_runtimes.h). Only two have locks under them:
//
//   publish_mu_  — namespace publication (exclusive: every Define*,
//                  AddFragment, Restore and OptimizePlacements, so it also
//                  serializes those writers) vs an image's check-and-publish
//                  step (shared); it orders image publication only, never an
//                  evaluation. Under it: relink_mu_ (Restore), and the
//                  namespace's, cache's, memo's, solver's and store's own
//                  locks.
//   the runtime table's lock — see src/core/task_runtimes.h. Under it:
//                  Kernel::tasks_mu_ and PhysMemory's lock.
//
// monitor_mu_ (the monitor tables), relink_mu_ (the relink queue and the
// prelinked paths) and exec_channels_mu_ (the parked exec channels) have no
// lock taken under them. Nor has the solver's lock, which is a leaf taken
// wherever an image is destroyed: the image's placement lease drops its
// ranges then. So the cache and the server drop image references outside
// their own locks (ImageCache::Evict, ReleaseTask), and never under the
// runtime table's.
// exec_channels_mu_ is never held across Channel::Call: a BootstrapExec
// takes a channel off the list, calls, and parks it again. A warm hit takes
// no server lock at all: it goes straight to the cache.
//
// Task ownership: a task's address space, registers and accounting are
// touched only by the thread that drives it or, before StartTask, by the
// exec path that created it; no server lock covers them. So a wire
// kDynamicLoad must name a task that is not running. Owners call
// ReleaseTask before Kernel::DestroyTask: a Task* found under the runtime
// table's lock then stays valid while the lock is held.
//
// Cache misses are single-flight: concurrent Instantiates of one key elect
// a leader via ImageCache::JoinBuild and everyone shares its image. Inside
// the server images pass as references (ImageRef), and a task's runtime
// holds one for each image it maps, so eviction only drops the cache's
// reference. ImageCache::ReadLease exists only for callers of the public
// raw-pointer Instantiate: see there.
//
// Placement ownership: an image holds its own placement lease and its deps'
// images (CachedImage::placement, dep_images), so a range stays reserved
// while any cached image, dependent image or task runtime holds what lives
// there, and is freed when the last of them lets go. Nothing else frees a
// range: invalidation and layout moves only retire the key, so its next
// build places afresh and never lands on a range an old task still maps.
//
// `cache()` hands out a raw reference for tests and tools — use it only
// while no worker threads are in flight.
class OmosServer : private RuntimeHost {
 public:
  using Config = OmosServerConfig;

  OmosServer(Kernel& kernel, Config config = Config());
  ~OmosServer() override;

  Kernel& kernel() { return *kernel_; }

  // ---- Namespace administration --------------------------------------------
  // Define or redefine a meta-object. Redefinition invalidates every cached
  // image built from the old blueprint ("a library fix is instantly
  // incorporated into all clients", §2.1): each image whose recorded inputs
  // contain the path, and transitively every image linked against one of
  // those, is evicted and its placement retired, so the next instantiation
  // rebuilds against the new version at a fresh placement.
  Result<void> DefineMeta(std::string_view path, std::string_view blueprint);
  Result<void> DefineLibrary(std::string_view path, std::string_view blueprint) override;
  Result<void> AddFragment(std::string_view path, ObjectFile object);
  // Registers each member at `<dir>/<member-name>` and a meta-object at
  // `<dir>` merging all of them. Replacing an archive invalidates like the
  // other Define* calls.
  Result<void> AddArchive(std::string_view dir, const Archive& archive);
  std::vector<std::string> ListNamespace(std::string_view path) const {
    return namespace_.List(path);
  }
  const OmosNamespace& name_space() const { return namespace_; }

  // ---- Instantiation --------------------------------------------------------
  // Instantiate `path` under `spec`. On a cache miss the construction work
  // (parsing, module ops, linking) is performed and its simulated cost is
  // added to `*work_cycles` (may be null). Cache hits add only lookup cost.
  // The pointer is valid until the image is evicted, or, when the calling
  // thread holds an ImageCache::ReadLease on cache(), until that lease
  // closes: a caller racing redefinitions opens one first.
  Result<const CachedImage*> Instantiate(const std::string& path, const Specialization& spec,
                                         uint64_t* work_cycles);

  // Evaluate an anonymous blueprint into a Module (library dependencies are
  // resolved self-contained and merged as externals are not possible here,
  // so blueprints passed to this must be closed or rely on merge operands).
  Result<Module> EvaluateBlueprint(std::string_view text, uint64_t* work_cycles = nullptr);

  // ---- Exec paths -----------------------------------------------------------
  Result<TaskId> BootstrapExec(const std::string& path, std::vector<std::string> args,
                               const Specialization& spec = {});
  Result<TaskId> IntegratedExec(const std::string& path, std::vector<std::string> args,
                                const Specialization& spec = {});
  // Fleet-wide prelink exec: a prelinked `path` whose image is served with
  // no link on this request (warm from the cache, or adopted from an
  // attached store) maps with zero per-exec relocation for `prelink_lookup`
  // cycles (< omos_cache_lookup — no namespace traversal, no blueprint
  // normalization). Otherwise the exec falls back to a full Instantiate and
  // records the path; a prelinked path falling back (its image was evicted,
  // or a library moved) also queues the idle-lane relink job.
  Result<TaskId> PrelinkedExec(const std::string& path, std::vector<std::string> args);
  // `#! /bin/omos <meta-path>` interpreter-style exec from a SimFs file.
  Result<TaskId> ExecFile(const std::string& fs_path, std::vector<std::string> args,
                          bool integrated);

  // §5: "/bin, for example, can become a 'filesystem' backed only by OMOS".
  // Writes a `#!omos <meta>` interpreter file into the kernel's SimFs for
  // every meta-object under `namespace_dir`, so ordinary path-based exec
  // reaches the server. Returns the number of entries exported. SimFs is
  // not synchronized: call at setup time, as ExecFile and task syscalls
  // read it unlocked.
  Result<int> ExportNamespaceToFs(std::string_view namespace_dir, std::string_view fs_dir);

  // Map a cached program image (plus its constrained library deps) into a
  // task, registering lazy-stub state. Returns the entry address. A dep no
  // longer at the bases the program was linked against (moved since the
  // Instantiate) is kUnavailable before anything is mapped: instantiate
  // again.
  Result<uint32_t> MapProgram(Task& task, const CachedImage& program);

  // Drop per-task runtime state. Call before Kernel::DestroyTask: the
  // upgrade repoint relies on it to use the tasks it finds.
  void ReleaseTask(TaskId id) { tasks_.Release(id); }

  // ---- Live upgrade (src/upgrade/, docs/upgrade.md) -------------------------
  // Hot-patch `path` (a lib-dynamic library) to `new_blueprint` without
  // restarting its clients: the new version links in the background (idle
  // lane — no foreground stall), a live task that has not bound the
  // library yet binds the new version from then on, frames still executing
  // old code migrate OSR-style at the next safepoint, and the old version's
  // frames are reclaimed once nothing references them. Constrained
  // (non-lazy) clients pick the new version up at their next Instantiate,
  // like an ordinary redefinition.
  // Returns the upgrade id; kUnavailable while another upgrade is in flight.
  Result<uint64_t> BeginUpgrade(const std::string& path, const std::string& new_blueprint);

  using UpgradeStatus = omos::UpgradeStatus;
  UpgradeStatus UpgradeStatusNow() const { return tasks_.Status(); }
  // Drive the upgrade as far as it can go from this thread: run queued
  // background work and, when every task has migrated, perform the
  // reclamation. Tasks still running old frames on other threads migrate on
  // their own threads (safepoints); callers poll until terminal().
  UpgradeStatus DrainUpgrade();

  // ---- Dynamic loading (dld-style, §5) --------------------------------------
  // Link a blueprint (or a namespace path) into the running `task`, bound to
  // the symbols of the program version the task maps. The linked class is a
  // cached image keyed by the blueprint text plus that program image's key
  // and integrity sums, so another program, or another version of it, gets
  // its own binding. A redefinition of anything the class read evicts it
  // like any other image, and so does one of the program while the class's
  // version is the cached one.
  struct DynLoadResult {
    uint32_t text_base = 0;
    std::vector<uint32_t> symbol_values;
  };
  Result<DynLoadResult> DynamicLoad(Task& task, const std::string& blueprint_or_path,
                                    const std::vector<std::string>& symbols);

  // Dynamic unlinking (paper §9: dld offers it; "since OMOS retains access
  // to the symbol table and relocation information for loaded modules,
  // unlinking support could be added" — here it is). Unmaps a class
  // previously loaded into `task` by DynamicLoad, identified by the text
  // base DynamicLoad returned. The cached image survives for other tasks.
  Result<void> DynamicUnload(Task& task, uint32_t text_base) {
    return tasks_.Unload(task, text_base);
  }

  // ---- Monitoring / reordering (§4.1) ---------------------------------------
  // Call counts recorded for a "monitor"-specialized instantiation of `path`.
  Result<std::vector<std::pair<std::string, uint64_t>>> MonitorCounts(
      const std::string& path) const;
  // Record the preferred routine order for `path` (a meta-object) from
  // monitor counts. The order is part of the path's namespace entry: the
  // default and "reorder" specializations lay the module out by it, and
  // recording a new one evicts every image that read the path, like a
  // redefinition, so the next default exec builds the reordered layout.
  Result<void> DerivePreferredOrder(const std::string& path);
  bool HasPreferredOrder(const std::string& path) const;

  // ---- Idle-time relinking (§4.1) -------------------------------------------
  // One relink job on the shared pool's idle lane (it runs only while no
  // foreground request waits) re-links every prelinked path: recorded
  // placement conflicts feed the constraint system, so a conflict, a
  // prelinked exec that fell back or a newly derived routine order queues a
  // namespace re-solve and re-instantiates each prelinked path at it.
  // DrainBackgroundWork runs queued idle-time jobs on the caller and waits
  // for any a worker already picked up; returns how many the caller ran —
  // a deterministic "all background work done" point for tests.
  size_t DrainBackgroundWork();

  // ---- Fleet-wide prelink (§4.1 feedback loop) ------------------------------
  // Instantiate every meta-object under `prefix` (default spec) and record
  // each as prelinked. Returns the number of paths (re)recorded.
  Result<int> PrelinkNamespace(const std::string& prefix);

  // ---- Crash / recovery -----------------------------------------------------
  // Serialize the server's durable state — the namespace (blueprints,
  // fragments and the meta-objects' routine orders) and the constraint
  // solver's placement assignments — into a self-checking text snapshot.
  // The image cache is deliberately NOT serialized here: a restarted server
  // repopulates it on demand — from the attached ImageStore when one holds
  // a matching record (no re-link), or by rebuilding from the blueprint.
  // Because the placements are restored, both paths produce images
  // byte-identical (same bases, same entry points) to the pre-crash
  // counterparts. Snapshot()/Restore() are the inner codec of the
  // store-backed restart (PersistTo/RestoreFromStore).
  std::string Snapshot() const;
  // Repopulate a (typically fresh) server from Snapshot() output. Damaged
  // snapshots are rejected with kCorrupted before any state is applied, and
  // so is a snapshot with a row that does not parse or does not fit (an
  // order for no meta-object, a placement that clashes): all or nothing.
  Result<void> Restore(std::string_view snapshot);

  // ---- Persistent image store (PR 6) ----------------------------------------
  // Attach an opened ImageStore as the image cache's second tier: cache
  // misses probe the store by (cache key, content fingerprint) and adopt
  // hits without re-linking; successful cold builds are published back.
  // Call at startup, before serving traffic; the store must outlive the
  // server. Pass nullptr to detach.
  void AttachStore(ImageStore* store) { store_ = store; }
  ImageStore* store() const { return store_; }
  // Durably persist Snapshot() into `store` (tmp + fsync + atomic rename).
  Result<void> PersistTo(ImageStore& store);
  // Store-backed restart: load the persisted snapshot out of `store`,
  // Restore() it, and attach the store so instantiations re-use the
  // persisted images. kNotFound when the store holds no snapshot yet.
  Result<void> RestoreFromStore(ImageStore& store);

  // ---- Administration ---------------------------------------------------------
  // Feed recorded placement conflicts back into the constraint system
  // (§4.1, "this could be done fully automatically"): re-pack every known
  // object and evict cached images whose addresses changed so they rebuild
  // at their new homes, then run the relink job's body on the caller.
  // Returns the number of images the re-pack invalidated.
  int OptimizePlacements();

  // Debugger support (§4.1: "we plan to enhance gdb to interface directly
  // with OMOS"): the full symbol table of the images `task` maps (program,
  // libraries, dynamically loaded classes), whatever was redefined since.
  Result<std::vector<ImageSymbol>> SymbolsForTask(TaskId id) const;

  // Symbol-level profile of the CycleProfiler samples attributed to `id`
  // (0 = every task with runtime state), resolved through the symbol
  // indexes of the images each task maps. Human-readable text; see
  // docs/observability.md.
  Result<std::string> ProfileForTask(TaskId id) const;

  // ---- IPC ------------------------------------------------------------------
  // Which transport exec-protocol clients (BootstrapExec, MakeChannel)
  // speak. The cost shapes differ by ~20x (docs/perf.md#transports):
  //   kPort   — message queue, flat ipc_round_trip per trip (the default;
  //             the paper's measured configuration)
  //   kStream — byte stream, ipc_round_trip base + per-byte framing
  //   kRing   — doors-style shared-memory ring, ring_handoff + per-slot
  enum class ExecTransport { kPort, kStream, kRing };
  void SetExecTransport(ExecTransport transport) {
    exec_transport_.store(transport, std::memory_order_relaxed);
  }
  ExecTransport exec_transport() const {
    return exec_transport_.load(std::memory_order_relaxed);
  }

  // Handles single-message frames AND batch frames (EncodeRequestBatch):
  // batch members execute in parallel on the shared pool and their replies
  // come back in one frame, so a batch costs its clients one round trip.
  std::vector<uint8_t> ServeMessage(const std::vector<uint8_t>& request_bytes);
  // Request executor: decode + handle + encode on the shared thread pool, so
  // multiple clients' Instantiate/Get calls proceed in parallel. `done` is
  // invoked with the encoded reply on a pool thread (or inline when the
  // pool has no workers). Safe to call from many threads.
  void ServeAsync(std::vector<uint8_t> request_bytes,
                  std::function<void(std::vector<uint8_t>)> done);
  // A client channel bound to this server over exec_transport(), billing
  // that transport's cost shape from the kernel's cost model. Every call
  // builds a new channel; BootstrapExec instead reuses parked ones (see
  // TakeExecChannel).
  Channel MakeChannel();
  // Same, with an explicit transport choice (benches compare all three).
  Channel MakeChannel(ExecTransport transport);

  const CacheStats& cache_stats() const { return cache_.stats(); }
  std::vector<ConflictRecord> conflicts() const { return solver_.conflicts(); }
  // Live placements (current or retired): the address ranges held now.
  size_t placement_count() const { return solver_.placed_count(); }
  ImageCache& cache() { return cache_; }

 private:
  // The exec step: Instantiate for `task`, billing it the build work plus
  // the cache lookup, then MapProgram; redone while a library the program
  // was linked against moved before it could map (a refused attempt stays
  // billed). Returns the mapped program.
  Result<ImageRef> InstantiateAndMap(Task& task, const std::string& path,
                                     const Specialization& spec);
  // InstantiateAndMap with `instantiate(&work)` as the instantiation.
  Result<ImageRef> MapInstantiated(
      Task& task, const std::function<Result<ImageRef>(uint64_t*)>& instantiate);
  // Instantiate, returning the reference the public call pins to a lease.
  Result<ImageRef> InstantiateRef(const std::string& path, const Specialization& spec,
                                  uint64_t* work_cycles);
  // InstantiateRef's tiers: the warm image, then (if `adopt`) an attached
  // store, then a link. A caller whose own adoption from the store just
  // missed skips the store.
  Result<ImageRef> InstantiateTiers(const std::string& path, const Specialization& spec,
                                    uint64_t* work_cycles, bool adopt);
  Result<ImageRef> BuildImage(const std::string& path, const Specialization& spec,
                              const std::string& key, BuildTracker& tracker);

  // Link an evaluated blueprint under `key`, placed by `hints` overlaid
  // with the value's own and then `overrides`: bind each library it uses
  // (eager ones linked against, lazy ones through generated stub slots;
  // their images become cached.dep_images), then Link. Unpublished.
  Result<CachedImage> LinkValue(const std::string& key, EvalValue value, PlacementHints hints,
                                const PlacementHints& overrides, BuildTracker& tracker);
  // The link step of every build: place `client`, link it against the
  // `libraries` (LayoutSpec::libraries; images in cached.dep_images) and
  // bill the link work. `cached` carries the deps and stub slots; it comes
  // back with the image and the tracker's reads as its inputs.
  Result<CachedImage> Link(const std::string& key, const Module& client,
                           const PlacementHints& hints, std::vector<const LinkedImage*> libraries,
                           CachedImage cached, BuildTracker& tracker);
  // The tail of every build: publish a linked image under `key`. If a read
  // was redefined or a placement retired meanwhile, nothing is published
  // and tracker.superseded is set, for BuildCurrent to redo the build.
  Result<ImageRef> Publish(const std::string& key, CachedImage cached, BuildTracker& tracker);

  // The one way an image enters the cache, for a link and a store adoption
  // alike: materialize its segments, then, holding publish_mu_ shared, Put
  // it under `key` only while every read in cached.inputs is current and
  // every placement it holds is current. Otherwise nothing is published
  // (dropping `cached` frees its placement unless another holder has it)
  // and the result is nullptr.
  Result<ImageRef> PublishIfCurrent(const std::string& key, CachedImage cached);
  // The check PublishIfCurrent makes, for a new or an evicted image alike:
  // every read current, its own placement and each dep's still current.
  // Call it holding publish_mu_ shared.
  bool Publishable(const CachedImage& image);

  // Frame-backed master segments (shared text + CoW data) for a freshly
  // linked or store-adopted image. One copy into phys memory; every client
  // task maps against these masters.
  Result<void> MaterializeSegments(CachedImage& cached);

  // ---- Persistent store plumbing (all no-ops when store_ == nullptr) -------
  // Whether images of (path, spec) go to and come from the store. A monitor
  // build registers the path's call counters as it links, so it is never
  // stored or adopted. Every other build is: the fingerprint covers the
  // routine order that a "reorder" (or ordered default) build lays out by.
  static bool StorableSpec(const Specialization& spec);
  // Content fingerprint over everything that goes into the link: the path,
  // the spec string, and the transitive closure of blueprint texts, routine
  // orders and object-file bytes reachable from the construction
  // expression. Matching fingerprints ⇒ a stored image was linked from
  // identical inputs. The paths visited and the entries they resolved to
  // land in `*inputs` when non-null.
  Result<uint64_t> StoreFingerprint(const std::string& norm, const Specialization& spec,
                                    std::vector<NamespaceRead>* inputs = nullptr) const;
  // Probe the store on a cache miss; on a hit, verify dependency placements,
  // re-reserve the stored bases and publish through PublishIfCurrent.
  // nullptr on a miss, any verification failure or a refused publish (the
  // caller cold-builds).
  ImageRef TryAdoptFromStore(const std::string& norm, const Specialization& spec,
                             const std::string& key, BuildTracker& tracker);
  // Publish a freshly built image; failures are counted, never fatal.
  void PublishToStore(const std::string& norm, const Specialization& spec,
                      const CachedImage& image, BuildTracker& tracker);

  // Cache lookup that survives eviction and bit-rot: a missing or corrupted
  // entry is transparently rebuilt from its blueprint via the cache key
  // ("<path>§<spec>"). Work cycles for a rebuild accumulate in *work. A
  // caller that holds an evicted copy of the key's image passes it as
  // `held`: it is re-cached instead of rebuilt while it is still current
  // and its sums verify (an LRU eviction changes nothing it was built from).
  Result<ImageRef> GetOrRebuild(const std::string& cache_key, uint64_t* work,
                                const ImageRef& held = nullptr) override;
  // RuntimeHost: what the runtime table and the live upgrade use.
  Result<EvalValue> EvaluateLibrary(std::string_view path, std::string_view blueprint,
                                    uint64_t* work) override;
  Result<ImageRef> LinkDetached(const std::string& name, EvalValue value,
                                uint64_t* work) override;

  // Charge linking work for an image build.
  void ChargeLinkWork(const LinkCounts& stats, uint32_t symbol_count, BuildTracker& tracker) const;

  // Keys of cached images that depend on `roots`: roots are namespace paths
  // (matched against CachedImage::inputs) or cache keys (matched against
  // CachedImage::dep_images). `transitive` also collects dependents of
  // dependents.
  std::set<std::string> CachedDependents(std::set<std::string> roots, bool transitive) const;
  // Evict every cached image that read one of `paths`, transitively through
  // deps, and retire their placements.
  void InvalidateImagesOf(const std::vector<std::string>& paths);
  // Every namespace mutation: under publish_mu_ (exclusive),
  // invalidate the images that read `paths`, run `publish`, then have the
  // evaluator drop the memos it superseded.
  Result<void> Redefine(const std::vector<std::string>& paths,
                        const std::function<Result<void>()>& publish);
  // Evict the images whose placements moved plus the images linked against
  // them, then adopt the new homes. Returns how many were cached.
  int EvictMoved(const std::vector<PlacementRecord>& moved);

  // Exec channel reuse. A ring channel is two 64-slot rings plus a stream
  // fallback; building one per exec costs more host time than the round
  // trip it carries. TakeExecChannel pops a parked channel of `transport`
  // (dropping parked channels of any other transport) or builds one with
  // MakeChannel(transport), counting ipc.exec_channels.created.
  // ParkExecChannel returns a channel whose call delivered and that is not
  // demoted to its fallback; the caller drops any other, so every exec
  // starts on a channel in the state a fresh one would have. Billing is per
  // round trip either way, so reuse changes no simulated cycle.
  Channel TakeExecChannel(ExecTransport transport);
  void ParkExecChannel(ExecTransport transport, Channel channel);

  Result<void> HandleMonLog(Kernel& kernel, Task& task);
  Result<void> HandleOmosLoadSys(Kernel& kernel, Task& task);
  Result<void> HandleOmosUnloadSys(Kernel& kernel, Task& task);

  OmosReply HandleRequest(const OmosRequest& request);
  OmosReply HandleRequestImpl(const OmosRequest& request);
  OmosReply HandleIntrospect(const OmosRequest& request);
  // Decode + execute a batch frame: members run in parallel on the shared
  // pool (ParallelFor, caller participates); a bad member yields an
  // ok=false reply in its slot without touching the other N-1.
  std::vector<uint8_t> ServeBatch(const std::vector<uint8_t>& request_bytes);

  // Queue `job` on the pool's idle lane; it runs only while the server is
  // alive (see IdleJobGuard).
  void SubmitIdle(std::function<void()> job) override;

  // Shared between the server and its queued background jobs, so a job that
  // outlives the server (still parked on the pool's background lane) sees
  // alive == false and becomes a no-op. job_mu serializes job execution
  // against server destruction (and jobs against each other — idle-time
  // work has no concurrency claim to make).
  struct IdleJobGuard {
    std::mutex job_mu;
    bool alive = true;
  };

  // Queue the relink job for the prelink re-solve (dropped while no path is
  // prelinked). At most one job is queued; it serves every request made
  // before it starts.
  void ScheduleRelink();
  // The relink job's body (OptimizePlacements runs it on the caller):
  // SolveNamespace, evict what moved and re-instantiate every prelinked
  // path.
  void RunRelink();

  Kernel* kernel_;
  Config config_;
  OmosNamespace namespace_;   // internally synchronized
  BlueprintEvaluator evaluator_{namespace_};  // internally synchronized; owns the memo
  ImageCache cache_;          // internally synchronized
  // Second cache tier; set at startup (AttachStore/RestoreFromStore), read
  // on miss paths. Not owned.
  ImageStore* store_ = nullptr;

  // Lock hierarchy (see class comment): never hold any of these across a
  // recursive Instantiate or a cache call that can build (JoinBuild
  // leadership is not a lock). relink_mu_, exec_channels_mu_ and
  // publish_mu_ are declared with the state they guard below.
  mutable std::mutex monitor_mu_;

  ConstraintSolver solver_;   // internally synchronized
  // What each task maps, and the live upgrade. Internally synchronized.
  TaskRuntimes tasks_{*kernel_, *this};
  // Monitoring: program path -> function names (slot order) and counts.
  // Both guarded by monitor_mu_.
  std::map<std::string, std::vector<std::string>> monitor_names_;
  std::map<std::string, std::vector<uint64_t>> monitor_counts_;

  std::shared_ptr<IdleJobGuard> idle_guard_ = std::make_shared<IdleJobGuard>();

  // Relink job state, guarded by relink_mu_ (a leaf lock): the queued flag
  // and the prelinked paths (normalized), which the job re-links.
  mutable std::mutex relink_mu_;
  bool relink_queued_ = false;
  std::set<std::string> prelinked_;

  // Orders namespace publication against build publication. A
  // redefinition holds it exclusively from invalidation through publish; a
  // build holds it shared while it checks that its reads are current and
  // publishes. A build thus either publishes before the invalidation (which
  // evicts it) or sees the new entries and publishes nothing, so no image
  // built from a superseded entry outlives its redefinition.
  mutable std::shared_mutex publish_mu_;

  // Parked exec channels, each tagged with the transport it speaks. Guarded
  // by exec_channels_mu_ (a leaf lock, never held across Channel::Call).
  // Bounded by the peak number of concurrent BootstrapExec calls: a channel
  // is either in use by one exec or parked here.
  struct ParkedChannel {
    ExecTransport transport;
    Channel channel;
  };
  std::mutex exec_channels_mu_;
  std::vector<ParkedChannel> exec_channels_;  // guarded by exec_channels_mu_

  std::atomic<ExecTransport> exec_transport_{ExecTransport::kPort};
};

}  // namespace omos

#endif  // OMOS_SRC_CORE_SERVER_H_
