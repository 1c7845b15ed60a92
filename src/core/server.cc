#include "src/core/server.h"

#include <algorithm>
#include <charconv>

#include <chrono>

#include "src/core/stubgen.h"
#include "src/support/faultsim.h"
#include "src/ipc/ring_transport.h"
#include "src/objfmt/backend.h"
#include "src/support/log.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace omos {

static_assert(SolverArenas{}.data_hi <= kHeapBase, "a placement may overlap the brk heap");

namespace {

// Regex alternation matching exactly the given names: "^(a|b|c)$".
std::string NamesPattern(const std::vector<std::string>& names) {
  std::string pattern = "^(";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) {
      pattern.push_back('|');
    }
    pattern += names[i];
  }
  pattern += ")$";
  return pattern;
}

// The executable meta-objects (every entry but fragments) listed under
// namespace directory `dir`, as (name, full path) pairs.
std::vector<std::pair<std::string, std::string>> ExecutableMetas(const OmosNamespace& name_space,
                                                                 std::string_view dir) {
  std::string norm = OmosNamespace::Normalize(dir);
  std::vector<std::pair<std::string, std::string>> metas;
  for (const std::string& name : name_space.List(norm)) {
    std::string path = norm == "/" ? "/" + name : norm + "/" + name;
    auto entry = name_space.Lookup(path);
    if (entry.ok() && (*entry)->kind != EntryKind::kFragment) {
      metas.emplace_back(name, std::move(path));
    }
  }
  return metas;
}

// Maps a cached image into `task`: text shared from its master segment and
// data copy-on-write against its data master. An image with no text master
// (empty text) maps by private copy.
Result<void> MapCached(Kernel& kernel, Task& task, const CachedImage& cached) {
  if (cached.text_seg.has_value()) {
    return MapImageWithSharedText(kernel, task, cached.image, *cached.text_seg,
                                  cached.data_seg ? &*cached.data_seg : nullptr);
  }
  return MapLinkedImage(kernel, task, cached.image, "");
}

// One build per key across concurrent misses (ImageCache::JoinBuild): the
// leader runs `build` and publishes; followers share its image, or build
// themselves when it failed (a first-hand error, or a success if the failure
// was transient). A leader elected just after an earlier leader published
// (its miss raced that publish) takes the published image.
template <typename Build>
Result<ImageRef> SingleFlight(ImageCache& cache, const std::string& key, Build&& build) {
  ImageCache::MissJoin join = cache.JoinBuild(key);
  if (!join.leader && join.image != nullptr) {
    return join.image;
  }
  if (ImageRef published = join.leader ? cache.Peek(key) : nullptr) {
    cache.FinishBuild(key, published);
    return published;
  }
  Result<ImageRef> result = build();
  if (join.leader) {
    cache.FinishBuild(key, result.ok() ? *result : nullptr);
  }
  return result;
}

// Runs `build` until its image publishes: LinkAndPublish refuses an image
// whose reads were redefined mid-build (tracker.superseded), and the redo
// reads the new definitions. Work of refused attempts stays billed. Ends as
// soon as one build runs without a redefinition of what it read.
template <typename Tracker, typename Build>
Result<ImageRef> BuildCurrent(Tracker& tracker, Build&& build) {
  while (true) {
    Result<ImageRef> built = build();
    if (built.ok() || !tracker.superseded) {
      return built;
    }
    tracker.reads.clear();
    tracker.nested.clear();
    tracker.max_depth = 0;
    tracker.superseded = false;
  }
}

}  // namespace

// ---- Construction -----------------------------------------------------------

OmosServer::OmosServer(Kernel& kernel, Config config)
    : kernel_(&kernel), config_(config), cache_(config.cache_capacity_bytes),
      solver_(config.arenas) {
  kernel_->SetSysHook(kSysDload,
                      [this](Kernel& k, Task& t) { return HandleDload(k, t); });
  kernel_->SetSysHook(kSysMonLog,
                      [this](Kernel& k, Task& t) { return HandleMonLog(k, t); });
  kernel_->SetSysHook(kSysOmosLoad,
                      [this](Kernel& k, Task& t) { return HandleOmosLoadSys(k, t); });
  kernel_->SetSysHook(kSysOmosUnload,
                      [this](Kernel& k, Task& t) { return HandleOmosUnloadSys(k, t); });
  kernel_->SetSafepointHook([this](Kernel& k, Task& t) { return HandleSafepoint(k, t); });
  idle_guard_->server = this;
}

OmosServer::~OmosServer() {
  // Background jobs hold a shared_ptr to idle_guard_, not to the server;
  // blank the back-pointer (waiting out any job mid-run) so jobs that fire
  // after this point are no-ops.
  std::lock_guard<std::mutex> lock(idle_guard_->job_mu);
  idle_guard_->server = nullptr;
}

std::set<std::string> OmosServer::CachedDependents(std::set<std::string> roots,
                                                   bool transitive) const {
  std::vector<ImageRef> images;
  for (const std::string& key : cache_.Keys()) {
    if (ImageRef image = cache_.Peek(key)) {
      images.push_back(std::move(image));
    }
  }
  auto depends = [&roots](const CachedImage& image) {
    return std::any_of(roots.begin(), roots.end(),
                       [&](const std::string& root) {
                         return image.inputs != nullptr && image.inputs->Reads(root);
                       }) ||
           std::any_of(image.dep_images.begin(), image.dep_images.end(),
                       [&](const ImageRef& dep) { return roots.count(dep->key) != 0; });
  };
  std::set<std::string> found;
  for (bool grew = true; grew;) {
    grew = false;
    for (const ImageRef& image : images) {
      if (found.count(image->key) == 0 && depends(*image)) {
        found.insert(image->key);
        grew = transitive;
      }
    }
    roots.insert(found.begin(), found.end());
  }
  return found;
}

void OmosServer::InvalidateImagesOf(const std::vector<std::string>& paths) {
  std::set<std::string> victim_paths;
  for (const std::string& path : paths) {
    victim_paths.insert(OmosNamespace::Normalize(path));
  }
  for (const std::string& key : CachedDependents(victim_paths, /*transitive=*/true)) {
    // Retired, not freed: a task may still map the superseded version, and
    // the rebuild must not land on it.
    solver_.Retire(key);
    cache_.Evict(key);
    std::string_view path_part = key;
    SplitCacheKey(key, &path_part, nullptr);
    victim_paths.emplace(path_part);
  }
  // Persisted images of the victims are stale too. Space management only:
  // a stale record is already unreachable (its fingerprint covers the old
  // inputs), so a failed tombstone costs bytes, not correctness.
  if (store_ != nullptr) {
    for (const std::string& victim : victim_paths) {
      (void)store_->InvalidatePrefix(victim + std::string(kCacheKeySep));
    }
  }
}

int OmosServer::EvictMoved(const std::vector<PlacementRecord>& moved) {
  std::set<std::string> keys;
  for (const PlacementRecord& record : moved) {
    keys.insert(record.object);
  }
  std::set<std::string> victims = CachedDependents(keys, /*transitive=*/false);
  victims.insert(keys.begin(), keys.end());
  int evicted = 0;
  for (const std::string& key : victims) {
    if (cache_.Contains(key)) {
      cache_.Evict(key);
      ++evicted;
    }
  }
  // The old images are gone (unless a task still maps one): claim the new
  // homes, so the rebuilds land there.
  solver_.AdoptPlacements(moved);
  return evicted;
}

Result<void> OmosServer::Redefine(const std::vector<std::string>& paths,
                                  const std::function<Result<void>()>& publish) {
  std::unique_lock<std::shared_mutex> publishing(publish_mu_);
  InvalidateImagesOf(paths);
  Result<void> published = publish();
  evaluator_.DropStaleMemos();
  return published;
}

Result<void> OmosServer::DefineMeta(std::string_view path, std::string_view blueprint) {
  return Redefine({std::string(path)},
                  [&] { return namespace_.DefineMeta(path, blueprint, EntryKind::kMeta); });
}

Result<void> OmosServer::DefineLibrary(std::string_view path, std::string_view blueprint) {
  return Redefine({std::string(path)},
                  [&] { return namespace_.DefineMeta(path, blueprint, EntryKind::kLibrary); });
}

Result<void> OmosServer::AddFragment(std::string_view path, ObjectFile object) {
  return Redefine({std::string(path)},
                  [&] { return namespace_.AddFragment(path, std::move(object)); });
}

Result<void> OmosServer::AddArchive(std::string_view dir, const Archive& archive) {
  std::vector<std::string> paths{std::string(dir)};
  std::string meta = "(merge";
  for (const ObjectFile& member : archive.members()) {
    paths.push_back(StrCat(dir, "/", member.name()));
    meta += " " + paths.back();
  }
  meta += ")";
  return Redefine(paths, [&]() -> Result<void> {
    for (size_t i = 0; i < archive.members().size(); ++i) {
      OMOS_TRY_VOID(namespace_.AddFragment(paths[i + 1], archive.members()[i]));
    }
    return namespace_.DefineMeta(dir, meta, EntryKind::kMeta);
  });
}

Result<Module> OmosServer::EvaluateBlueprint(std::string_view text, uint64_t* work_cycles) {
  OMOS_TRY(Sexpr expr, ParseSexpr(text));
  BuildTracker tracker;
  OMOS_TRY(EvalValue value, evaluator_.Eval(expr, tracker));
  if (work_cycles != nullptr) {
    *work_cycles += tracker.work;
  }
  return BlueprintEvaluator::RequireModule(std::move(value), "blueprint");
}

// ---- Instantiation ----------------------------------------------------------

void OmosServer::ChargeLinkWork(const LinkCounts& stats, uint32_t symbol_count,
                                BuildTracker& tracker) const {
  const CostModel& costs = kernel_->costs();
  tracker.work += costs.header_parse * stats.fragments;
  tracker.work += costs.symbol_parse * symbol_count;
  tracker.work += costs.reloc_apply * stats.relocations_applied;
  tracker.work += costs.symbol_lookup * stats.refs_bound;
}

namespace {

// Warm hits emit a one-timestamp instant, 1-in-8 sampled per thread (the
// first hit always emits). At warm-hit rates the unsampled stream would
// cycle the whole trace ring in milliseconds and its emit cost would
// rival the rest of the hit path; exact hit counts live in cache.hits.
void TraceWarmHitSampled(const std::string& norm) {
  thread_local uint32_t hit_count = 0;
  if ((hit_count++ & 7) == 0) {
    TraceInstant("server.instantiate.hit", norm);
  }
}

}  // namespace

Result<const CachedImage*> OmosServer::Instantiate(const std::string& path,
                                                   const Specialization& spec,
                                                   uint64_t* work_cycles) {
  OMOS_TRY(ImageRef image, InstantiateRef(path, spec, work_cycles));
  return cache_.PinToLease(std::move(image));
}

Result<ImageRef> OmosServer::InstantiateRef(const std::string& path, const Specialization& spec,
                                            uint64_t* work_cycles) {
  return InstantiateTiers(path, spec, work_cycles, store_ != nullptr && StorableSpec(spec));
}

Result<ImageRef> OmosServer::InstantiateTiers(const std::string& path, const Specialization& spec,
                                              uint64_t* work_cycles, bool adopt) {
  std::string norm = OmosNamespace::Normalize(path);
  std::string key = MakeCacheKey(norm, spec.ToKeyString());
  if (ImageRef warm = cache_.Get(key)) {
    TraceWarmHitSampled(norm);
    return warm;
  }
  // Cold path: the span covers single-flight election and the build. N
  // concurrent misses of one key do the construction work once and share
  // the image (CacheStats::single_flight_waits counts the followers).
  TraceSpan trace("server.instantiate", norm);
  BuildTracker tracker;
  auto result = SingleFlight(cache_, key, [&]() -> Result<ImageRef> {
    // Second tier: a persisted image linked from identical inputs adopts
    // straight into the cache — no evaluation, no relocation.
    if (adopt) {
      if (ImageRef adopted = TryAdoptFromStore(norm, spec, key, tracker)) {
        return adopted;
      }
    }
    auto built = BuildCurrent(tracker, [&] { return BuildImage(path, spec, key, tracker); });
    if (built.ok() && store_ != nullptr && StorableSpec(spec)) {
      PublishToStore(norm, spec, **built, tracker);
    }
    return built;
  });
  if (work_cycles != nullptr) {
    *work_cycles += tracker.work;
  }
  trace.AddSimCycles(0, tracker.work);
  return result;
}

Result<ImageRef> OmosServer::InstantiateAndMap(Task& task, const std::string& path,
                                               const Specialization& spec) {
  return MapInstantiated(task, [&](uint64_t* work) { return InstantiateRef(path, spec, work); });
}

Result<ImageRef> OmosServer::MapInstantiated(
    Task& task, const std::function<Result<ImageRef>(uint64_t*)>& instantiate) {
  while (true) {
    uint64_t work = 0;
    OMOS_TRY(ImageRef image, instantiate(&work));
    task.BillSys(work + kernel_->costs().omos_cache_lookup);
    Result<uint32_t> mapped = MapProgram(task, *image);
    if (mapped.ok()) {
      return image;
    }
    if (mapped.error().code() != ErrorCode::kUnavailable) {
      return mapped.error();
    }
    // The redefinition that moved the library normally evicted the program
    // too. One still cached can never map: evict it so the retry rebuilds.
    if (cache_.Peek(image->key) == image) {
      cache_.Evict(image->key);
    }
  }
}

// ---- Idle-time relinking --------------------------------------------------------

size_t OmosServer::DrainBackgroundWork() {
  size_t ran = ThreadPool::Global().DrainBackground();
  // A worker may have grabbed a job just before the drain; wait it out so
  // callers observe a stable post-relink state.
  ThreadPool::Global().WaitIdle();
  return ran;
}

void OmosServer::SubmitIdle(std::function<void(OmosServer&)> job) {
  // The job holds the guard, not the server, so it degrades to a no-op if
  // the server is gone by the time it runs.
  std::shared_ptr<IdleJobGuard> guard = idle_guard_;
  ThreadPool::Global().SubmitBackground([guard, job = std::move(job)] {
    std::lock_guard<std::mutex> alive(guard->job_mu);
    if (guard->server != nullptr) {
      job(*guard->server);
    }
  });
}

void OmosServer::ScheduleRelink() {
  {
    std::lock_guard<std::mutex> lock(relink_mu_);
    if (prelinked_.empty()) {
      return;  // nothing is prelinked, so a re-solve has no client
    }
    if (relink_queued_) {
      return;  // the queued job serves every request made before it starts
    }
    relink_queued_ = true;
  }
  // Queue on the background lane: the pool runs it only when no foreground
  // request is pending — the paper's "during idle time".
  SubmitIdle([](OmosServer& server) {
    {
      std::lock_guard<std::mutex> lock(server.relink_mu_);
      server.relink_queued_ = false;  // requests after this point re-queue
    }
    server.RunRelink();
  });
}

Result<ImageRef> OmosServer::GetOrRebuild(const std::string& cache_key, uint64_t* work,
                                          const ImageRef& held) {
  if (ImageRef hit = cache_.Get(cache_key)) {
    return hit;
  }
  if (held != nullptr) {
    // Re-cached like a publication: a redefinition either ran before the
    // check (and is seen) or runs after the readmit (and evicts it).
    std::shared_lock<std::shared_mutex> publishing(publish_mu_);
    if (ImageRef readmitted = Publishable(*held) ? cache_.Readmit(held) : nullptr) {
      return readmitted;
    }
  }
  std::string_view path_part;
  std::string_view spec_part;
  if (!SplitCacheKey(cache_key, &path_part, &spec_part)) {
    return Err(ErrorCode::kNotFound,
               StrCat("image not cached and key carries no blueprint path: ", cache_key));
  }
  std::string path(path_part);
  OMOS_TRY(Specialization spec, Specialization::FromKeyString(spec_part));
  return InstantiateRef(path, spec, work);
}

Result<ImageRef> OmosServer::BuildImage(const std::string& path, const Specialization& spec,
                                        const std::string& key, BuildTracker& tracker) {
  TraceSpan trace("server.build_image", key);
  OMOS_TRY(BlueprintEvaluator::Evaluated root, evaluator_.EvalPath(path, tracker));
  const NamespaceEntry& entry = *root.entry;

  EvalValue value;
  // A recorded routine order is part of the entry, so the default build
  // applies it and a changed order supersedes the image like any input.
  bool reorder = spec.name == "reorder" || (spec.name.empty() && !entry.routine_order.empty());
  if (spec.name == "monitor" || reorder) {
    OMOS_TRY(Module mono, evaluator_.FoldInLibraries(std::move(root.value), path, tracker));
    if (spec.name == "monitor") {
      // Collect the text-section function exports to wrap.
      OMOS_TRY(const SymbolSpace* space, mono.Space());
      std::vector<std::string> names;
      for (const auto& [name_id, exp] : space->exports) {
        const Symbol& sym = mono.fragments()[exp.def.fragment]->symbols()[exp.def.symbol];
        if (sym.section == SectionKind::kText) {
          names.emplace_back(SymbolInterner::Global().Name(name_id));
        }
      }
      // Flat-table iteration order is unspecified; keep the wrapper order
      // (and thus mon-log slot order) name-sorted as before.
      std::sort(names.begin(), names.end());
      if (names.empty()) {
        return Err(ErrorCode::kInvalidArgument, StrCat(path, ": nothing to monitor"));
      }
      std::string pattern = NamesPattern(names);
      Module wrapped = mono.CopyAs(pattern, "__mon_&").Restrict(pattern);
      OMOS_TRY(ObjectFile wrappers, GenerateMonitorWrappers(names, 0));
      OMOS_TRY(Module merged,
               Module::Merge(wrapped, Module::FromObject(std::make_shared<const ObjectFile>(
                                          std::move(wrappers)))));
      {
        std::lock_guard<std::mutex> lock(monitor_mu_);
        monitor_names_[OmosNamespace::Normalize(path)] = names;
        monitor_counts_[OmosNamespace::Normalize(path)].assign(names.size(), 0);
      }
      value.module = std::move(merged);
    } else {
      const std::vector<std::string>& hot = entry.routine_order;
      if (hot.empty()) {
        return Err(ErrorCode::kNotFound,
                   StrCat(path, ": no recorded routine order; run a monitor pass first"));
      }
      // Rank fragments by the hottest routine they define and lay hot ones
      // out first.
      OMOS_TRY(const SymbolSpace* space, mono.Space());
      size_t n = mono.fragments().size();
      std::vector<size_t> rank(n, hot.size());
      for (const auto& [name_id, exp] : space->exports) {
        auto pos = std::find(hot.begin(), hot.end(), SymbolInterner::Global().Name(name_id));
        if (pos != hot.end()) {
          size_t r = static_cast<size_t>(pos - hot.begin());
          rank[exp.def.fragment] = std::min(rank[exp.def.fragment], r);
        }
      }
      std::vector<uint32_t> order(n);
      for (uint32_t i = 0; i < n; ++i) {
        order[i] = i;
      }
      std::stable_sort(order.begin(), order.end(),
                       [&](uint32_t a, uint32_t b) { return rank[a] < rank[b]; });
      OMOS_TRY(Module reordered, mono.ReorderFragments(order));
      value.module = std::move(reordered);
    }
  } else {
    value = std::move(root.value);
  }

  if (!value.module.has_value()) {
    value.module = Module();
  }
  Module client = std::move(*value.module);

  // Resolve library dependencies. The image holds each dep it binds to.
  std::vector<ImageRef> dep_images;
  std::vector<const LinkedImage*> libraries;
  std::vector<StubSlot> slots;
  std::set<std::string> seen_libs;
  for (const LibraryUse& use : value.libs) {
    if (!seen_libs.insert(use.path).second) {
      continue;
    }
    Specialization lib_spec = use.spec;
    if (lib_spec.name.empty()) {
      lib_spec.name = "lib-constrained";
    }
    if (lib_spec.name == "lib-dynamic") {
      Specialization impl_spec = lib_spec;
      impl_spec.name = "lib-dynamic-impl";
      OMOS_TRY(ImageRef impl, InstantiateRef(use.path, impl_spec, &tracker.work));
      std::string impl_key = impl->key;
      // Stubs for each referenced entry point present in the library (§4.2).
      OMOS_TRY(std::vector<std::string> wanted, client.UnboundRefNames());
      std::vector<std::string> functions;
      for (const std::string& name : wanted) {
        const ImageSymbol* sym = impl->image.FindSymbol(name);
        if (sym != nullptr && sym->section == SectionKind::kText) {
          functions.push_back(name);
        }
      }
      OMOS_TRY(StubFragment stubs, GenerateLazyStubs(use.path, functions,
                                                     static_cast<uint32_t>(slots.size())));
      tracker.work += kAssembleLineCost * 8 * functions.size();
      OMOS_TRY(client, Module::Merge(client, Module::FromObject(std::make_shared<const ObjectFile>(
                                                 std::move(stubs.object)))));
      for (StubSlot& slot : stubs.slots) {
        slot.lib_path = impl_key;  // runtime resolves through the cache key
        slots.push_back(std::move(slot));
      }
      dep_images.push_back(std::move(impl));  // lazy: not mapped at exec
    } else {
      OMOS_TRY(ImageRef lib, InstantiateRef(use.path, lib_spec, &tracker.work));
      libraries.push_back(&lib->image);
      dep_images.push_back(std::move(lib));
    }
  }

  // The client read each library only as an interface; the bytes it links
  // against are the deps' images, so their reads are the client's too. The
  // image then publishes only while every dep it links is current, held
  // copy or not (a dep evicted before a redefinition is retired by no one).
  for (const ImageRef& dep : dep_images) {
    tracker.nested.push_back(dep->inputs);
  }

  PlacementHints hints = entry.hints;
  Overlay(hints, value.hints);
  Overlay(hints, spec.hints);
  CachedImage cached;
  cached.dep_images = std::move(dep_images);
  cached.stub_slots = std::move(slots);
  return LinkAndPublish(key, client, hints, std::move(libraries), std::move(cached), tracker);
}

Result<ImageRef> OmosServer::LinkAndPublish(const std::string& key, const Module& client,
                                            const PlacementHints& hints,
                                            std::vector<const LinkedImage*> libraries,
                                            CachedImage cached, BuildTracker& tracker) {
  OMOS_TRY(std::shared_ptr<const LinkPlan> plan, PlanLink(client));
  bool conflicted = false;
  OMOS_TRY(cached.placement, solver_.Place(key, plan->text_size,
                                           plan->data_size + plan->bss_size, hints, &conflicted));
  if (conflicted) {
    // A weak hint lost to a live placement: the recorded conflict feeds the
    // namespace re-solve, and prelinked images re-link through the idle lane.
    ScheduleRelink();
  }

  LayoutSpec layout;
  layout.text_base = cached.placement->text_base();
  layout.data_base = cached.placement->data_base();
  layout.libraries = std::move(libraries);
  OMOS_TRY(bool has_start, client.HasExport("_start"));
  layout.entry_symbol = has_start ? "_start" : "";
  OMOS_TRY(LinkedImage image, LinkImage(*plan, layout, key));
  ChargeLinkWork(image.stats, plan->symbol_count, tracker);

  cached.image = std::move(image);
  // The build's own reads are the few it made outside any memo evaluation;
  // the memos' sets are shared by pointer, never merged.
  cached.inputs = tracker.TakeReads();
  cached.build_cost = tracker.work;
  OMOS_TRY(ImageRef published, PublishIfCurrent(key, std::move(cached)));
  if (published == nullptr) {
    // The redone build places afresh (under the new definitions' hints)
    // against the deps where they now are.
    tracker.superseded = true;
    return Err(ErrorCode::kUnavailable,
               StrCat(key, ": inputs redefined or a placement retired during the build"));
  }
  return published;
}

Result<ImageRef> OmosServer::PublishIfCurrent(const std::string& key, CachedImage cached) {
  OMOS_TRY_VOID(MaterializeSegments(cached));
  std::shared_lock<std::shared_mutex> publishing(publish_mu_);
  if (!Publishable(cached)) {
    // A redefinition of a read, or of something a dep read, or a move
    // finished after the read; its invalidation could not see this image.
    // Publish nothing: `cached` drops with its placement after the lock.
    return ImageRef();
  }
  return cache_.Put(key, std::move(cached));
}

bool OmosServer::Publishable(const CachedImage& image) {
  // An invalidation or a move retires a key, so an image linked at (or
  // against) a retired placement is stale.
  std::vector<const PlacementLease*> deps;
  for (const ImageRef& dep : image.dep_images) {
    deps.push_back(dep->placement.get());
  }
  return namespace_.AllCurrent(*image.inputs) && solver_.Settle(image.placement.get(), deps);
}

Result<void> OmosServer::MaterializeSegments(CachedImage& cached) {
  if (cached.image.text.empty() && cached.image.data.empty()) {
    return OkResult();
  }
  if (!cached.image.text.empty()) {
    OMOS_TRY(SegmentImage seg, SegmentImage::Create(kernel_->phys(), cached.image.text));
    cached.text_seg = std::move(seg);
  }
  if (!cached.image.data.empty()) {
    OMOS_TRY(SegmentImage seg, SegmentImage::Create(kernel_->phys(), cached.image.data));
    cached.data_seg = std::move(seg);
  }
  return OkResult();
}

// ---- Persistent image store -------------------------------------------------

bool OmosServer::StorableSpec(const Specialization& spec) {
  return spec.name != "monitor";
}

namespace {

// Incremental FNV-1a stream for the store fingerprint. Fields are
// length-prefixed so adjacent strings cannot alias.
struct FingerprintStream {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
};

// Names a blueprint expression can pull out of the namespace: any atom that
// looks like an absolute path. Over-approximating is safe — an unused or
// undefined name changes nothing (undefined names hash as absent), it can
// only make the fingerprint conservative.
void CollectMentionedPaths(const Sexpr& expr, std::vector<std::string>& out) {
  if (expr.IsAtom()) {
    if ((expr.kind == Sexpr::Kind::kSymbol || expr.kind == Sexpr::Kind::kString) &&
        !expr.atom.empty() && expr.atom.front() == '/') {
      out.push_back(expr.atom);
    }
    return;
  }
  for (const Sexpr& child : expr.children) {
    CollectMentionedPaths(child, out);
  }
}

}  // namespace

Result<uint64_t> OmosServer::StoreFingerprint(const std::string& norm,
                                              const Specialization& spec,
                                              std::vector<NamespaceRead>* inputs) const {
  FingerprintStream fp;
  fp.Str("omos-store-v2");
  fp.Str(norm);
  fp.Str(spec.ToKeyString());
  // No placement term: the stored bytes bake in addresses, and adoption
  // checks them where the image lands (TryAdoptFromStore).
  // Deterministic DFS over every namespace entry the construction can
  // reach: blueprint text for metas/libraries (covers constraints, default
  // specs and operator structure), encoded object bytes for fragments.
  std::set<std::string> seen;
  std::vector<std::string> work{norm};
  while (!work.empty()) {
    std::string path = OmosNamespace::Normalize(work.back());
    work.pop_back();
    if (!seen.insert(path).second) {
      continue;
    }
    auto entry_or = namespace_.Lookup(path);
    if (inputs != nullptr) {
      inputs->push_back({path, entry_or.ok() ? (*entry_or)->version : nullptr});
    }
    if (!entry_or.ok()) {
      continue;  // absent names contribute nothing (and change the hash when defined later)
    }
    const NamespaceEntry* entry = entry_or->get();
    fp.Str(path);
    fp.U64(static_cast<uint64_t>(entry->kind));
    if (entry->kind == EntryKind::kFragment) {
      std::vector<uint8_t> object = EncodeObject(*entry->fragment);
      fp.U64(object.size());
      fp.Bytes(object.data(), object.size());
    } else {
      fp.Str(entry->blueprint_text);
      // A "reorder" build, and a default one once an order is recorded,
      // lays the module out by the entry's routine order.
      if (!entry->routine_order.empty()) {
        fp.U64(entry->routine_order.size());
        for (const std::string& name : entry->routine_order) {
          fp.Str(name);
        }
      }
      CollectMentionedPaths(entry->construction, work);
    }
  }
  return fp.h;
}

ImageRef OmosServer::TryAdoptFromStore(const std::string& norm, const Specialization& spec,
                                       const std::string& key, BuildTracker& tracker) {
  std::vector<NamespaceRead> inputs;
  auto fingerprint = StoreFingerprint(norm, spec, &inputs);
  if (!fingerprint.ok()) {
    return nullptr;
  }
  auto probe = store_->Get(key, *fingerprint, &tracker.work);
  if (!probe.ok() || !probe->has_value()) {
    return nullptr;
  }
  StoreRecord record = std::move(**probe);
  CachedImage cached;
  // The stored program bytes bake in each dependency's addresses; every dep
  // must land exactly where it was when the record was written. A restored
  // placement snapshot makes this deterministic; anything else falls back
  // to a cold build.
  for (const LibDep& dep : record.deps) {
    uint64_t dep_work = 0;
    auto lib = GetOrRebuild(dep.cache_key, &dep_work);
    tracker.work += dep_work;
    if (!lib.ok() || (*lib)->image.text_base != dep.text_base ||
        (*lib)->image.data_base != dep.data_base) {
      MetricsRegistry::Global().GetCounter("store.dep_mismatches")->Add();
      return nullptr;
    }
    cached.dep_images.push_back(*std::move(lib));
  }
  // Re-reserve the image's own bases. Place() reuses the live placement for
  // the same object and sizes, so after RestoreFromStore this is exactly the
  // snapshot's assignment; a disagreement means the layout world moved and
  // the stored bytes would be wrong at the new address.
  PlacementHints hints;
  hints.text_base = record.image.text_base;
  hints.data_base = record.image.data_base;
  auto placed = solver_.Place(
      key, static_cast<uint32_t>(record.image.text.size()),
      static_cast<uint32_t>(record.image.data.size()) + record.image.bss_size, hints);
  if (!placed.ok() || (*placed)->text_base() != record.image.text_base ||
      (*placed)->data_base() != record.image.data_base) {
    MetricsRegistry::Global().GetCounter("store.placement_mismatches")->Add();
    return nullptr;
  }
  cached.placement = *std::move(placed);
  // The image read what the fingerprint walk found. A path the walk found
  // absent is no input: the walk over-approximates the names a construction
  // reads, and a build that read an absent one would have failed.
  std::erase_if(inputs, [](const NamespaceRead& read) { return read.version == nullptr; });
  cached.image = std::move(record.image);
  cached.stub_slots = std::move(record.stub_slots);
  cached.inputs = std::make_shared<const ReadSet>(std::move(inputs));
  cached.build_cost = record.build_cost;
  // Published like a link: refused when an entry the walk read was
  // redefined since (the cold build then reads the new one), and nullptr
  // when out of frames (the cold path reports it properly).
  auto published = PublishIfCurrent(key, std::move(cached));
  if (!published.ok() || *published == nullptr) {
    return nullptr;
  }
  TraceInstant("store.adopt", key);
  return *published;
}

void OmosServer::PublishToStore(const std::string& norm, const Specialization& spec,
                                const CachedImage& image, BuildTracker& tracker) {
  auto fingerprint = StoreFingerprint(norm, spec);
  if (!fingerprint.ok()) {
    return;
  }
  StoreRecord record;
  record.cache_key = image.key;
  record.fingerprint = *fingerprint;
  record.image = image.image;
  for (const ImageRef& dep : image.dep_images) {
    std::string_view lib_path = dep->key;
    SplitCacheKey(dep->key, &lib_path, nullptr);
    record.deps.push_back(
        LibDep{dep->key, std::string(lib_path), dep->image.text_base, dep->image.data_base});
  }
  record.stub_slots = image.stub_slots;
  record.build_cost = image.build_cost;
  auto put = store_->Put(record, &tracker.work);
  if (!put.ok()) {
    LogMessage(LogLevel::kDebug, "store",
               StrCat("publish of ", image.key, " failed: ", put.error().ToString()));
  }
}

Result<void> OmosServer::PersistTo(ImageStore& store) { return store.PutSnapshot(Snapshot()); }

Result<void> OmosServer::RestoreFromStore(ImageStore& store) {
  OMOS_TRY(std::string snapshot, store.LoadSnapshot());
  OMOS_TRY_VOID(Restore(snapshot));
  store_ = &store;
  return OkResult();
}

// ---- Exec paths -------------------------------------------------------------

std::vector<ImageRef> OmosServer::TaskRuntime::Images() const {
  std::vector<ImageRef> images;
  if (program != nullptr) {
    images.push_back(program);
  }
  for (const auto& [key, image] : libs) {
    images.push_back(image);
  }
  images.insert(images.end(), dyn_loaded.begin(), dyn_loaded.end());
  return images;
}

Result<uint32_t> OmosServer::MapProgram(Task& task, const CachedImage& program) {
  TraceSpan trace("server.map_program", program.key);
  TaskRuntime runtime;
  runtime.program = program.shared_from_this();
  // Resolve every eager dep before mapping anything. An evicted library
  // image is the program's own held copy, re-cached while it is current; a
  // rotted one is rebuilt, not a fatal error: the program holds the dep's
  // placement, so the rebuild reuses it and the program's references stay
  // valid. Only a retired key (a redefinition or a move since the program
  // was linked) rebuilds elsewhere, and cannot be mapped under this program.
  uint64_t rebuild_work = 0;
  Result<void> resolved = [&]() -> Result<void> {
    for (const ImageRef& dep : program.dep_images) {
      // Lazy deps (partial-image libraries) map on first call via kSysDload.
      if (std::any_of(program.stub_slots.begin(), program.stub_slots.end(),
                      [&](const StubSlot& slot) { return slot.lib_path == dep->key; })) {
        continue;
      }
      OMOS_TRY(ImageRef lib, GetOrRebuild(dep->key, &rebuild_work, dep));
      if (lib->placement != dep->placement) {
        return Err(ErrorCode::kUnavailable,
                   StrCat(program.key, ": library ", dep->key, " moved from ",
                          Hex32(dep->image.text_base), "/", Hex32(dep->image.data_base), " to ",
                          Hex32(lib->image.text_base), "/", Hex32(lib->image.data_base)));
      }
      runtime.libs.emplace(dep->key, std::move(lib));
    }
    return OkResult();
  }();
  task.BillSys(rebuild_work);
  OMOS_TRY_VOID(resolved);
  OMOS_TRY_VOID(MapCached(*kernel_, task, program));
  for (const auto& [key, lib] : runtime.libs) {
    OMOS_TRY_VOID(MapCached(*kernel_, task, *lib));
  }
  for (const StubSlot& slot : program.stub_slots) {
    const ImageSymbol* sym = program.image.FindSymbol(slot.slot_symbol);
    if (sym == nullptr) {
      return Err(ErrorCode::kInternal, StrCat("missing stub slot symbol ", slot.slot_symbol));
    }
    runtime.slots.push_back(TaskRuntime::Slot{sym->addr, slot.lib_path, slot.symbol});
  }
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  // A live upgrade that has repointed redirects lazy slots of the old
  // version so tasks exec'd mid-roll bind the new one (the cached program
  // image still names the old impl key until the reclaim-phase
  // redefinition). Redirected in the section that installs the runtime, so
  // a repoint either rewrites these slots or precedes this redirect.
  for (TaskRuntime::Slot& slot : runtime.slots) {
    slot.lib_path = RedirectLibKey(slot.lib_path);
  }
  std::swap(runtimes_[task.id()], runtime);  // a replaced runtime drops after the lock
  return program.image.entry;
}

Result<bool> OmosServer::MapFirstUse(Task& task, const ImageRef& image,
                                     uint64_t first_use_cost) {
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it == runtimes_.end()) {
      return Err(ErrorCode::kNotFound, StrCat(task.name(), ": task released"));
    }
    if (it->second.libs.count(image->key) != 0) {
      return false;
    }
    // The repoint made pending every task that mapped the old version by
    // then; a task that maps it later would escape the drain.
    if (RedirectLibKey(image->key) != image->key) {
      return Err(ErrorCode::kUnavailable, StrCat(image->key, ": superseded by a live upgrade"));
    }
    it->second.libs.emplace(image->key, image);
  }
  task.BillSys(first_use_cost);
  OMOS_TRY_VOID(MapCached(*kernel_, task, *image));
  return true;
}

void OmosServer::ReleaseTask(TaskId id) {
  decltype(runtimes_)::node_type released;  // its image references drop after the lock
  // A released task can no longer execute old-version code: take it out of
  // any in-flight upgrade's pending set (and reclaim if it was the last).
  std::shared_ptr<UpgradeJob> reclaim_ready;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    released = runtimes_.extract(id);
    if (upgrade_job_ != nullptr && upgrade_job_->pending.erase(id) > 0) {
      upgrade_job_->retry_at.erase(id);
      if (upgrade_job_->pending.empty() && upgrade_job_->phase == UpgradePhase::kDraining) {
        reclaim_ready = upgrade_job_;
      }
    }
  }
  if (reclaim_ready != nullptr) {
    ScheduleUpgradeReclaim(reclaim_ready);
  }
}

// ---- Live upgrade (docs/upgrade.md) ------------------------------------------

namespace {
// After a deferred transfer, let this many old-version instructions retire
// before re-scanning the stack: a failed attempt walked the whole live
// stack, so retrying every instruction would dominate execution.
constexpr uint64_t kTransferRetryInterval = 256;
}  // namespace

Result<uint64_t> OmosServer::BeginUpgrade(const std::string& path,
                                          const std::string& new_blueprint) {
  std::string norm = OmosNamespace::Normalize(path);
  OMOS_TRY_VOID(namespace_.Lookup(norm));
  Specialization impl_spec;
  impl_spec.name = "lib-dynamic-impl";
  std::shared_ptr<UpgradeJob> job;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (upgrade_job_ != nullptr && upgrade_job_->phase != UpgradePhase::kDone &&
        upgrade_job_->phase != UpgradePhase::kAborted) {
      return Err(ErrorCode::kUnavailable,
                 StrCat("upgrade of ", upgrade_job_->path, " already in flight"));
    }
    job = std::make_shared<UpgradeJob>();
    job->id = ++upgrade_counter_;
    job->path = norm;
    job->new_blueprint = new_blueprint;
    job->old_impl_key = MakeCacheKey(norm, impl_spec.ToKeyString());
    job->new_impl_key =
        MakeCacheKey(OmosNamespace::Normalize(StrCat(norm, "@v", job->id)), impl_spec.ToKeyString());
    job->phase = UpgradePhase::kLinking;
    upgrade_job_ = job;
  }
  UpgradeStats().begun->Add();
  TraceInstant("upgrade.begin", norm);
  // Link on the idle lane (the pool runs it only when no foreground request
  // is pending) so running tasks never stall behind the new version's link.
  SubmitIdle([job](OmosServer& server) { server.RunUpgradeLink(job); });
  return job->id;
}

void OmosServer::RunUpgradeLink(std::shared_ptr<UpgradeJob> job) {
  TraceSpan trace("upgrade.link", job->path);
  if (FaultSim::Trip("upgrade.link")) {
    AbortUpgrade(job, "upgrade.link: injected fault");
    return;
  }
  if (Result<void> linked = LinkUpgrade(*job); !linked.ok()) {
    AbortUpgrade(job, linked.error().ToString());
    return;
  }
  RunUpgradeRepoint(std::move(job));
}

Result<void> OmosServer::LinkUpgrade(UpgradeJob& job) {
  // The new version links under a shadow namespace path so the solver
  // assigns it a fresh placement: old addresses must stay live while
  // suspended frames still execute old code. The real path keeps the old
  // definition until the reclaim phase redefines it.
  std::string shadow = OmosNamespace::Normalize(StrCat(job.path, "@v", job.id));
  OMOS_TRY_VOID(DefineLibrary(shadow, job.new_blueprint));
  Specialization impl_spec;
  impl_spec.name = "lib-dynamic-impl";
  uint64_t work = 0;
  OMOS_TRY(ImageRef new_impl, InstantiateRef(shadow, impl_spec, &work));
  // The old implementation only matters if something still holds it: the
  // cache, a task that maps it, or a program (cached or run by a task)
  // linked against it. Each of those holds its placement, so a rebuilt
  // image reuses it and the transfer map's old-address ranges are exact.
  if (solver_.Find(job.old_impl_key) == nullptr) {
    job.map = std::make_shared<const FrameTransferMap>();  // covers nothing
    return OkResult();
  }
  OMOS_TRY(ImageRef old_impl, GetOrRebuild(job.old_impl_key, &work));
  // Symbols the new version dropped degrade to availability-check stubs
  // (return kUpgradeUnavailable) instead of faulting. The stub image reads
  // only its own /.upgrade paths, so the reclaim-phase redefinition of
  // job.path does not evict it from under a task.
  std::vector<std::string> deleted = DeletedTextSymbols(old_impl->image, new_impl->image);
  if (!deleted.empty()) {
    std::string degrade_dir = StrCat("/.upgrade/v", job.id);
    OMOS_TRY(ObjectFile stub_obj, GenerateDegradationStubs(deleted, "degrade.o"));
    std::string frag_path = StrCat(degrade_dir, "/degrade.o");
    std::string meta_path = StrCat(degrade_dir, "/degrade");
    OMOS_TRY_VOID(AddFragment(frag_path, std::move(stub_obj)));
    OMOS_TRY_VOID(DefineMeta(meta_path, StrCat("(merge ", frag_path, ")")));
    OMOS_TRY(ImageRef stubs, InstantiateRef(meta_path, Specialization{}, &work));
    job.degrade_key = stubs->key;
    for (const std::string& name : deleted) {
      if (const ImageSymbol* sym = stubs->image.FindSymbol(name)) {
        job.degrade_addrs[name] = sym->addr;
      }
    }
  }
  job.map = std::make_shared<const FrameTransferMap>(
      FrameTransferMap::Build(old_impl->image, new_impl->image, job.degrade_addrs));
  return OkResult();
}

void OmosServer::RunUpgradeRepoint(std::shared_ptr<UpgradeJob> job) {
  if (FaultSim::Trip("upgrade.repoint")) {
    // Killed before any runtime was touched: the abort leaves every task on
    // the old version, consistently.
    AbortUpgrade(job, "upgrade.repoint: injected fault");
    return;
  }
  // One critical section switches every runtime from the old implementation
  // key to the new one and makes pending every task that maps the old
  // version: lazy slots resolved after this bind the new version;
  // already-resolved slots keep calling the (still mapped) old code until
  // the task's safepoint transfer. No task observes a half-switched table,
  // and a flagged task's safepoint waits on this lock, so it sees the
  // pending set it was flagged for.
  uint64_t repointed_tasks = 0;
  size_t pending = 0;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase != UpgradePhase::kLinking) {
      return;  // aborted concurrently
    }
    for (auto& [tid, runtime] : runtimes_) {
      bool maps_old = runtime.libs.count(job->old_impl_key) != 0;
      bool uses_old = maps_old;
      for (TaskRuntime::Slot& slot : runtime.slots) {
        if (slot.lib_path == job->old_impl_key) {
          slot.lib_path = job->new_impl_key;
          uses_old = true;
        }
      }
      // Old code/data mapped: the task needs a frame transfer. One destroyed
      // without ReleaseTask has nothing to drain.
      if (maps_old) {
        if (Task* task = kernel_->FindTask(tid)) {
          job->pending.insert(tid);
          task->RequestSafepoint();
        }
      }
      if (uses_old) {
        ++repointed_tasks;
      }
    }
    job->phase = UpgradePhase::kDraining;
    pending = job->pending.size();
  }
  UpgradeStats().tasks_repointed->Add(repointed_tasks);
  TraceInstant("upgrade.repoint", StrCat(job->path, ": ", pending, " task(s) to drain"));
  if (pending == 0) {
    ScheduleUpgradeReclaim(job);
  }
}

Result<void> OmosServer::HandleSafepoint(Kernel& kernel, Task& task) {
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
  return TryTransferTask(kernel, task, job);
}

Result<void> OmosServer::TryTransferTask(Kernel& kernel, Task& task,
                                         const std::shared_ptr<UpgradeJob>& job) {
  const FrameTransferMap& map = *job->map;
  auto defer = [&]() {
    UpgradeStats().transfers_deferred->Add();
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    job->retry_at[task.id()] = task.instructions_retired() + kTransferRetryInterval;
    return OkResult();
  };
  if (FaultSim::Trip("upgrade.transfer")) {
    return defer();  // a killed transfer is a deferral, never a torn state
  }
  uint64_t rebuild_work = 0;
  auto new_or = GetOrRebuild(job->new_impl_key, &rebuild_work);
  if (!new_or.ok()) {
    return defer();
  }
  ImageRef new_impl = *std::move(new_or);
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
    if (i == kRegSp) {
      new_regs[i] = task.reg(i);
      continue;
    }
    std::optional<uint32_t> mapped = map_value(task.reg(i));
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
    if (!map.Covers(*word)) {
      continue;
    }
    std::optional<uint32_t> mapped = map.MapAddr(*word);
    if (!mapped.has_value()) {
      return defer();
    }
    if (*mapped != *word) {
      stack_rewrites.emplace_back(addr, *mapped);
    }
  }
  // Map the new version into the task on first contact, and carry the old
  // version's same-shape data state (the task's private CoW bytes) into the
  // new segments before any new code can run. A dload mid-drain may have
  // mapped it already — then the new version's state is live; don't clobber.
  Result<bool> first_contact = MapFirstUse(
      task, new_impl,
      kernel.costs().ipc_round_trip + kernel.costs().omos_cache_lookup + rebuild_work);
  if (!first_contact.ok()) {
    if (first_contact.error().code() == ErrorCode::kNotFound) {
      return defer();  // released concurrently; ReleaseTask drops it from pending
    }
    return first_contact.error();
  }
  if (*first_contact) {
    for (const DataCarry& carry : map.data_carries()) {
      std::vector<uint8_t> bytes(carry.size);
      OMOS_TRY_VOID(task.space().ReadBytes(carry.old_addr, bytes.data(), carry.size));
      OMOS_TRY_VOID(task.space().WriteBytes(carry.new_addr, bytes.data(), carry.size));
    }
  }
  if (!job->degrade_key.empty()) {
    if (auto stubs = GetOrRebuild(job->degrade_key, &rebuild_work); stubs.ok()) {
      Result<bool> mapped = MapFirstUse(task, *stubs, 0);
      if (!mapped.ok() && mapped.error().code() != ErrorCode::kNotFound) {
        return mapped.error();
      }
    }
  }
  // Point of no return: apply the planned rewrites. All writes hit this
  // task's own registers and private pages, on this task's own thread.
  task.set_pc(*new_pc);
  for (int i = 0; i < kNumRegisters; ++i) {
    if (i != kRegSp) {
      task.set_reg(i, new_regs[i]);
    }
  }
  for (const auto& [addr, value] : stack_rewrites) {
    OMOS_TRY_VOID(task.space().Write32(addr, value));
  }
  // Already-resolved lazy slots still hold old-version addresses; rebind
  // them to the new symbol (or its degradation stub) so the next call lands
  // in new code without another dload round trip.
  std::vector<TaskRuntime::Slot> slots;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it != runtimes_.end()) {
      slots = it->second.slots;
    }
  }
  uint64_t slots_repointed = 0;
  for (const TaskRuntime::Slot& slot : slots) {
    if (slot.lib_path != job->new_impl_key) {
      continue;
    }
    Result<uint32_t> current = task.space().Read32(slot.slot_addr);
    if (!current.ok() || !map.Covers(*current)) {
      continue;  // still lazy (trampoline) or already bound to new code
    }
    uint32_t target = 0;
    if (const ImageSymbol* sym = new_impl->image.FindSymbol(slot.symbol)) {
      target = sym->addr;
    } else if (auto stub = job->degrade_addrs.find(slot.symbol);
               stub != job->degrade_addrs.end()) {
      target = stub->second;
      UpgradeStats().degraded_bindings->Add();
    }
    if (target == 0) {
      continue;
    }
    OMOS_TRY_VOID(task.space().Write32(slot.slot_addr, target));
    ++slots_repointed;
  }
  // Drop the old version from this task. Unmapping decrements the shared
  // frames' refcounts; PhysMemory frees them once the last task lets go.
  decltype(TaskRuntime::libs)::node_type old_impl;  // dropped after the lock
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it != runtimes_.end()) {
      old_impl = it->second.libs.extract(job->old_impl_key);
    }
  }
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
  bool reclaim_ready = false;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    job->pending.erase(task.id());
    job->retry_at.erase(task.id());
    reclaim_ready = job->phase == UpgradePhase::kDraining && job->pending.empty();
  }
  if (reclaim_ready) {
    ScheduleUpgradeReclaim(job);
  }
  return OkResult();
}

void OmosServer::ScheduleUpgradeReclaim(const std::shared_ptr<UpgradeJob>& job) {
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase != UpgradePhase::kDraining) {
      return;  // someone else already moved it on (or it aborted)
    }
    job->phase = UpgradePhase::kReclaiming;
  }
  SubmitIdle([job](OmosServer& server) { server.RunUpgradeReclaim(job); });
}

void OmosServer::RunUpgradeReclaim(std::shared_ptr<UpgradeJob> job) {
  TraceSpan trace("upgrade.reclaim", job->path);
  if (FaultSim::Trip("upgrade.reclaim")) {
    // Killed mid-reclaim: retreat to draining so DrainUpgrade (or the next
    // task release) re-attempts. The redirect stays active meanwhile.
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase == UpgradePhase::kReclaiming) {
      job->phase = UpgradePhase::kDraining;
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase != UpgradePhase::kReclaiming) {
      return;
    }
  }
  // Every task migrated: make the new version THE version. Redefining the
  // real path evicts the old implementation and every cached client image
  // that linked against it and retires their placements — the existing
  // redefinition semantics do the reclamation. Tasks keep their mappings
  // (per-task address spaces hold frame refcounts), so this only drops the
  // server-side copies.
  size_t entries_before = cache_.entry_count();
  if (Result<void> redefined = DefineLibrary(job->path, job->new_blueprint); !redefined.ok()) {
    AbortUpgrade(job, redefined.error().ToString());
    return;
  }
  // The shadow-path and degradation-stub entries served the migration;
  // future execs resolve the real path. Drop the cached copies: their
  // placements free once no task maps them (a running task keeps its
  // mapping, and a straggler dload rebuilds from the shadow definitions,
  // which stay in the namespace, at the placement that task still holds).
  cache_.Evict(job->new_impl_key);
  if (!job->degrade_key.empty()) {
    cache_.Evict(job->degrade_key);
  }
  size_t entries_after = cache_.entry_count();
  if (entries_before > entries_after) {
    UpgradeStats().images_reclaimed->Add(entries_before - entries_after);
  }
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    job->phase = UpgradePhase::kDone;
  }
  UpgradeStats().completed->Add();
  TraceInstant("upgrade.complete", job->path);
}

void OmosServer::AbortUpgrade(const std::shared_ptr<UpgradeJob>& job, std::string why) {
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    if (job->phase == UpgradePhase::kDone || job->phase == UpgradePhase::kAborted) {
      return;
    }
    job->phase = UpgradePhase::kAborted;
    job->error = why;
    for (TaskId tid : job->pending) {
      if (Task* task = kernel_->FindTask(tid)) {
        task->ClearSafepoint();
      }
    }
    job->pending.clear();
    job->retry_at.clear();
  }
  UpgradeStats().aborted->Add();
  TraceInstant("upgrade.abort", StrCat(job->path, ": ", why));
}

std::string OmosServer::RedirectLibKey(const std::string& key) const {
  if (upgrade_job_ != nullptr && upgrade_job_->old_impl_key == key &&
      (upgrade_job_->phase == UpgradePhase::kDraining ||
       upgrade_job_->phase == UpgradePhase::kReclaiming)) {
    return upgrade_job_->new_impl_key;
  }
  return key;
}

uint32_t OmosServer::DegradeBindingFor(const std::string& impl_key, const std::string& symbol,
                                       std::string* degrade_key) const {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  if (upgrade_job_ == nullptr || upgrade_job_->degrade_key.empty() ||
      upgrade_job_->phase == UpgradePhase::kAborted ||
      upgrade_job_->new_impl_key != impl_key) {
    return 0;
  }
  auto it = upgrade_job_->degrade_addrs.find(symbol);
  if (it == upgrade_job_->degrade_addrs.end()) {
    return 0;
  }
  *degrade_key = upgrade_job_->degrade_key;
  return it->second;
}

OmosServer::UpgradeStatus OmosServer::UpgradeStatusNow() const {
  std::lock_guard<std::mutex> lock(runtimes_mu_);
  UpgradeStatus status;
  if (upgrade_job_ == nullptr) {
    return status;
  }
  status.id = upgrade_job_->id;
  status.path = upgrade_job_->path;
  status.phase = upgrade_job_->phase;
  status.tasks_pending = upgrade_job_->pending.size();
  status.error = upgrade_job_->error;
  return status;
}

OmosServer::UpgradeStatus OmosServer::DrainUpgrade() {
  for (int round = 0; round < 8; ++round) {
    DrainBackgroundWork();
    std::shared_ptr<UpgradeJob> job;
    bool waiting_on_tasks = false;
    bool reclaim_ready = false;
    {
      std::lock_guard<std::mutex> lock(runtimes_mu_);
      job = upgrade_job_;
      if (job == nullptr || job->phase == UpgradePhase::kDone ||
          job->phase == UpgradePhase::kAborted) {
        break;
      }
      if (job->phase == UpgradePhase::kDraining) {
        if (job->pending.empty()) {
          reclaim_ready = true;  // e.g. a faulted reclaim retreated here
        } else {
          waiting_on_tasks = true;
        }
      }
    }
    if (waiting_on_tasks) {
      break;  // the caller must run (or release) the pending tasks
    }
    if (reclaim_ready) {
      ScheduleUpgradeReclaim(job);  // next round's drain executes it
    }
  }
  return UpgradeStatusNow();
}

Result<TaskId> OmosServer::BootstrapExec(const std::string& path, std::vector<std::string> args,
                                         const Specialization& spec) {
  TraceSpan trace("server.exec_bootstrap", path);
  Task* task = &kernel_->CreateTask(StrCat("omos-boot:", path));
  TaskId task_id = task->id();
  const CostModel& costs = kernel_->costs();
  // Load and run the tiny bootstrap loader program (#! /bin/omos).
  task->BillSys(costs.file_open + costs.header_parse + costs.file_read_page);
  task->BillUser(config_.bootstrap_user_cycles);
  ExecTransport transport = exec_transport();
  Channel channel = TakeExecChannel(transport);
  OmosRequest request;
  request.op = OmosOp::kInstantiate;
  request.path = path;
  request.specialization = spec.ToKeyString();
  request.task_handle = task_id;
  Result<OmosReply> called = channel.Call(request, task);
  // A failed call or a demotion drops the channel: the next exec starts on
  // a clean one, as it would with a fresh channel.
  if (called.ok() && !channel.fallback_engaged()) {
    ParkExecChannel(transport, std::move(channel));
  }
  OMOS_TRY(OmosReply reply, std::move(called));
  if (!reply.ok) {
    return Err(ErrorCode::kNotFound, reply.error);
  }
  OMOS_TRY_VOID(StartTask(*kernel_, *task, reply.entry, args));
  return task_id;
}

Result<TaskId> OmosServer::IntegratedExec(const std::string& path, std::vector<std::string> args,
                                          const Specialization& spec) {
  TraceSpan trace("server.exec_integrated", path);
  Task* task = &kernel_->CreateTask(StrCat("omos-exec:", path));
  OMOS_TRY(ImageRef program, InstantiateAndMap(*task, path, spec));
  OMOS_TRY_VOID(StartTask(*kernel_, *task, program->image.entry, args));
  return task->id();
}

// ---- Fleet-wide prelink -------------------------------------------------------

namespace {

// Prelink-table counters; see docs/observability.md.
struct PrelinkMetrics {
  Counter* hits = MetricsRegistry::Global().GetCounter("prelink.hits");
  Counter* stale = MetricsRegistry::Global().GetCounter("prelink.stale");
  Counter* misses = MetricsRegistry::Global().GetCounter("prelink.misses");
  Counter* relinks = MetricsRegistry::Global().GetCounter("prelink.relinks");
  Counter* repairs = MetricsRegistry::Global().GetCounter("prelink.repairs");
};

PrelinkMetrics& PrelinkCounters() {
  static PrelinkMetrics* metrics = new PrelinkMetrics();
  return *metrics;
}

}  // namespace

Result<int> OmosServer::PrelinkNamespace(const std::string& prefix) {
  TraceSpan trace("server.prelink_namespace", prefix);
  int recorded = 0;
  for (const auto& [name, meta_path] : ExecutableMetas(namespace_, prefix)) {
    uint64_t scratch = 0;
    OMOS_TRY_VOID(InstantiateRef(meta_path, {}, &scratch));
    std::lock_guard<std::mutex> lock(relink_mu_);
    prelinked_.insert(meta_path);
    ++recorded;
  }
  return recorded;
}

Result<TaskId> OmosServer::PrelinkedExec(const std::string& path, std::vector<std::string> args) {
  TraceSpan trace("server.exec_prelinked", path);
  std::string norm = OmosNamespace::Normalize(path);
  bool prelinked;
  {
    std::lock_guard<std::mutex> lock(relink_mu_);
    prelinked = prelinked_.count(norm) != 0;
  }
  Task* task = &kernel_->CreateTask(StrCat("omos-prelink:", path));
  ImageRef image;
  bool adoption_missed = false;
  if (prelinked) {
    // A hit serves an image with no link on this request: the warm image,
    // or one adopted from an attached store. Either is current, since a
    // redefinition or a placement move evicts every image it invalidates
    // and an adoption publishes through the build's check; so the map
    // below performs zero relocations.
    std::string key = MakeCacheKey(norm, Specialization().ToKeyString());
    image = cache_.Get(key);
    if (image == nullptr && store_ != nullptr) {
      BuildTracker tracker;
      image = TryAdoptFromStore(norm, {}, key, tracker);
      adoption_missed = image == nullptr;
      task->BillSys(tracker.work);
    }
  }
  if (image != nullptr) {
    task->BillSys(kernel_->costs().prelink_lookup);
    Result<uint32_t> mapped = MapProgram(*task, *image);
    if (mapped.ok()) {
      PrelinkCounters().hits->Add();
    } else if (mapped.error().code() == ErrorCode::kUnavailable) {
      image = nullptr;  // a library moved since the link: the full exec step below
    } else {
      return mapped.error();
    }
  }
  if (image == nullptr) {
    // Not prelinked, the image fell out of the cache, or a library moved:
    // pay the full exec step, then let the idle lane re-link everything
    // stale so the next exec is fast again.
    (prelinked ? PrelinkCounters().stale : PrelinkCounters().misses)->Add();
    // The store already missed above: probing it again would repeat the
    // same fingerprint walk for the same answer.
    auto link = [&](uint64_t* work) { return InstantiateTiers(norm, {}, work, /*adopt=*/false); };
    OMOS_TRY(image, adoption_missed ? MapInstantiated(*task, link)
                                    : InstantiateAndMap(*task, norm, {}));
    if (prelinked) {
      ScheduleRelink();
    } else {
      std::lock_guard<std::mutex> lock(relink_mu_);
      prelinked_.insert(norm);
    }
  }
  OMOS_TRY_VOID(StartTask(*kernel_, *task, image->image.entry, args));
  return task->id();
}

void OmosServer::RunRelink() {
  TraceSpan trace("server.relink", "");
  std::vector<std::string> paths;
  {
    std::lock_guard<std::mutex> lock(relink_mu_);
    paths.assign(prelinked_.begin(), prelinked_.end());
  }
  if (!paths.empty()) {
    PrelinkCounters().repairs->Add();
    std::vector<PlacementRecord> moved = solver_.SolveNamespace();
    if (!moved.empty()) {
      EvictMoved(moved);
    }
  }
  // Re-instantiate every prelinked path at the solved layout. Unmoved
  // images are warm cache hits; moved ones re-link once here instead of on
  // a client's critical path.
  for (const std::string& path : paths) {
    uint64_t scratch = 0;
    if (InstantiateRef(path, {}, &scratch).ok()) {
      PrelinkCounters().relinks->Add();
    }
  }
}

Result<int> OmosServer::ExportNamespaceToFs(std::string_view namespace_dir,
                                            std::string_view fs_dir) {
  int exported = 0;
  for (const auto& [name, meta_path] : ExecutableMetas(namespace_, namespace_dir)) {
    OMOS_TRY_VOID(kernel_->fs().TryWriteFile(StrCat(fs_dir, "/", name),
                                             StrCat("#!omos ", meta_path, "\n"), 0755));
    ++exported;
  }
  return exported;
}

Result<TaskId> OmosServer::ExecFile(const std::string& fs_path, std::vector<std::string> args,
                                    bool integrated) {
  OMOS_TRY(const SimFile* file, kernel_->fs().Lookup(fs_path));
  std::string text(file->bytes.begin(), file->bytes.end());
  if (!StartsWith(text, "#!omos ")) {
    return Err(ErrorCode::kInvalidArgument, StrCat(fs_path, ": not an OMOS interpreter file"));
  }
  std::string meta(StripWhitespace(std::string_view(text).substr(7)));
  if (integrated) {
    return IntegratedExec(meta, std::move(args));
  }
  return BootstrapExec(meta, std::move(args));
}

// ---- Lazy loading and monitoring hooks ---------------------------------------

Result<void> OmosServer::HandleDload(Kernel& kernel, Task& task) {
  uint32_t index = task.reg(12);
  TaskRuntime::Slot slot;
  ImageRef impl;         // the version the slot binds to
  std::string refused;   // an old version MapFirstUse turned down
  while (true) {
    {
      std::lock_guard<std::mutex> lock(runtimes_mu_);
      auto it = runtimes_.find(task.id());
      if (it == runtimes_.end() || index >= it->second.slots.size()) {
        return Err(ErrorCode::kExecFault, StrCat(task.name(), ": bad dload slot ", index));
      }
      slot = it->second.slots[index];
      if (auto lib = it->second.libs.find(slot.lib_path); lib != it->second.libs.end()) {
        impl = lib->second;
      }
    }
    if (impl != nullptr) {
      break;
    }
    // A refusal means an upgrade repointed after the slot was read: the
    // repoint rewrote the slot, so it names the new version now.
    if (slot.lib_path == refused) {
      return Err(ErrorCode::kInternal,
                 StrCat(task.name(), ": dload slot ", index, " still names superseded ", refused));
    }
    uint64_t rebuild_work = 0;
    OMOS_TRY(ImageRef lib, GetOrRebuild(slot.lib_path, &rebuild_work));
    task.BillSys(rebuild_work);
    // First use in this task: the stub "contacts OMOS and loads in the
    // library" (§4.2) — one IPC round trip plus the mapping work.
    Result<bool> mapped =
        MapFirstUse(task, lib, kernel.costs().ipc_round_trip + kernel.costs().omos_cache_lookup);
    if (mapped.ok()) {
      impl = std::move(lib);
    } else if (mapped.error().code() == ErrorCode::kUnavailable) {
      refused = slot.lib_path;
    } else {
      return mapped.error();
    }
  }
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
    std::string degrade_key;
    target = DegradeBindingFor(slot.lib_path, slot.symbol, &degrade_key);
    if (target == 0) {
      return Err(ErrorCode::kUnresolvedSymbol,
                 StrCat("symbol ", slot.symbol, " not in ", slot.lib_path));
    }
    uint64_t rebuild_work = 0;
    OMOS_TRY(ImageRef stubs, GetOrRebuild(degrade_key, &rebuild_work));
    OMOS_TRY_VOID(MapFirstUse(task, stubs, 0));
    UpgradeStats().degraded_bindings->Add();
  }
  OMOS_TRY_VOID(task.space().Write32(slot.slot_addr, target));
  task.BillUser(kernel.costs().reloc_apply);
  task.set_pc(target);
  return OkResult();
}

Result<void> OmosServer::HandleMonLog(Kernel& kernel, Task& task) {
  (void)kernel;
  uint32_t index = task.reg(12);
  std::string key;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(task.id());
    if (it == runtimes_.end() || it->second.program == nullptr) {
      return OkResult();  // Unmonitored task; ignore.
    }
    key = it->second.program->key;
  }
  // key = "<path>§<spec>"; recover the path.
  std::string_view path_part = key;
  SplitCacheKey(key, &path_part, nullptr);
  std::string path(path_part);
  std::lock_guard<std::mutex> lock(monitor_mu_);
  auto counts = monitor_counts_.find(path);
  if (counts != monitor_counts_.end() && index < counts->second.size()) {
    ++counts->second[index];
  }
  return OkResult();
}

Result<std::vector<std::pair<std::string, uint64_t>>> OmosServer::MonitorCounts(
    const std::string& path) const {
  std::string norm = OmosNamespace::Normalize(path);
  std::lock_guard<std::mutex> lock(monitor_mu_);
  auto names = monitor_names_.find(norm);
  auto counts = monitor_counts_.find(norm);
  if (names == monitor_names_.end() || counts == monitor_counts_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("no monitor data for ", path));
  }
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < names->second.size(); ++i) {
    out.emplace_back(names->second[i], counts->second[i]);
  }
  return out;
}

Result<void> OmosServer::DerivePreferredOrder(const std::string& path) {
  OMOS_TRY(auto counts, MonitorCounts(path));
  std::stable_sort(counts.begin(), counts.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<std::string> order;
  order.reserve(counts.size());
  for (const auto& [name, count] : counts) {
    order.push_back(name);
  }
  // The order is an input of the path's images: republishing it evicts
  // them, and a prelinked path re-links under it at idle time.
  OMOS_TRY_VOID(Redefine(
      {path}, [&] { return namespace_.SetRoutineOrder(path, std::move(order)); }));
  ScheduleRelink();
  return OkResult();
}

bool OmosServer::HasPreferredOrder(const std::string& path) const {
  auto entry = namespace_.Lookup(path);
  return entry.ok() && !(*entry)->routine_order.empty();
}

// ---- Dynamic loading ----------------------------------------------------------

Result<OmosServer::DynLoadResult> OmosServer::DynamicLoad(
    Task& task, const std::string& blueprint_or_path, const std::vector<std::string>& symbols) {
  bool is_blueprint = StartsWith(blueprint_or_path, "(");
  ImageRef program;  // the version the task maps, whatever the cache holds now
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto rt = runtimes_.find(task.id());
    if (rt != runtimes_.end()) {
      program = rt->second.program;
    }
  }
  // The class binds to that program's addresses, so each program version
  // gets its own image, keyed by the program image's integrity sums.
  std::string client;
  if (program != nullptr) {
    client = StrCat(program->key, ";sums=",
                    HashBytes(program->page_sums.data(),
                              program->page_sums.size() * sizeof(uint64_t), program->layout_sum));
  }
  std::string key = MakeCacheKey(
      is_blueprint ? blueprint_or_path : OmosNamespace::Normalize(blueprint_or_path),
      StrCat("dynamic-load;client=", client));

  BuildTracker tracker;
  auto build = [&]() -> Result<ImageRef> {
    OMOS_TRY(Sexpr expr, is_blueprint ? ParseSexpr(blueprint_or_path)
                                      : Result<Sexpr>(Sexpr::Symbol(blueprint_or_path)));
    OMOS_TRY(EvalValue value, evaluator_.Eval(expr, tracker));
    OMOS_TRY(Module module, BlueprintEvaluator::RequireModule(std::move(value), "dynamic-load"));
    // The loaded class may refer to procedures and data within the client
    // (§5): its unbound references resolve against the program's image.
    std::vector<const LinkedImage*> libraries;
    CachedImage loaded;
    if (program != nullptr) {
      libraries.push_back(&program->image);
      // While that version is the cached one it is a dep, so evicting the
      // program evicts the class too. A superseded version's placement is
      // retired: its class records no dep that could never be current, and
      // its key serves no other version. The task holds the program, so the
      // class is placed clear of it either way.
      if (cache_.Peek(program->key) == program) {
        loaded.dep_images.push_back(program);
      }
    }
    return LinkAndPublish(key, module, {}, std::move(libraries), std::move(loaded), tracker);
  };
  ImageRef cached = cache_.Get(key);
  if (cached == nullptr) {
    OMOS_TRY(cached, SingleFlight(cache_, key, [&] { return BuildCurrent(tracker, build); }));
  }
  task.BillSys(tracker.work + kernel_->costs().omos_cache_lookup);
  OMOS_TRY_VOID(MapCached(*kernel_, task, *cached));
  // The task owns the class like any image it maps, so it can be unlinked.
  const LinkedImage& image = cached->image;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    runtimes_[task.id()].dyn_loaded.push_back(cached);
  }

  DynLoadResult result;
  result.text_base = image.text_base;
  for (const std::string& name : symbols) {
    const ImageSymbol* sym = image.FindSymbol(name);
    result.symbol_values.push_back(sym == nullptr ? 0 : sym->addr);
  }
  return result;
}

Result<void> OmosServer::DynamicUnload(Task& task, uint32_t text_base) {
  ImageRef unloaded;  // dropped after the locks
  std::lock_guard<std::mutex> rt_lock(runtimes_mu_);
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

Result<void> OmosServer::HandleOmosLoadSys(Kernel& kernel, Task& task) {
  (void)kernel;
  OMOS_TRY(std::string blueprint, task.space().ReadCString(task.reg(0)));
  OMOS_TRY(std::string symbol, task.space().ReadCString(task.reg(1)));
  // The in-task path is a real IPC to the server.
  task.BillSys(kernel_->costs().ipc_round_trip);
  auto result = DynamicLoad(task, blueprint, {symbol});
  if (!result.ok() || result->symbol_values.empty()) {
    task.set_reg(0, 0);
    return OkResult();
  }
  task.set_reg(0, result->symbol_values[0]);
  return OkResult();
}

Result<void> OmosServer::HandleOmosUnloadSys(Kernel& kernel, Task& task) {
  (void)kernel;
  auto result = DynamicUnload(task, task.reg(0));
  task.set_reg(0, result.ok() ? 0 : static_cast<uint32_t>(-1));
  return OkResult();
}

// ---- Crash / recovery ---------------------------------------------------------
//
// Snapshot grammar (line-oriented; blobs are length-prefixed so blueprints
// may contain newlines; the final `check` line is an FNV-1a hash of every
// byte before it):
//   omos-snapshot 1
//   meta <kind> <blueprint-len> <path>\n<blueprint>\n
//   frag <hex-len> <path>\n<hex-of-XOF-object>\n
//   order <count> <path>\n<routine-name>\n ...
//   place <text-base> <text-size> <data-base> <data-size> <object-key>
//   prelink <path>
//   check <fnv64-hex>

namespace {

constexpr std::string_view kSnapshotMagic = "omos-snapshot 1";

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Result<std::vector<uint8_t>> HexDecode(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    return Err(ErrorCode::kCorrupted, "snapshot: odd-length hex blob");
  }
  std::vector<uint8_t> bytes(hex.size() / 2);
  for (size_t i = 0; i < bytes.size(); ++i) {
    int hi = nibble(hex[2 * i]);
    int lo = nibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      return Err(ErrorCode::kCorrupted, "snapshot: bad hex digit");
    }
    bytes[i] = static_cast<uint8_t>(hi << 4 | lo);
  }
  return bytes;
}

std::string Hex64(uint64_t value) {
  return Hex32(static_cast<uint32_t>(value >> 32)) + Hex32(static_cast<uint32_t>(value)).substr(2);
}

Result<uint64_t> ParseU64(std::string_view text) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Err(ErrorCode::kParseError, StrCat("snapshot: bad number '", text, "'"));
  }
  return value;
}

// Line/blob reader over the snapshot text.
struct SnapshotCursor {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }

  Result<std::string_view> Line() {
    if (AtEnd()) {
      return Err(ErrorCode::kParseError, "snapshot: truncated (expected line)");
    }
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      return Err(ErrorCode::kParseError, "snapshot: missing final newline");
    }
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  }

  // Exactly `n` bytes followed by a newline.
  Result<std::string_view> Blob(size_t n) {
    if (pos + n >= text.size() || text[pos + n] != '\n') {
      return Err(ErrorCode::kParseError, "snapshot: truncated blob");
    }
    std::string_view blob = text.substr(pos, n);
    pos += n + 1;
    return blob;
  }
};

// "a b c rest of line" -> pops space-separated fields from the front.
Result<std::string_view> PopField(std::string_view& line) {
  if (line.empty()) {
    return Err(ErrorCode::kParseError, "snapshot: missing field");
  }
  size_t space = line.find(' ');
  std::string_view field = line.substr(0, space);
  line = space == std::string_view::npos ? std::string_view() : line.substr(space + 1);
  return field;
}

Result<uint64_t> PopNumber(std::string_view& line) {
  OMOS_TRY(std::string_view field, PopField(line));
  return ParseU64(field);
}

}  // namespace

std::string OmosServer::Snapshot() const {
  std::string out(kSnapshotMagic);
  out.push_back('\n');
  auto entries = namespace_.SnapshotEntries();
  for (const auto& [path, entry] : entries) {
    if (entry->kind == EntryKind::kFragment) {
      std::string hex = HexEncode(EncodeObject(*entry->fragment));
      out += StrCat("frag ", hex.size(), " ", path, "\n", hex, "\n");
    } else {
      out += StrCat("meta ", entry->kind == EntryKind::kLibrary ? 1 : 0, " ",
                    entry->blueprint_text.size(), " ", path, "\n", entry->blueprint_text, "\n");
    }
  }
  // Routine orders follow every entry, so a restore defines a path before
  // it orders it.
  for (const auto& [path, entry] : entries) {
    if (entry->routine_order.empty()) {
      continue;
    }
    out += StrCat("order ", entry->routine_order.size(), " ", path, "\n");
    for (const std::string& name : entry->routine_order) {
      out += name;
      out.push_back('\n');
    }
  }
  for (const PlacementRecord& record : solver_.ExportPlacements()) {
    out += StrCat("place ", record.placement.text_base, " ", record.text_size, " ",
                  record.placement.data_base, " ", record.data_size, " ", record.object, "\n");
  }
  // A restarted server execs its prelinked paths warm immediately.
  {
    std::lock_guard<std::mutex> lock(relink_mu_);
    for (const std::string& path : prelinked_) {
      out += StrCat("prelink ", path, "\n");
    }
  }
  out += StrCat("check ", Hex64(Fnv1a(out)), "\n");
  return out;
}

Result<void> OmosServer::Restore(std::string_view snapshot) {
  // Serialize against concurrent Define*/Restore/OptimizePlacements;
  // per-structure locks below keep readers (Lookup, HasPreferredOrder) safe
  // while we repopulate.
  std::unique_lock<std::shared_mutex> publishing(publish_mu_);
  // Integrity first: the trailing check line must hash everything before it.
  size_t check_at = snapshot.rfind("check ");
  if (check_at == std::string_view::npos || check_at == 0 || snapshot[check_at - 1] != '\n') {
    return Err(ErrorCode::kCorrupted, "snapshot: missing check line");
  }
  std::string_view check_line = snapshot.substr(check_at);
  std::string_view digest = StripWhitespace(check_line.substr(6));
  if (digest != Hex64(Fnv1a(snapshot.substr(0, check_at)))) {
    return Err(ErrorCode::kCorrupted, "snapshot: checksum mismatch");
  }

  // Stage every row and check it against the current state before applying
  // any: a refused snapshot leaves the server as it was. The snapshot's
  // entries are parsed and validated into a namespace of their own.
  struct EntryRow {
    std::string_view path;
    EntryKind kind;
    std::string_view blueprint;        // kMeta / kLibrary
    std::optional<ObjectFile> object;  // kFragment
  };
  struct OrderRow {
    std::string_view path;
    std::vector<std::string> order;
  };
  OmosNamespace staged;
  std::vector<EntryRow> entries;
  std::vector<OrderRow> orders;
  std::vector<PlacementRecord> places;
  std::vector<std::string_view> prelinks;
  // A restored entry that differs from the current one supersedes the
  // images built from it, exactly as a redefinition does. Identical entries
  // (a restart restoring its own snapshot) keep their images and store
  // records; a path with no current entry has no image that read it.
  std::vector<std::string> changed;
  auto note_if_changed = [&](std::string_view path, const auto& same_as) {
    auto current = namespace_.Lookup(path);
    if (current.ok() && !same_as(**current)) {
      changed.push_back(OmosNamespace::Normalize(path));
    }
  };
  SnapshotCursor cursor{snapshot.substr(0, check_at), 0};
  OMOS_TRY(std::string_view magic, cursor.Line());
  if (magic != kSnapshotMagic) {
    return Err(ErrorCode::kParseError, StrCat("snapshot: bad magic '", magic, "'"));
  }
  while (!cursor.AtEnd()) {
    OMOS_TRY(std::string_view line, cursor.Line());
    OMOS_TRY(std::string_view tag, PopField(line));
    if (tag == "meta") {
      OMOS_TRY(uint64_t kind, PopNumber(line));
      OMOS_TRY(uint64_t len, PopNumber(line));
      OMOS_TRY(std::string_view blueprint, cursor.Blob(len));
      EntryKind entry_kind = kind == 1 ? EntryKind::kLibrary : EntryKind::kMeta;
      OMOS_TRY_VOID(staged.DefineMeta(line, blueprint, entry_kind));
      note_if_changed(line, [&](const NamespaceEntry& current) {
        return current.kind == entry_kind && current.blueprint_text == blueprint;
      });
      entries.push_back(EntryRow{line, entry_kind, blueprint, std::nullopt});
    } else if (tag == "frag") {
      OMOS_TRY(uint64_t len, PopNumber(line));
      OMOS_TRY(std::string_view hex, cursor.Blob(len));
      OMOS_TRY(std::vector<uint8_t> bytes, HexDecode(hex));
      OMOS_TRY(ObjectFile object, DecodeObject(bytes));
      OMOS_TRY_VOID(staged.AddFragment(line, object));
      note_if_changed(line, [&](const NamespaceEntry& current) {
        return current.kind == EntryKind::kFragment && EncodeObject(*current.fragment) == bytes;
      });
      entries.push_back(EntryRow{line, EntryKind::kFragment, {}, std::move(object)});
    } else if (tag == "order") {
      OMOS_TRY(uint64_t count, PopNumber(line));
      std::vector<std::string> order;
      order.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        OMOS_TRY(std::string_view name, cursor.Line());
        order.emplace_back(name);
      }
      // The path is ordered as the snapshot defines it, else as it stands.
      auto target = staged.Lookup(line);
      if (!target.ok()) {
        target = namespace_.Lookup(line);
      }
      if (!target.ok() || (*target)->kind == EntryKind::kFragment) {
        return Err(ErrorCode::kNotFound, StrCat("snapshot: no meta-object to order at ", line));
      }
      note_if_changed(line, [&](const NamespaceEntry& current) {
        return current.routine_order == order;
      });
      orders.push_back(OrderRow{line, std::move(order)});
    } else if (tag == "layoutgen") {
      // Older snapshots carry a layout generation row; it is ignored.
    } else if (tag == "place") {
      PlacementRecord record;
      OMOS_TRY(uint64_t text_base, PopNumber(line));
      OMOS_TRY(uint64_t text_size, PopNumber(line));
      OMOS_TRY(uint64_t data_base, PopNumber(line));
      OMOS_TRY(uint64_t data_size, PopNumber(line));
      record.placement.text_base = static_cast<uint32_t>(text_base);
      record.placement.data_base = static_cast<uint32_t>(data_base);
      record.text_size = static_cast<uint32_t>(text_size);
      record.data_size = static_cast<uint32_t>(data_size);
      record.object = std::string(line);
      places.push_back(std::move(record));
    } else if (tag == "prelink") {
      // Older snapshots follow the path with its cache key; it is ignored.
      OMOS_TRY(std::string_view path, PopField(line));
      prelinks.push_back(path);
    } else {
      return Err(ErrorCode::kParseError, StrCat("snapshot: unknown record '", tag, "'"));
    }
  }
  // A place row may clash neither with another nor with a placement that
  // stays: the invalidation below retires the superseded ones.
  OMOS_TRY_VOID(solver_.CheckAdoption(
      places, CachedDependents({changed.begin(), changed.end()}, /*transitive=*/true)));

  // Every row checked: apply them.
  InvalidateImagesOf(changed);
  for (EntryRow& row : entries) {
    OMOS_TRY_VOID(row.object.has_value() ? namespace_.AddFragment(row.path, std::move(*row.object))
                                         : namespace_.DefineMeta(row.path, row.blueprint, row.kind));
  }
  for (OrderRow& row : orders) {
    OMOS_TRY_VOID(namespace_.SetRoutineOrder(row.path, std::move(row.order)));
  }
  solver_.AdoptPlacements(places);
  {
    std::lock_guard<std::mutex> lock(relink_mu_);
    for (std::string_view path : prelinks) {
      prelinked_.emplace(path);
    }
  }
  // Restored entries supersede what earlier evaluations read.
  evaluator_.DropStaleMemos();
  return OkResult();
}

// ---- Administration -----------------------------------------------------------

int OmosServer::OptimizePlacements() {
  int evicted = 0;
  {
    // Exclusive, so the re-pack stays serialized with Restore's staged
    // placements.
    std::unique_lock<std::shared_mutex> publishing(publish_mu_);
    evicted = EvictMoved(solver_.OptimizePlacements());
  }
  // Outside publish_mu_ (the relink re-enters Instantiate): re-link prelinked
  // images at the re-packed layout, so an administrative re-pack doesn't
  // leave every prelinked exec to re-link on its critical path.
  RunRelink();
  return evicted;
}

Result<std::vector<ImageSymbol>> OmosServer::SymbolsForTask(TaskId id) const {
  std::vector<ImageRef> images;  // dropped after the lock
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    auto it = runtimes_.find(id);
    if (it == runtimes_.end()) {
      return Err(ErrorCode::kNotFound, StrCat("no OMOS runtime state for task ", id));
    }
    images = it->second.Images();
  }
  std::vector<ImageSymbol> symbols;
  for (const auto& image : images) {
    symbols.insert(symbols.end(), image->image.symbols.begin(), image->image.symbols.end());
  }
  return symbols;
}

Result<std::string> OmosServer::ProfileForTask(TaskId id) const {
  std::vector<CycleProfiler::Sample> samples = CycleProfiler::Samples();

  // Which tasks to attribute, with the images each maps: the requested one,
  // or every task with runtime state when id == 0 (the flat, cross-task
  // profile). The references are dropped after the lock.
  std::vector<std::pair<TaskId, std::vector<ImageRef>>> tasks;
  {
    std::lock_guard<std::mutex> lock(runtimes_mu_);
    for (const auto& [task_id, runtime] : runtimes_) {
      if (id == 0 || task_id == id) {
        tasks.emplace_back(task_id, runtime.Images());
      }
    }
  }
  if (id != 0 && tasks.empty()) {
    return Err(ErrorCode::kNotFound, StrCat("no OMOS runtime state for task ", id));
  }

  std::string out;
  for (const auto& [task_id, images] : tasks) {
    // Address-sorted text symbols across the task's program + library images,
    // each tagged with the image it came from (the per-image dimension).
    struct Row {
      uint32_t addr;
      uint32_t size;
      std::string_view name;
      const std::string* image;
    };
    std::vector<Row> rows;
    for (const auto& image : images) {
      for (const ImageSymbol& sym : image->image.symbols) {
        if (sym.section == SectionKind::kText) {
          rows.push_back(Row{sym.addr, sym.size, sym.name, &image->image.name});
        }
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.addr < b.addr; });

    // Resolve each of this task's samples to the covering symbol: greatest
    // addr <= pc, respecting the symbol size when it has one.
    auto resolve = [&](uint32_t pc) -> const Row* {
      auto it = std::upper_bound(rows.begin(), rows.end(), pc,
                                 [](uint32_t value, const Row& row) { return value < row.addr; });
      if (it == rows.begin()) {
        return nullptr;
      }
      --it;
      if (it->size != 0 && pc >= it->addr + it->size) {
        return nullptr;
      }
      return &*it;
    };

    uint64_t task_samples = 0;
    uint64_t unresolved = 0;
    std::map<std::pair<std::string, std::string>, uint64_t> by_symbol;  // (sym, image) -> n
    std::map<std::string, uint64_t> by_image;
    for (const CycleProfiler::Sample& sample : samples) {
      if (sample.task_id != task_id) {
        continue;
      }
      ++task_samples;
      const Row* row = resolve(sample.pc);
      if (row == nullptr) {
        ++unresolved;
        continue;
      }
      ++by_symbol[{std::string(row->name), *row->image}];
      ++by_image[*row->image];
    }

    out += StrCat("profile task=", task_id, " samples=", task_samples, "\n");
    std::vector<std::pair<std::pair<std::string, std::string>, uint64_t>> flat(
        by_symbol.begin(), by_symbol.end());
    std::sort(flat.begin(), flat.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    for (const auto& [key, count] : flat) {
      uint64_t pct = task_samples == 0 ? 0 : count * 100 / task_samples;
      out += StrCat("  ", count, " ", pct, "% ", key.first, " (", key.second, ")\n");
    }
    if (unresolved > 0) {
      out += StrCat("  ", unresolved, " ", task_samples == 0 ? 0 : unresolved * 100 / task_samples,
                    "% [unresolved]\n");
    }
    for (const auto& [image, count] : by_image) {
      out += StrCat("image ", image, " samples=", count, "\n");
    }
  }
  if (out.empty()) {
    out = "profile: no samples\n";
  }
  return out;
}

// ---- IPC --------------------------------------------------------------------

Channel OmosServer::MakeChannel() { return MakeChannel(exec_transport()); }

Channel OmosServer::TakeExecChannel(ExecTransport transport) {
  static Counter* created = MetricsRegistry::Global().GetCounter("ipc.exec_channels.created");
  std::vector<ParkedChannel> stale;  // destroyed after the lock drops
  {
    std::lock_guard<std::mutex> lock(exec_channels_mu_);
    while (!exec_channels_.empty()) {
      ParkedChannel parked = std::move(exec_channels_.back());
      exec_channels_.pop_back();
      if (parked.transport == transport) {
        return std::move(parked.channel);
      }
      stale.push_back(std::move(parked));
    }
  }
  created->Add();
  return MakeChannel(transport);
}

void OmosServer::ParkExecChannel(ExecTransport transport, Channel channel) {
  if (transport != exec_transport()) {
    return;  // the transport switched during the call: drop it
  }
  std::lock_guard<std::mutex> lock(exec_channels_mu_);
  exec_channels_.push_back(ParkedChannel{transport, std::move(channel)});
}

Channel OmosServer::MakeChannel(ExecTransport transport) {
  ServeFn serve = [this](const std::vector<uint8_t>& bytes) { return ServeMessage(bytes); };
  const CostModel& costs = kernel_->costs();
  switch (transport) {
    case ExecTransport::kStream:
      // SysV-message shape: queue round trip plus per-byte framing.
      return Channel(MakeStreamTransport(std::move(serve), costs.ipc_round_trip, 2));
    case ExecTransport::kRing: {
      RingConfig config;
      config.handoff_cost = costs.ring_handoff;
      config.slot_cost = costs.ring_slot;
      ServeFn fallback_serve = [this](const std::vector<uint8_t>& bytes) {
        return ServeMessage(bytes);
      };
      Channel channel(MakeRingTransport(std::move(serve), config));
      // A ring whose checksums keep failing (damaged shared mapping) demotes
      // to the plain stream so clients stay reachable, just slower. After a
      // quiet period of 8 clean stream exchanges the channel probes the ring
      // again and re-promotes if the damage has cleared (remapped ring).
      channel.ArmFallbackTransport(
          MakeStreamTransport(std::move(fallback_serve), costs.ipc_round_trip, 2),
          /*threshold=*/3, /*repromote_after=*/8);
      return channel;
    }
    case ExecTransport::kPort:
      break;
  }
  return Channel(std::move(serve), costs.ipc_round_trip);
}

namespace {

const char* OpName(OmosOp op) {
  switch (op) {
    case OmosOp::kInstantiate:
      return "instantiate";
    case OmosOp::kDefineMeta:
      return "define-meta";
    case OmosOp::kListNamespace:
      return "list-namespace";
    case OmosOp::kDynamicLoad:
      return "dynamic-load";
    case OmosOp::kIntrospect:
      return "introspect";
  }
  return "unknown";
}

}  // namespace

OmosReply OmosServer::HandleRequest(const OmosRequest& request) {
  TraceSpan trace("server.request", OpName(request.op));
  // Request-latency histogram + counter; pointers cached after first lookup.
  // Counted on entry so an Introspect snapshot sees its own request.
  static Counter* requests = MetricsRegistry::Global().GetCounter("server.requests");
  static Histogram* request_ns = MetricsRegistry::Global().GetHistogram("server.request_ns");
  requests->Add();
  auto start = std::chrono::steady_clock::now();
  OmosReply reply = HandleRequestImpl(request);
  request_ns->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start)
          .count()));
  return reply;
}

OmosReply OmosServer::HandleRequestImpl(const OmosRequest& request) {
  OmosReply reply;
  // Instantiate and DynamicLoad act on the client task named by the handle.
  Task* task = nullptr;
  if (request.op == OmosOp::kInstantiate || request.op == OmosOp::kDynamicLoad) {
    task = kernel_->FindTask(request.task_handle);
    if (task == nullptr) {
      reply.error = "bad task handle";
      return reply;
    }
  }
  switch (request.op) {
    case OmosOp::kInstantiate: {
      Result<Specialization> spec = Specialization::FromKeyString(request.specialization);
      if (!spec.ok()) {
        reply.error = spec.error().ToString();
        return reply;
      }
      auto program = InstantiateAndMap(*task, request.path, *spec);
      if (!program.ok()) {
        reply.error = program.error().ToString();
        return reply;
      }
      reply.ok = true;
      reply.entry = (*program)->image.entry;
      for (const auto& region : task->space().Regions()) {
        reply.segments.push_back(SegmentDesc{region.base, region.size, region.prot, region.name});
      }
      return reply;
    }
    case OmosOp::kDefineMeta: {
      // The blueprint text travels in the `specialization` field.
      auto status = DefineMeta(request.path, request.specialization);
      if (!status.ok()) {
        reply.error = status.error().ToString();
        return reply;
      }
      reply.ok = true;
      return reply;
    }
    case OmosOp::kListNamespace:
      reply.ok = true;
      reply.names = ListNamespace(request.path);
      return reply;
    case OmosOp::kDynamicLoad: {
      auto result = DynamicLoad(*task, request.path, request.symbols);
      if (!result.ok()) {
        reply.error = result.error().ToString();
        return reply;
      }
      reply.ok = true;
      reply.entry = result->text_base;
      reply.symbol_values = result->symbol_values;
      return reply;
    }
    case OmosOp::kIntrospect:
      return HandleIntrospect(request);
  }
  reply.error = "unknown op";
  return reply;
}

OmosReply OmosServer::HandleIntrospect(const OmosRequest& request) {
  OmosReply reply;
  reply.ok = true;
  auto fail = [&reply](const Error& error) {
    reply.ok = false;
    reply.error = error.ToString();
  };
  const std::string& cmd = request.path;
  if (cmd == "stats") {
    reply.metrics = MetricsRegistry::Global().Snapshot();
  } else if (cmd == "stats-text") {
    reply.payload = MetricsRegistry::Global().TextSummary();
  } else if (cmd == "trace") {
    reply.payload = TraceToChromeJson();
  } else if (cmd == "trace-summary") {
    reply.payload = TraceTextSummary();
  } else if (cmd == "trace-start" || cmd == "trace-stop") {
    TraceSetEnabled(cmd == "trace-start");
  } else if (cmd == "trace-clear") {
    TraceClear();
  } else if (cmd == "profile-start") {
    // task_handle doubles as the sampling period here (0 = default).
    CycleProfiler::Clear();
    CycleProfiler::Start(request.task_handle == 0 ? 64 : request.task_handle);
  } else if (cmd == "profile-stop") {
    CycleProfiler::Stop();
  } else if (cmd == "profile") {
    auto profile = ProfileForTask(request.task_handle);
    if (profile.ok()) {
      reply.payload = *profile;
    } else {
      fail(profile.error());
    }
  } else if (cmd == "placements") {
    // The global layout as the solver sees it: one line per current
    // placement, the count of live ones (retired ones an old task or image
    // still holds included), then the outstanding conflict log.
    for (const PlacementRecord& record : solver_.ExportPlacements()) {
      reply.payload += StrCat("place T=", Hex32(record.placement.text_base),
                              " D=", Hex32(record.placement.data_base), " ", record.object,
                              "\n");
    }
    reply.payload += StrCat("held ", solver_.placed_count(), "\n");
    for (const ConflictRecord& conflict : solver_.conflicts()) {
      reply.payload += StrCat("conflict ", conflict.object, " wanted=", Hex32(conflict.wanted),
                              " got=", Hex32(conflict.got), " holder=", conflict.holder, "\n");
    }
  } else if (StartsWith(cmd, "upgrade ")) {
    // "upgrade <libpath>" with the new blueprint in request.specialization:
    // kick off a live upgrade (docs/upgrade.md). The reply returns the
    // upgrade id; progress is polled via "upgrade-status".
    std::string target = cmd.substr(std::string_view("upgrade ").size());
    auto begun = BeginUpgrade(target, request.specialization);
    if (begun.ok()) {
      reply.payload = StrCat("upgrade ", *begun, " of ", target, " started\n");
    } else {
      fail(begun.error());
    }
  } else if (cmd == "upgrade-status") {
    UpgradeStatus status = UpgradeStatusNow();
    reply.payload = status.id == 0
                        ? "no upgrade\n"
                        : StrCat("upgrade ", status.id, " ", status.path, ": ",
                                 UpgradePhaseName(status.phase), ", ", status.tasks_pending,
                                 " task(s) pending",
                                 status.error.empty() ? "" : StrCat(" (", status.error, ")"), "\n");
  } else {
    reply.ok = false;
    reply.error = StrCat("unknown introspect subcommand: ", cmd);
  }
  return reply;
}

std::vector<uint8_t> OmosServer::ServeMessage(const std::vector<uint8_t>& request_bytes) {
  if (IsBatchRequest(request_bytes)) {
    return ServeBatch(request_bytes);
  }
  auto request = DecodeRequest(request_bytes);
  OmosReply reply;
  if (!request.ok()) {
    reply.error = request.error().ToString();
  } else {
    reply = HandleRequest(*request);
  }
  return EncodeReply(reply);
}

std::vector<uint8_t> OmosServer::ServeBatch(const std::vector<uint8_t>& request_bytes) {
  static Counter* batches = MetricsRegistry::Global().GetCounter("server.batches");
  static Counter* batched = MetricsRegistry::Global().GetCounter("server.batched_requests");
  auto requests = DecodeRequestBatch(request_bytes);
  if (!requests.ok()) {
    // The whole envelope is unreadable; a single error reply tells the
    // client to retry (framing damage is retryable).
    OmosReply reply;
    reply.error = requests.error().ToString();
    return EncodeReply(reply);
  }
  batches->Add();
  batched->Add(requests->size());
  TraceSpan trace("server.batch", StrCat(requests->size(), " requests"));
  std::vector<OmosReply> replies(requests->size());
  // Members are independent; fan out on the request pool. A member that
  // fails produces an ok=false reply in its slot and nothing else.
  ThreadPool::Global().ParallelFor(requests->size(), /*grain=*/1,
                                   [&](size_t begin, size_t end) {
                                     for (size_t i = begin; i < end; ++i) {
                                       replies[i] = HandleRequest((*requests)[i]);
                                     }
                                   });
  return EncodeReplyBatch(replies);
}

void OmosServer::ServeAsync(std::vector<uint8_t> request_bytes,
                            std::function<void(std::vector<uint8_t>)> done) {
  ThreadPool::Global().Submit(
      [this, bytes = std::move(request_bytes), done = std::move(done)]() mutable {
        done(ServeMessage(bytes));
      });
}

}  // namespace omos
