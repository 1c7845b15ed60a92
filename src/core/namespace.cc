#include "src/core/namespace.h"

#include <algorithm>
#include <atomic>

#include "src/support/strings.h"

namespace omos {

namespace {

// Normal form: absolute, no empty component, no trailing slash. Most paths
// arrive normal already.
bool IsNormal(std::string_view path) {
  return StartsWith(path, "/") && (path.size() == 1 || path.back() != '/') &&
         path.find("//") == std::string_view::npos;
}

// Swaps `fresh` into `slot`, stamping it with its versions. The entry it
// replaces is superseded, and so is that entry's library interface unless
// `fresh` is a library with the same default specialization, which takes
// the interface over. Returns the replaced entry, for the caller to drop
// once the lock is released.
std::shared_ptr<const NamespaceEntry> Supersede(std::shared_ptr<const NamespaceEntry>& slot,
                                               NamespaceEntry fresh) {
  const NamespaceEntry* old = slot.get();
  fresh.version = std::make_shared<const ReadVersion>();
  if (fresh.kind == EntryKind::kLibrary) {
    bool same_interface = old != nullptr && old->kind == EntryKind::kLibrary &&
                          old->default_spec == fresh.default_spec;
    fresh.interface = same_interface ? old->interface : std::make_shared<const ReadVersion>();
  } else {
    fresh.interface = nullptr;
  }
  if (old != nullptr) {
    old->version->superseded.store(true);
    if (old->interface != nullptr && old->interface != fresh.interface) {
      old->interface->superseded.store(true);
    }
  }
  return std::exchange(slot, std::make_shared<const NamespaceEntry>(std::move(fresh)));
}

}  // namespace

std::string OmosNamespace::Normalize(std::string_view path) {
  if (IsNormal(path)) {
    return std::string(path);
  }
  std::string out = "/";
  for (const std::string& part : SplitString(path, '/')) {
    if (part.empty()) {
      continue;
    }
    if (out.back() != '/') {
      out.push_back('/');
    }
    out += part;
  }
  return out;
}

Result<void> OmosNamespace::DefineMeta(std::string_view path, std::string_view blueprint,
                                       EntryKind kind) {
  OMOS_TRY(NamespaceEntry entry, Parse(path, blueprint, kind));
  return Publish(Normalize(path), std::move(entry));
}

Result<NamespaceEntry> OmosNamespace::Parse(std::string_view path, std::string_view blueprint,
                                            EntryKind kind) {
  OMOS_TRY(std::vector<Sexpr> exprs, ParseSexprs(blueprint));
  NamespaceEntry entry;
  entry.kind = kind;
  entry.blueprint_text = std::string(blueprint);

  std::vector<Sexpr> construction;
  for (Sexpr& expr : exprs) {
    if (expr.kind == Sexpr::Kind::kList && !expr.children.empty() &&
        expr.children[0].kind == Sexpr::Kind::kSymbol) {
      const std::string& head = expr.children[0].atom;
      if (head == "constraint-list") {
        // (constraint-list "T" 0x100000 "D" 0x40200000)
        for (size_t i = 1; i + 1 < expr.children.size(); i += 2) {
          if (expr.children[i].atom == "T") {
            entry.hints.text_base = static_cast<uint32_t>(expr.children[i + 1].number);
          } else if (expr.children[i].atom == "D") {
            entry.hints.data_base = static_cast<uint32_t>(expr.children[i + 1].number);
          } else {
            return Err(ErrorCode::kParseError,
                       StrCat(path, ": constraint-list key must be \"T\" or \"D\""));
          }
        }
        entry.kind = EntryKind::kLibrary;
        continue;
      }
      if (head == "default-specialization") {
        if (expr.children.size() != 2 || expr.children[1].kind != Sexpr::Kind::kString) {
          return Err(ErrorCode::kParseError,
                     StrCat(path, ": default-specialization takes one string"));
        }
        entry.default_spec = expr.children[1].atom;
        entry.kind = EntryKind::kLibrary;
        continue;
      }
    }
    construction.push_back(std::move(expr));
  }
  if (construction.size() != 1) {
    return Err(ErrorCode::kParseError,
               StrCat(path, ": expected exactly one construction expression, got ",
                      construction.size()));
  }
  entry.construction = std::move(construction[0]);
  return entry;
}

Result<void> OmosNamespace::AddFragment(std::string_view path, ObjectFile object) {
  OMOS_TRY_VOID(object.Validate());
  NamespaceEntry entry;
  entry.kind = EntryKind::kFragment;
  entry.fragment = std::make_shared<const ObjectFile>(std::move(object));
  return Publish(Normalize(path), std::move(entry));
}

Result<void> OmosNamespace::SetRoutineOrder(std::string_view path,
                                            std::vector<std::string> order) {
  std::shared_ptr<const NamespaceEntry> replaced;  // freed after the lock drops
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(Normalize(path));
  if (it == entries_.end() || it->second->kind == EntryKind::kFragment) {
    return Err(ErrorCode::kNotFound, StrCat("no meta-object to order at ", path));
  }
  NamespaceEntry entry = *it->second;
  entry.routine_order = std::move(order);
  replaced = Supersede(it->second, std::move(entry));
  return OkResult();
}

Result<void> OmosNamespace::Publish(std::string path, NamespaceEntry entry) {
  // Declared before the lock, so a replaced version is freed after the lock
  // drops (or later, by the last in-flight build still holding it).
  std::shared_ptr<const NamespaceEntry> replaced;
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::shared_ptr<const NamespaceEntry>& slot = entries_[std::move(path)];
  if (slot != nullptr && slot->kind != EntryKind::kFragment &&
      entry.kind != EntryKind::kFragment) {
    entry.routine_order = slot->routine_order;
  }
  replaced = Supersede(slot, std::move(entry));
  return OkResult();
}

Result<std::shared_ptr<const NamespaceEntry>> OmosNamespace::Lookup(std::string_view path) const {
  std::string normalized;
  std::string_view key = IsNormal(path) ? path : (normalized = Normalize(path));
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Err(ErrorCode::kNotFound, StrCat("no such object: ", path));
  }
  return it->second;
}

bool OmosNamespace::AllCurrent(const ReadSet& reads) const {
  return reads.AllOf([](const Read& read) {
    return read.version != nullptr && !read.version->superseded.load();
  });
}

ReadSet::ReadSet(std::vector<NamespaceRead> own,
                 std::span<const std::shared_ptr<const ReadSet>> nested)
    : own_(std::move(own)) {
  std::sort(own_.begin(), own_.end());
  own_.erase(std::unique(own_.begin(), own_.end()), own_.end());
  for (const std::shared_ptr<const ReadSet>& set : nested) {
    nested_.push_back(set);
    nested_.insert(nested_.end(), set->nested_.begin(), set->nested_.end());
  }
  std::sort(nested_.begin(), nested_.end());
  nested_.erase(std::unique(nested_.begin(), nested_.end()), nested_.end());
}

bool ReadSet::Reads(std::string_view path) const {
  auto reads = [path](const ReadSet& set) {
    auto it = std::lower_bound(
        set.own_.begin(), set.own_.end(), path,
        [](const NamespaceRead& read, std::string_view want) { return read.path < want; });
    return it != set.own_.end() && it->path == path;
  };
  return reads(*this) || std::any_of(nested_.begin(), nested_.end(),
                                     [&](const auto& set) { return reads(*set); });
}

std::vector<std::string> ReadSet::Paths() const {
  std::vector<std::string> paths;
  AllOf([&paths](const NamespaceRead& read) {
    paths.push_back(read.path);
    return true;
  });
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

bool OmosNamespace::Exists(std::string_view path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.count(Normalize(path)) != 0;
}

size_t OmosNamespace::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::pair<std::string, std::shared_ptr<const NamespaceEntry>>>
OmosNamespace::SnapshotEntries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const NamespaceEntry>>> out;
  out.reserve(entries_.size());
  for (const auto& [path, entry] : entries_) {
    out.emplace_back(path, entry);
  }
  return out;
}

std::vector<std::string> OmosNamespace::List(std::string_view path) const {
  std::string prefix = Normalize(path);
  if (prefix.back() != '/') {
    prefix.push_back('/');
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) {
      break;
    }
    std::string_view rest = std::string_view(it->first).substr(prefix.size());
    size_t slash = rest.find('/');
    std::string name(slash == std::string_view::npos ? rest : rest.substr(0, slash));
    if (names.empty() || names.back() != name) {
      names.push_back(std::move(name));
    }
  }
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

}  // namespace omos
