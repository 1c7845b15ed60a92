#include "src/core/evaluator.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <sstream>

#include "src/cc/compiler.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/vasm/assembler.h"

namespace omos {

void Overlay(PlacementHints& base, const PlacementHints& over) {
  if (over.text_base.has_value()) {
    base.text_base = over.text_base;
  }
  if (over.data_base.has_value()) {
    base.data_base = over.data_base;
  }
}

// ---- Specialization ---------------------------------------------------------

std::string Specialization::ToKeyString() const {
  std::string out = name;
  if (hints.text_base.has_value()) {
    out += ";T=" + Hex32(*hints.text_base);
  }
  if (hints.data_base.has_value()) {
    out += ";D=" + Hex32(*hints.data_base);
  }
  return out;
}

Result<Specialization> Specialization::FromKeyString(std::string_view text) {
  // A base as ToKeyString writes it ("0x" hex), or octal/decimal like
  // strtoul's base 0; anything else, or wider than 32 bits, is refused.
  auto parse_base = [text](std::string_view value) -> Result<uint32_t> {
    std::string_view digits = value;
    int radix = 10;
    if (digits.size() > 2 && digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X')) {
      digits.remove_prefix(2);
      radix = 16;
    } else if (digits.size() > 1 && digits[0] == '0') {
      digits.remove_prefix(1);
      radix = 8;
    }
    uint32_t base = 0;
    auto [ptr, ec] = std::from_chars(digits.data(), digits.data() + digits.size(), base, radix);
    if (digits.empty() || ec != std::errc() || ptr != digits.data() + digits.size()) {
      return Err(ErrorCode::kInvalidArgument,
                 StrCat("specialization '", text, "': bad base '", value, "'"));
    }
    return base;
  };
  Specialization spec;
  std::vector<std::string> parts = SplitString(text, ';');
  if (!parts.empty()) {
    spec.name = parts[0];
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    std::string_view part = parts[i];
    if (StartsWith(part, "T=")) {
      OMOS_TRY(spec.hints.text_base, parse_base(part.substr(2)));
    } else if (StartsWith(part, "D=")) {
      OMOS_TRY(spec.hints.data_base, parse_base(part.substr(2)));
    }
  }
  return spec;
}

// ---- Evaluation -------------------------------------------------------------

Result<Module> BlueprintEvaluator::RequireModule(EvalValue value, std::string_view op) {
  if (!value.module.has_value()) {
    return Err(ErrorCode::kInvalidArgument,
               StrCat(op, ": operand yields no module (library references need merge context)"));
  }
  return std::move(*value.module);
}

Result<EvalValue> BlueprintEvaluator::MergeValues(std::vector<EvalValue> values,
                                                  bool override_mode) {
  EvalValue out;
  std::vector<Module> modules;
  modules.reserve(values.size());
  for (EvalValue& value : values) {
    out.libs.insert(out.libs.end(), value.libs.begin(), value.libs.end());
    Overlay(out.hints, value.hints);
    if (value.module.has_value()) {
      modules.push_back(std::move(*value.module));
    }
  }
  if (!override_mode) {
    OMOS_TRY(out.module, Module::MergeAll(modules));
    return out;
  }
  out.module = modules.empty() ? Module() : std::move(modules[0]);
  for (size_t i = 1; i < modules.size(); ++i) {
    OMOS_TRY(out.module, Module::Override(*out.module, modules[i]));
  }
  return out;
}

bool BlueprintEvaluator::MemoCurrent(const EvalMemo& memo, const NamespaceEntry* entry) const {
  return memo.entry.get() == entry && namespace_.AllCurrent(*memo.reads);
}

void BlueprintEvaluator::DropStaleMemos() {
  std::vector<std::shared_ptr<const EvalMemo>> dropped;  // freed after the lock drops
  std::lock_guard<std::mutex> lock(memo_mu_);
  std::erase_if(memo_, [&](auto& item) {
    if (MemoCurrent(*item.second, item.second->entry.get())) {
      return false;
    }
    dropped.push_back(std::move(item.second));
    return true;
  });
}

Result<EvalValue> BlueprintEvaluator::EvalConstruction(
    const std::string& norm, const std::shared_ptr<const NamespaceEntry>& entry,
    BuildTracker& tracker, int depth) {
  static Counter* hits = MetricsRegistry::Global().GetCounter("eval.memo_hits");
  static Counter* misses = MetricsRegistry::Global().GetCounter("eval.memo_misses");
  std::shared_ptr<const EvalMemo> memo;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(norm);
    if (it != memo_.end()) {
      memo = it->second;
    }
  }
  // A hit must also fit the depth budget a cold evaluation would have had
  // from here; otherwise evaluate cold and report its error.
  if (memo != nullptr && MemoCurrent(*memo, entry.get()) &&
      depth + memo->height <= kMaxEvalDepth) {
    hits->Add();
    tracker.work += memo->work;
    tracker.nested.push_back(memo->reads);
    tracker.max_depth = std::max(tracker.max_depth, depth + memo->height);
    return memo->value;
  }
  misses->Add();
  BuildTracker sub;
  sub.max_depth = depth;
  Result<EvalValue> value = Eval(entry->construction, sub, depth);
  // Cold work and reads are billed and recorded whether or not it succeeded.
  tracker.work += sub.work;
  tracker.max_depth = std::max(tracker.max_depth, sub.max_depth);
  sub.reads.push_back({norm, entry->version});
  std::shared_ptr<const ReadSet> reads = sub.TakeReads();
  tracker.nested.push_back(reads);
  if (!value.ok()) {
    return value;
  }
  if (value->module.has_value()) {
    // Materialized once here, so concurrent hits only ever read the space.
    OMOS_TRY_VOID(value->module->Space());
  }
  auto fresh = std::make_shared<EvalMemo>();
  fresh->entry = entry;
  fresh->value = *value;
  fresh->work = sub.work;
  fresh->height = sub.max_depth - depth;
  fresh->reads = std::move(reads);
  std::shared_ptr<const EvalMemo> replaced;  // freed after the lock drops
  {
    // Checked under the lock DropStaleMemos takes: a redefinition that
    // published before this check is seen here, and one that publishes
    // after it drops the memo once it has.
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (namespace_.AllCurrent(*fresh->reads)) {
      replaced = std::exchange(memo_[norm], std::move(fresh));
    }
  }
  return value;
}

Result<BlueprintEvaluator::Evaluated> BlueprintEvaluator::EvalPath(std::string_view path,
                                                                   BuildTracker& tracker,
                                                                   int depth,
                                                                   bool mention_libraries) {
  std::string norm = OmosNamespace::Normalize(path);
  auto entry = namespace_.Lookup(norm);
  if (!entry.ok()) {
    tracker.reads.push_back({std::move(norm), nullptr});
    return entry.error();
  }
  Evaluated out{std::move(*entry), {}};
  if (out.entry->kind == EntryKind::kLibrary && mention_libraries) {
    // A mention is a read of the library's interface, not of its entry: the
    // value depends on its default specialization alone. The library's own
    // constraint-list is its *default* placement and is applied when the
    // library image itself is built; only explicit specialize-time hints
    // travel in the spec (and hence the cache key).
    tracker.reads.push_back({norm, out.entry->interface});
    out.value.libs.push_back(LibraryUse{std::move(norm), {out.entry->default_spec, {}}});
    return out;
  }
  tracker.reads.push_back({norm, out.entry->version});
  if (out.entry->kind == EntryKind::kFragment) {
    out.value.module = Module::FromObject(out.entry->fragment);
  } else {
    OMOS_TRY(out.value, EvalConstruction(norm, out.entry, tracker, depth));
  }
  return out;
}

Result<EvalValue> BlueprintEvaluator::Eval(const Sexpr& expr, BuildTracker& tracker, int depth) {
  if (depth > kMaxEvalDepth) {
    return Err(ErrorCode::kParseError, "blueprint: evaluation too deep (cycle?)");
  }
  tracker.max_depth = std::max(tracker.max_depth, depth);
  if (expr.kind == Sexpr::Kind::kSymbol) {
    OMOS_TRY(Evaluated named, EvalPath(expr.atom, tracker, depth + 1, /*mention_libraries=*/true));
    return std::move(named.value);
  }
  if (expr.IsAtom()) {
    return Err(ErrorCode::kParseError,
               StrCat("blueprint: cannot evaluate atom '", expr.ToString(), "'"));
  }
  if (expr.children.empty() || expr.children[0].kind != Sexpr::Kind::kSymbol) {
    return Err(ErrorCode::kParseError, "blueprint: expected (operation args...)");
  }
  const std::string& op = expr.children[0].atom;

  // The operands from `first` on, merged (or overridden left to right).
  auto merged_operands = [&](size_t first, bool override_mode) -> Result<EvalValue> {
    std::vector<EvalValue> values;
    for (size_t i = first; i < expr.children.size(); ++i) {
      OMOS_TRY(EvalValue value, Eval(expr.children[i], tracker, depth + 1));
      values.push_back(std::move(value));
    }
    return MergeValues(std::move(values), override_mode);
  };
  auto string_arg = [&](size_t i) -> Result<std::string> {
    if (i >= expr.children.size() || expr.children[i].kind != Sexpr::Kind::kString) {
      return Err(ErrorCode::kParseError, StrCat(op, ": argument ", i, " must be a string"));
    }
    return expr.children[i].atom;
  };
  auto unary_operand = [&](size_t first) -> Result<EvalValue> {
    if (first >= expr.children.size()) {
      return Err(ErrorCode::kParseError, StrCat(op, ": missing operand"));
    }
    return merged_operands(first, /*override_mode=*/false);
  };

  if (op == "merge" || op == "list" || op == "override") {
    return merged_operands(1, /*override_mode=*/op == "override");
  }
  if (op == "freeze" || op == "restrict" || op == "project" || op == "hide" || op == "show") {
    OMOS_TRY(std::string pattern, string_arg(1));
    OMOS_TRY(EvalValue value, unary_operand(2));
    const Module& m = *value.module;
    value.module = op == "freeze"     ? m.Freeze(pattern)
                   : op == "restrict" ? m.Restrict(pattern)
                   : op == "project"  ? m.Project(pattern)
                   : op == "hide"     ? m.Hide(pattern)
                                      : m.Show(pattern);
    return value;
  }
  if (op == "copy-as" || op == "copy_as") {
    OMOS_TRY(std::string pattern, string_arg(1));
    OMOS_TRY(std::string newname, string_arg(2));
    OMOS_TRY(EvalValue value, unary_operand(3));
    value.module = value.module->CopyAs(pattern, newname);
    return value;
  }
  if (op == "rename") {
    OMOS_TRY(std::string pattern, string_arg(1));
    OMOS_TRY(std::string newname, string_arg(2));
    size_t operand_start = 3;
    RenameWhich which = RenameWhich::kBoth;
    if (expr.children.size() > 3 && expr.children[3].kind == Sexpr::Kind::kString) {
      const std::string& w = expr.children[3].atom;
      if (w == "refs") {
        which = RenameWhich::kRefs;
      } else if (w == "defs") {
        which = RenameWhich::kDefs;
      } else if (w == "both") {
        which = RenameWhich::kBoth;
      } else {
        return Err(ErrorCode::kParseError, StrCat("rename: bad selector '", w, "'"));
      }
      operand_start = 4;
    }
    OMOS_TRY(EvalValue value, unary_operand(operand_start));
    value.module = value.module->Rename(pattern, newname, which);
    return value;
  }
  if (op == "source") {
    OMOS_TRY(std::string lang, string_arg(1));
    OMOS_TRY(std::string text, string_arg(2));
    size_t lines = 1 + std::count(text.begin(), text.end(), '\n');
    tracker.work += kAssembleLineCost * lines;
    ObjectFile object;
    if (lang == "asm") {
      OMOS_TRY(object, Assemble(text, "source.s"));
    } else if (lang == "c") {
      OMOS_TRY(std::string asm_text, CompileC(text));
      OMOS_TRY(object, Assemble(asm_text, "source.c"));
    } else {
      return Err(ErrorCode::kUnsupported, StrCat("source: unknown language '", lang, "'"));
    }
    EvalValue value;
    value.module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
    return value;
  }
  if (op == "specialize") {
    OMOS_TRY(std::string spec_name, string_arg(1));
    PlacementHints hints;
    size_t operand_start = 2;
    // Optional (list "T" addr ["D" addr]) placement argument.
    if (expr.children.size() > 2 && expr.children[2].kind == Sexpr::Kind::kList &&
        !expr.children[2].children.empty() && expr.children[2].children[0].atom == "list") {
      const auto& args = expr.children[2].children;
      for (size_t i = 1; i + 1 < args.size(); i += 2) {
        if (args[i].atom == "T") {
          hints.text_base = static_cast<uint32_t>(args[i + 1].number);
        } else if (args[i].atom == "D") {
          hints.data_base = static_cast<uint32_t>(args[i + 1].number);
        }
      }
      operand_start = 3;
    }
    OMOS_TRY(EvalValue out, merged_operands(operand_start, /*override_mode=*/false));
    if (!out.libs.empty()) {
      for (LibraryUse& use : out.libs) {
        use.spec.name = spec_name;
        Overlay(use.spec.hints, hints);
      }
      return out;
    }
    // Module-level specialization: only placement-style specializations are
    // meaningful here; monitor/reorder apply at Instantiate time.
    if (spec_name == "lib-constrained" || spec_name == "constrained") {
      out.hints = hints;
      return out;
    }
    return Err(ErrorCode::kUnsupported,
               StrCat("specialize ", spec_name, ": operand is not a library"));
  }
  if (op == "constrain") {
    // (constrain "T" addr operand...) — placement hint for this object.
    OMOS_TRY(std::string which, string_arg(1));
    if (expr.children.size() < 4 || expr.children[2].kind != Sexpr::Kind::kNumber) {
      return Err(ErrorCode::kParseError, "constrain: expected (constrain \"T\" addr operand)");
    }
    uint32_t addr = static_cast<uint32_t>(expr.children[2].number);
    OMOS_TRY(EvalValue value, unary_operand(3));
    if (which == "T") {
      value.hints.text_base = addr;
    } else if (which == "D") {
      value.hints.data_base = addr;
    } else {
      return Err(ErrorCode::kParseError, "constrain: key must be \"T\" or \"D\"");
    }
    return value;
  }
  if (op == "initializers") {
    // Generate a __run_initializers routine calling every __init_* export in
    // name order (the C++ static-constructor story, §2.2/§3.3).
    OMOS_TRY(EvalValue value, unary_operand(1));
    OMOS_TRY(std::vector<std::string> exports, value.module->ExportNames());
    std::vector<std::string> inits;
    for (const std::string& name : exports) {
      if (StartsWith(name, "__init_")) {
        inits.push_back(name);
      }
    }
    std::ostringstream text;
    text << ".text\n.global __run_initializers\n__run_initializers:\n  push lr\n";
    for (const std::string& init : inits) {
      text << "  call " << init << "\n";
    }
    text << "  pop lr\n  ret\n";
    tracker.work += kAssembleLineCost * (inits.size() + 4);
    OMOS_TRY(ObjectFile object, Assemble(text.str(), "initializers.s"));
    OMOS_TRY(Module merged,
             Module::Merge(*value.module,
                           Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)))));
    value.module = std::move(merged);
    return value;
  }
  return Err(ErrorCode::kParseError, StrCat("blueprint: unknown operation '", op, "'"));
}

Result<Module> BlueprintEvaluator::FoldInLibraries(EvalValue root, std::string_view path,
                                                   BuildTracker& tracker) {
  std::vector<Module> parts{root.module.has_value() ? std::move(*root.module) : Module()};
  // Fold library dependencies in, transitively, in discovery order.
  std::vector<LibraryUse> pending = std::move(root.libs);
  std::set<std::string> seen;
  int guard = 0;
  while (!pending.empty()) {
    if (++guard > 100) {
      return Err(ErrorCode::kParseError, StrCat(path, ": library dependency cycle"));
    }
    LibraryUse use = std::move(pending.back());
    pending.pop_back();
    if (!seen.insert(use.path).second) {
      continue;
    }
    OMOS_TRY(Evaluated lib, EvalPath(use.path, tracker));
    if (lib.value.module.has_value()) {
      parts.push_back(std::move(*lib.value.module));
    }
    for (LibraryUse& nested : lib.value.libs) {
      pending.push_back(std::move(nested));
    }
  }
  return Module::MergeAll(parts);
}

}  // namespace omos
