#include "src/tools/ofe_lib.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "src/isa/isa.h"
#include "src/linker/link.h"
#include "src/linker/module.h"
#include "src/objfmt/backend.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace omos {

namespace {

std::string Substitute(const std::string& replacement, const std::string& original) {
  std::string out;
  for (char c : replacement) {
    if (c == '&') {
      out += original;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string OfeSymbolListing(const ObjectFile& object) {
  std::ostringstream out;
  out << "object " << object.name() << ": text " << object.section(SectionKind::kText).size()
      << ", data " << object.section(SectionKind::kData).size() << ", bss "
      << object.section(SectionKind::kBss).size() << " bytes\n";
  for (const Symbol& sym : object.symbols()) {
    if (sym.defined) {
      out << "  " << sym.name << " " << SymbolBindingName(sym.binding) << " "
          << SectionKindName(sym.section) << " +" << sym.value;
      if (sym.size != 0) {
        out << " size " << sym.size;
      }
      out << "\n";
    } else {
      out << "  " << sym.name << " undefined\n";
    }
  }
  return out.str();
}

std::string OfeRelocListing(const ObjectFile& object) {
  std::ostringstream out;
  for (int s = 0; s < kNumSections; ++s) {
    SectionKind kind = static_cast<SectionKind>(s);
    for (const Relocation& reloc : object.section(kind).relocs) {
      out << "  " << SectionKindName(kind) << "+" << reloc.offset << " "
          << RelocKindName(reloc.kind) << " -> " << reloc.symbol;
      if (reloc.addend != 0) {
        out << (reloc.addend > 0 ? "+" : "") << reloc.addend;
      }
      out << "\n";
    }
  }
  return out.str();
}

Result<std::string> OfeDisassembly(const ObjectFile& object) {
  std::ostringstream out;
  const Section& text = object.section(SectionKind::kText);
  for (uint32_t off = 0; off + kInsnSize <= text.bytes.size(); off += kInsnSize) {
    for (const Symbol& sym : object.symbols()) {
      if (sym.defined && sym.section == SectionKind::kText && sym.value == off) {
        out << sym.name << ":\n";
      }
    }
    OMOS_TRY(Instruction insn, DecodeInsn(text.bytes.data() + off));
    out << "  " << Hex32(off).substr(6) << ": " << Disassemble(insn);
    for (const Relocation& reloc : text.relocs) {
      if (reloc.offset == off + 4) {
        out << "   ; " << RelocKindName(reloc.kind) << "(" << reloc.symbol << ")";
      }
    }
    out << "\n";
  }
  return out.str();
}

Result<ObjectFile> OfeRename(const ObjectFile& object, const std::string& pattern,
                             const std::string& replacement) {
  ObjectFile out = object;
  std::map<std::string, std::string> renames;
  for (Symbol& sym : out.mutable_symbols()) {
    if (RegexMatch(sym.name, pattern)) {
      std::string new_name = Substitute(replacement, sym.name);
      renames[sym.name] = new_name;
      sym.name = new_name;
    }
  }
  for (int s = 0; s < kNumSections; ++s) {
    for (Relocation& reloc : out.section(static_cast<SectionKind>(s)).relocs) {
      auto it = renames.find(reloc.symbol);
      if (it != renames.end()) {
        reloc.symbol = it->second;
      }
    }
  }
  OMOS_TRY_VOID(out.RebuildSymbolIndex());
  OMOS_TRY_VOID(out.Validate());
  return out;
}

Result<ObjectFile> OfeHide(const ObjectFile& object, const std::string& pattern) {
  ObjectFile out = object;
  for (Symbol& sym : out.mutable_symbols()) {
    if (sym.defined && sym.binding != SymbolBinding::kLocal && RegexMatch(sym.name, pattern)) {
      sym.binding = SymbolBinding::kLocal;
    }
  }
  return out;
}

Result<ObjectFile> OfeWeaken(const ObjectFile& object, const std::string& pattern) {
  ObjectFile out = object;
  for (Symbol& sym : out.mutable_symbols()) {
    if (sym.defined && sym.binding == SymbolBinding::kGlobal && RegexMatch(sym.name, pattern)) {
      sym.binding = SymbolBinding::kWeak;
    }
  }
  return out;
}

Result<ObjectFile> OfeStripLocals(const ObjectFile& object) {
  std::set<std::string> needed;
  for (int s = 0; s < kNumSections; ++s) {
    for (const Relocation& reloc :
         object.section(static_cast<SectionKind>(s)).relocs) {
      needed.insert(reloc.symbol);
    }
  }
  ObjectFile out(object.name());
  for (int s = 0; s < kNumSections; ++s) {
    out.section(static_cast<SectionKind>(s)) = object.section(static_cast<SectionKind>(s));
  }
  for (const Symbol& sym : object.symbols()) {
    if (sym.defined && sym.binding == SymbolBinding::kLocal && needed.count(sym.name) == 0) {
      continue;  // stripped
    }
    OMOS_TRY_VOID(out.AddSymbol(sym));
  }
  OMOS_TRY_VOID(out.Validate());
  return out;
}

Result<LinkedImage> OfeLink(const std::vector<ObjectFile>& objects, uint32_t text_base,
                            bool allow_unresolved) {
  std::vector<Module> parts;
  parts.reserve(objects.size());
  for (const ObjectFile& object : objects) {
    parts.push_back(Module::FromObject(std::make_shared<const ObjectFile>(object)));
  }
  OMOS_TRY(Module m, Module::MergeAll(parts));
  LayoutSpec layout;
  layout.text_base = text_base;
  layout.allow_unresolved = allow_unresolved;
  return LinkImage(m, layout, "ofe-link");
}

Result<std::vector<uint8_t>> ReadHostFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Err(ErrorCode::kIoError, StrCat("cannot open ", path));
  }
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

Result<void> WriteHostFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Err(ErrorCode::kIoError, StrCat("cannot write ", path));
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return OkResult();
}

Result<std::string> OfeTraceReport(std::string_view json) {
  OMOS_TRY(std::vector<ParsedTraceEvent> events, ParseChromeTrace(json));
  struct Row {
    uint64_t count = 0;
    double total_us = 0;
    uint64_t sim_user = 0;
    uint64_t sim_sys = 0;
    bool instant = false;
  };
  std::map<std::string, Row> rows;
  for (const ParsedTraceEvent& ev : events) {
    Row& row = rows[ev.name];
    ++row.count;
    row.total_us += ev.dur_us;
    row.sim_user += ev.sim_user;
    row.sim_sys += ev.sim_sys;
    row.instant = ev.ph == "i";
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second.total_us != b.second.total_us) {
      return a.second.total_us > b.second.total_us;
    }
    return a.first < b.first;
  });
  std::ostringstream out;
  out << "trace report: " << events.size() << " events, " << rows.size() << " span kinds\n";
  char line[256];
  for (const auto& [name, row] : sorted) {
    if (row.instant) {
      std::snprintf(line, sizeof(line), "  %-28s x%-6llu (instant)\n", name.c_str(),
                    static_cast<unsigned long long>(row.count));
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-28s x%-6llu total %10.1fus  avg %8.1fus  sim %llu+%llu\n",
                    name.c_str(), static_cast<unsigned long long>(row.count), row.total_us,
                    row.total_us / static_cast<double>(row.count),
                    static_cast<unsigned long long>(row.sim_user),
                    static_cast<unsigned long long>(row.sim_sys));
    }
    out << line;
  }
  return out.str();
}

Result<ObjectFile> LoadObjectFile(const std::string& path) {
  OMOS_TRY(std::vector<uint8_t> bytes, ReadHostFile(path));
  return BackendRegistry::Default().DecodeAny(bytes);
}

Result<void> SaveObjectFile(const ObjectFile& object, const std::string& path,
                            std::string_view format) {
  const ObjectBackend* backend = BackendRegistry::Default().Find(format);
  if (backend == nullptr) {
    return Err(ErrorCode::kNotFound, StrCat("no backend '", format, "'"));
  }
  OMOS_TRY(std::vector<uint8_t> bytes, backend->Encode(object));
  return WriteHostFile(path, bytes);
}

}  // namespace omos
