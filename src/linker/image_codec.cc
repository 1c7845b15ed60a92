#include "src/linker/image_codec.h"

#include "src/objfmt/bytes.h"
#include "src/support/strings.h"

namespace omos {

namespace {
constexpr char kMagic[] = "XEX1";
}

bool IsEncodedImage(const std::vector<uint8_t>& bytes) {
  return bytes.size() >= 4 && std::equal(kMagic, kMagic + 4, bytes.begin());
}

std::vector<uint8_t> EncodeImage(const LinkedImage& image) {
  ByteWriter w;
  for (int i = 0; i < 4; ++i) {
    w.U8(static_cast<uint8_t>(kMagic[i]));
  }
  w.Str(image.name);
  w.U32(image.text_base);
  w.U32(image.data_base);
  w.U32(image.bss_size);
  w.U32(image.entry);
  w.Raw(image.text);
  w.Raw(image.data);
  w.U32(static_cast<uint32_t>(image.symbols.size()));
  for (const ImageSymbol& sym : image.symbols) {
    w.Str(sym.name);
    w.U32(sym.addr);
    w.U32(sym.size);
    w.U8(static_cast<uint8_t>(sym.section));
  }
  w.U32(static_cast<uint32_t>(image.unresolved.size()));
  for (const std::string& name : image.unresolved) {
    w.Str(name);
  }
  return w.Take();
}

Result<LinkedImage> DecodeImage(const std::vector<uint8_t>& bytes) {
  if (!IsEncodedImage(bytes)) {
    return Err(ErrorCode::kParseError, "not an XEX executable (bad magic)");
  }
  ByteReader r(bytes.data() + 4, bytes.size() - 4);
  LinkedImage image;
  OMOS_TRY(image.name, r.Str());
  OMOS_TRY(image.text_base, r.U32());
  OMOS_TRY(image.data_base, r.U32());
  OMOS_TRY(image.bss_size, r.U32());
  OMOS_TRY(image.entry, r.U32());
  OMOS_TRY(image.text, r.Raw());
  OMOS_TRY(image.data, r.Raw());
  OMOS_TRY(uint32_t nsyms, r.U32());
  for (uint32_t i = 0; i < nsyms; ++i) {
    ImageSymbol sym;
    OMOS_TRY(std::string name, r.Str());
    sym.name = SymbolInterner::Global().Name(SymbolInterner::Global().Intern(name));
    OMOS_TRY(sym.addr, r.U32());
    OMOS_TRY(sym.size, r.U32());
    OMOS_TRY(uint8_t section, r.U8());
    if (section >= kNumSections) {
      return Err(ErrorCode::kParseError, StrCat("bad symbol section ", int(section)));
    }
    sym.section = static_cast<SectionKind>(section);
    image.symbols.push_back(std::move(sym));
  }
  OMOS_TRY(uint32_t nunresolved, r.U32());
  for (uint32_t i = 0; i < nunresolved; ++i) {
    OMOS_TRY(std::string name, r.Str());
    image.unresolved.push_back(std::move(name));
  }
  // Index now: the decoded table is final, and indexing here keeps
  // FindSymbol O(1) (and read-only) however the image is used.
  image.BuildSymbolIndex();
  return image;
}

}  // namespace omos
