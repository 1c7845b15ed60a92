#include "src/ipc/message.h"

#include "src/objfmt/bytes.h"
#include "src/support/strings.h"

namespace omos {

namespace {
constexpr uint32_t kRequestMagic = 0x4f524551;       // "OREQ"
constexpr uint32_t kReplyMagic = 0x4f525040;         // "ORP@"
constexpr uint32_t kBatchRequestMagic = 0x4f425251;  // "OBRQ"
constexpr uint32_t kBatchReplyMagic = 0x4f425250;    // "OBRP"

uint32_t PeekMagic(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 4) {
    return 0;
  }
  return static_cast<uint32_t>(bytes[0]) | static_cast<uint32_t>(bytes[1]) << 8 |
         static_cast<uint32_t>(bytes[2]) << 16 | static_cast<uint32_t>(bytes[3]) << 24;
}
}  // namespace

std::vector<uint8_t> EncodeRequest(const OmosRequest& request) {
  ByteWriter w;
  w.U32(kRequestMagic);
  w.U32(static_cast<uint32_t>(request.op));
  w.Str(request.path);
  w.Str(request.specialization);
  w.U32(request.task_handle);
  w.U32(static_cast<uint32_t>(request.symbols.size()));
  for (const std::string& sym : request.symbols) {
    w.Str(sym);
  }
  return w.Take();
}

Result<OmosRequest> DecodeRequest(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  OMOS_TRY(uint32_t magic, r.U32());
  if (magic != kRequestMagic) {
    return Err(ErrorCode::kProtocolError, "bad request magic");
  }
  OmosRequest request;
  OMOS_TRY(uint32_t op, r.U32());
  if (op < 1 || op > 6 || op == 5) {
    return Err(ErrorCode::kProtocolError, StrCat("bad op ", op));
  }
  request.op = static_cast<OmosOp>(op);
  OMOS_TRY(request.path, r.Str());
  OMOS_TRY(request.specialization, r.Str());
  OMOS_TRY(request.task_handle, r.U32());
  OMOS_TRY(uint32_t nsyms, r.U32());
  for (uint32_t i = 0; i < nsyms; ++i) {
    OMOS_TRY(std::string sym, r.Str());
    request.symbols.push_back(std::move(sym));
  }
  return request;
}

std::vector<uint8_t> EncodeReply(const OmosReply& reply) {
  ByteWriter w;
  w.U32(kReplyMagic);
  w.U8(reply.ok ? 1 : 0);
  w.Str(reply.error);
  w.U32(reply.entry);
  w.U32(static_cast<uint32_t>(reply.segments.size()));
  for (const SegmentDesc& seg : reply.segments) {
    w.U32(seg.base);
    w.U32(seg.size);
    w.U8(seg.prot);
    w.Str(seg.name);
  }
  w.U32(static_cast<uint32_t>(reply.names.size()));
  for (const std::string& name : reply.names) {
    w.Str(name);
  }
  w.U32(static_cast<uint32_t>(reply.symbol_values.size()));
  for (uint32_t value : reply.symbol_values) {
    w.U32(value);
  }
  w.Str(reply.payload);
  w.U32(static_cast<uint32_t>(reply.metrics.size()));
  for (const auto& [name, value] : reply.metrics) {
    w.Str(name);
    w.U64(value);
  }
  return w.Take();
}

Result<OmosReply> DecodeReply(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  OMOS_TRY(uint32_t magic, r.U32());
  if (magic != kReplyMagic) {
    return Err(ErrorCode::kProtocolError, "bad reply magic");
  }
  OmosReply reply;
  OMOS_TRY(uint8_t ok, r.U8());
  reply.ok = ok != 0;
  OMOS_TRY(reply.error, r.Str());
  OMOS_TRY(reply.entry, r.U32());
  OMOS_TRY(uint32_t nsegs, r.U32());
  for (uint32_t i = 0; i < nsegs; ++i) {
    SegmentDesc seg;
    OMOS_TRY(seg.base, r.U32());
    OMOS_TRY(seg.size, r.U32());
    OMOS_TRY(seg.prot, r.U8());
    OMOS_TRY(seg.name, r.Str());
    reply.segments.push_back(std::move(seg));
  }
  OMOS_TRY(uint32_t nnames, r.U32());
  for (uint32_t i = 0; i < nnames; ++i) {
    OMOS_TRY(std::string name, r.Str());
    reply.names.push_back(std::move(name));
  }
  OMOS_TRY(uint32_t nvalues, r.U32());
  for (uint32_t i = 0; i < nvalues; ++i) {
    OMOS_TRY(uint32_t value, r.U32());
    reply.symbol_values.push_back(value);
  }
  OMOS_TRY(reply.payload, r.Str());
  OMOS_TRY(uint32_t nmetrics, r.U32());
  for (uint32_t i = 0; i < nmetrics; ++i) {
    OMOS_TRY(std::string name, r.Str());
    OMOS_TRY(uint64_t value, r.U64());
    reply.metrics.emplace_back(std::move(name), value);
  }
  return reply;
}

// ---- Request batching -------------------------------------------------------
// Envelope: magic + count + one length-prefixed encoded message per member.
// Members reuse the single-message codecs, so every existing malformed-
// message defence applies per member.

std::vector<uint8_t> EncodeRequestBatch(const std::vector<OmosRequest>& requests) {
  ByteWriter w;
  w.U32(kBatchRequestMagic);
  w.U32(static_cast<uint32_t>(requests.size()));
  for (const OmosRequest& request : requests) {
    w.Raw(EncodeRequest(request));
  }
  return w.Take();
}

Result<std::vector<OmosRequest>> DecodeRequestBatch(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  OMOS_TRY(uint32_t magic, r.U32());
  if (magic != kBatchRequestMagic) {
    return Err(ErrorCode::kProtocolError, "bad batch request magic");
  }
  OMOS_TRY(uint32_t count, r.U32());
  if (count == 0) {
    return Err(ErrorCode::kProtocolError, "empty request batch");
  }
  std::vector<OmosRequest> requests;
  requests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    OMOS_TRY(std::vector<uint8_t> member, r.Raw());
    OMOS_TRY(OmosRequest request, DecodeRequest(member));
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<uint8_t> EncodeReplyBatch(const std::vector<OmosReply>& replies) {
  ByteWriter w;
  w.U32(kBatchReplyMagic);
  w.U32(static_cast<uint32_t>(replies.size()));
  for (const OmosReply& reply : replies) {
    w.Raw(EncodeReply(reply));
  }
  return w.Take();
}

Result<std::vector<OmosReply>> DecodeReplyBatch(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  OMOS_TRY(uint32_t magic, r.U32());
  if (magic != kBatchReplyMagic) {
    return Err(ErrorCode::kProtocolError, "bad batch reply magic");
  }
  OMOS_TRY(uint32_t count, r.U32());
  if (count == 0) {
    return Err(ErrorCode::kProtocolError, "empty reply batch");
  }
  std::vector<OmosReply> replies;
  replies.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    OMOS_TRY(std::vector<uint8_t> member, r.Raw());
    OMOS_TRY(OmosReply reply, DecodeReply(member));
    replies.push_back(std::move(reply));
  }
  return replies;
}

bool IsBatchRequest(const std::vector<uint8_t>& bytes) {
  return PeekMagic(bytes) == kBatchRequestMagic;
}

bool IsBatchReply(const std::vector<uint8_t>& bytes) {
  return PeekMagic(bytes) == kBatchReplyMagic;
}

}  // namespace omos
