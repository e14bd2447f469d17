//===- net/Wire.cpp -------------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"
#include "support/Hash.h"
#include <cassert>

using namespace cmcc;
using namespace cmcc::net;

bool net::isKnownMsgType(uint16_t Raw) {
  switch (static_cast<MsgType>(Raw)) {
  case MsgType::HelloRequest:
  case MsgType::HelloResponse:
  case MsgType::SubmitRequest:
  case MsgType::SubmitResponse:
  case MsgType::PollRequest:
  case MsgType::PollResponse:
  case MsgType::WaitRequest:
  case MsgType::WaitResponse:
  case MsgType::CancelRequest:
  case MsgType::CancelResponse:
  case MsgType::StatsRequest:
  case MsgType::StatsResponse:
  case MsgType::ErrorResponse:
  case MsgType::TimelineRequest:
  case MsgType::TimelineResponse:
  case MsgType::DumpRequest:
  case MsgType::DumpResponse:
    return true;
  }
  return false;
}

namespace {

void putLe16(uint8_t *Out, uint16_t V) {
  Out[0] = static_cast<uint8_t>(V);
  Out[1] = static_cast<uint8_t>(V >> 8);
}

void putLe32(uint8_t *Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

void putLe64(uint8_t *Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out[I] = static_cast<uint8_t>(V >> (8 * I));
}

uint16_t getLe16(const uint8_t *In) {
  return static_cast<uint16_t>(In[0] | (In[1] << 8));
}

uint32_t getLe32(const uint8_t *In) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(In[I]) << (8 * I);
  return V;
}

uint64_t getLe64(const uint8_t *In) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(In[I]) << (8 * I);
  return V;
}

} // namespace

void net::encodeFrameHeader(const FrameHeader &H, uint8_t *Out) {
  putLe32(Out + 0, FrameMagic);
  putLe16(Out + 4, H.Version);
  putLe16(Out + 6, static_cast<uint16_t>(H.Type));
  putLe32(Out + 8, H.Tenant);
  putLe64(Out + 12, H.RequestId);
  putLe32(Out + 20, H.PayloadBytes);
  putLe32(Out + 24, static_cast<uint32_t>(fnv1a64(Out, 24)));
}

Expected<FrameHeader> net::decodeFrameHeader(const uint8_t *Data, size_t Len) {
  if (Len < FrameHeaderBytes)
    return Error::failure("frame header truncated: " + std::to_string(Len) + " of " +
                 std::to_string(FrameHeaderBytes) + " bytes");
  if (getLe32(Data + 0) != FrameMagic)
    return Error::failure("bad frame magic (not a cmcc protocol stream)");
  // Verify the checksum before trusting anything else in the header —
  // especially the length field.
  const uint32_t Want = static_cast<uint32_t>(fnv1a64(Data, 24));
  if (getLe32(Data + 24) != Want)
    return Error::failure("frame header checksum mismatch");
  FrameHeader H;
  H.Version = getLe16(Data + 4);
  if (H.Version < MinProtocolVersion || H.Version > ProtocolVersion)
    return Error::failure("unsupported protocol version " + std::to_string(H.Version) +
                 " (this end speaks " + std::to_string(MinProtocolVersion) +
                 ".." + std::to_string(ProtocolVersion) + ")");
  const uint16_t RawType = getLe16(Data + 6);
  if (!isKnownMsgType(RawType))
    return Error::failure("unknown message type " + std::to_string(RawType));
  H.Type = static_cast<MsgType>(RawType);
  H.Tenant = getLe32(Data + 8);
  H.RequestId = getLe64(Data + 12);
  H.PayloadBytes = getLe32(Data + 20);
  if (H.PayloadBytes > MaxPayloadBytes)
    return Error::failure("frame payload of " + std::to_string(H.PayloadBytes) +
                 " bytes exceeds the " + std::to_string(MaxPayloadBytes) +
                 "-byte cap");
  return H;
}

ByteWriter ByteWriter::forFrame(size_t PayloadBytes) {
  ByteWriter W;
  W.Buf.reserve(FrameHeaderBytes + PayloadBytes);
  W.Buf.resize(FrameHeaderBytes);
  W.Framed = true;
  return W;
}

std::vector<uint8_t> ByteWriter::takeFrame(MsgType Type, uint64_t RequestId,
                                           uint32_t Tenant) {
  assert(Framed && "takeFrame() on a writer not made by forFrame()");
  FrameHeader H;
  H.Type = Type;
  H.Tenant = Tenant;
  H.RequestId = RequestId;
  H.PayloadBytes = static_cast<uint32_t>(Buf.size() - FrameHeaderBytes);
  encodeFrameHeader(H, Buf.data());
  return std::move(Buf);
}

void ByteWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Buf.insert(Buf.end(), S.begin(), S.end());
}

void ByteWriter::floats(const float *Data, size_t Count) {
  u32(static_cast<uint32_t>(Count));
  const size_t At = Buf.size();
  const size_t Bytes = Count * sizeof(float);
  const uint8_t *Src = reinterpret_cast<const uint8_t *>(Data);
  Buf.insert(Buf.end(), Src, Src + Bytes);
  sealFloats(At, Bytes);
}

void ByteWriter::sealFloats(size_t At, size_t Bytes) {
  u64(fnv1a64Words(Buf.data() + At, Bytes));
}

bool ByteReader::str(std::string &S, size_t MaxLen) {
  uint32_t N;
  if (!u32(N))
    return false;
  if (N > MaxLen || N > remaining()) {
    Failed = true;
    return false;
  }
  S.assign(reinterpret_cast<const char *>(Data + Pos), N);
  Pos += N;
  return true;
}

bool ByteReader::floats(const uint8_t *&Bytes, uint32_t &Count,
                        size_t MaxCount) {
  uint32_t N;
  if (!u32(N))
    return false;
  const size_t Len = static_cast<size_t>(N) * sizeof(float);
  // Validate the count against bytes actually present (plus the trailing
  // checksum) before anything trusts it.
  if (N > MaxCount || remaining() < Len + sizeof(uint64_t)) {
    Failed = true;
    return false;
  }
  const uint8_t *At = Data + Pos;
  const uint64_t Want = fnv1a64Words(At, Len);
  Pos += Len;
  uint64_t Got;
  if (!u64(Got))
    return false;
  if (Got != Want) {
    Failed = true;
    return false;
  }
  Bytes = At;
  Count = N;
  return true;
}

std::vector<uint8_t> net::buildFrame(MsgType Type, uint64_t RequestId,
                                     uint32_t Tenant,
                                     const std::vector<uint8_t> &Payload) {
  FrameHeader H;
  H.Type = Type;
  H.Tenant = Tenant;
  H.RequestId = RequestId;
  H.PayloadBytes = static_cast<uint32_t>(Payload.size());
  std::vector<uint8_t> Frame(FrameHeaderBytes + Payload.size());
  encodeFrameHeader(H, Frame.data());
  if (!Payload.empty())
    std::memcpy(Frame.data() + FrameHeaderBytes, Payload.data(),
                Payload.size());
  return Frame;
}
