//===- net/Wire.h - Length-prefixed binary wire format --------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level half of the cmcc network protocol (DESIGN.md §5h):
/// a versioned fixed-size frame header and bounds-checked little-endian
/// payload codecs. Everything the server reads off a socket flows
/// through ByteReader, whose contract is absolute: a truncated,
/// corrupted, or hostile byte stream produces a clean decode failure —
/// never a crash, never a read past the buffer, never an allocation
/// sized by an unvalidated length field.
///
/// Float arrays are the bulk of the traffic, so both halves move them
/// with one copy: ByteReader::floats verifies the checksum and hands
/// back a view into the payload (the caller copies the floats once, to
/// wherever they live next), and ByteWriter appends them straight from
/// the source, or lets the caller write them in place (floatsInPlace).
/// ByteWriter::forFrame reserves the frame header in front of the
/// payload, so a large response is built in the buffer it is sent from.
///
/// Frame layout (28 bytes, little-endian, followed by PayloadBytes of
/// payload):
///
///   offset  size  field
///        0     4  magic      0x434D4331 ("CMC1" on a little-endian wire)
///        4     2  version    protocol version (3; no other accepted)
///        6     2  type       MsgType
///        8     4  tenant     tenant id (0 = anonymous default tenant)
///       12     8  request id caller-chosen correlation id, echoed back
///       20     4  payload length in bytes (<= MaxPayloadBytes)
///       24     4  header checksum: FNV-1a over bytes [0, 24)
///
/// The protocol's hashes come from support/Hash.h: header checksums
/// truncate the byte-serial fnv1a64 to 32 bits, and grid payloads carry
/// all 64 bits of the word-parallel fnv1a64Words, which runs at memory
/// speed (a grid is checksummed once by each sender and receiver, so a
/// byte loop there would cost more than the wire itself).
/// The header checksum is verified before the length field is trusted,
/// so a corrupt header cannot command a giant read. Float arrays travel
/// as raw IEEE-754 bit patterns guarded by their payload checksum —
/// results that cross the wire are bitwise what the backend produced.
///
//===----------------------------------------------------------------------===//

#ifndef CMCC_NET_WIRE_H
#define CMCC_NET_WIRE_H

#include "support/Error.h"
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace cmcc {
namespace net {

/// "CMC1", read as a little-endian u32.
constexpr uint32_t FrameMagic = 0x31434D43u;

/// The protocol version this library speaks. Bumped on any frame or
/// payload layout change. Version 2 added the submit trace-context
/// fields and the Timeline/Dump message pairs (append-only). Version 3
/// changed the grid checksum to fnv1a64Words, so a v1/v2 peer's grids
/// could not verify: both ends refuse any version outside [Min,
/// Current] at the header, with "unsupported protocol version", before
/// a payload is read.
constexpr uint16_t ProtocolVersion = 3;
constexpr uint16_t MinProtocolVersion = 3;

/// Upper bound on one frame's payload. Large enough for a 2048-node
/// machine's gathered result grid, small enough that a corrupt or
/// hostile length field cannot balloon server memory.
constexpr uint32_t MaxPayloadBytes = 64u << 20;

/// Bytes in the fixed frame header.
constexpr size_t FrameHeaderBytes = 28;

/// Every message the protocol knows. Requests are odd, their responses
/// even (response = request + 1); ErrorResponse answers any request the
/// server could not serve.
enum class MsgType : uint16_t {
  HelloRequest = 1,
  HelloResponse = 2,
  SubmitRequest = 3,
  SubmitResponse = 4,
  PollRequest = 5,
  PollResponse = 6,
  WaitRequest = 7,
  WaitResponse = 8,
  CancelRequest = 9,
  CancelResponse = 10,
  StatsRequest = 11,
  StatsResponse = 12,
  ErrorResponse = 14,
  // Version 2.
  TimelineRequest = 15,
  TimelineResponse = 16,
  DumpRequest = 17,
  DumpResponse = 18,
};

/// True for type values this protocol version defines.
bool isKnownMsgType(uint16_t Raw);

/// The decoded fixed header of one frame.
struct FrameHeader {
  uint16_t Version = ProtocolVersion;
  MsgType Type = MsgType::ErrorResponse;
  uint32_t Tenant = 0;
  uint64_t RequestId = 0;
  uint32_t PayloadBytes = 0;
};

/// Encodes \p H into exactly FrameHeaderBytes at \p Out (checksum
/// included).
void encodeFrameHeader(const FrameHeader &H, uint8_t *Out);

/// Decodes a header from \p Data (which must hold at least
/// FrameHeaderBytes). Verifies magic, version, checksum, known type,
/// and the payload bound; the message names which check failed.
Expected<FrameHeader> decodeFrameHeader(const uint8_t *Data, size_t Len);

/// Little-endian payload builder. Append-only; take() surrenders the
/// payload, takeFrame() the whole frame of a forFrame() writer.
class ByteWriter {
public:
  /// A writer whose buffer opens with FrameHeaderBytes of room for the
  /// header, which takeFrame() fills in: the payload is written once,
  /// in the buffer that goes to the socket. \p PayloadBytes is reserved.
  static ByteWriter forFrame(size_t PayloadBytes = 0);

  /// Reserves room for \p Bytes more bytes.
  void reserve(size_t Bytes) { Buf.reserve(Buf.size() + Bytes); }

  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { appendLe(V); }
  void u32(uint32_t V) { appendLe(V); }
  void u64(uint64_t V) { appendLe(V); }
  void i64(int64_t V) { appendLe(static_cast<uint64_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    appendLe(Bits);
  }

  /// u32 length followed by the raw bytes.
  void str(const std::string &S);

  /// u32 element count, raw IEEE-754 floats, then the fnv1a64Words
  /// checksum of those float bytes. The floats are appended straight
  /// from \p Data, with no zero-fill first.
  void floats(const float *Data, size_t Count);

  /// The same bytes as floats(), for data that is not one contiguous
  /// array at the source: \p Fill(uint8_t *Dst) writes the Count floats
  /// (Count * 4 bytes, any alignment) straight into the buffer, which is
  /// then checksummed in place. (std::vector cannot grow uninitialised,
  /// so the slot is zeroed once before Fill writes it.)
  template <typename FillFn> void floatsInPlace(size_t Count, FillFn &&Fill) {
    u32(static_cast<uint32_t>(Count));
    const size_t At = Buf.size();
    const size_t Bytes = Count * sizeof(float);
    Buf.resize(At + Bytes);
    Fill(Buf.data() + At);
    sealFloats(At, Bytes);
  }

  size_t size() const { return Buf.size(); }
  std::vector<uint8_t> take() { return std::move(Buf); }

  /// Fills in the header reserved by forFrame() (its payload length is
  /// everything written since) and surrenders the frame.
  std::vector<uint8_t> takeFrame(MsgType Type, uint64_t RequestId,
                                 uint32_t Tenant);

private:
  template <typename T> void appendLe(T V) {
    for (size_t I = 0; I != sizeof(T); ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  /// Appends the checksum of the Bytes float bytes at offset At.
  void sealFloats(size_t At, size_t Bytes);

  std::vector<uint8_t> Buf;
  bool Framed = false; ///< Buf opens with a header slot (forFrame()).
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// false (and latches the failure) instead of reading past the end;
/// decode functions test ok() once at the end. A length field is never
/// used to size an allocation before the remaining-bytes check proves
/// the bytes are actually present.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : Data(Data), Len(Len) {}

  bool u8(uint8_t &V) { return readLe(V); }
  bool u16(uint16_t &V) { return readLe(V); }
  bool u32(uint32_t &V) { return readLe(V); }
  bool u64(uint64_t &V) { return readLe(V); }
  bool i64(int64_t &V) {
    uint64_t Bits;
    if (!readLe(Bits))
      return false;
    V = static_cast<int64_t>(Bits);
    return true;
  }
  bool f64(double &V) {
    uint64_t Bits;
    if (!readLe(Bits))
      return false;
    std::memcpy(&V, &Bits, sizeof(V));
    return true;
  }

  /// Reads a u32-length-prefixed string of at most \p MaxLen bytes.
  bool str(std::string &S, size_t MaxLen = 1u << 20);

  /// Reads a float array written by ByteWriter::floats and verifies its
  /// checksum (a checksum mismatch is a failed read). Nothing is copied:
  /// \p Bytes points at the Count raw floats inside the payload (any
  /// alignment), valid only as long as the payload is.
  bool floats(const uint8_t *&Bytes, uint32_t &Count,
              size_t MaxCount = 1u << 24);

  /// True while no read has failed.
  bool ok() const { return !Failed; }

  /// True when the payload was consumed exactly — trailing garbage is
  /// a decode error at the message layer.
  bool exhausted() const { return !Failed && Pos == Len; }

  size_t remaining() const { return Len - Pos; }

private:
  template <typename T> bool readLe(T &V) {
    if (Failed || Len - Pos < sizeof(T)) {
      Failed = true;
      return false;
    }
    T Out = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      Out |= static_cast<T>(Data[Pos + I]) << (8 * I);
    V = Out;
    Pos += sizeof(T);
    return true;
  }

  const uint8_t *Data;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

/// Builds one complete frame (header + payload) ready to write to a
/// socket. Copies the payload; large frames are built in place with
/// ByteWriter::forFrame instead.
std::vector<uint8_t> buildFrame(MsgType Type, uint64_t RequestId,
                                uint32_t Tenant,
                                const std::vector<uint8_t> &Payload);

} // namespace net
} // namespace cmcc

#endif // CMCC_NET_WIRE_H
