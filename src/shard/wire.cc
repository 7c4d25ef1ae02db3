#include "shard/wire.h"

#include <array>
#include <cstring>
#include <limits>
#include <string>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace fedrec {

namespace {

constexpr std::uint32_t kUploadMagic = 0x55575246;  // "FRWU"
constexpr std::uint32_t kDeltaMagic = 0x44575246;   // "FRWD"
// v2: the CRC covers every byte after the version field (source / cols /
// row_count included), not just the row payload — a v1 message with a
// flipped count or source validated its checksum and mis-parsed. Magic and
// version stay outside: a flip there already fails their own checks.
constexpr std::uint32_t kWireVersion = 2;

// CRC-32 covers every wire byte several times per hop (the encode, then the
// verify of each decode), so its speed bounds how fast the wire moves rows.
// Two kernels compute the same function. On x86-64 CPUs with PCLMULQDQ,
// inputs of >= 64 bytes go through a carry-less-multiply fold that runs
// near memory speed, over ten times the table kernel (BM_Crc32); the
// sub-16-byte tail, short inputs and every other CPU use slice-by-8 tables.
// table[0] is the classic byte-at-a-time table and table[k][b] is the CRC of
// byte b followed by k zero bytes, so eight input bytes fold into the
// accumulator with eight independent lookups per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
    }
  }
  return tables;
}

/// Slice-by-8 update of the internal (bit-inverted) CRC state.
std::uint32_t TableUpdate(std::uint32_t crc, const unsigned char* bytes,
                          std::size_t size) {
  static const CrcTables tables = BuildCrcTables();
  while (size >= 8) {
    std::uint32_t low;
    std::uint32_t high;
    std::memcpy(&low, bytes, sizeof(low));
    std::memcpy(&high, bytes + 4, sizeof(high));
    low ^= crc;
    crc = tables[7][low & 0xFFu] ^ tables[6][(low >> 8) & 0xFFu] ^
          tables[5][(low >> 16) & 0xFFu] ^ tables[4][low >> 24] ^
          tables[3][high & 0xFFu] ^ tables[2][(high >> 8) & 0xFFu] ^
          tables[1][(high >> 16) & 0xFFu] ^ tables[0][high >> 24];
    bytes += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ tables[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEDREC_CRC32_FOLD 1

/// Smallest input the fold takes: one 4 x 128-bit block.
constexpr std::size_t kFoldMinBytes = 64;

/// Folds `size` bytes (>= kFoldMinBytes, a multiple of 16) into the internal
/// CRC state: four 128-bit lanes fold 64 bytes per step, collapse into one
/// lane, fold the remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits
/// with a Barrett reduction. Method and constants (bit-reflected, for
/// polynomial 0xEDB88320) are from Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009 — the same
/// constants zlib and Chromium ship.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t FoldUpdate(
    std::uint32_t crc, const unsigned char* bytes, std::size_t size) {
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // x^(4*128+32) / x^(4*128-32) mod P: the 64-byte fold distance.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // x^(128+32) / x^(128-32) mod P: the 16-byte fold distance.
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // x^64 mod P: 64 -> 32-bit fold.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // P' (reflected polynomial) and mu = x^64 / P for the Barrett step.
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four independent lanes, each carrying a 16-byte block, fold 64 bytes per
  // step: lane = hi(lane) * k_hi + lo(lane) * k_lo + next block.
  __m128i lanes[4];
  for (int i = 0; i < 4; ++i) lanes[i] = load(bytes + 16 * i);
  lanes[0] =
      _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  bytes += 64;
  size -= 64;
  while (size >= 64) {
    for (int i = 0; i < 4; ++i) {
      lanes[i] = _mm_xor_si128(
          _mm_xor_si128(_mm_clmulepi64_si128(lanes[i], k1k2, 0x00),
                        _mm_clmulepi64_si128(lanes[i], k1k2, 0x11)),
          load(bytes + 16 * i));
    }
    bytes += 64;
    size -= 64;
  }
  // Collapse into one lane, then fold any remaining 16-byte blocks.
  __m128i x1 = lanes[0];
  for (int i = 1; i < 4; ++i) {
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x00),
                                     _mm_clmulepi64_si128(x1, k3k4, 0x11)),
                       lanes[i]);
  }
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x00),
                                     _mm_clmulepi64_si128(x1, k3k4, 0x11)),
                       load(bytes));
  }

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// The fold needs PCLMULQDQ and SSE4.1 (for the final lane extract).
bool CpuHasFold() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif  // x86-64

/// Notes one sparse-allocation event when an encode grew the writer's
/// buffer, so the wire path participates in the round loop's hook-measured
/// zero-allocation guarantee alongside the sparse containers.
class WriterGrowthScope {
 public:
  explicit WriterGrowthScope(const BinaryWriter& writer)
      : writer_(writer), capacity_before_(writer.buffer().capacity()) {}
  ~WriterGrowthScope() {
    internal::NoteSparseGrowth(writer_.buffer().capacity(), capacity_before_);
  }

 private:
  const BinaryWriter& writer_;
  std::size_t capacity_before_;
};

struct PayloadShape {
  std::size_t cols = 0;
  std::size_t row_count = 0;
  std::size_t payload_bytes = 0;
  const char* payload = nullptr;  ///< the verified row records, unconsumed
};

/// Reads and validates cols/row_count, bounds the payload against the
/// remaining buffer (overflow-safe), and pre-checksums the covered header
/// bytes and the payload so corruption is detected before any row is parsed
/// into `out`; the verified payload is left unconsumed for the caller.
/// `header_crc` continues the checksum over covered header fields the
/// caller already consumed (FRWU's source; 0 when none).
Result<PayloadShape> ReadAndChecksumPayload(BinaryReader& reader,
                                            std::uint32_t header_crc,
                                            const char* what) {
  // cols/row_count are themselves covered: fold their bytes in before
  // parsing, so a flipped count fails the checksum instead of mis-framing.
  Result<std::string_view> counts = reader.PeekBytes(2 * sizeof(std::uint64_t));
  if (!counts.ok()) return counts.status();
  const std::uint32_t crc_through_counts =
      Crc32(header_crc, counts.value().data(), 2 * sizeof(std::uint64_t));
  Result<std::uint64_t> cols = reader.ReadU64();
  if (!cols.ok()) return cols.status();
  Result<std::uint64_t> row_count = reader.ReadU64();
  if (!row_count.ok()) return row_count.status();

  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  if (cols.value() > (kMax - sizeof(std::uint64_t)) / sizeof(float)) {
    return Status::Corruption(std::string(what) + ": absurd column count");
  }
  const std::uint64_t row_bytes =
      sizeof(std::uint64_t) + cols.value() * sizeof(float);
  if (row_count.value() > (kMax - sizeof(std::uint32_t)) / row_bytes) {
    return Status::Corruption(std::string(what) + ": absurd row count");
  }
  PayloadShape shape;
  shape.cols = static_cast<std::size_t>(cols.value());
  shape.row_count = static_cast<std::size_t>(row_count.value());
  shape.payload_bytes = static_cast<std::size_t>(row_count.value() * row_bytes);

  // Peek payload + CRC trailer in one bounds check, then verify the checksum
  // before touching `out`.
  Result<std::string_view> framed =
      reader.PeekBytes(shape.payload_bytes + sizeof(std::uint32_t));
  if (!framed.ok()) return framed.status();
  const std::uint32_t computed =
      Crc32(crc_through_counts, framed.value().data(), shape.payload_bytes);
  std::uint32_t stored;
  std::memcpy(&stored, framed.value().data() + shape.payload_bytes,
              sizeof(stored));
  if (computed != stored) {
    return Status::Corruption(std::string(what) +
                              ": payload checksum mismatch");
  }
  shape.payload = framed.value().data();
  return shape;
}

/// Consumes the already-validated CRC trailer.
Status SkipCrcTrailer(BinaryReader& reader) {
  return reader.ReadU32().ok()
             ? Status::OK()
             : Status::Corruption("wire message lost its checksum trailer");
}

}  // namespace

namespace internal {

std::uint32_t Crc32Table(std::uint32_t seed, const void* data,
                         std::size_t size) {
  return ~TableUpdate(~seed, static_cast<const unsigned char*>(data), size);
}

}  // namespace internal

std::uint32_t Crc32(std::uint32_t seed, const void* data, std::size_t size) {
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
#ifdef FEDREC_CRC32_FOLD
  static const bool has_fold = CpuHasFold();
  if (has_fold && size >= kFoldMinBytes) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = FoldUpdate(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return ~TableUpdate(crc, bytes, size);
}

namespace {

/// Writes the FRWU header; returns the checksum start offset (everything
/// after the version field is covered) for the trailer.
std::size_t BeginUploadMessage(std::uint64_t source, std::size_t cols,
                               std::size_t row_count, BinaryWriter& writer) {
  writer.WriteU32(kUploadMagic);
  writer.WriteU32(kWireVersion);
  const std::size_t crc_begin = writer.buffer().size();
  writer.WriteU64(source);
  writer.WriteU64(cols);
  writer.WriteU64(row_count);
  return crc_begin;
}

/// Appends the CRC trailer over [crc_begin, current end).
void FinishMessage(std::size_t crc_begin, BinaryWriter& writer) {
  writer.WriteU32(Crc32(0, writer.buffer().data() + crc_begin,
                        writer.buffer().size() - crc_begin));
}

}  // namespace

// fedrec:hot — per-round wire encode; writes into the caller's retained
// buffer (WriterGrowthScope tracks the one-time high-water growth).
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  std::span<const std::uint32_t> slots, BinaryWriter& writer) {
  WriterGrowthScope growth(writer);
  const std::size_t crc_begin =
      BeginUploadMessage(source, upload.cols(), slots.size(), writer);
  const auto& row_ids = upload.row_ids();
  for (std::uint32_t slot : slots) {
    FEDREC_DCHECK(slot < row_ids.size());
    writer.WriteU64(row_ids[slot]);
    writer.WriteF32Array(upload.RowAtSlot(slot));
  }
  FinishMessage(crc_begin, writer);
}

// fedrec:hot
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  BinaryWriter& writer) {
  WriterGrowthScope growth(writer);
  const std::size_t crc_begin =
      BeginUploadMessage(source, upload.cols(), upload.row_count(), writer);
  const auto& row_ids = upload.row_ids();
  for (std::size_t slot = 0; slot < row_ids.size(); ++slot) {
    writer.WriteU64(row_ids[slot]);
    writer.WriteF32Array(upload.RowAtSlot(slot));
  }
  FinishMessage(crc_begin, writer);
}

// fedrec:hot — decode bulk-loads `out`'s retained slots straight from the
// verified payload; corruption paths may build messages (std::to_string)
// since they abort the round.
Result<std::uint64_t> DecodeUpload(BinaryReader& reader, SparseRowMatrix& out) {
  Result<std::uint32_t> magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kUploadMagic) {
    return Status::Corruption("not a FRWU upload message");
  }
  Result<std::uint32_t> version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kWireVersion) {
    return Status::Corruption("unsupported FRWU version " +
                              std::to_string(version.value()));
  }
  // The source id is covered by the checksum: fold its bytes in before
  // consuming it (a flipped source would otherwise double- or mis-route).
  Result<std::string_view> source_bytes =
      reader.PeekBytes(sizeof(std::uint64_t));
  if (!source_bytes.ok()) return source_bytes.status();
  const std::uint32_t header_crc =
      Crc32(0, source_bytes.value().data(), sizeof(std::uint64_t));
  Result<std::uint64_t> source = reader.ReadU64();
  if (!source.ok()) return source.status();

  Result<PayloadShape> shape =
      ReadAndChecksumPayload(reader, header_crc, "FRWU upload");
  if (!shape.ok()) return shape.status();

  std::size_t duplicate = 0;
  if (!out.AssignPackedRows(shape.value().cols, shape.value().payload,
                            shape.value().row_count, duplicate)) {
    return Status::Corruption("FRWU upload: duplicate row " +
                              std::to_string(duplicate));
  }
  FEDREC_RETURN_NOT_OK(
      reader.Skip(shape.value().payload_bytes + sizeof(std::uint32_t)));
  return source.value();
}

// fedrec:hot
void EncodeDelta(const SparseRoundDelta& delta, BinaryWriter& writer) {
  WriterGrowthScope growth(writer);
  writer.WriteU32(kDeltaMagic);
  writer.WriteU32(kWireVersion);
  const std::size_t crc_begin = writer.buffer().size();
  writer.WriteU64(delta.cols());
  writer.WriteU64(delta.row_count());
  const auto& rows = delta.rows();
  for (std::size_t slot = 0; slot < rows.size(); ++slot) {
    writer.WriteU64(rows[slot]);
    writer.WriteF32Array(delta.RowAtSlot(slot));
  }
  FinishMessage(crc_begin, writer);
}

// fedrec:hot
Status DecodeDelta(BinaryReader& reader, SparseRoundDelta& out) {
  Result<std::uint32_t> magic = reader.ReadU32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kDeltaMagic) {
    return Status::Corruption("not a FRWD delta message");
  }
  Result<std::uint32_t> version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (version.value() != kWireVersion) {
    return Status::Corruption("unsupported FRWD version " +
                              std::to_string(version.value()));
  }
  Result<PayloadShape> shape =
      ReadAndChecksumPayload(reader, /*header_crc=*/0, "FRWD delta");
  if (!shape.ok()) return shape.status();

  out.Reset(shape.value().cols);
  std::size_t previous = 0;
  for (std::size_t i = 0; i < shape.value().row_count; ++i) {
    Result<std::uint64_t> row = reader.ReadU64();
    if (!row.ok()) return row.status();
    const auto id = static_cast<std::size_t>(row.value());
    if (i > 0 && id <= previous) {
      return Status::Corruption("FRWD delta: rows not strictly ascending");
    }
    previous = id;
    FEDREC_RETURN_NOT_OK(reader.ReadF32Array(out.AppendRowForOverwrite(id)));
  }
  return SkipCrcTrailer(reader);
}

}  // namespace fedrec
