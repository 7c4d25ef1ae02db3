#ifndef FEDREC_SHARD_WIRE_H_
#define FEDREC_SHARD_WIRE_H_

#include <cstdint>
#include <span>

#include "common/matrix.h"
#include "common/status.h"
#include "data/serialize.h"

/// \file
/// Versioned little-endian wire format for the sharded federation layer: the
/// two row-set payloads a multi-server deployment moves between boxes.
///
///   FRWU (upload):  magic, version, source (round-unique upload sequence
///                   id assigned by the router — client ids are
///                   attacker-controlled and may collide), cols, row_count,
///                   row_count x { u64 row_id, f32 values[cols] }, crc32
///   FRWD (delta):   magic, version, cols, row_count,
///                   row_count x { u64 row_id, f32 values[cols] }, crc32
///                   (row ids strictly ascending)
///
/// The trailing CRC32 covers every byte after the version field — source,
/// cols, row_count and the row payload — so ANY flipped bit in transit fails
/// loudly as Status::Corruption instead of silently skewing the model (magic
/// and version are excluded: a flip there fails their own validation; a v1
/// message, whose CRC covered only the payload, could mis-frame on a
/// corrupted count). Exhaustively enforced by the wire_test corruption
/// sweep, which flips every byte and truncates at every length.
/// Encoders append to a caller-owned BinaryWriter and decoders parse a
/// BinaryReader in place (BinaryReader::View) — both sides reuse high-water
/// buffers, so a steady-state round encodes and decodes every message
/// without touching the heap. Messages are self-delimiting: a shard inbox is
/// just the concatenation of its round's FRWU messages.

namespace fedrec {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes,
/// continuing from `seed` (pass 0 to start a new checksum).
std::uint32_t Crc32(std::uint32_t seed, const void* data, std::size_t size);

namespace internal {
/// The slice-by-8 table kernel on its own: what Crc32 runs on CPUs without
/// PCLMULQDQ, and the reference wire_test checks the folded path against.
/// Not for production callers.
std::uint32_t Crc32Table(std::uint32_t seed, const void* data,
                         std::size_t size);
}  // namespace internal

/// Appends one FRWU message carrying the rows of `upload` whose slot indices
/// are listed in `slots` (in that order — the router preserves upload order,
/// which keeps every row's contributor sequence identical to the
/// single-server sweep). `source` identifies the upload within its round.
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  std::span<const std::uint32_t> slots, BinaryWriter& writer);

/// Appends one FRWU message carrying every row of `upload`.
void EncodeUpload(const SparseRowMatrix& upload, std::uint64_t source,
                  BinaryWriter& writer);

/// Decodes one FRWU message into `out` (reset to the wire's column count;
/// retained capacity is reused). Returns the message's source id. Fails with
/// Status::Corruption on a foreign magic, unknown version, truncated buffer,
/// duplicate row id, or checksum mismatch — never crashes, never silently
/// accepts.
[[nodiscard]] Result<std::uint64_t> DecodeUpload(BinaryReader& reader,
                                                 SparseRowMatrix& out);

/// Appends one FRWD message carrying `delta` (rows already ascending).
void EncodeDelta(const SparseRoundDelta& delta, BinaryWriter& writer);

/// Decodes one FRWD message into `out` (reset to the wire's column count).
/// Additionally rejects row ids that are not strictly ascending.
[[nodiscard]] Status DecodeDelta(BinaryReader& reader, SparseRoundDelta& out);

}  // namespace fedrec

#endif  // FEDREC_SHARD_WIRE_H_
