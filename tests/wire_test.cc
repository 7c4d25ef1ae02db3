#include "shard/wire.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fedrec {
namespace {

SparseRowMatrix MakeUpload(std::size_t cols, std::initializer_list<std::size_t> rows,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseRowMatrix upload(cols);
  for (std::size_t row : rows) {
    for (float& v : upload.RowMutable(row)) {
      v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
    }
  }
  return upload;
}

SparseRoundDelta MakeDelta(std::size_t cols,
                           std::initializer_list<std::size_t> ascending_rows,
                           std::uint64_t seed) {
  Rng rng(seed);
  SparseRoundDelta delta;
  delta.Reset(cols);
  for (std::size_t row : ascending_rows) {
    for (float& v : delta.AppendRow(row)) {
      v = static_cast<float>(rng.NextGaussian(0.0, 1.0));
    }
  }
  return delta;
}

void ExpectSameRows(const SparseRowMatrix& a, const SparseRowMatrix& b) {
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t slot = 0; slot < a.row_count(); ++slot) {
    EXPECT_EQ(a.row_ids()[slot], b.row_ids()[slot]);
    const auto ra = a.RowAtSlot(slot);
    const auto rb = b.RowAtSlot(slot);
    for (std::size_t d = 0; d < a.cols(); ++d) EXPECT_EQ(ra[d], rb[d]);
  }
}

TEST(Crc32Test, MatchesTheIeeeCheckVector) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(0, check, 9), 0xCBF43926u);
  // Incremental continuation equals the one-shot checksum.
  const std::uint32_t head = Crc32(0, check, 4);
  EXPECT_EQ(Crc32(head, check + 4, 5), 0xCBF43926u);
  EXPECT_EQ(Crc32(0, nullptr, 0), 0u);
}

TEST(Crc32Test, FoldedPathMatchesTheTableKernel) {
  // Every length across the 64-byte fold threshold and the 16-byte block
  // tail, at every alignment of a 16-byte load, with random seeds.
  Rng rng(31);
  std::vector<unsigned char> buffer(1024 + 16);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.Next());
  }
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(seed, data, length),
                internal::Crc32Table(seed, data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainedCallsMatchOneShotAtEverySplit) {
  Rng rng(32);
  std::vector<unsigned char> buffer(200);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.Next());
  }
  for (const std::size_t length : {63, 64, 65, 79, 80, 127, 128, 129, 200}) {
    const auto seed = static_cast<std::uint32_t>(rng.Next());
    const std::uint32_t whole = Crc32(seed, buffer.data(), length);
    ASSERT_EQ(whole, internal::Crc32Table(seed, buffer.data(), length));
    for (std::size_t split = 0; split <= length; ++split) {
      const std::uint32_t head = Crc32(seed, buffer.data(), split);
      ASSERT_EQ(Crc32(head, buffer.data() + split, length - split), whole)
          << "length " << length << " split " << split;
    }
  }
}

TEST(WireUploadTest, RoundTripsAllRows) {
  const SparseRowMatrix upload = MakeUpload(6, {12, 3, 40}, 1);
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/77, writer);

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> source = DecodeUpload(reader, decoded);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(source.value(), 77u);
  EXPECT_TRUE(reader.exhausted());
  ExpectSameRows(upload, decoded);
}

TEST(WireUploadTest, RoundTripsSlotSubsetInGivenOrder) {
  const SparseRowMatrix upload = MakeUpload(4, {9, 2, 30, 17}, 2);
  const std::uint32_t slots[] = {2, 0};  // rows 30, 9 in that order
  BinaryWriter writer;
  EncodeUpload(upload, 5, slots, writer);

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  ASSERT_TRUE(DecodeUpload(reader, decoded).ok());
  ASSERT_EQ(decoded.row_count(), 2u);
  EXPECT_EQ(decoded.row_ids()[0], 30u);
  EXPECT_EQ(decoded.row_ids()[1], 9u);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(decoded.RowAtSlot(0)[d], upload.Row(30)[d]);
    EXPECT_EQ(decoded.RowAtSlot(1)[d], upload.Row(9)[d]);
  }
}

TEST(WireUploadTest, EmptyUploadRoundTrips) {
  const SparseRowMatrix upload(5);
  BinaryWriter writer;
  EncodeUpload(upload, 3, writer);
  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> source = DecodeUpload(reader, decoded);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source.value(), 3u);
  EXPECT_EQ(decoded.cols(), 5u);
  EXPECT_TRUE(decoded.empty());
  EXPECT_TRUE(reader.exhausted());
}

TEST(WireUploadTest, MessagesAreSelfDelimiting) {
  const SparseRowMatrix first = MakeUpload(3, {1, 5}, 3);
  const SparseRowMatrix second = MakeUpload(3, {2}, 4);
  BinaryWriter writer;
  EncodeUpload(first, 10, writer);
  EncodeUpload(second, 11, writer);

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  ASSERT_EQ(DecodeUpload(reader, decoded).value(), 10u);
  ExpectSameRows(first, decoded);
  ASSERT_EQ(DecodeUpload(reader, decoded).value(), 11u);
  ExpectSameRows(second, decoded);
  EXPECT_TRUE(reader.exhausted());
}

TEST(WireDeltaTest, RoundTripsEmptySingleAndMultiRow) {
  for (const auto& rows : std::initializer_list<std::initializer_list<std::size_t>>{
           {}, {7}, {0, 3, 4, 90}}) {
    const SparseRoundDelta delta = MakeDelta(5, rows, 9);
    BinaryWriter writer;
    EncodeDelta(delta, writer);
    BinaryReader reader = BinaryReader::View(writer.buffer());
    SparseRoundDelta decoded;
    ASSERT_TRUE(DecodeDelta(reader, decoded).ok());
    EXPECT_TRUE(reader.exhausted());
    ASSERT_EQ(decoded.cols(), delta.cols());
    ASSERT_EQ(decoded.row_count(), delta.row_count());
    for (std::size_t slot = 0; slot < delta.row_count(); ++slot) {
      EXPECT_EQ(decoded.rows()[slot], delta.rows()[slot]);
      for (std::size_t d = 0; d < delta.cols(); ++d) {
        EXPECT_EQ(decoded.RowAtSlot(slot)[d], delta.RowAtSlot(slot)[d]);
      }
    }
  }
}

TEST(WireFailureTest, TruncatedBuffersFailWithCorruption) {
  const SparseRowMatrix upload = MakeUpload(4, {1, 2, 3}, 5);
  BinaryWriter writer;
  EncodeUpload(upload, 1, writer);
  const std::string& wire = writer.buffer();
  // Cut in the magic, the header, mid-payload, and inside the CRC trailer.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{2}, std::size_t{9}, std::size_t{30},
        wire.size() / 2, wire.size() - 2}) {
    BinaryReader reader = BinaryReader::View(
        std::string_view(wire.data(), keep));
    SparseRowMatrix decoded;
    Result<std::uint64_t> result = DecodeUpload(reader, decoded);
    ASSERT_FALSE(result.ok()) << "prefix " << keep << " decoded";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }

  const SparseRoundDelta delta = MakeDelta(4, {1, 2}, 6);
  BinaryWriter delta_writer;
  EncodeDelta(delta, delta_writer);
  BinaryReader reader = BinaryReader::View(std::string_view(
      delta_writer.buffer().data(), delta_writer.buffer().size() - 5));
  SparseRoundDelta decoded;
  EXPECT_EQ(DecodeDelta(reader, decoded).code(), StatusCode::kCorruption);
}

TEST(WireFailureTest, ForeignMagicFails) {
  const SparseRoundDelta delta = MakeDelta(3, {1}, 7);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  // A delta message is not an upload message, and vice versa.
  BinaryReader as_upload = BinaryReader::View(writer.buffer());
  SparseRowMatrix upload_out;
  Result<std::uint64_t> upload_result = DecodeUpload(as_upload, upload_out);
  ASSERT_FALSE(upload_result.ok());
  EXPECT_EQ(upload_result.status().code(), StatusCode::kCorruption);

  BinaryWriter garbage;
  garbage.WriteU32(0x12345678);
  garbage.WriteU32(1);
  BinaryReader reader = BinaryReader::View(garbage.buffer());
  SparseRoundDelta delta_out;
  EXPECT_EQ(DecodeDelta(reader, delta_out).code(), StatusCode::kCorruption);
}

TEST(WireFailureTest, UnknownVersionFails) {
  // Hand-build a version-3 upload header; the decoder must refuse before
  // touching the payload.
  BinaryWriter writer;
  writer.WriteU32(0x55575246);  // "FRWU"
  writer.WriteU32(3);           // unsupported version
  writer.WriteU64(0);           // source
  writer.WriteU64(3);           // cols
  writer.WriteU64(0);           // rows
  writer.WriteU32(Crc32(0, nullptr, 0));
  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(WireFailureTest, ChecksumCorruptionFailsBeforeParsing) {
  const SparseRowMatrix upload = MakeUpload(4, {5, 9}, 8);
  BinaryWriter writer;
  EncodeUpload(upload, 1, writer);
  std::string corrupted = writer.buffer();
  corrupted[corrupted.size() - 10] ^= 0x40;  // flip one payload bit
  BinaryReader reader = BinaryReader::View(corrupted);
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(WireFailureTest, DuplicateUploadRowFails) {
  // Hand-build a payload repeating row 4 with a VALID checksum: the decoder
  // must reject structure, not just bit flips.
  BinaryWriter payload;
  const float values[2] = {1.0f, 2.0f};
  payload.WriteU64(4);
  payload.WriteF32Array(values);
  payload.WriteU64(4);
  payload.WriteF32Array(values);

  BinaryWriter writer;
  writer.WriteU32(0x55575246);  // "FRWU"
  writer.WriteU32(2);
  writer.WriteU64(9);  // source
  writer.WriteU64(2);  // cols
  writer.WriteU64(2);  // rows
  writer.WriteBytes(payload.buffer().data(), payload.buffer().size());
  // v2 checksum: everything after the version field.
  writer.WriteU32(
      Crc32(0, writer.buffer().data() + 8, writer.buffer().size() - 8));

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("duplicate"), std::string::npos);
}

TEST(WireFailureTest, NonAscendingDeltaRowsFail) {
  BinaryWriter payload;
  const float values[2] = {1.0f, 2.0f};
  payload.WriteU64(5);
  payload.WriteF32Array(values);
  payload.WriteU64(3);  // descends
  payload.WriteF32Array(values);

  BinaryWriter writer;
  writer.WriteU32(0x44575246);  // "FRWD"
  writer.WriteU32(2);
  writer.WriteU64(2);  // cols
  writer.WriteU64(2);  // rows
  writer.WriteBytes(payload.buffer().data(), payload.buffer().size());
  // v2 checksum: everything after the version field.
  writer.WriteU32(
      Crc32(0, writer.buffer().data() + 8, writer.buffer().size() - 8));

  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRoundDelta decoded;
  const Status status = DecodeDelta(reader, decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("ascending"), std::string::npos);
}

TEST(WireFailureTest, AbsurdRowCountFailsInsteadOfAllocating) {
  BinaryWriter writer;
  writer.WriteU32(0x55575246);  // "FRWU"
  writer.WriteU32(2);
  writer.WriteU64(0);                        // source
  writer.WriteU64(1u << 20);                 // cols
  writer.WriteU64(0xFFFFFFFFFFFFFFFFull);    // rows: overflow bait
  BinaryReader reader = BinaryReader::View(writer.buffer());
  SparseRowMatrix decoded;
  Result<std::uint64_t> result = DecodeUpload(reader, decoded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

// --- Exhaustive corruption sweep --------------------------------------------
//
// The fault-tolerance layer's contract is that NO single-byte transit
// corruption can slip through decoding: flip any bit of any byte, or cut the
// buffer at any length, and the decoder must return Status::Corruption — not
// crash, not silently accept (run under asan/ubsan in CI to make "not crash"
// a real check, not a hope).

TEST(WireCorruptionSweepTest, EveryUploadByteFlipFailsWithCorruption) {
  const SparseRowMatrix upload = MakeUpload(5, {4, 19, 33}, 21);
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/6, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t offset = 0; offset < wire.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      BinaryReader reader = BinaryReader::View(corrupted);
      SparseRowMatrix decoded;
      Result<std::uint64_t> result = DecodeUpload(reader, decoded);
      ASSERT_FALSE(result.ok())
          << "flip of byte " << offset << " bit " << bit << " decoded";
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(WireCorruptionSweepTest, EveryUploadTruncationFailsWithCorruption) {
  const SparseRowMatrix upload = MakeUpload(5, {4, 19, 33}, 21);
  BinaryWriter writer;
  EncodeUpload(upload, 6, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    BinaryReader reader =
        BinaryReader::View(std::string_view(wire.data(), keep));
    SparseRowMatrix decoded;
    Result<std::uint64_t> result = DecodeUpload(reader, decoded);
    ASSERT_FALSE(result.ok()) << "prefix " << keep << " decoded";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(WireCorruptionSweepTest, EveryDeltaByteFlipFailsWithCorruption) {
  const SparseRoundDelta delta = MakeDelta(5, {2, 8, 40}, 22);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t offset = 0; offset < wire.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[offset] = static_cast<char>(
          static_cast<unsigned char>(corrupted[offset]) ^ (1u << bit));
      BinaryReader reader = BinaryReader::View(corrupted);
      SparseRoundDelta decoded;
      const Status status = DecodeDelta(reader, decoded);
      ASSERT_FALSE(status.ok())
          << "flip of byte " << offset << " bit " << bit << " decoded";
      EXPECT_EQ(status.code(), StatusCode::kCorruption);
    }
  }
}

TEST(WireCorruptionSweepTest, EveryDeltaTruncationFailsWithCorruption) {
  const SparseRoundDelta delta = MakeDelta(5, {2, 8, 40}, 22);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  const std::string& wire = writer.buffer();
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    BinaryReader reader =
        BinaryReader::View(std::string_view(wire.data(), keep));
    SparseRoundDelta decoded;
    const Status status = DecodeDelta(reader, decoded);
    ASSERT_FALSE(status.ok()) << "prefix " << keep << " decoded";
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
  }
}

// --- Seeded multi-mutation sweep --------------------------------------------
//
// Beyond single edits: each case stacks 1-4 mutations drawn from bit flips,
// byte sets, truncation, splices from another message, a duplicated row id,
// two swapped rows and a rewritten cols/row_count. Half the cases re-seal
// the checksum so the mutations reach the checks behind it. Every decode must
// either fail with Corruption or succeed and re-encode to exactly the bytes
// it consumed; it must never crash (asan/ubsan make that a real check).

/// Where the pieces of an intact message sit, for the structure-aware edits.
struct MessageLayout {
  std::size_t counts = 0;      ///< offset of the u64 cols, then row_count
  std::size_t rows_begin = 0;  ///< offset of the first row record
  std::size_t row_bytes = 0;   ///< u64 id + cols floats
  std::size_t rows = 0;
};

void MutateOnce(Rng& rng, const MessageLayout& layout,
                const std::string& donor, std::string& wire) {
  const auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng.NextBounded(bound));
  };
  const auto record = [&layout](std::size_t row) {
    return layout.rows_begin + row * layout.row_bytes;
  };
  const bool rows_intact = wire.size() >= record(layout.rows);
  switch (rng.NextBounded(8)) {
    case 0:  // bit flip
      if (!wire.empty()) {
        wire[pick(wire.size())] ^= static_cast<char>(1u << pick(8));
      }
      break;
    case 1: {  // byte set, biased to the boundary values
      if (wire.empty()) break;
      const unsigned char values[] = {0x00, 0x01, 0x7F, 0x80, 0xFF,
                                      static_cast<unsigned char>(pick(256))};
      wire[pick(wire.size())] = static_cast<char>(values[pick(6)]);
      break;
    }
    case 2:  // truncate
      wire.resize(pick(wire.size() + 1));
      break;
    case 3: {  // splice a donor chunk over a random range
      const std::size_t at = pick(wire.size() + 1);
      const std::size_t cut = pick(wire.size() - at + 1);
      const std::size_t from = pick(donor.size());
      const std::size_t take = pick(donor.size() - from + 1);
      wire.replace(at, cut, donor, from, take);
      break;
    }
    case 4:  // duplicate one row's id onto another
      if (rows_intact && layout.rows >= 2) {
        const std::size_t a = pick(layout.rows);
        const std::size_t b = (a + 1 + pick(layout.rows - 1)) % layout.rows;
        std::memcpy(wire.data() + record(b), wire.data() + record(a),
                    sizeof(std::uint64_t));
      }
      break;
    case 5:  // swap two whole row records
      if (rows_intact && layout.rows >= 2) {
        const std::size_t a = pick(layout.rows);
        const std::size_t b = (a + 1 + pick(layout.rows - 1)) % layout.rows;
        std::string saved = wire.substr(record(a), layout.row_bytes);
        wire.replace(record(a), layout.row_bytes, wire, record(b),
                     layout.row_bytes);
        wire.replace(record(b), layout.row_bytes, saved);
      }
      break;
    default: {  // rewrite cols (6) or row_count (7)
      const std::size_t at =
          layout.counts + (rng.NextBounded(2) == 0 ? 0 : sizeof(std::uint64_t));
      if (wire.size() < at + sizeof(std::uint64_t)) break;
      std::uint64_t value;
      std::memcpy(&value, wire.data() + at, sizeof(value));
      const std::uint64_t candidates[] = {0, value - 1, value + 1, value * 2,
                                          ~std::uint64_t{0}};
      value = candidates[pick(5)];
      std::memcpy(wire.data() + at, &value, sizeof(value));
      break;
    }
  }
}

/// Recomputes the v2 trailer (everything after magic + version) in place.
void Reseal(std::string& wire) {
  if (wire.size() < 12) return;
  const std::uint32_t crc = Crc32(0, wire.data() + 8, wire.size() - 12);
  std::memcpy(wire.data() + wire.size() - 4, &crc, sizeof(crc));
}

/// Runs `cases` mutated copies of `wire` through `check`, which decodes one
/// and returns true when it was accepted.
template <typename Check>
std::pair<int, int> RunMutationSweep(std::uint64_t seed,
                                     const MessageLayout& layout,
                                     const std::string& wire,
                                     const std::string& donor, int cases,
                                     Check check) {
  Rng rng(seed);
  int accepted = 0;
  for (int c = 0; c < cases; ++c) {
    std::string mutated = wire;
    const std::uint64_t edits = 1 + rng.NextBounded(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      MutateOnce(rng, layout, donor, mutated);
    }
    if (c % 2 == 0) Reseal(mutated);
    if (check(mutated)) ++accepted;
    if (::testing::Test::HasFatalFailure()) break;
  }
  return {accepted, cases - accepted};
}

TEST(WireMutationTest, UploadDecodeRejectsOrRoundTripsExactly) {
  const SparseRowMatrix upload = MakeUpload(5, {4, 19, 33, 2, 60, 7}, 41);
  const SparseRowMatrix other = MakeUpload(5, {8, 1, 90}, 42);
  BinaryWriter writer;
  EncodeUpload(upload, /*source=*/12, writer);
  BinaryWriter donor;
  EncodeUpload(other, /*source=*/13, donor);
  const MessageLayout layout{/*counts=*/16, /*rows_begin=*/32,
                             /*row_bytes=*/8 + 5 * sizeof(float),
                             /*rows=*/6};
  SparseRowMatrix decoded;
  BinaryWriter again;
  const auto [accepted, rejected] = RunMutationSweep(
      /*seed=*/2022, layout, writer.buffer(), donor.buffer(), 4000,
      [&](const std::string& mutated) {
        BinaryReader reader = BinaryReader::View(mutated);
        Result<std::uint64_t> source = DecodeUpload(reader, decoded);
        if (!source.ok()) {
          EXPECT_EQ(source.status().code(), StatusCode::kCorruption);
          return false;
        }
        again.Clear();
        EncodeUpload(decoded, source.value(), again);
        EXPECT_EQ(again.buffer(), mutated.substr(0, reader.position()));
        return true;
      });
  // Both outcomes occur: resealed row swaps are valid uploads.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(WireMutationTest, DeltaDecodeRejectsOrRoundTripsExactly) {
  const SparseRoundDelta delta = MakeDelta(5, {2, 8, 40, 41, 77, 90}, 43);
  const SparseRoundDelta other = MakeDelta(5, {1, 3, 5}, 44);
  BinaryWriter writer;
  EncodeDelta(delta, writer);
  BinaryWriter donor;
  EncodeDelta(other, donor);
  const MessageLayout layout{/*counts=*/8, /*rows_begin=*/24,
                             /*row_bytes=*/8 + 5 * sizeof(float),
                             /*rows=*/6};
  SparseRoundDelta decoded;
  BinaryWriter again;
  const auto [accepted, rejected] = RunMutationSweep(
      /*seed=*/2023, layout, writer.buffer(), donor.buffer(), 4000,
      [&](const std::string& mutated) {
        BinaryReader reader = BinaryReader::View(mutated);
        const Status status = DecodeDelta(reader, decoded);
        if (!status.ok()) {
          EXPECT_EQ(status.code(), StatusCode::kCorruption);
          return false;
        }
        again.Clear();
        EncodeDelta(decoded, again);
        EXPECT_EQ(again.buffer(), mutated.substr(0, reader.position()));
        return true;
      });
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(WireSteadyStateTest, WarmEncodeDecodeLoopIsAllocationFree) {
  const SparseRowMatrix upload = MakeUpload(8, {3, 17, 44, 90}, 10);
  const SparseRoundDelta delta = MakeDelta(8, {2, 5, 51}, 11);
  BinaryWriter upload_writer;
  BinaryWriter delta_writer;
  SparseRowMatrix upload_out;
  SparseRoundDelta delta_out;
  for (int warm = 0; warm < 3; ++warm) {
    upload_writer.Clear();
    delta_writer.Clear();
    EncodeUpload(upload, 1, upload_writer);
    EncodeDelta(delta, delta_writer);
    BinaryReader upload_reader = BinaryReader::View(upload_writer.buffer());
    ASSERT_TRUE(DecodeUpload(upload_reader, upload_out).ok());
    BinaryReader delta_reader = BinaryReader::View(delta_writer.buffer());
    ASSERT_TRUE(DecodeDelta(delta_reader, delta_out).ok());
  }
  ResetSparseAllocationCount();
  for (int round = 0; round < 50; ++round) {
    upload_writer.Clear();
    delta_writer.Clear();
    EncodeUpload(upload, 1, upload_writer);
    EncodeDelta(delta, delta_writer);
    BinaryReader upload_reader = BinaryReader::View(upload_writer.buffer());
    ASSERT_TRUE(DecodeUpload(upload_reader, upload_out).ok());
    BinaryReader delta_reader = BinaryReader::View(delta_writer.buffer());
    ASSERT_TRUE(DecodeDelta(delta_reader, delta_out).ok());
  }
  EXPECT_EQ(SparseAllocationCount(), 0u);
}

}  // namespace
}  // namespace fedrec
