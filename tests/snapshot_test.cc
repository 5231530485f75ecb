/// \file snapshot_test.cc
/// \brief Tests for the `snapshot::` subsystem: round-trip fidelity
/// (Freeze → Write → Read is bit-identical on every CSR array),
/// corruption rejection (truncation, bad magic, future versions, flipped
/// payload bytes, hostile section tables, and structurally bad payloads
/// resealed with valid checksums — each a clean `Status`, never UB), the
/// one readable format version, a seeded mutation fuzzer over
/// `Reader::Open` with plain-loop oracles, cache generation stamps,
/// and hot republish into a live `serve::Server` (the race case is
/// meant to run under ThreadSanitizer — `ci.sh tsan` builds this suite
/// with `-fsanitize=thread`).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/testbed.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "graph/csr.h"
#include "serve/expansion_cache.h"
#include "serve/server.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "wiki/knowledge_base.h"
#include "wiki/synthetic.h"

#include "kb_expect.h"

namespace wqe::snapshot {
namespace {

// ------------------------------------------------------------- helpers

/// A per-test scratch path under gtest's temp dir; tests overwrite it
/// freely and never depend on contents across tests.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "wqe_snapshot_" + name + ".bin";
}

wiki::KnowledgeBase SyntheticKb(uint64_t seed, size_t num_domains) {
  wiki::SyntheticWikipediaOptions options;
  options.seed = seed;
  options.num_domains = num_domains;
  auto generated = wiki::GenerateSyntheticWikipedia(options);
  EXPECT_TRUE(generated.ok()) << generated.status();
  return std::move(generated->kb);
}

/// An unfrozen KB of `n` articles with `links` outgoing links each.
wiki::KnowledgeBase UnfrozenKb(uint32_t n, uint32_t links) {
  wiki::KnowledgeBase kb;
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(kb.AddArticle("article " + std::to_string(i)).ok());
  }
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 1; j <= links; ++j) {
      EXPECT_TRUE(kb.AddLink(i, (i + j * 7919) % n).ok());
    }
  }
  return kb;
}

std::vector<std::byte> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(chars.size());
  std::memcpy(bytes.data(), chars.data(), chars.size());
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

// ----------------------------------------------------------- round trip

TEST(SnapshotRoundTripTest, BitIdenticalAcrossSeeds) {
  struct Config {
    uint64_t seed;
    size_t num_domains;
  };
  const Config configs[] = {{42, 6}, {7, 10}, {123, 16}};
  for (const Config& config : configs) {
    SCOPED_TRACE("seed=" + std::to_string(config.seed) +
                 " domains=" + std::to_string(config.num_domains));
    wiki::KnowledgeBase kb = SyntheticKb(config.seed, config.num_domains);
    const std::string path = TempPath("roundtrip");
    ASSERT_TRUE(WriteSnapshot(kb, path).ok());

    auto loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(loaded->frozen());

    ExpectSameKb(kb, *loaded);
    // The full structural pass the reader leaves to its callers.
    EXPECT_TRUE(loaded->csr().CheckInvariants().ok());
    EXPECT_TRUE(loaded->Validate().ok());

    // The rebuilt title index resolves exactly like the original's.
    for (uint32_t u = 0; u < kb.csr().num_nodes(); u += 7) {
      EXPECT_EQ(loaded->FindArticle(kb.title(u)), kb.FindArticle(kb.title(u)))
          << "node " << u;
    }
  }
}

TEST(SnapshotRoundTripTest, WriterRequiresFrozenKb) {
  wiki::KnowledgeBase kb;  // a builder: generated KBs come back frozen
  ASSERT_TRUE(kb.AddArticle("venice").ok());
  Status status = WriteSnapshot(kb, TempPath("unfrozen"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotRoundTripTest, ReaderInfoDescribesEverySection) {
  wiki::KnowledgeBase kb = SyntheticKb(42, 4);
  const std::string path = TempPath("info");
  ASSERT_TRUE(WriteSnapshot(kb, path).ok());

  auto reader = Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const SnapshotInfo& info = reader->info();
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.num_nodes, kb.csr().num_nodes());
  EXPECT_EQ(info.num_edges, kb.csr().num_edges());
  EXPECT_EQ(info.file_size, ReadFileBytes(path).size());
  ASSERT_EQ(info.sections.size(), size_t{kNumSections});
  bool seen[kNumSections] = {};
  for (const SectionInfo& section : info.sections) {
    const auto index = static_cast<size_t>(section.id);
    ASSERT_LT(index, size_t{kNumSections});
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
    EXPECT_STREQ(section.name, SectionName(section.id));
    EXPECT_EQ(section.offset % kSectionAlignment, 0u) << section.name;
    EXPECT_EQ(section.count * section.elem_size, section.size_bytes)
        << section.name;
    EXPECT_LE(section.offset + section.size_bytes, info.file_size)
        << section.name;
  }
}

TEST(SnapshotRoundTripTest, EngineOverLoadedSnapshotAnswersIdentically) {
  // An engine served from the mmap'd snapshot, over the same corpus,
  // must answer exactly like the engine that built the graph in-process.
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  auto bed = api::Testbed::Build(options);
  ASSERT_TRUE(bed.ok()) << bed.status();

  const std::string path = TempPath("engine");
  ASSERT_TRUE(WriteSnapshot((*bed)->kb(), path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  auto engine = api::Engine::Build(std::move(*loaded));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const ir::Document& doc :
       (*bed)->engine().search_engine().store().documents()) {
    ASSERT_TRUE((*engine)->AddDocument(doc.name, doc.text).ok());
  }
  ASSERT_TRUE((*engine)->FinalizeIndex().ok());

  for (size_t topic = 0; topic < (*bed)->num_topics(); ++topic) {
    api::QueryRequest request;
    request.keywords = (*bed)->topic(topic).keywords;
    auto expected = (*bed)->engine().Query(request);
    auto actual = (*engine)->Query(request);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_TRUE(actual.ok()) << actual.status();
    EXPECT_EQ(actual->expansion.query_articles,
              expected->expansion.query_articles);
    EXPECT_EQ(actual->expansion.feature_articles,
              expected->expansion.feature_articles);
    EXPECT_EQ(actual->expansion.titles, expected->expansion.titles);
    EXPECT_EQ(actual->docs, expected->docs);
  }
}

// ----------------------------------------------------------- corruption

/// A section checksum: XXH64 is the current format's, FNV-1a version 1's.
using SectionHash = uint64_t (*)(const void* data, size_t size);
uint64_t Fnv1aSection(const void* data, size_t size) {  // version 1
  return HashBytes(data, size);
}
uint64_t Xxh64Section(const void* data, size_t size) {  // version 2
  return Xxh64(data, size);
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  /// One valid snapshot, built once; each case mutates a fresh copy of
  /// its bytes.
  static void SetUpTestSuite() {
    wiki::KnowledgeBase kb = SyntheticKb(42, 6);
    path_ = new std::string(TempPath("corruption"));
    ASSERT_TRUE(WriteSnapshot(kb, *path_).ok());
    valid_ = new std::vector<std::byte>(ReadFileBytes(*path_));
    ASSERT_GE(valid_->size(), sizeof(FileHeader));
    auto reader = Reader::Open(*path_);
    ASSERT_TRUE(reader.ok()) << reader.status();
    info_ = new SnapshotInfo(reader->info());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete valid_;
    delete info_;
    path_ = nullptr;
    valid_ = nullptr;
    info_ = nullptr;
  }

  /// A reader that refuses the writer's own file stops `SetUpTestSuite`
  /// with these still null; each case then fails here instead of
  /// dereferencing them.
  void SetUp() override {
    ASSERT_NE(valid_, nullptr);
    ASSERT_NE(info_, nullptr);
  }

  /// Writes `bytes` over the snapshot path and asserts that `Open`
  /// rejects it with a ParseError mentioning `substring` — and that
  /// rejection is a Status, not a crash (the suite runs under ASan).
  void ExpectRejected(const std::vector<std::byte>& bytes,
                      const std::string& substring) {
    WriteFileBytes(*path_, bytes);
    auto reader = Reader::Open(*path_);
    ASSERT_FALSE(reader.ok()) << "corrupt file was accepted";
    EXPECT_EQ(reader.status().code(), StatusCode::kParseError)
        << reader.status();
    EXPECT_NE(reader.status().message().find(substring), std::string::npos)
        << reader.status();
  }

  /// Seals `bytes` the way the writer does, with section checksum
  /// `hash`, so a poked payload or table entry gets past the checksum
  /// layer and reaches the structural checks: recomputes every section's
  /// checksum over its table extent, then the file checksum folded from
  /// them in table order, then the header checksum (FNV-1a in every
  /// version).  The table itself must still be in bounds; an entry whose
  /// extent leaves the file keeps its checksum, since layer 2 refuses it
  /// before any checksum is read.
  static void Reseal(std::vector<std::byte>* bytes, SectionHash hash) {
    FileHeader header;
    std::memcpy(&header, bytes->data(), sizeof(header));
    Hasher file_hash;
    for (uint32_t i = 0; i < header.section_count; ++i) {
      SectionEntry entry;
      std::memcpy(&entry, bytes->data() + EntryOffset(i), sizeof(entry));
      if (entry.size_bytes <= bytes->size() &&
          entry.offset <= bytes->size() - entry.size_bytes) {
        entry.checksum = hash(bytes->data() + entry.offset, entry.size_bytes);
      }
      std::memcpy(bytes->data() + EntryOffset(i), &entry, sizeof(entry));
      file_hash.Add(entry.checksum);
    }
    header.file_checksum = file_hash.hash();
    header.header_checksum =
        HashBytes(&header, offsetof(FileHeader, header_checksum));
    std::memcpy(bytes->data(), &header, sizeof(header));
  }

  /// The table entry index of section `id` (the file's table order).
  static size_t EntryIndex(SectionId id) {
    for (size_t i = 0; i < info_->sections.size(); ++i) {
      if (info_->sections[i].id == id) return i;
    }
    ADD_FAILURE() << "no section " << SectionName(id);
    return 0;
  }

  /// A resealed copy of the valid file with element `index` of section
  /// `id` (elements of type T) set to `value`.
  template <typename T>
  static std::vector<std::byte> ResealedWith(SectionId id, size_t index,
                                             T value) {
    const SectionInfo& section = info_->sections[EntryIndex(id)];
    EXPECT_EQ(section.elem_size, sizeof(T)) << section.name;
    EXPECT_LT(index, section.count) << section.name;
    std::vector<std::byte> bytes = *valid_;
    std::memcpy(bytes.data() + section.offset + index * sizeof(T), &value,
                sizeof(T));
    Reseal(&bytes, Xxh64Section);
    return bytes;
  }

  /// The valid file relabelled as `version` and sealed with `hash`.
  static std::vector<std::byte> AsVersion(uint32_t version,
                                          SectionHash hash) {
    std::vector<std::byte> bytes = *valid_;
    Poke32(&bytes, offsetof(FileHeader, version), version);
    Reseal(&bytes, hash);
    return bytes;
  }

  static void Poke32(std::vector<std::byte>* bytes, size_t offset,
                     uint32_t value) {
    std::memcpy(bytes->data() + offset, &value, sizeof(value));
  }
  static void Poke64(std::vector<std::byte>* bytes, size_t offset,
                     uint64_t value) {
    std::memcpy(bytes->data() + offset, &value, sizeof(value));
  }

  static size_t EntryOffset(size_t index) {
    return sizeof(FileHeader) + index * sizeof(SectionEntry);
  }

  static const SectionInfo& Section(SectionId id) {
    return info_->sections[EntryIndex(id)];
  }

  /// The `entry.count` elements of type T that `entry` places in `bytes`.
  template <typename T>
  static std::vector<T> Elements(const std::vector<std::byte>& bytes,
                                 const SectionEntry& entry) {
    std::vector<T> values(entry.count);
    std::memcpy(values.data(), bytes.data() + entry.offset,
                entry.count * sizeof(T));
    return values;
  }

  /// The oracle for layers 2 and 4, on a file with the valid header whose
  /// checksums are resealed, so that layers 1 and 3 pass: the reader's
  /// first objection, found by plain loops over the file's own section
  /// table and payload, in the reader's order and worded as the reader
  /// words it; empty when the file must be accepted.  Element sizes come
  /// from the valid file's table, that is, from the writer.
  static std::string OracleVerdict(const std::vector<std::byte>& bytes) {
    using std::to_string;
    const uint64_t size = bytes.size();
    std::array<SectionEntry, kNumSections> table{};  // by id
    std::array<bool, kNumSections> seen{};
    for (size_t i = 0; i < kNumSections; ++i) {
      SectionEntry e;
      std::memcpy(&e, bytes.data() + EntryOffset(i), sizeof(e));
      if (e.id >= kNumSections) {
        return "section table entry " + to_string(i) + " has unknown id " +
               to_string(e.id);
      }
      const auto id = static_cast<SectionId>(e.id);
      const std::string name = std::string("section '") + SectionName(id) +
                               "'";
      if (seen[e.id]) return "duplicate " + name;
      seen[e.id] = true;
      const uint32_t elem_size = Section(id).elem_size;
      if (e.elem_size != elem_size) {
        return name + " declares element size " + to_string(e.elem_size) +
               ", expected " + to_string(elem_size);
      }
      if (e.offset % 8 != 0) {
        return name + " is misaligned (offset " + to_string(e.offset) + ")";
      }
      if (e.size_bytes > size || e.offset > size - e.size_bytes) {
        return name + " extends past end of file (offset " +
               to_string(e.offset) + ", size " + to_string(e.size_bytes) +
               ")";
      }
      if (e.size_bytes % elem_size != 0 ||
          e.size_bytes / elem_size != e.count) {
        return name + " count/size disagree (count " + to_string(e.count) +
               ", size " + to_string(e.size_bytes) + ")";
      }
      table[e.id] = e;
    }
    // Sixteen entries with sixteen distinct known ids: none is missing.
    auto entry = [&](SectionId id) -> const SectionEntry& {
      return table[static_cast<size_t>(id)];
    };

    if (entry(SectionId::kMeta).count != kMetaFieldCount) {
      return "meta section holds " + to_string(entry(SectionId::kMeta).count) +
             " fields, expected " + to_string(kMetaFieldCount);
    }
    const std::vector<uint64_t> meta =
        Elements<uint64_t>(bytes, entry(SectionId::kMeta));
    const uint64_t n = meta[kMetaNumNodes];
    const uint64_t e = meta[kMetaNumEdges];
    if (n >= graph::kInvalidNode) {
      return "node count " + to_string(n) + " exceeds the NodeId space";
    }
    const std::pair<SectionId, uint64_t> kCounts[] = {
        {SectionId::kNodeKinds, n},      {SectionId::kRedirectTarget, n},
        {SectionId::kOutOffsets, n + 1}, {SectionId::kOutTargets, e},
        {SectionId::kOutKinds, e},       {SectionId::kInOffsets, n + 1},
        {SectionId::kInSources, e},      {SectionId::kInKinds, e},
        {SectionId::kUndOffsets, n + 1}, {SectionId::kLabelOffsets, n + 1},
        {SectionId::kDisplayOffsets, n + 1},
    };
    for (const auto& [id, expected] : kCounts) {
      if (entry(id).count != expected) {
        return std::string("section '") + SectionName(id) + "' holds " +
               to_string(entry(id).count) + " elements, expected " +
               to_string(expected);
      }
    }
    if (entry(SectionId::kUndNeighbors).count !=
        entry(SectionId::kUndMult).count) {
      return "und_neighbors and und_mult are not parallel arrays";
    }

    const struct {
      SectionId offsets;
      SectionId rows;
    } kOffsetArrays[] = {
        {SectionId::kOutOffsets, SectionId::kOutTargets},
        {SectionId::kInOffsets, SectionId::kInSources},
        {SectionId::kUndOffsets, SectionId::kUndNeighbors},
        {SectionId::kLabelOffsets, SectionId::kLabelBytes},
        {SectionId::kDisplayOffsets, SectionId::kDisplayBytes},
    };
    for (const auto& [id, rows] : kOffsetArrays) {
      const std::string name = SectionName(id);
      const std::vector<uint64_t> offsets =
          Elements<uint64_t>(bytes, entry(id));
      if (offsets[0] != 0) return name + " does not start at 0";
      for (size_t i = 1; i < offsets.size(); ++i) {
        if (offsets[i] < offsets[i - 1]) {
          return name + " is not monotone at index " + to_string(i);
        }
      }
      if (offsets.back() != entry(rows).count) {
        return name + " ends at " + to_string(offsets.back()) +
               " but its row array holds " + to_string(entry(rows).count) +
               " elements";
      }
    }
    for (SectionId id : {SectionId::kOutTargets, SectionId::kInSources,
                         SectionId::kUndNeighbors}) {
      const std::vector<graph::NodeId> ids =
          Elements<graph::NodeId>(bytes, entry(id));
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] >= n) {
          return std::string(SectionName(id)) + "[" + to_string(i) +
                 "] = " + to_string(ids[i]) + " is out of node range " +
                 to_string(n);
        }
      }
    }
    const std::vector<graph::NodeId> targets =
        Elements<graph::NodeId>(bytes, entry(SectionId::kRedirectTarget));
    for (size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] >= n && targets[i] != graph::kInvalidNode) {
        return "redirect_target[" + to_string(i) + "] = " +
               to_string(targets[i]) +
               " is neither a node nor the invalid sentinel";
      }
    }
    return "";
  }

  static std::string* path_;
  static std::vector<std::byte>* valid_;
  static SnapshotInfo* info_;
};

std::string* SnapshotCorruptionTest::path_ = nullptr;
std::vector<std::byte>* SnapshotCorruptionTest::valid_ = nullptr;
SnapshotInfo* SnapshotCorruptionTest::info_ = nullptr;

TEST_F(SnapshotCorruptionTest, EmptyFile) {
  ExpectRejected({}, "truncated header");
}

TEST_F(SnapshotCorruptionTest, TruncatedHeader) {
  std::vector<std::byte> bytes(valid_->begin(), valid_->begin() + 17);
  ExpectRejected(bytes, "truncated header");
}

TEST_F(SnapshotCorruptionTest, TruncatedPayload) {
  std::vector<std::byte> bytes(valid_->begin(), valid_->end() - 9);
  ExpectRejected(bytes, "does not match actual size");
}

TEST_F(SnapshotCorruptionTest, BadMagic) {
  std::vector<std::byte> bytes = *valid_;
  bytes[0] ^= std::byte{0xFF};
  ExpectRejected(bytes, "bad magic");
}

TEST_F(SnapshotCorruptionTest, FutureVersionRefused) {
  std::vector<std::byte> bytes = *valid_;
  Poke32(&bytes, offsetof(FileHeader, version), kFormatVersion + 1);
  // Keep the header self-consistent so the version check itself — not
  // the checksum guard — is what rejects the file.
  Poke64(&bytes, offsetof(FileHeader, header_checksum),
         HashBytes(bytes.data(), offsetof(FileHeader, header_checksum)));
  ExpectRejected(bytes, "newer than the supported version");
}

TEST_F(SnapshotCorruptionTest, HeaderBitFlip) {
  std::vector<std::byte> bytes = *valid_;
  bytes[offsetof(FileHeader, file_checksum)] ^= std::byte{0x01};
  ExpectRejected(bytes, "header checksum mismatch");
}

TEST_F(SnapshotCorruptionTest, PayloadBitFlip) {
  size_t flipped = 0;
  for (const SectionInfo& section : info_->sections) {
    if (section.size_bytes == 0) continue;
    SCOPED_TRACE(section.name);
    std::vector<std::byte> bytes = *valid_;
    bytes[section.offset + section.size_bytes / 2] ^= std::byte{0x20};
    ExpectRejected(bytes, std::string("section '") + section.name +
                              "' checksum mismatch");
    ++flipped;
  }
  EXPECT_EQ(flipped, size_t{kNumSections});
}

// Version 1 had the current layout byte for byte and sealed its sections
// with FNV-1a.  The reader opens only the version the writer writes: an
// older file is refused at the header, before any checksum is read, with
// a request to rewrite it.

TEST_F(SnapshotCorruptionTest, Version1FileRefused) {
  for (SectionHash hash : {Fnv1aSection, Xxh64Section}) {
    ExpectRejected(AsVersion(1, hash),
                   "format version 1 is older than the supported version 2 "
                   "and is no longer read; rewrite the file");
  }
}

TEST_F(SnapshotCorruptionTest, CurrentVersionSealedWithFnv1aRefused) {
  ExpectRejected(AsVersion(kFormatVersion, Fnv1aSection),
                 "checksum mismatch");
}

// Structural checks on files whose checksums are valid: each payload is
// poked and the file resealed, so only layer 4 stands between the bad
// structure and the span arithmetic that trusts it.

TEST_F(SnapshotCorruptionTest, ResealedOutOfRangeEndpoints) {
  const graph::NodeId n = static_cast<graph::NodeId>(info_->num_nodes);
  for (SectionId id : {SectionId::kOutTargets, SectionId::kInSources,
                       SectionId::kUndNeighbors}) {
    SCOPED_TRACE(SectionName(id));
    ExpectRejected(ResealedWith<graph::NodeId>(id, 0, n),
                   std::string(SectionName(id)) + "[0] = " +
                       std::to_string(n) + " is out of node range");
  }
}

TEST_F(SnapshotCorruptionTest, ResealedRedirectTargetOutOfRange) {
  // Neither a node id nor the kInvalidNode sentinel.
  const graph::NodeId n = static_cast<graph::NodeId>(info_->num_nodes);
  ExpectRejected(ResealedWith<graph::NodeId>(SectionId::kRedirectTarget, 0, n),
                 "redirect_target[0] = " + std::to_string(n) +
                     " is neither a node nor the invalid sentinel");
}

TEST_F(SnapshotCorruptionTest, ResealedNonMonotoneOffsets) {
  for (SectionId id : {SectionId::kOutOffsets, SectionId::kInOffsets,
                       SectionId::kUndOffsets, SectionId::kLabelOffsets,
                       SectionId::kDisplayOffsets}) {
    SCOPED_TRACE(SectionName(id));
    ExpectRejected(ResealedWith<uint64_t>(id, 1, uint64_t{1} << 40),
                   std::string(SectionName(id)) +
                       " is not monotone at index 2");
  }
}

TEST_F(SnapshotCorruptionTest, ResealedUndMultOneElementShort) {
  // The table entry shrinks by one element with its count and size kept
  // consistent, so only the pairing with und_neighbors is off.
  std::vector<std::byte> bytes = *valid_;
  const size_t entry = EntryOffset(EntryIndex(SectionId::kUndMult));
  const SectionInfo& und_mult =
      info_->sections[EntryIndex(SectionId::kUndMult)];
  ASSERT_GT(und_mult.count, 0u);
  Poke64(&bytes, entry + offsetof(SectionEntry, count), und_mult.count - 1);
  Poke64(&bytes, entry + offsetof(SectionEntry, size_bytes),
         und_mult.size_bytes - und_mult.elem_size);
  Reseal(&bytes, Xxh64Section);
  ExpectRejected(bytes, "und_neighbors and und_mult are not parallel arrays");
}

TEST_F(SnapshotCorruptionTest, SectionTableOffsetOutOfBounds) {
  std::vector<std::byte> bytes = *valid_;
  Poke64(&bytes, EntryOffset(3) + offsetof(SectionEntry, offset),
         uint64_t{1} << 60);
  ExpectRejected(bytes, "extends past end of file");
}

TEST_F(SnapshotCorruptionTest, SectionTableMisalignedOffset) {
  std::vector<std::byte> bytes = *valid_;
  Poke64(&bytes, EntryOffset(3) + offsetof(SectionEntry, offset),
         sizeof(FileHeader) + 4);
  ExpectRejected(bytes, "misaligned");
}

TEST_F(SnapshotCorruptionTest, SectionTableUnknownId) {
  std::vector<std::byte> bytes = *valid_;
  Poke32(&bytes, EntryOffset(0) + offsetof(SectionEntry, id), 77);
  ExpectRejected(bytes, "unknown id");
}

TEST_F(SnapshotCorruptionTest, SectionTableDuplicateId) {
  std::vector<std::byte> bytes = *valid_;
  // Clone entry 0 over entry 1 (id and elem_size both, so the duplicate
  // check — not the element-size check — fires).
  std::memcpy(bytes.data() + EntryOffset(1), bytes.data() + EntryOffset(0),
              2 * sizeof(uint32_t));
  ExpectRejected(bytes, "duplicate section");
}

TEST_F(SnapshotCorruptionTest, SectionTableCountSizeDisagree) {
  std::vector<std::byte> bytes = *valid_;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + EntryOffset(4) +
                          offsetof(SectionEntry, count),
              sizeof(count));
  Poke64(&bytes, EntryOffset(4) + offsetof(SectionEntry, count), count + 1);
  ExpectRejected(bytes, "count/size disagree");
}

TEST_F(SnapshotCorruptionTest, ResealedDuplicateLabelRejectedAtLoad) {
  // The later of two same-kind nodes with same-length labels gets the
  // earlier one's label bytes: every layer of `Open` passes, and the
  // title index refuses the file when `Load` builds it.
  const SectionInfo& kinds = info_->sections[EntryIndex(SectionId::kNodeKinds)];
  const SectionInfo& offsets =
      info_->sections[EntryIndex(SectionId::kLabelOffsets)];
  const SectionInfo& chars = info_->sections[EntryIndex(SectionId::kLabelBytes)];
  std::vector<std::byte> bytes = *valid_;
  auto offset = [&](size_t u) {
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + offsets.offset + u * sizeof(value),
                sizeof(value));
    return value;
  };
  const size_t n = kinds.count;
  size_t first = n;
  size_t second = n;
  std::map<std::pair<std::byte, uint64_t>, size_t> seen;  // (kind, length)
  for (size_t u = 0; u < n && second == n; ++u) {
    auto [it, inserted] = seen.emplace(
        std::make_pair(bytes[kinds.offset + u], offset(u + 1) - offset(u)), u);
    if (!inserted) {
      first = it->second;
      second = u;
    }
  }
  ASSERT_LT(second, n);
  std::memcpy(bytes.data() + chars.offset + offset(second),
              bytes.data() + chars.offset + offset(first),
              offset(second + 1) - offset(second));
  Reseal(&bytes, Xxh64Section);
  WriteFileBytes(*path_, bytes);

  auto reader = Reader::Open(*path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto loaded = reader->Load();
  ASSERT_FALSE(loaded.ok()) << "a duplicate title was accepted";
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find(
                "appears on nodes " + std::to_string(first) + " and " +
                std::to_string(second)),
            std::string::npos)
      << loaded.status();
}

// A seeded mutation fuzzer over `Reader::Open`, in two halves of 2,000
// mutants.  Every mutant must come back OK or as a ParseError, never as a
// crash (the asan lane runs this suite under ASan with bounds-checked
// spans).  The first half flips, truncates and extends the valid file and
// makes resealed pokes of the elements that layer 4 checks; the second
// makes resealed mutations of the section table and the meta counts.  A
// resealed mutant passes layers 1 and 3, so it is a differential test of
// layers 2 and 4: the file must be refused exactly when `OracleVerdict`
// objects, with that objection as its message.  `Load` is left out: on a
// resealed file it can reach `CsrGraph::FromSections`, whose Debug
// invariant check aborts by design.
TEST_F(SnapshotCorruptionTest, SeededMutantsAreRefusedCleanly) {
  constexpr int kMutants = 2000;
  const struct {
    SectionId id;
    SectionId rows;  // of an offset array: the array it indexes
  } kPokable[] = {
      {SectionId::kOutOffsets, SectionId::kOutTargets},
      {SectionId::kInOffsets, SectionId::kInSources},
      {SectionId::kUndOffsets, SectionId::kUndNeighbors},
      {SectionId::kLabelOffsets, SectionId::kLabelBytes},
      {SectionId::kDisplayOffsets, SectionId::kDisplayBytes},
      {SectionId::kOutTargets, {}},
      {SectionId::kInSources, {}},
      {SectionId::kUndNeighbors, {}},
      {SectionId::kRedirectTarget, {}},
  };
  const auto n = static_cast<graph::NodeId>(info_->num_nodes);
  Rng rng(/*seed=*/2);
  size_t pokes_accepted = 0;
  size_t pokes_refused = 0;
  for (int m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::vector<std::byte> bytes = *valid_;
    std::string expected;  // the oracle's verdict on a resealed poke
    const uint32_t kind = rng.Uniform(8);
    if (kind == 0) {  // random byte flips anywhere
      for (uint32_t k = 1 + rng.Uniform(4); k > 0; --k) {
        bytes[rng.Uniform(static_cast<uint32_t>(bytes.size()))] ^=
            static_cast<std::byte>(1 + rng.Uniform(255));
      }
    } else if (kind == 1) {  // truncation
      bytes.resize(rng.Uniform(static_cast<uint32_t>(bytes.size())));
    } else if (kind == 2) {  // extension
      for (uint32_t k = 1 + rng.Uniform(64); k > 0; --k) {
        bytes.push_back(static_cast<std::byte>(rng.Uniform(256)));
      }
    } else {  // 1-3 resealed pokes of checked elements
      for (uint32_t k = 1 + rng.Uniform(3); k > 0; --k) {
        const auto& target = kPokable[rng.Uniform(std::size(kPokable))];
        const SectionInfo& section = Section(target.id);
        const auto count = static_cast<uint32_t>(section.count);
        const uint32_t where = rng.Uniform(4);
        const size_t index = where == 0   ? 0
                             : where == 1 ? count - 1
                                          : rng.Uniform(count);
        std::byte* at =
            bytes.data() + section.offset + index * section.elem_size;
        if (section.elem_size == sizeof(uint64_t)) {
          const uint64_t rows = Section(target.rows).count;
          uint64_t old = 0;
          uint64_t before = 0;  // the element before, or `old`
          std::memcpy(&old, at, sizeof(old));
          std::memcpy(&before, index > 0 ? at - sizeof(before) : at,
                      sizeof(before));
          const uint64_t candidates[] = {
              0,
              old - 1,
              old + 1,
              rows,
              rows + 1,
              rng.NextU64(),
              static_cast<uint64_t>(rng.UniformRange(
                  0, static_cast<int64_t>(rows))),
              before,
          };
          std::memcpy(at, &candidates[rng.Uniform(std::size(candidates))],
                      sizeof(uint64_t));
        } else {
          graph::NodeId old = 0;
          std::memcpy(&old, at, sizeof(old));
          const graph::NodeId candidates[] = {
              0,
              n - 1,
              n,
              n + 1,
              graph::kInvalidNode,
              rng.Uniform(n),
              rng.NextU32(),
              old ^ (graph::NodeId{1} << rng.Uniform(32)),
          };
          std::memcpy(at, &candidates[rng.Uniform(std::size(candidates))],
                      sizeof(graph::NodeId));
        }
      }
      Reseal(&bytes, Xxh64Section);
      expected = OracleVerdict(bytes);
    }

    WriteFileBytes(*path_, bytes);
    auto reader = Reader::Open(*path_);
    if (!reader.ok()) {
      ASSERT_EQ(reader.status().code(), StatusCode::kParseError)
          << reader.status();
    }
    if (kind == 1 || kind == 2) {
      ASSERT_FALSE(reader.ok()) << "a resized file was accepted";
    } else if (kind > 2) {
      if (expected.empty()) {
        ASSERT_TRUE(reader.ok()) << reader.status();
        ++pokes_accepted;
      } else {
        ASSERT_FALSE(reader.ok()) << "accepted, but " << expected;
        ASSERT_EQ(reader.status().message(),
                  "snapshot '" + *path_ + "': " + expected);
        ++pokes_refused;
      }
    }
  }
  // Both verdicts are exercised.
  EXPECT_GE(pokes_accepted, 100u);
  EXPECT_GE(pokes_refused, 500u);
}

TEST_F(SnapshotCorruptionTest, SeededTableAndMetaMutantsMatchTheOracle) {
  constexpr int kMutants = 2000;
  const uint64_t size = valid_->size();
  const uint64_t table_end = EntryOffset(kNumSections);
  const SectionInfo& meta = Section(SectionId::kMeta);
  // Each refusal reason of layers 2 and 4 that guards the table and the
  // counts, by a fragment of its message.
  const char* const kReasons[] = {
      "has unknown id",         "duplicate section",
      "declares element size",  "is misaligned",
      "extends past end of file", "count/size disagree",
      "meta section holds",     "exceeds the NodeId space",
      "elements, expected",     "are not parallel arrays",
      "does not start at 0",    "but its row array holds",
  };
  std::map<std::string, size_t> refused;
  size_t accepted = 0;
  Rng rng(/*seed=*/3);
  for (int m = 0; m < kMutants; ++m) {
    SCOPED_TRACE("mutant " + std::to_string(m));
    std::vector<std::byte> bytes = *valid_;
    for (uint32_t k = 1 + rng.Uniform(2); k > 0; --k) {
      if (rng.Uniform(4) == 0) {  // a meta field, mostly the two counts
        const uint32_t pick = rng.Uniform(5);
        const size_t field =
            pick < 2   ? size_t{kMetaNumNodes}
            : pick < 4 ? size_t{kMetaNumEdges}
                       : rng.Uniform(static_cast<uint32_t>(kMetaFieldCount));
        std::byte* at = bytes.data() + meta.offset + field * sizeof(uint64_t);
        uint64_t old = 0;
        std::memcpy(&old, at, sizeof(old));
        const uint64_t candidates[] = {
            old - 1, old + 1, 0, graph::kInvalidNode - 1, graph::kInvalidNode,
            rng.NextU64(), old * 2,
        };
        std::memcpy(at, &candidates[rng.Uniform(std::size(candidates))],
                    sizeof(uint64_t));
        continue;
      }
      // A section-table entry: one field, or count and size together.
      const uint32_t i = rng.Uniform(kNumSections);
      const uint32_t j = rng.Uniform(kNumSections);
      SectionEntry e;
      SectionEntry other;
      std::memcpy(&e, bytes.data() + EntryOffset(i), sizeof(e));
      std::memcpy(&other, bytes.data() + EntryOffset(j), sizeof(other));
      switch (rng.Uniform(6)) {
        case 0: {  // id: a known one, an unknown one, or swapped with j's
          const uint32_t ids[] = {rng.Uniform(kNumSections),
                                  kNumSections + rng.Uniform(16),
                                  rng.NextU32(), other.id};
          const uint32_t choice = rng.Uniform(std::size(ids));
          if (choice == 3) {
            Poke32(&bytes, EntryOffset(j) + offsetof(SectionEntry, id), e.id);
          }
          e.id = ids[choice];
          break;
        }
        case 1: {
          const uint32_t sizes[] = {0, 1, 2, 4, 8, rng.NextU32()};
          e.elem_size = sizes[rng.Uniform(std::size(sizes))];
          break;
        }
        case 2: {  // never into the header or the table, whose bytes
                   // change as the seal is written, so no seal covers them
          const uint64_t offsets[] = {
              e.offset + 8, e.offset - 8,       e.offset + 1, table_end,
              size,         size - e.size_bytes, other.offset, rng.NextU64(),
          };
          e.offset =
              std::max(offsets[rng.Uniform(std::size(offsets))], table_end);
          break;
        }
        case 3: {
          const uint64_t counts[] = {
              e.count + 1, e.count - 1, 0, rng.NextU64(),
              UINT64_MAX / std::max(e.elem_size, 1u) + 1,  // the product wraps
          };
          e.count = counts[rng.Uniform(std::size(counts))];
          break;
        }
        case 4: {
          const uint64_t sizes[] = {
              e.size_bytes + 1, e.size_bytes - 1,
              e.size_bytes + e.elem_size, e.size_bytes - e.elem_size,
              0, rng.NextU64(),
          };
          e.size_bytes = sizes[rng.Uniform(std::size(sizes))];
          break;
        }
        default: {  // count and size agree, the extent still in the file
          const uint64_t counts[] = {e.count + 1, e.count - 1, e.count + 2,
                                     0};
          const uint64_t count = counts[rng.Uniform(std::size(counts))];
          if (e.elem_size != 0 && e.offset <= size &&
              count <= (size - e.offset) / e.elem_size) {
            e.count = count;
            e.size_bytes = count * e.elem_size;
          }
          break;
        }
      }
      std::memcpy(bytes.data() + EntryOffset(i), &e, sizeof(e));
    }
    Reseal(&bytes, Xxh64Section);
    const std::string expected = OracleVerdict(bytes);

    WriteFileBytes(*path_, bytes);
    auto reader = Reader::Open(*path_);
    if (expected.empty()) {
      ASSERT_TRUE(reader.ok()) << reader.status();
      ++accepted;
      continue;
    }
    ASSERT_FALSE(reader.ok()) << "accepted, but " << expected;
    ASSERT_EQ(reader.status().code(), StatusCode::kParseError)
        << reader.status();
    ASSERT_EQ(reader.status().message(),
              "snapshot '" + *path_ + "': " + expected);
    for (const char* reason : kReasons) {
      if (expected.find(reason) != std::string::npos) ++refused[reason];
    }
  }
  // Both verdicts, and every reason above, are exercised.
  EXPECT_GE(accepted, 50u);
  for (const char* reason : kReasons) {
    EXPECT_GE(refused[reason], 10u) << reason;
  }
}

TEST_F(SnapshotCorruptionTest, ValidBytesStillLoadAfterSuite) {
  // Guard against helper bugs: resealing an untouched file reproduces
  // the writer's bytes, and the pristine byte image itself loads.
  std::vector<std::byte> resealed = *valid_;
  Reseal(&resealed, Xxh64Section);
  EXPECT_TRUE(resealed == *valid_);
  WriteFileBytes(*path_, *valid_);
  auto loaded = LoadSnapshot(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->Validate().ok());
}

// ---------------------------------------------------- cache generations

TEST(SnapshotCacheGenerationTest, StaleGenerationDropsEntry) {
  serve::ExpansionCache cache;
  serve::ExpansionCache::Key key{"anarchist punk", "cycle", {}};
  api::ExpandResponse response;
  response.expander = "cycle";
  response.titles = {"a", "b"};

  cache.Put(key, response, /*generation=*/1);
  auto hit = cache.Get(key, /*generation=*/1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->titles, response.titles);
  EXPECT_EQ(cache.stats().stale_drops, 0u);

  // A republished graph (generation 2) must not see generation-1 work.
  EXPECT_EQ(cache.Get(key, /*generation=*/2), nullptr);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.size(), 0u);  // dropped on sight, not just skipped

  // Re-stamping under the new generation works as usual.
  cache.Put(key, response, /*generation=*/2);
  EXPECT_NE(cache.Get(key, /*generation=*/2), nullptr);
  EXPECT_TRUE(cache.CheckInvariants().ok());
}

// A request still pinned to the old epoch during a publish must neither
// evict the new epoch's entry nor overwrite it with old-epoch work.
TEST(SnapshotCacheGenerationTest, OlderCallerLeavesNewerEntry) {
  serve::ExpansionCache cache;
  serve::ExpansionCache::Key key{"anarchist punk", "cycle", {}};
  api::ExpandResponse newer;
  newer.expander = "cycle";
  newer.titles = {"new"};
  api::ExpandResponse older = newer;
  older.titles = {"old"};

  cache.Put(key, newer, /*generation=*/2);
  EXPECT_EQ(cache.Get(key, /*generation=*/1), nullptr);
  EXPECT_EQ(cache.size(), 1u);  // the entry survives the older lookup
  EXPECT_EQ(cache.stats().stale_drops, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  auto hit = cache.Get(key, /*generation=*/2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->titles, newer.titles);

  cache.Put(key, older, /*generation=*/1);  // a late old-epoch result
  hit = cache.Get(key, /*generation=*/2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->titles, newer.titles);
  EXPECT_EQ(cache.stats().stale_drops, 0u);
  EXPECT_TRUE(cache.CheckInvariants().ok());
}

// -------------------------------------------------------- hot republish

api::TestbedOptions RepublishOptions() {
  api::TestbedOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  return options;
}

/// Loads a publishable KB from a snapshot of the engine's own graph —
/// identical content, distinct storage (served straight off the mmap).
wiki::KnowledgeBase ReloadedKb(const api::Testbed& bed,
                               const std::string& path) {
  EXPECT_TRUE(WriteSnapshot(bed.kb(), path).ok());
  auto loaded = LoadSnapshot(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(*loaded);
}

TEST(SnapshotRepublishTest, PublishBumpsGenerationAndInvalidatesCache) {
  auto bed = api::Testbed::Build(RepublishOptions());
  ASSERT_TRUE(bed.ok()) << bed.status();
  api::Engine& engine = (*bed)->engine();
  EXPECT_EQ(engine.snapshot_generation(), 1u);

  serve::ServerOptions serving;
  serving.num_threads = 2;
  serve::Server server(engine, serving);

  api::QueryRequest request;
  request.keywords = (*bed)->topic(0).keywords;
  auto first = server.Submit(request).get();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = server.Submit(request).get();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(server.cache()->stats().hits, 1u);
  EXPECT_EQ(server.cache()->stats().stale_drops, 0u);

  const std::string path = TempPath("republish");
  ASSERT_TRUE(engine.PublishSnapshot(ReloadedKb(**bed, path)).ok());
  EXPECT_EQ(engine.snapshot_generation(), 2u);

  // Same request after the publish: the generation-1 entry is dropped
  // as stale, recomputed on the new snapshot, and — same graph content
  // — comes back bit-identical.
  auto third = server.Submit(request).get();
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(server.cache()->stats().stale_drops, 1u);
  EXPECT_EQ(server.cache()->stats().hits, 1u);  // no new hits
  EXPECT_EQ(third->expansion.query_articles, first->expansion.query_articles);
  EXPECT_EQ(third->expansion.feature_articles,
            first->expansion.feature_articles);
  EXPECT_EQ(third->expansion.titles, first->expansion.titles);

  // And the fresh entry serves generation-2 lookups again.
  auto fourth = server.Submit(request).get();
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(server.cache()->stats().hits, 2u);
}

TEST(SnapshotRepublishTest, LiveTrafficSurvivesRepublishTsan) {
  // Worker threads hammer the server while the owner republishes the
  // graph three times.  The published snapshots carry identical content
  // (round-tripped through the on-disk format), so every response —
  // whichever epoch served it — must be bit-identical to the reference;
  // any torn state shows up as a wrong answer here or as a TSan report
  // in the sanitizer lane.
  auto bed = api::Testbed::Build(RepublishOptions());
  ASSERT_TRUE(bed.ok()) << bed.status();
  api::Engine& engine = (*bed)->engine();

  const size_t num_topics = (*bed)->num_topics();
  std::vector<api::ExpandResponse> reference;
  for (size_t topic = 0; topic < num_topics; ++topic) {
    api::QueryRequest request;
    request.keywords = (*bed)->topic(topic).keywords;
    auto response = engine.Query(request);
    ASSERT_TRUE(response.ok()) << response.status();
    reference.push_back(std::move(response->expansion));
  }

  serve::ServerOptions serving;
  serving.num_threads = 3;
  serve::Server server(engine, serving);
  const std::string path = TempPath("live");

  std::atomic<bool> stop{false};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t topic = i++ % num_topics;
        api::QueryRequest request;
        request.keywords = (*bed)->topic(topic).keywords;
        auto response = server.Submit(request).get();
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_EQ(response->expansion.query_articles,
                  reference[topic].query_articles);
        EXPECT_EQ(response->expansion.feature_articles,
                  reference[topic].feature_articles);
        EXPECT_EQ(response->expansion.titles, reference[topic].titles);
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int publish = 0; publish < 3; ++publish) {
    // Let some traffic land on the current epoch before swapping.
    size_t target = served.load() + 8;
    while (served.load() < target) std::this_thread::yield();
    ASSERT_TRUE(engine.PublishSnapshot(ReloadedKb(**bed, path)).ok());
  }
  size_t target = served.load() + 8;
  while (served.load() < target) std::this_thread::yield();
  stop.store(true);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(engine.snapshot_generation(), 4u);  // 1 from Build + 3
  EXPECT_GE(server.cache()->stats().stale_drops, 1u);
  EXPECT_TRUE(server.cache()->CheckInvariants().ok());
  // The last published snapshot is live and answers directly too.
  api::QueryRequest request;
  request.keywords = (*bed)->topic(0).keywords;
  auto response = engine.Query(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->expansion.titles, reference[0].titles);
}

TEST(SnapshotRepublishTest, ConcurrentPublishesOnlyMoveTheGenerationForward) {
  // Publisher A hands over a KB it must first freeze (tens of ms);
  // publisher B starts 5 ms later with a frozen 3-article KB and swaps
  // while A is still freezing.  Each swap stamps the replaced snapshot's
  // generation + 1, so after both the generation is 3 whichever swapped
  // last, and a reader polling it never sees it move back.
  auto engine = api::Engine::Build(UnfrozenKb(3, 1));
  ASSERT_TRUE(engine.ok()) << engine.status();
  wiki::KnowledgeBase slow = UnfrozenKb(20000, 32);
  wiki::KnowledgeBase fast = UnfrozenKb(3, 1);
  fast.Freeze();

  std::atomic<bool> done{false};
  std::atomic<bool> moved_back{false};
  std::thread reader([&] {
    uint64_t last = 0;
    // The last poll comes after both publishes have returned.
    for (bool finished = false; !finished;) {
      finished = done.load();
      const uint64_t generation = (*engine)->snapshot_generation();
      if (generation < last) moved_back.store(true);
      last = generation;
      std::this_thread::yield();
    }
  });
  std::thread publisher_a([&] {
    EXPECT_TRUE((*engine)->PublishSnapshot(std::move(slow)).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE((*engine)->PublishSnapshot(std::move(fast)).ok());
  publisher_a.join();
  done.store(true);
  reader.join();

  EXPECT_EQ((*engine)->snapshot_generation(), 3u);
  EXPECT_FALSE(moved_back.load());
}

TEST(SnapshotRepublishTest, BatchServesOneEpochAcrossAPublish) {
  // A batch pins one graph epoch before its first item runs, so a publish
  // that lands mid-batch must not reach the items after it.  Every cycle
  // enumeration is slowed so the publish lands while the batch is still
  // running, and the published KB comes from another wiki seed, whose
  // answers differ: a batch that pinned per item would come back mixed.
  api::TestbedOptions options = RepublishOptions();
  options.track.num_topics = 6;
  common::FaultSpec slow;
  slow.delay_probability = 1.0;
  slow.delay_ms = 20.0;

  for (bool through_server : {false, true}) {
    SCOPED_TRACE(through_server ? "1-worker Server::QueryBatch"
                                : "Engine::QueryBatch");
    auto bed = api::Testbed::Build(options);
    ASSERT_TRUE(bed.ok()) << bed.status();
    api::Engine& engine = (*bed)->engine();
    // Distinct keywords, so no server item is a hit on an earlier one.
    std::vector<api::QueryRequest> requests((*bed)->num_topics());
    std::vector<api::QueryResponse> reference;
    for (size_t i = 0; i < requests.size(); ++i) {
      requests[i].keywords = (*bed)->topic(i).keywords;
      requests[i].expander = "cycle";
      auto response = engine.Query(requests[i]);
      ASSERT_TRUE(response.ok()) << response.status();
      reference.push_back(*std::move(response));
    }
    // Generated frozen, so the publish below is only the linker build and
    // the swap, well inside the slowed batch.
    wiki::KnowledgeBase other =
        SyntheticKb(options.wiki.seed + 1, options.wiki.num_domains);
    std::unique_ptr<serve::Server> server;
    if (through_server) {
      serve::ServerOptions serving;
      serving.num_threads = 1;
      server = std::make_unique<serve::Server>(engine, serving);
    }

    common::FaultInjector::Global().Configure(
        /*seed=*/5, {{"expansion.enumeration", slow}});
    const size_t before = engine.stats().expand_calls;
    auto batch = std::async(std::launch::async, [&] {
      return server != nullptr ? server->QueryBatch(requests)
                               : engine.QueryBatch(requests);
    });
    // Publish once item 0 has expanded.
    while (engine.stats().expand_calls == before &&
           batch.wait_for(std::chrono::milliseconds(0)) !=
               std::future_status::ready) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const Status published = engine.PublishSnapshot(std::move(other));
    const size_t done_at_publish = engine.stats().expand_calls - before;
    Result<std::vector<api::QueryResponse>> during = batch.get();
    common::FaultInjector::Global().Disable();

    ASSERT_TRUE(published.ok()) << published;
    ASSERT_TRUE(during.ok()) << during.status();
    // At least two items were unfinished when the publish returned, so at
    // least one of them started after it.
    EXPECT_GE(done_at_publish, 1u);
    EXPECT_LE(done_at_publish, requests.size() - 2);
    auto after = engine.QueryBatch(requests);
    ASSERT_TRUE(after.ok()) << after.status();
    ASSERT_EQ(during->size(), requests.size());
    size_t changed_after_publish = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const api::QueryResponse& got = (*during)[i];
      EXPECT_EQ(got.docs, reference[i].docs) << "item " << i;
      EXPECT_EQ(got.expansion.titles, reference[i].expansion.titles)
          << "item " << i;
      EXPECT_EQ(got.expansion.feature_articles,
                reference[i].expansion.feature_articles)
          << "item " << i;
      // The same batch on the new epoch: a mixed batch would be visible
      // only if an item that started after the publish answers
      // differently there.
      if (i > done_at_publish &&
          (*after)[i].expansion.titles != reference[i].expansion.titles) {
        ++changed_after_publish;
      }
    }
    EXPECT_GE(changed_after_publish, 1u);
  }
}

TEST(SnapshotRepublishTest, ReplacedEpochIsTornDownAfterTheLockIsReleased) {
  // The published KB borrows `source`'s arrays and names through a pin
  // whose deleter is a probe: it runs when the epoch's last pin drops.
  // During the publish, the probe has a helper thread pin the current
  // epoch; the helper cannot return while the publisher still holds the
  // snapshot lock.
  const wiki::KnowledgeBase source = SyntheticKb(42, 4);
  std::unique_ptr<api::Engine> engine;
  std::thread helper;
  std::promise<void> pinned;
  std::future<void> pinned_future = pinned.get_future();
  bool publishing = false;
  std::optional<bool> pinned_in_time;  // set by the probe
  std::thread::id torn_down_on;
  auto probe = [&](const void*) {
    if (!publishing) return;
    torn_down_on = std::this_thread::get_id();
    helper = std::thread([&] {
      engine->CurrentSnapshot();
      pinned.set_value();
    });
    pinned_in_time = pinned_future.wait_for(std::chrono::seconds(2)) ==
                     std::future_status::ready;
  };
  {
    std::shared_ptr<const void> pin(&source, probe);
    auto retiring = wiki::KnowledgeBase::FromSnapshot(
        graph::CsrGraph::FromSections(source.csr().Sections(), pin),
        source.labels(), source.display_titles(), pin, source.num_articles(),
        source.num_redirects(), source.num_categories());
    ASSERT_TRUE(retiring.ok()) << retiring.status();
    auto built = api::Engine::Build(std::move(*retiring));
    ASSERT_TRUE(built.ok()) << built.status();
    engine = std::move(*built);
  }

  publishing = true;
  const Status published = engine->PublishSnapshot(SyntheticKb(7, 4));
  publishing = false;
  if (helper.joinable()) helper.join();
  ASSERT_TRUE(published.ok()) << published;
  ASSERT_TRUE(pinned_in_time.has_value()) << "the old epoch was not torn down";
  EXPECT_TRUE(*pinned_in_time)
      << "CurrentSnapshot() waited while the old epoch was torn down";
  EXPECT_EQ(torn_down_on, std::this_thread::get_id());
  EXPECT_EQ(engine->snapshot_generation(), 2u);
}

// ------------------------------------------------------ mapped names

TEST(SnapshotLifetimeTest, LoadedNamesOutliveTheReaderAndTheFile) {
  // A loaded KB's titles are views into the mapping.  The KB pins it, so
  // they outlive the Reader, a republish of the file and its removal.
  auto bed = api::Testbed::Build(RepublishOptions());
  ASSERT_TRUE(bed.ok()) << bed.status();
  const wiki::KnowledgeBase& built = (*bed)->kb();
  const std::string path = TempPath("lifetime");
  ASSERT_TRUE(WriteSnapshot(built, path).ok());

  std::optional<Result<Reader>> reader(Reader::Open(path));
  ASSERT_TRUE(reader->ok()) << reader->status();
  auto loaded = (*reader)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto engine = api::Engine::Build(std::move(*loaded));
  ASSERT_TRUE(engine.ok()) << engine.status();
  for (const ir::Document& doc :
       (*bed)->engine().search_engine().store().documents()) {
    ASSERT_TRUE((*engine)->AddDocument(doc.name, doc.text).ok());
  }
  ASSERT_TRUE((*engine)->FinalizeIndex().ok());
  std::vector<api::QueryRequest> requests((*bed)->num_topics());
  std::vector<api::QueryResponse> before;
  for (size_t topic = 0; topic < requests.size(); ++topic) {
    requests[topic].keywords = (*bed)->topic(topic).keywords;
    auto response = (*engine)->Query(requests[topic]);
    ASSERT_TRUE(response.ok()) << response.status();
    before.push_back(*std::move(response));
  }

  reader.reset();
  ASSERT_TRUE(WriteSnapshot(SyntheticKb(7, 4), path).ok());  // renamed over
  ASSERT_EQ(std::remove(path.c_str()), 0);

  ExpectSameKb(built, (*engine)->kb());
  for (size_t topic = 0; topic < requests.size(); ++topic) {
    auto response = (*engine)->Query(requests[topic]);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->expansion.query_articles,
              before[topic].expansion.query_articles);
    EXPECT_EQ(response->expansion.feature_articles,
              before[topic].expansion.feature_articles);
    EXPECT_EQ(response->expansion.titles, before[topic].expansion.titles);
    EXPECT_EQ(response->docs, before[topic].docs);
  }
}

/// Takes views of every name of `kb`, moves it twice (construct, then
/// assign over a KB with names of its own) and drops the moved-from KBs:
/// the views still read the same bytes, and the last KB still finds
/// every title.
void ExpectViewsSurviveMoves(wiki::KnowledgeBase kb) {
  const uint32_t n = kb.csr().num_nodes();
  ASSERT_GT(n, 0u);
  std::vector<std::string_view> views;
  std::vector<std::string> copies;
  for (uint32_t u = 0; u < n; ++u) {
    for (std::string_view name : {kb.title(u), kb.display_title(u)}) {
      views.push_back(name);
      copies.emplace_back(name);
    }
  }
  wiki::KnowledgeBase assigned;
  ASSERT_TRUE(assigned.AddArticle("replaced by the move").ok());
  {
    wiki::KnowledgeBase moved(std::move(kb));
    assigned = std::move(moved);
  }
  for (size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i], copies[i]) << "name " << i;
  }
  for (uint32_t u = 0; u < n; ++u) {
    ASSERT_EQ(assigned.title(u), copies[2 * u]) << "node " << u;
    ASSERT_EQ(assigned.display_title(u), copies[2 * u + 1]) << "node " << u;
    ASSERT_EQ(assigned.FindByTitle(copies[2 * u]).has_value(), true)
        << "node " << u;
  }
}

TEST(SnapshotLifetimeTest, NameViewsSurviveMovingTheKb) {
  {
    SCOPED_TRACE("built");
    ExpectViewsSurviveMoves(SyntheticKb(42, 4));
  }
  {
    SCOPED_TRACE("loaded");
    const std::string path = TempPath("moves");
    ASSERT_TRUE(WriteSnapshot(SyntheticKb(42, 4), path).ok());
    auto loaded = LoadSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(std::remove(path.c_str()), 0);
    ExpectViewsSurviveMoves(std::move(*loaded));
  }
}

}  // namespace
}  // namespace wqe::snapshot
