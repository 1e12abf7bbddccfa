// Tests for model packaging: binary round trip with weights, sealed
// (encrypted + authenticated) deployment bundles, and the memory-aware
// execution order.

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>

#include "graph/cost.hpp"
#include "graph/package.hpp"
#include "graph/serialize.hpp"
#include "graph/zoo.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/session.hpp"
#include "safety/ota_transport.hpp"
#include "security/attestation.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

Graph materialized(Graph g, std::uint64_t seed = 5) {
  Rng rng(seed);
  g.materialize_weights(rng);
  return g;
}

TEST(Package, RoundTripPreservesStructureAndWeights) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4));
  const auto blob = pack_model(g);
  Graph back = unpack_model(blob);
  EXPECT_EQ(back.size(), g.size());
  EXPECT_TRUE(back.weights_materialized());
  // identical outputs on identical inputs: the strongest round-trip check
  Rng rng(9);
  Tensor x(Shape{1, 1, 16, 16}, rng.normal_vector(256));
  const Tensor a = runtime::Session(g).run_single(x);
  const Tensor b = runtime::Session(back).run_single(x);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
}

TEST(Package, AnalyticModelRoundTrips) {
  Graph g = zoo::mobilenet_v3_large();  // no weights
  Graph back = unpack_model(pack_model(g));
  EXPECT_EQ(graph_cost(back).macs, graph_cost(g).macs);
  EXPECT_FALSE(back.weights_materialized());
}

TEST(Package, WeightDtypeTagSurvives) {
  Graph g = materialized(zoo::micro_mlp("m", 1, 8, {8}, 3));
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if (n.kind == OpKind::kDense) n.weight_dtype = DType::kINT8;
  }
  Graph back = unpack_model(pack_model(g));
  for (NodeId id : back.topo_order()) {
    const Node& n = back.node(id);
    if (n.kind == OpKind::kDense) {
      EXPECT_EQ(n.weight_dtype, DType::kINT8);
    }
  }
}

TEST(Package, RejectsGarbage) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5};
  EXPECT_THROW((void)unpack_model(junk), GraphError);
  Graph g = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2));
  auto blob = pack_model(g);
  blob.resize(blob.size() / 2);  // truncate
  EXPECT_THROW((void)unpack_model(blob), GraphError);
  auto trailing = pack_model(g);
  trailing.push_back(0);
  EXPECT_THROW((void)unpack_model(trailing), GraphError);
}

TEST(Package, SealedDeploymentRoundTrip) {
  security::Key root{};
  root[1] = 0x77;
  security::AttestationAuthority authority(root);
  const security::Key device_key = authority.provision("edge-3");

  Graph g = materialized(zoo::micro_mlp("kws", 1, 16, {12}, 4));
  const SealedModel sealed = seal_model(g, device_key, 1);
  EXPECT_NE(sealed.ciphertext, pack_model(g));  // actually encrypted

  Graph back = unseal_model(sealed, device_key);
  Rng rng(3);
  Tensor x(Shape{1, 16}, rng.normal_vector(16));
  EXPECT_FLOAT_EQ(
      max_abs_diff(runtime::Session(g).run_single(x), runtime::Session(back).run_single(x)), 0.0f);
}

TEST(Package, SealedModelBoundToDevice) {
  security::Key root{};
  security::AttestationAuthority authority(root);
  Graph g = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2));
  const SealedModel sealed = seal_model(g, authority.provision("edge-a"), 1);
  EXPECT_THROW((void)unseal_model(sealed, authority.provision("edge-b")), Error);
}

TEST(Package, SealedModelTamperDetected) {
  security::Key root{};
  security::AttestationAuthority authority(root);
  const auto key = authority.provision("edge-a");
  Graph g = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2));
  SealedModel sealed = seal_model(g, key, 1);
  sealed.ciphertext[10] ^= 0x40;  // flip one weight bit in transit
  EXPECT_THROW((void)unseal_model(sealed, key), Error);
}

TEST(Package, MeasurementIdentifiesModelVersion) {
  security::Key root{};
  security::AttestationAuthority authority(root);
  const auto key = authority.provision("edge-a");
  Graph g1 = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2), 1);
  Graph g2 = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2), 2);  // different weights
  const auto s1 = seal_model(g1, key, 1);
  const auto s2 = seal_model(g2, key, 2);
  EXPECT_FALSE(security::digest_equal(s1.model_measurement, s2.model_measurement));
}

// ---------------------------------------------------------------------------
// v2 digest table: round trips, corruption rejection, check-id matrix
// ---------------------------------------------------------------------------

std::uint32_t read_u32(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b.at(at + i)) << (8 * i);
  return v;
}

void write_u32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.at(at + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Unpack must throw a GraphError whose message starts with the stable
/// dotted check id — the contract loaders and fleet dashboards key on.
void expect_check_id(const std::vector<std::uint8_t>& blob, const std::string& id) {
  try {
    (void)unpack_model(blob);
    FAIL() << "expected GraphError " << id;
  } catch (const GraphError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(id + ":", 0), 0u)
        << "wrong check id: " << e.what();
  }
}

/// Byte offset of the first weight record (index field), from the header.
std::size_t first_record_at(const std::vector<std::uint8_t>& blob) {
  return 12 + read_u32(blob, 8) + 4;
}

TEST(PackageDigest, TableMatchesRecomputedDigests) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4));
  const auto before = digest_weights(g);
  Graph back = unpack_model(pack_model(g));
  const auto after = digest_weights(back);
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].node_index, after[i].node_index);
    EXPECT_EQ(before[i].tensor_index, after[i].tensor_index);
    EXPECT_EQ(before[i].crc, after[i].crc);
  }
}

TEST(PackageDigest, ResNet50ZooPackageRoundTrips) {
  Graph g = materialized(zoo::resnet50(1, 10, 32), 11);
  const auto blob = pack_model(g);
  Graph back = unpack_model(blob);  // digest verification runs here
  EXPECT_TRUE(back.weights_materialized());
  const auto a = digest_weights(g);
  const auto b = digest_weights(back);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].crc, b[i].crc);
}

TEST(PackageDigest, MobileNetV3ZooPackageRoundTrips) {
  Graph g = materialized(zoo::mobilenet_v3_large(1, 10, 32), 12);
  Graph back = unpack_model(pack_model(g));
  const auto a = digest_weights(g);
  const auto b = digest_weights(back);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].crc, b[i].crc);
}

TEST(PackageDigest, FlippedWeightByteRejectedWithExactCheckId) {
  // Flip one byte deep inside the first conv kernel's float data: the
  // package parses fine, the digest table catches the silent corruption.
  Graph g = materialized(zoo::resnet50(1, 10, 32), 13);
  auto blob = pack_model(g);
  const std::size_t rec = first_record_at(blob);
  const std::size_t rank = blob.at(rec + 6);
  const std::size_t floats_at = rec + 7 + 8 * rank;
  blob.at(floats_at + 101) ^= 0x10;
  expect_check_id(blob, "package.digest.mismatch");
}

TEST(PackageCorruption, EveryTruncationRejected) {
  // A package cut anywhere — mid-header, mid-text, mid-record, mid-table —
  // must raise GraphError, never over-read or crash (run under ASan).
  Graph g = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2));
  const auto blob = pack_model(g);
  for (std::size_t n = 0; n < blob.size(); ++n) {
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)unpack_model(cut), GraphError) << "truncated to " << n << " bytes";
  }
}

TEST(PackageCorruption, CheckIdMatrix) {
  Graph g = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2));
  const auto blob = pack_model(g);
  const std::size_t rec = first_record_at(blob);
  const std::size_t entries = digest_weights(g).size();
  const std::size_t table_at = blob.size() - 12 * entries - 4;

  {
    auto b = blob;
    b[0] ^= 0xFF;  // wrong magic
    expect_check_id(b, "package.magic");
  }
  {
    auto b = blob;
    write_u32(b, 4, 99);  // unsupported version
    expect_check_id(b, "package.version");
  }
  {
    auto b = blob;
    write_u32(b, 8, static_cast<std::uint32_t>(b.size()));  // text length lies
    expect_check_id(b, "package.truncated");
  }
  {
    auto b = blob;
    write_u32(b, rec, 1u << 20);  // record references a node that isn't there
    expect_check_id(b, "package.node_index");
  }
  {
    auto b = blob;
    // First record claims the last topo index; the next record can then no
    // longer be strictly increasing.
    write_u32(b, rec, static_cast<std::uint32_t>(g.size() - 1));
    expect_check_id(b, "package.record.order");
  }
  {
    auto b = blob;
    b.at(rec + 6) = 200;  // absurd tensor rank
    expect_check_id(b, "package.rank");
  }
  {
    auto b = blob;
    for (int i = 0; i < 8; ++i) b.at(rec + 7 + i) = 0xFF;  // negative dimension
    expect_check_id(b, "package.dim");
  }
  {
    auto b = blob;
    // dim0 = 2^31 passes the per-dim cap; the running product with dim1
    // then blows the element budget before any allocation happens.
    for (int i = 0; i < 8; ++i) b.at(rec + 7 + i) = 0;
    b.at(rec + 7 + 3) = 0x80;
    expect_check_id(b, "package.numel");
  }
  {
    auto b = blob;
    b.push_back(0);  // trailing garbage
    expect_check_id(b, "package.trailing");
  }
  {
    auto b = blob;
    write_u32(b, table_at, static_cast<std::uint32_t>(entries + 1));
    expect_check_id(b, "package.digest.count");
  }
  {
    auto b = blob;
    write_u32(b, table_at + 4, 1u << 16);  // digest key points elsewhere
    expect_check_id(b, "package.digest.key");
  }
  {
    auto b = blob;
    b.at(table_at + 12) ^= 0x01;  // stored crc itself corrupted
    expect_check_id(b, "package.digest.mismatch");
  }
}

TEST(PackageCorruption, V1PackageWithoutTableStillLoads) {
  // Back-compat: a v1 blob is a v2 blob minus the digest table with the
  // version field rewritten — the reader must accept it un-checked.
  Graph g = materialized(zoo::micro_mlp("m", 1, 4, {4}, 2));
  auto blob = pack_model(g);
  const std::size_t entries = digest_weights(g).size();
  blob.resize(blob.size() - 12 * entries - 4);
  write_u32(blob, 4, 1);
  Graph back = unpack_model(blob);
  EXPECT_TRUE(back.weights_materialized());
  Rng rng(7);
  Tensor x(Shape{1, 4}, rng.normal_vector(4));
  EXPECT_FLOAT_EQ(
      max_abs_diff(runtime::Session(g).run_single(x), runtime::Session(back).run_single(x)), 0.0f);
}

// ---------------------------------------------------------------------------
// Pinned package bytes: fixed seeded graphs pack to a fixed length and
// CRC-32, so no change to the writer can move a byte.
// ---------------------------------------------------------------------------

TEST(PackagePin, SeededZooPackagesKeepTheirBytes) {
  struct Pin {
    const char* what;
    Graph graph;
    std::size_t bytes;
    std::uint32_t crc;
  };
  // micro_cnn: rank-4 conv kernels, rank-1 BatchNorm tensors and a rank-2
  // Dense head; MobileNetV3 adds depthwise kernels and many more records.
  const Pin pins[] = {
      {"micro_cnn", materialized(zoo::micro_cnn("pin", 1, 3, 32, 10), 7), 99745, 0xf80a0cddu},
      {"mobilenet_v3_large", materialized(zoo::mobilenet_v3_large(1, 10, 32), 7), 16977819,
       0xf4346893u},
  };
  for (const Pin& pin : pins) {
    const auto blob = pack_model(pin.graph);
    EXPECT_EQ(blob.size(), pin.bytes) << pin.what;
    EXPECT_EQ(util::crc32(std::span<const std::uint8_t>(blob)), pin.crc) << pin.what;
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz of unpack_model. Each seed mutates one small
// package; the mutant must load or throw a vedliot::Error (tier1 runs this
// under ASan+UBSan, so an over-read fails there too).
// ---------------------------------------------------------------------------

/// Byte offsets of a v2 package's fields, walked from its own headers.
struct PackageLayout {
  std::vector<std::size_t> length_fields;  ///< text length, record and digest counts
  std::vector<std::size_t> record_at;      ///< each record's node-index field
  std::vector<std::size_t> rank_at;        ///< each tensor's rank byte
  std::vector<std::size_t> dim_at;         ///< each tensor's i64 dimensions
  std::vector<std::size_t> payload_at;     ///< each tensor's first float byte
  std::vector<std::size_t> payload_bytes;
  std::size_t table_at = 0;
  std::vector<std::size_t> structure;  ///< every byte outside the payloads
};

PackageLayout layout_of(const std::vector<std::uint8_t>& blob) {
  PackageLayout l;
  l.length_fields.push_back(8);
  std::size_t at = first_record_at(blob) - 4;
  l.length_fields.push_back(at);
  const std::uint32_t records = read_u32(blob, at);
  at += 4;
  for (std::uint32_t r = 0; r < records; ++r) {
    l.record_at.push_back(at);
    const std::size_t tensors = blob.at(at + 5);
    at += 6;
    for (std::size_t t = 0; t < tensors; ++t) {
      l.rank_at.push_back(at);
      const std::size_t rank = blob.at(at);
      std::uint64_t numel = 1;
      for (std::size_t d = 0; d < rank; ++d) {
        const std::size_t dim_at = at + 1 + 8 * d;
        l.dim_at.push_back(dim_at);
        numel *= read_u32(blob, dim_at);  // dims of a small model fit 32 bits
      }
      at += 1 + 8 * rank;
      l.payload_at.push_back(at);
      l.payload_bytes.push_back(numel * sizeof(float));
      at += numel * sizeof(float);
    }
  }
  l.table_at = at;
  l.length_fields.push_back(at);
  std::size_t next = 0;
  for (std::size_t t = 0; t <= l.payload_at.size(); ++t) {
    const std::size_t end = t < l.payload_at.size() ? l.payload_at[t] : blob.size();
    for (; next < end; ++next) l.structure.push_back(next);
    if (t < l.payload_at.size()) next = end + l.payload_bytes[t];
  }
  return l;
}

/// Loads \p blob; true when it loaded, false when it threw a vedliot::Error.
/// Anything else thrown fails the test.
bool loads(const std::vector<std::uint8_t>& blob, const std::string& what) {
  try {
    (void)unpack_model(blob);
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": unpack_model threw a non-vedliot exception: " << e.what();
    return false;
  }
}

TEST(PackageFuzz, SeededMutantsLoadOrThrowVedliotError) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 8, 3));
  const auto blob = pack_model(g);
  const PackageLayout l = layout_of(blob);
  ASSERT_EQ(l.table_at + 4 + 12 * digest_weights(g).size(), blob.size());
  ASSERT_FALSE(l.payload_at.empty());

  const std::uint32_t extreme32[] = {0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
                                     static_cast<std::uint32_t>(blob.size())};
  const std::int64_t extreme64[] = {0,
                                    -1,
                                    std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    std::int64_t{1} << 31,
                                    (std::int64_t{1} << 31) + 1,
                                    std::int64_t{1} << 40};
  const std::uint8_t extreme_rank[] = {0, 1, 8, 9, 255};
  constexpr std::uint64_t kSeeds = 3000;
  std::size_t loaded = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    auto b = blob;
    const std::size_t kind = pick(7);
    std::string what = "seed " + std::to_string(seed) + " kind " + std::to_string(kind);
    switch (kind) {
      case 0:  // one to four bit flips in the text, the headers or the table
        for (std::size_t f = 0, n = 1 + pick(4); f < n; ++f) {
          b[l.structure[pick(l.structure.size())]] ^= 1u << pick(8);
        }
        break;
      case 1:  // one byte of the text, the headers or the table overwritten
        b[l.structure[pick(l.structure.size())]] = static_cast<std::uint8_t>(pick(256));
        break;
      case 2:  // a length field rewritten to an extreme value
        write_u32(b, l.length_fields[pick(l.length_fields.size())],
                  extreme32[pick(std::size(extreme32))]);
        break;
      case 3:  // a rank byte rewritten
        b[l.rank_at[pick(l.rank_at.size())]] = extreme_rank[pick(std::size(extreme_rank))];
        break;
      case 4: {  // a dimension rewritten to an extreme value
        const std::size_t at = l.dim_at[pick(l.dim_at.size())];
        const auto v = static_cast<std::uint64_t>(extreme64[pick(std::size(extreme64))]);
        for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        break;
      }
      case 5: {  // cut at (or one byte either side of) a record boundary
        std::vector<std::size_t> cuts = l.record_at;
        cuts.insert(cuts.end(), l.payload_at.begin(), l.payload_at.end());
        cuts.push_back(l.table_at);
        const std::size_t cut = cuts[pick(cuts.size())] + pick(3) - 1;
        b.resize(cut);
        EXPECT_FALSE(loads(b, what)) << what << ": a cut package loaded";
        continue;
      }
      default: {  // one bit flipped inside a weight payload
        const std::size_t t = pick(l.payload_at.size());
        b[l.payload_at[t] + pick(l.payload_bytes[t])] ^= 1u << pick(8);
        try {
          (void)unpack_model(b);
          ADD_FAILURE() << what << ": a flipped payload bit loaded";
        } catch (const GraphError& e) {
          EXPECT_EQ(std::string(e.what()).rfind("package.digest.mismatch:", 0), 0u)
              << what << ": " << e.what();
        }
        continue;
      }
    }
    if (loads(b, what)) ++loaded;
  }
  // Most mutants are rejected, but a flip in a name or an unused field
  // can load: the fuzz must have reached both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kSeeds / 2);
}

TEST(PackageFuzz, MalformedNumbersInTheTextAreGraphErrors) {
  // The fuzz's finding: a flipped digit in the IR text (an input id, an int
  // or float attribute, an input dimension) reached std::stol, std::stoll or
  // std::stod, whose std::invalid_argument escaped unpack_model.
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 8, 3));
  const auto blob = pack_model(g);
  const std::string text(blob.begin() + 12, blob.begin() + 12 + read_u32(blob, 8));
  for (const std::string field : {"in=0", "kernel=int:3", "epsilon=float:1", "shape=1"}) {
    const std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    auto b = blob;
    b.at(12 + at + field.size() - 1) = 'q';  // the number's first digit
    EXPECT_THROW((void)unpack_model(b), GraphError) << field;
  }
  // Out of range: std::out_of_range is mapped the same way.
  const std::string head = "graph g\nnode Input \"x\" in= attrs{";
  EXPECT_THROW((void)from_text(head + "} shape=1,99999999999999999999\n"), GraphError);
  EXPECT_THROW((void)from_text(head + "s=float:1e999} shape=1,4\n"), GraphError);
}

// ---------------------------------------------------------------------------
// Package streams over the OTA transport: negative paths. What reaches
// unpack_model after a damaged transfer must fail with the same stable
// package.* check ids a locally-corrupted blob produces — and the transport
// layer itself must refuse most damage before bytes ever reach the loader.
// ---------------------------------------------------------------------------

TEST(PackageStream, TruncatedStreamNeverUnpacks) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4));
  const auto blob = pack_model(g);
  safety::OtaChunker chunker(blob, 256);
  safety::OtaReceiver rx(chunker.total_bytes(), chunker.chunk_bytes(), chunker.package_crc());

  // the stream dies mid-transfer: only a prefix of chunks ever arrives
  const std::uint32_t delivered = static_cast<std::uint32_t>(chunker.chunk_count()) / 2;
  for (std::uint32_t s = 0; s < delivered; ++s) rx.accept(chunker.chunk(s));

  // transport refuses to assemble a torn image at all
  EXPECT_THROW((void)rx.assemble(), Error);

  // and if an installer bypassed the journal and fed the raw prefix to the
  // loader anyway, the loader rejects it with the stable truncation id
  std::vector<std::uint8_t> prefix(blob.begin(),
                                   blob.begin() + static_cast<std::ptrdiff_t>(delivered * 256));
  expect_check_id(prefix, "package.truncated");
}

TEST(PackageStream, MidChunkCorruptionIsRefusedAtEveryLayer) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4));
  const auto blob = pack_model(g);
  safety::OtaChunker chunker(blob, 256);
  safety::OtaReceiver rx(chunker.total_bytes(), chunker.chunk_bytes(), chunker.package_crc());

  // layer 1: a damaged payload fails the per-chunk CRC and is discarded
  safety::OtaChunk damaged = chunker.chunk(1);
  damaged.payload[100] ^= 0x04;
  EXPECT_EQ(rx.accept(damaged), safety::OtaReceiver::Accept::kCorrupt);

  // layer 2: an adversarial chunk with a *recomputed* CRC passes the chunk
  // check but the whole-package CRC refuses assembly
  damaged.crc = util::crc32(std::span<const std::uint8_t>(damaged.payload));
  EXPECT_EQ(rx.accept(damaged), safety::OtaReceiver::Accept::kAccepted);
  for (std::uint32_t s = 0; s < chunker.chunk_count(); ++s) rx.accept(chunker.chunk(s));
  ASSERT_TRUE(rx.complete());
  EXPECT_THROW((void)rx.assemble(), Error);

  // layer 3: even bytes that skipped the transport entirely die in the
  // loader on the per-tensor digest table (flip a byte deep inside the
  // first weight tensor's float data, same spot the digest matrix pins)
  std::vector<std::uint8_t> tampered = blob;
  const std::size_t rec = first_record_at(tampered);
  const std::size_t rank = tampered.at(rec + 6);
  tampered.at(rec + 7 + 8 * rank + 101) ^= 0x10;
  expect_check_id(tampered, "package.digest.mismatch");
}

TEST(PackageStream, OutOfOrderDeliveryReassemblesAndUnpacksCleanly) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4));
  const auto blob = pack_model(g);
  safety::OtaChunker chunker(blob, 256);
  safety::OtaReceiver rx(chunker.total_bytes(), chunker.chunk_bytes(), chunker.package_crc());

  // worst-case reordering: reverse delivery, every chunk duplicated
  for (std::uint32_t s = static_cast<std::uint32_t>(chunker.chunk_count()); s-- > 0;) {
    rx.accept(chunker.chunk(s));
    rx.accept(chunker.chunk(s));
  }
  ASSERT_TRUE(rx.complete());
  EXPECT_EQ(rx.assemble(), blob);
  Graph back = unpack_model(rx.assemble());
  Rng rng(9);
  Tensor x(Shape{1, 1, 16, 16}, rng.normal_vector(256));
  EXPECT_FLOAT_EQ(
      max_abs_diff(runtime::Session(g).run_single(x), runtime::Session(back).run_single(x)), 0.0f);
}

// ---------------------------------------------------------------------------
// Explicit execution orders for the memory planner
// ---------------------------------------------------------------------------

TEST(MemoryOrder, RejectsBadOrders) {
  Graph g = zoo::micro_mlp("m", 1, 4, {4}, 2);
  auto order = g.topo_order();
  std::swap(order.front(), order.back());  // breaks topology
  EXPECT_THROW((void)plan_memory_with_order(g, order, DType::kFP32), Error);
  order = g.topo_order();
  order.pop_back();  // misses a node
  EXPECT_THROW((void)plan_memory_with_order(g, order, DType::kFP32), Error);
}

}  // namespace
}  // namespace vedliot
