// Tests for model packaging: binary round trip with weights, sealed
// (encrypted + authenticated) deployment bundles, and the memory-aware
// execution order.

#include <gtest/gtest.h>

#include "graph/cost.hpp"
#include "graph/package.hpp"
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
