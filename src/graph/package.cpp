#include "graph/package.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "analysis/verifier.hpp"
#include "graph/serialize.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace vedliot {

namespace {

constexpr std::uint32_t kMagic = 0x4C444D56;  // "VMDL"
constexpr std::uint32_t kVersion = 2;         // v2: per-tensor digest table
constexpr std::uint32_t kOldestReadable = 1;  // v1 packages (no table) load

// Hard limits the reader enforces before trusting any length field: a
// corrupted (or lying) field must fail a bounds check, never drive an
// allocation or an over-read.
constexpr std::size_t kMaxRank = 8;
constexpr std::int64_t kMaxTensorElems = std::int64_t{1} << 31;

/// Copies \p src to \p dst and returns the CRC-32 of the bytes copied, one
/// L1-sized block at a time, so each block is hashed while it is still in
/// cache: a weight payload is walked once, on pack and on unpack alike.
std::uint32_t copy_crc(std::uint8_t* dst, std::span<const std::uint8_t> src) {
  constexpr std::size_t kBlock = std::size_t{16} << 10;  // a multiple of the fold's 16
  std::uint32_t crc = 0;
  for (std::size_t at = 0; at < src.size(); at += kBlock) {
    const auto block = src.subspan(at, std::min(kBlock, src.size() - at));
    std::memcpy(dst + at, block.data(), block.size());
    crc = util::crc32(block, crc);
  }
  return crc;
}

std::span<const std::uint8_t> bytes_of(const Tensor& t) {
  const auto data = t.data();
  return {reinterpret_cast<const std::uint8_t*>(data.data()), data.size_bytes()};
}

/// Little-endian field writer into a package sized up front: pack_model
/// computes the exact length, allocates it once and fills it in order.
class Writer {
 public:
  explicit Writer(std::size_t size) : out_(size), at_(out_.data()) {}

  void u8(std::uint8_t v) { *at_++ = v; }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(u >> (8 * i)));
  }
  void bytes(std::span<const std::uint8_t> s) {
    std::memcpy(at_, s.data(), s.size());
    at_ += s.size();
  }
  /// bytes(), returning the CRC-32 of what it wrote.
  std::uint32_t bytes_crc(std::span<const std::uint8_t> s) {
    const std::uint32_t crc = copy_crc(at_, s);
    at_ += s.size();
    return crc;
  }
  std::vector<std::uint8_t> finish() && {
    VEDLIOT_ASSERT(at_ == out_.data() + out_.size());
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint8_t* at_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    check(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    check(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() {
    check(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return static_cast<std::int64_t>(v);
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    check(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  void check(std::size_t n) const {
    // n comes from untrusted length fields; pos_ is always <= size(), so
    // comparing against the remaining bytes cannot overflow.
    if (n > data_.size() - pos_) {
      throw GraphError("package.truncated: need " + std::to_string(n) + " bytes at offset " +
                       std::to_string(pos_) + ", only " + std::to_string(data_.size() - pos_) +
                       " remain");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<TensorDigest> digest_weights(const Graph& g) {
  std::vector<TensorDigest> table;
  std::uint32_t dense = 0;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    for (std::size_t t = 0; t < n.weights.size(); ++t) {
      table.push_back(TensorDigest{dense, static_cast<std::uint32_t>(t),
                                   util::crc32(n.weights[t].data())});
    }
    ++dense;
  }
  return table;
}

std::vector<std::uint8_t> pack_model(const Graph& g) {
  const std::string text = to_text(g);

  // Weight records keyed by dense topo index (matching to_text's remap),
  // and the package's exact size: header, text, records, digest table.
  std::vector<std::pair<std::uint32_t, const Node*>> with_weights;
  std::size_t tensors = 0;
  std::size_t size = 12 + text.size() + 4;
  std::uint32_t dense = 0;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (!n.weights.empty()) {
      with_weights.emplace_back(dense, &n);
      tensors += n.weights.size();
      size += 6;
      for (const Tensor& w : n.weights) size += 1 + 8 * w.shape().rank() + bytes_of(w).size();
    }
    ++dense;
  }
  size += 4 + 12 * tensors;

  Writer out(size);
  out.u32(kMagic);
  out.u32(kVersion);
  out.u32(static_cast<std::uint32_t>(text.size()));
  out.bytes({reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});

  // Each tensor's digest is taken from the bytes as they are copied in.
  std::vector<TensorDigest> digests;
  digests.reserve(tensors);
  out.u32(static_cast<std::uint32_t>(with_weights.size()));
  for (const auto& [index, node] : with_weights) {
    out.u32(index);
    out.u8(static_cast<std::uint8_t>(node->weight_dtype));
    out.u8(static_cast<std::uint8_t>(node->weights.size()));
    for (std::size_t t = 0; t < node->weights.size(); ++t) {
      const Tensor& w = node->weights[t];
      out.u8(static_cast<std::uint8_t>(w.shape().rank()));
      for (std::size_t d = 0; d < w.shape().rank(); ++d) out.i64(w.shape().dim(d));
      digests.push_back(
          TensorDigest{index, static_cast<std::uint32_t>(t), out.bytes_crc(bytes_of(w))});
    }
  }

  // v2 digest table: one CRC-32 per weight tensor, same order as the
  // records above (digest_weights' order). Written last so a truncation
  // cannot drop it silently — the reader requires exactly one entry per
  // tensor it read.
  out.u32(static_cast<std::uint32_t>(digests.size()));
  for (const TensorDigest& d : digests) {
    out.u32(d.node_index);
    out.u32(d.tensor_index);
    out.u32(d.crc);
  }
  return std::move(out).finish();
}

Graph unpack_model(std::span<const std::uint8_t> package) {
  Reader r(package);
  if (r.u32() != kMagic) throw GraphError("package.magic: not a model package at byte 0");
  const std::uint32_t version = r.u32();
  if (version < kOldestReadable || version > kVersion) {
    throw GraphError("package.version: unsupported package version " + std::to_string(version) +
                     " at byte 4");
  }

  const std::uint32_t text_len = r.u32();
  const auto text_bytes = r.bytes(text_len);
  Graph g = from_text(std::string(text_bytes.begin(), text_bytes.end()));

  const auto order = g.topo_order();
  const std::uint32_t records = r.u32();
  // Actual digests of the tensors, taken from the bytes as each payload is
  // copied out, in record order; compared against the embedded table
  // afterwards (v2).
  std::vector<TensorDigest> actual;
  std::int64_t prev_index = -1;
  for (std::uint32_t i = 0; i < records; ++i) {
    const std::size_t index_at = r.pos();
    const std::uint32_t index = r.u32();
    if (index >= order.size()) {
      throw GraphError("package.node_index: weight record references unknown node " +
                       std::to_string(index) + " at byte " + std::to_string(index_at));
    }
    if (static_cast<std::int64_t>(index) <= prev_index) {
      throw GraphError("package.record.order: weight record for node " + std::to_string(index) +
                       " out of order at byte " + std::to_string(index_at) +
                       " (records are strictly increasing by topo index)");
    }
    prev_index = index;
    Node& n = g.node(order[index]);
    n.weight_dtype = static_cast<DType>(r.u8());
    const std::uint8_t tensors = r.u8();
    for (std::uint8_t t = 0; t < tensors; ++t) {
      const std::size_t rank_at = r.pos();
      const std::uint8_t rank = r.u8();
      if (rank > kMaxRank) {
        throw GraphError("package.rank: weight tensor rank " + std::to_string(rank) +
                         " exceeds limit " + std::to_string(kMaxRank) + " at byte " +
                         std::to_string(rank_at));
      }
      std::vector<std::int64_t> dims;
      std::int64_t numel = 1;
      for (std::uint8_t d = 0; d < rank; ++d) {
        const std::size_t dim_at = r.pos();
        const std::int64_t dim = r.i64();
        if (dim < 0 || dim > kMaxTensorElems) {
          throw GraphError("package.dim: invalid dimension " + std::to_string(dim) +
                           " at byte " + std::to_string(dim_at));
        }
        // dim and numel are both capped, so the product fits in 62 bits
        // before this check can trip — no signed overflow on the way.
        numel *= dim;
        if (numel > kMaxTensorElems) {
          throw GraphError("package.numel: tensor element count exceeds limit at byte " +
                           std::to_string(dim_at));
        }
        dims.push_back(dim);
      }
      Shape shape(std::move(dims));
      const auto n_elems = static_cast<std::size_t>(shape.numel());
      const auto raw = r.bytes(n_elems * sizeof(float));
      std::vector<float> data(n_elems);
      const std::uint32_t crc = copy_crc(reinterpret_cast<std::uint8_t*>(data.data()), raw);
      n.weights.emplace_back(std::move(shape), std::move(data));
      actual.push_back(TensorDigest{index, t, crc});
    }
  }

  if (version >= 2) {
    const std::size_t table_at = r.pos();
    const std::uint32_t entries = r.u32();
    if (entries != actual.size()) {
      throw GraphError("package.digest.count: digest table has " + std::to_string(entries) +
                       " entries at byte " + std::to_string(table_at) + ", expected " +
                       std::to_string(actual.size()));
    }
    for (std::size_t i = 0; i < entries; ++i) {
      const std::size_t entry_at = r.pos();
      TensorDigest expect;
      expect.node_index = r.u32();
      expect.tensor_index = r.u32();
      expect.crc = r.u32();
      const TensorDigest& got = actual[i];
      if (expect.node_index != got.node_index || expect.tensor_index != got.tensor_index) {
        throw GraphError("package.digest.key: digest entry (" +
                         std::to_string(expect.node_index) + "," +
                         std::to_string(expect.tensor_index) + ") at byte " +
                         std::to_string(entry_at) + " does not match weight record (" +
                         std::to_string(got.node_index) + "," +
                         std::to_string(got.tensor_index) + ")");
      }
      if (expect.crc != got.crc) {
        char want[16], have[16];
        std::snprintf(want, sizeof(want), "%08x", expect.crc);
        std::snprintf(have, sizeof(have), "%08x", got.crc);
        throw GraphError("package.digest.mismatch: node '" +
                         g.node(order[expect.node_index]).name + "' (index " +
                         std::to_string(expect.node_index) + ") tensor " +
                         std::to_string(expect.tensor_index) + ": expected crc32 " + want +
                         ", got " + have + " (table entry at byte " + std::to_string(entry_at) +
                         ")");
      }
    }
  }

  if (!r.done()) {
    throw GraphError("package.trailing: " + std::to_string(r.remaining()) +
                     " trailing bytes at offset " + std::to_string(r.pos()));
  }
  // from_text already verified structure; re-verify now that weight records
  // are attached so packages with wrong shapes/counts are rejected here with
  // the findings table rather than crashing an executor later.
  analysis::verify_or_throw(g);
  return g;
}

SealedModel seal_model(const Graph& g, const security::Key& device_key,
                       std::uint32_t nonce_counter) {
  const auto plain = pack_model(g);
  SealedModel out;
  out.model_measurement = security::sha256(plain);
  std::memcpy(out.nonce.data(), &nonce_counter, sizeof(nonce_counter));
  const security::Key enc_key = security::derive_key(device_key, "model-encrypt");
  const security::Key mac_key = security::derive_key(device_key, "model-mac");
  out.ciphertext = security::chacha20_xor(enc_key, out.nonce, 1, plain);

  std::vector<std::uint8_t> mac_input(out.nonce.begin(), out.nonce.end());
  mac_input.insert(mac_input.end(), out.ciphertext.begin(), out.ciphertext.end());
  out.mac = security::hmac_sha256(mac_key, mac_input);
  return out;
}

Graph unseal_model(const SealedModel& sealed, const security::Key& device_key) {
  const security::Key enc_key = security::derive_key(device_key, "model-encrypt");
  const security::Key mac_key = security::derive_key(device_key, "model-mac");

  std::vector<std::uint8_t> mac_input(sealed.nonce.begin(), sealed.nonce.end());
  mac_input.insert(mac_input.end(), sealed.ciphertext.begin(), sealed.ciphertext.end());
  const security::Digest expected = security::hmac_sha256(mac_key, mac_input);
  if (!security::digest_equal(expected, sealed.mac)) {
    throw Error("sealed model MAC mismatch (wrong device key or tampered package)");
  }
  const auto plain = security::chacha20_xor(enc_key, sealed.nonce, 1, sealed.ciphertext);
  if (!security::digest_equal(security::sha256(plain), sealed.model_measurement)) {
    throw Error("sealed model measurement mismatch");
  }
  return unpack_model(plain);
}

}  // namespace vedliot
