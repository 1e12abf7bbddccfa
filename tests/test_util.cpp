// Tests for the util substrate: statistics, tables, RNG, error handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <climits>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace vedliot {
namespace {

using stats::Ewma;
using stats::Histogram;
using stats::Running;

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
}

TEST(Stats, VarianceAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(stats::variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stats::stddev(xs), 2.0);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(stats::variance(xs), 0.0);
}

TEST(Stats, GeomeanOfPowers) {
  const std::vector<double> xs{1, 10, 100};
  EXPECT_NEAR(stats::geomean(xs), 10.0, 1e-9);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW((void)stats::geomean(xs), InvalidArgument);
}

TEST(Stats, GeomeanRejectsEmpty) {
  EXPECT_THROW((void)stats::geomean({}), Error);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd{3, 1, 2};
  EXPECT_DOUBLE_EQ(stats::median(odd), 2.0);
  const std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(stats::median(even), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 50.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 30.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 25), 2.5);
}

TEST(Stats, PercentileRejectsOutOfRange) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)stats::percentile(xs, 101), Error);
}

TEST(Stats, MadIsRobustToOneOutlier) {
  const std::vector<double> xs{1, 1, 1, 1, 1, 1, 1, 1000};
  EXPECT_DOUBLE_EQ(stats::mad(xs), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  EXPECT_NEAR(stats::pearson(xs, ys), 1.0, 1e-12);
}

TEST(Stats, PearsonAntiCorrelation) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{3, 2, 1};
  EXPECT_NEAR(stats::pearson(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSideIsZero) {
  const std::vector<double> xs{1, 1, 1};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::pearson(xs, ys), 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  const std::vector<double> xs{0, 1, 2, 3};
  const std::vector<double> ys{1, 3, 5, 7};  // y = 1 + 2x
  const auto fit = stats::linear_fit(xs, ys);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
}

TEST(Stats, EwmaConvergesToConstantInput) {
  Ewma e(0.5);
  for (int i = 0; i < 64; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Stats, EwmaFirstSamplePrimes) {
  Ewma e(0.1);
  EXPECT_FALSE(e.primed());
  e.add(7.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 7.0);
}

TEST(Stats, EwmaRejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), Error);
  EXPECT_THROW(Ewma(1.5), Error);
}

TEST(Stats, RunningMatchesBatch) {
  Rng rng(7);
  std::vector<double> xs;
  Running run;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    run.add(x);
  }
  EXPECT_NEAR(run.mean(), stats::mean(xs), 1e-9);
  EXPECT_NEAR(run.variance(), stats::variance(xs), 1e-6);
}

TEST(Stats, HistogramBinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps into bin 0
  h.add(100.0);   // clamps into bin 9
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Stats, HistogramRejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.uniform() != b.uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, NormalVectorMoments) {
  Rng rng(9);
  const auto v = rng.normal_vector(20000, 1.0, 2.0);
  std::vector<double> d(v.begin(), v.end());
  EXPECT_NEAR(stats::mean(d), 1.0, 0.1);
  EXPECT_NEAR(stats::stddev(d), 2.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, EmptyHeaderRejected) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Fmt, FixedAndRatioAndPercent) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_ratio(2.5, 1), "2.5x");
  EXPECT_EQ(fmt_percent(0.0312, 1), "3.1%");
}

TEST(Fmt, EngineeringSuffixes) {
  EXPECT_EQ(fmt_eng(1.5e12), "1.50T");
  EXPECT_EQ(fmt_eng(2.0e9), "2.00G");
  EXPECT_EQ(fmt_eng(450e6), "450M");
  EXPECT_EQ(fmt_eng(1234), "1.23k");
  EXPECT_EQ(fmt_eng(9.5), "9.50");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::to_gops(2e9), 2.0);
  EXPECT_DOUBLE_EQ(units::from_gops(3.0), 3e9);
  EXPECT_DOUBLE_EQ(units::to_tops_per_watt(1e12, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(units::to_mib(1024.0 * 1024.0), 1.0);
  EXPECT_DOUBLE_EQ(units::to_ms(0.25), 250.0);
  EXPECT_DOUBLE_EQ(units::mbit_per_s(10), 1e7);
}

TEST(ErrorHandling, CheckThrowsWithContext) {
  try {
    VEDLIOT_CHECK(false, "something bad");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("something bad"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("false"), std::string::npos);
  }
}

TEST(ErrorHandling, HierarchyIsCatchable) {
  EXPECT_THROW(throw NotFound("x"), Error);
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw Unsupported("x"), Error);
}

TEST(Rng, BackoffStaysUnderExponentialCeiling) {
  Rng rng(11);
  // Attempt k draws uniformly from [0, min(cap, base * 2^k)].
  for (int attempt = 0; attempt < 10; ++attempt) {
    const double ceiling = std::min(0.032, 0.001 * std::exp2(attempt));
    for (int i = 0; i < 200; ++i) {
      const double w = rng.backoff_s(0.001, 0.032, attempt);
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, ceiling);
    }
  }
}

TEST(Rng, BackoffGrowsWithAttemptOnAverageThenCaps) {
  Rng rng(12);
  const auto mean_wait = [&](int attempt) {
    double s = 0;
    for (int i = 0; i < 2000; ++i) s += rng.backoff_s(0.001, 0.032, attempt);
    return s / 2000;
  };
  const double a0 = mean_wait(0);
  const double a3 = mean_wait(3);
  const double a8 = mean_wait(8);   // 2^8 * base = 0.256 -> capped at 0.032
  const double a9 = mean_wait(9);
  EXPECT_GT(a3, a0 * 4);            // exponential region
  EXPECT_NEAR(a8, 0.016, 0.002);    // uniform over [0, cap]
  EXPECT_NEAR(a9, a8, 0.002);       // cap reached: no further growth
}

TEST(Rng, BackoffIsDeterministicPerSeed) {
  Rng a(5), b(5);
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(a.backoff_s(1e-3, 32e-3, i % 6), b.backoff_s(1e-3, 32e-3, i % 6));
  }
}

TEST(Rng, BackoffClampsExtremeAttemptCounts) {
  Rng rng(14);
  // Soak-scale attempt counters can exceed the exponent range of a double;
  // the exponent is clamped to kMaxBackoffExponent so the ceiling stays
  // finite (and at any realistic cap, simply equals the cap).
  for (const int attempt : {64, 100, 1 << 30, INT_MAX}) {
    const double w = rng.backoff_s(1e-3, 32e-3, attempt);
    EXPECT_TRUE(std::isfinite(w));
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 32e-3);
  }
  // Even uncapped, 2^63 * base is finite.
  const double huge = rng.backoff_s(1.0, std::numeric_limits<double>::max(), INT_MAX);
  EXPECT_TRUE(std::isfinite(huge));
  EXPECT_LE(huge, std::exp2(Rng::kMaxBackoffExponent));
  // Negative attempts clamp to the first-retry ceiling instead of
  // producing a sub-base (or NaN) window.
  for (int i = 0; i < 100; ++i) {
    const double w = rng.backoff_s(1e-3, 32e-3, -5);
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1e-3);
  }
}

TEST(Rng, BackoffRespectsJitterFloor) {
  Rng rng(15);
  // Pure full jitter can draw ~0 s and collapse a congested retry loop
  // into a hot spin; the floor pins the minimum wait.
  const double floor = 0.25e-3;
  for (int attempt = 0; attempt < 12; ++attempt) {
    for (int i = 0; i < 200; ++i) {
      const double w = rng.backoff_s(1e-3, 32e-3, attempt, floor);
      EXPECT_GE(w, floor);
      EXPECT_LE(w, std::min(32e-3, 1e-3 * std::exp2(attempt)));
    }
  }
  // A floor above the current ceiling degenerates to a fixed ceiling-length
  // wait — never an inverted interval or a sub-floor draw.
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(rng.backoff_s(1e-3, 32e-3, 0, 5e-3), 1e-3);
  }
  // The default (no floor) preserves the classic policy: draws below any
  // positive floor do occur.
  double lowest = 1.0;
  for (int i = 0; i < 2000; ++i) {
    lowest = std::min(lowest, rng.backoff_s(1e-3, 32e-3, 0));
  }
  EXPECT_LT(lowest, 0.25e-3);
}

TEST(Rng, JitteredStaysWithinFraction) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.jittered(10.0, 0.2);
    EXPECT_GE(v, 8.0);
    EXPECT_LE(v, 12.0);
  }
  // Zero fraction is the identity.
  EXPECT_DOUBLE_EQ(rng.jittered(10.0, 0.0), 10.0);
}

// ---------------------------------------------------------------------------
// util::ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversRangeExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkingIsDeterministic) {
  // Chunk boundaries are a pure function of (range, threads, grain): two
  // dispatches of the same range must produce identical partitions.
  const auto partition = [](util::ThreadPool& pool) {
    std::mutex m;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.parallel_for(0, 103, 10, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  util::ThreadPool pool(3);
  const auto a = partition(pool);
  const auto b = partition(pool);
  EXPECT_EQ(a, b);
  // Grain 10 over 103 elements with 3 threads: 3 chunks (ceil split).
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.front().first, 0);
  EXPECT_EQ(a.back().second, 103);
}

TEST(ThreadPool, GrainLimitsChunkCount) {
  util::ThreadPool pool(8);
  // Range 10 with grain 8 cannot support more than two chunks.
  const std::size_t chunks =
      pool.parallel_for(0, 10, 8, [](std::int64_t, std::int64_t, std::size_t) {});
  EXPECT_LE(chunks, 2u);
  // Empty range dispatches nothing.
  EXPECT_EQ(pool.parallel_for(5, 5, 1, [](std::int64_t, std::int64_t, std::size_t) {}), 0u);
}

TEST(ThreadPool, ChunkIndexIsUniquePerDispatch) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  const std::size_t chunks =
      pool.parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t, std::size_t chunk) {
        ASSERT_LT(chunk, seen.size());
        seen[chunk].fetch_add(1);
      });
  for (std::size_t i = 0; i < chunks; ++i) EXPECT_EQ(seen[i].load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [](std::int64_t lo, std::int64_t, std::size_t) {
                          if (lo >= 50) throw InvalidArgument("boom");
                        }),
      InvalidArgument);
  // The pool survives an exception and can dispatch again.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(0, 10, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<double> xs(5000);
  std::iota(xs.begin(), xs.end(), 0.0);
  const double serial = std::accumulate(xs.begin(), xs.end(), 0.0);
  util::ThreadPool pool(4);
  std::vector<double> partial(8, 0.0);
  pool.parallel_for(0, static_cast<std::int64_t>(xs.size()), 16,
                    [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
                      for (std::int64_t i = lo; i < hi; ++i) {
                        partial[chunk] += xs[static_cast<std::size_t>(i)];
                      }
                    });
  EXPECT_DOUBLE_EQ(std::accumulate(partial.begin(), partial.end(), 0.0), serial);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
}

// ---------------------------------------------------------------------------
// CRC-32 (weight-digest hash)
// ---------------------------------------------------------------------------

// util::crc32 folds inputs of 64 bytes or more with PCLMULQDQ where the
// host has it, and hashes the tail and short inputs with its table loop;
// under VEDLIOT_FORCE_PORTABLE=1 everything takes the table loop. Either
// way it must equal this bit-at-a-time reference.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

TEST(Crc32, MatchesCheckValue) {
  // The ISO-HDLC check value every conforming CRC-32 must produce.
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>(p, s.size())), 0xCBF43926u);
}

TEST(Crc32, EmptyAndSingleByte) {
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>{}), 0u);
  const std::uint8_t zero[1] = {0};
  EXPECT_NE(util::crc32(std::span<const std::uint8_t>(zero, 1)), 0u);
}

TEST(Crc32, SeedChainsAcrossFragments) {
  // crc32(a ++ b) == crc32(b, seed = crc32(a)) — the property the weight
  // scrubber relies on to hash a tensor in per-tick fragments. Splits at
  // 15/16/17 and 63/64/65 bytes from either end put a fragment on each
  // side of the fold's 16-byte block and 64-byte start.
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 31);
  const auto whole = util::crc32(std::span<const std::uint8_t>(data));
  EXPECT_EQ(whole, reference_crc32(data));
  std::vector<std::size_t> splits{1, 100, data.size() - 1};
  for (const std::size_t at : {15, 16, 17, 63, 64, 65}) {
    splits.push_back(at);
    splits.push_back(data.size() - at);
  }
  for (const std::size_t split : splits) {
    const auto head = util::crc32(std::span<const std::uint8_t>(data.data(), split));
    const auto chained = util::crc32(
        std::span<const std::uint8_t>(data.data() + split, data.size() - split), head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32, FloatOverloadHashesRawBytes) {
  const std::vector<float> v{1.5f, -2.25f, 0.0f, 3e-8f};
  const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
  EXPECT_EQ(util::crc32(std::span<const float>(v)),
            util::crc32(std::span<const std::uint8_t>(raw, v.size() * sizeof(float))));
  // 1,003 floats (4,012 bytes): the fold and a 12-byte table-loop tail.
  Rng rng(6);
  const std::vector<float> w = rng.normal_vector(1003);
  const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(w.data()),
                                            w.size() * sizeof(float));
  EXPECT_EQ(util::crc32(std::span<const float>(w)), reference_crc32(bytes));
  EXPECT_EQ(util::crc32(std::span<const float>(w), 0x1234u), reference_crc32(bytes, 0x1234u));
}

TEST(Crc32, SingleBitFlipChangesDigest) {
  std::vector<float> v(64, 0.5f);
  const auto before = util::crc32(std::span<const float>(v));
  auto u = std::bit_cast<std::uint32_t>(v[17]);
  u ^= 1u << 23;
  v[17] = std::bit_cast<float>(u);
  EXPECT_NE(util::crc32(std::span<const float>(v)), before);
}

TEST(Crc32, EveryLengthUpTo320MatchesReference) {
  const auto data = random_bytes(320, 1);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::span<const std::uint8_t> s(data.data(), n);
    ASSERT_EQ(util::crc32(s), reference_crc32(s)) << "length " << n;
    ASSERT_EQ(util::crc32(s, 0x9E3779B9u), reference_crc32(s, 0x9E3779B9u)) << "length " << n;
  }
}

TEST(Crc32, LongBuffersMatchReference) {
  for (const std::size_t n : {std::size_t{4} << 10, (std::size_t{64} << 10) + 13,
                              (std::size_t{1} << 20) + 7}) {
    const auto data = random_bytes(n, n);
    EXPECT_EQ(util::crc32(std::span<const std::uint8_t>(data)), reference_crc32(data))
        << "length " << n;
  }
}

TEST(Crc32, EveryStartOffsetMatchesReference) {
  const auto data = random_bytes(64 + 1000, 2);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    for (const std::size_t n : {std::size_t{63}, std::size_t{64}, std::size_t{200},
                                std::size_t{1000}}) {
      const std::span<const std::uint8_t> s(data.data() + offset, n);
      ASSERT_EQ(util::crc32(s), reference_crc32(s)) << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32, RandomSeedsMatchReference) {
  const auto data = random_bytes(2048, 3);
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 1984));
    const auto seed = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFll));
    const std::span<const std::uint8_t> s(data.data() + offset, n);
    ASSERT_EQ(util::crc32(s, seed), reference_crc32(s, seed))
        << "offset " << offset << " length " << n << " seed " << seed;
  }
}

}  // namespace
}  // namespace vedliot
