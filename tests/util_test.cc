#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sqlfacil/util/crc32.h"
#include "sqlfacil/util/env.h"
#include "sqlfacil/util/latency_histogram.h"
#include "sqlfacil/util/random.h"
#include "sqlfacil/util/stats.h"
#include "sqlfacil/util/status.h"
#include "sqlfacil/util/string_util.h"
#include "sqlfacil/util/table_printer.h"

namespace sqlfacil {
namespace {

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320. Shares no
/// code with util/crc32.cc: the oracle for both of its paths.
uint32_t BitwiseCrc32(uint32_t crc, const unsigned char* p, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBitwiseReference) {
  // Lengths below and across the 64-byte folding threshold, and around a
  // page's 4092 checksummed bytes, at every offset within 16 bytes.
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  for (size_t len = 4080; len <= 4100; ++len) lengths.push_back(len);
  Rng rng(20261020);
  std::vector<unsigned char> buf(4100 + 15);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.NextUint64(256));

  using CrcUpdate = uint32_t (*)(uint32_t, const void*, size_t);
  const std::pair<const char*, CrcUpdate> paths[] = {
      {"dispatched", &Crc32Update}, {"portable", &Crc32UpdatePortable}};
  for (const auto& [name, update] : paths) {
    SCOPED_TRACE(name);
    EXPECT_EQ(update(0, "123456789", 9), 0xCBF43926u);
    for (size_t len : lengths) {
      for (size_t off = 0; off < 16; ++off) {
        const auto init = static_cast<uint32_t>(rng.Next());
        ASSERT_EQ(update(init, buf.data() + off, len),
                  BitwiseCrc32(init, buf.data() + off, len))
            << "length " << len << ", offset " << off;
      }
    }
    // An incremental chain equals one pass, wherever it is split.
    const uint32_t whole = BitwiseCrc32(0, buf.data(), 300);
    for (size_t split = 0; split <= 300; ++split) {
      ASSERT_EQ(update(update(0, buf.data(), split), buf.data() + split,
                       300 - split),
                whole)
          << "split at " << split;
    }
  }
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "PARSE_ERROR: bad token");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r(Status::NotFound("no such table"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextUint64InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextUint64(17), 17u);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0.0, ss = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(5.0, 2.0);
    sum += x;
    ss += x * x;
  }
  const double mean = sum / n;
  const double var = ss / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ZipfSkewsTowardSmallRanks) {
  Rng rng(13);
  int rank0 = 0, rank_high = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const uint64_t r = rng.Zipf(1000, 1.1);
    EXPECT_LT(r, 1000u);
    if (r == 0) ++rank0;
    if (r >= 500) ++rank_high;
  }
  EXPECT_GT(rank0, rank_high);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(13);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) low += (rng.Zipf(10, 0.0) < 5);
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(19);
  auto perm = rng.Permutation(100);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, SummarizeBasics) {
  Summary s = Summarize({1, 2, 2, 3, 10});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.6);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.mode, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

TEST(StatsTest, SummarizeEmpty) {
  Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10.0);
}

TEST(StatsTest, BoxStatsQuartiles) {
  BoxStats b = ComputeBoxStats({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.q1, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 4.0);
  EXPECT_DOUBLE_EQ(b.mean, 3.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> ny = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, ny), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {2, 4, 6};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(StatsTest, LogHistogramCountsAllValues) {
  std::vector<double> v = {0, 1, 5, 10, 100, 1000, 10000};
  auto buckets = LogHistogram(v, 8);
  size_t total = 0;
  for (const auto& b : buckets) total += b.count;
  EXPECT_EQ(total, v.size());
  EXPECT_FALSE(RenderHistogram(buckets).empty());
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToLowerAscii("SeLeCt"), "select");
  EXPECT_EQ(ToUpperAscii("select"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("FROM", "from"));
  EXPECT_FALSE(EqualsIgnoreCase("FROM", "form"));
}

TEST(StringUtilTest, SplitAndJoin) {
  auto pieces = SplitAndTrim("a, b , ,c", ",");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
  EXPECT_EQ(Join(pieces, "-"), "a-b-c");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(Fmt4(0.12345), "0.1235");  // printf rounds half up
  EXPECT_EQ(FmtN(1.5, 1), "1.5");
  EXPECT_EQ(FmtCount(618053), "618,053");
  EXPECT_EQ(FmtCount(42), "42");
  EXPECT_EQ(FmtCount(1000), "1,000");
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Model", "Loss"});
  t.AddRow({"ccnn", "0.1106"});
  t.AddRow({"baseline", "0.5951"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Model "), std::string::npos);
  EXPECT_NE(s.find("| ccnn "), std::string::npos);
  EXPECT_NE(s.find("0.5951"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_FALSE(t.ToString().empty());
}

// ---------------------------------------------------------------------------
// Env knobs
// ---------------------------------------------------------------------------

TEST(EnvTest, DefaultsWhenUnset) {
  unsetenv("SQLFACIL_SCALE");
  unsetenv("SQLFACIL_EPOCHS");
  unsetenv("SQLFACIL_SEED");
  EXPECT_DOUBLE_EQ(GetScaleFromEnv(), 1.0);
  EXPECT_EQ(GetEpochsFromEnv(3), 3);
  EXPECT_EQ(GetSeedFromEnv(77), 77u);
}

TEST(EnvTest, GetEnvBytesParsesSizeSuffixes) {
  const char* kName = "SQLFACIL_TEST_BYTES";
  unsetenv(kName);
  EXPECT_EQ(GetEnvBytes(kName, 123), 123u);  // unset -> fallback

  setenv(kName, "4096", 1);
  EXPECT_EQ(GetEnvBytes(kName, 0), 4096u);  // plain integer is bytes
  setenv(kName, "0", 1);
  EXPECT_EQ(GetEnvBytes(kName, 7), 0u);  // zero is a valid parse

  setenv(kName, "64K", 1);
  EXPECT_EQ(GetEnvBytes(kName, 0), 64u << 10);
  setenv(kName, "64M", 1);
  EXPECT_EQ(GetEnvBytes(kName, 0), 64u << 20);
  setenv(kName, "1G", 1);
  EXPECT_EQ(GetEnvBytes(kName, 0), 1ull << 30);
  setenv(kName, "2g", 1);  // case-insensitive
  EXPECT_EQ(GetEnvBytes(kName, 0), 2ull << 30);
  setenv(kName, "512KB", 1);  // optional trailing B
  EXPECT_EQ(GetEnvBytes(kName, 0), 512u << 10);
  setenv(kName, "8mb", 1);
  EXPECT_EQ(GetEnvBytes(kName, 0), 8u << 20);

  // Malformed / negative inputs fall back.
  for (const char* bad : {"", "junk", "-4", "12Q", "64MX", "64MBs"}) {
    setenv(kName, bad, 1);
    EXPECT_EQ(GetEnvBytes(kName, 999), 999u) << "input '" << bad << "'";
  }
  unsetenv(kName);
}

TEST(EnvTest, SimdLevelKnob) {
  const char* kName = "SQLFACIL_SIMD";
  const char* saved = std::getenv(kName);
  const std::string restore = saved != nullptr ? saved : "";
  unsetenv(kName);
  EXPECT_EQ(GetSimdFromEnv(), -1);  // the best level the CPU has
  for (const auto& [value, level] : {std::pair{"0", 0}, {"1", 1}}) {
    setenv(kName, value, 1);
    EXPECT_EQ(GetSimdFromEnv(), level) << value;
  }
  // No cap above AVX2: unset already runs the best level the CPU has.
  for (const char* bad : {"2", "3", "-1", "avx512", ""}) {
    setenv(kName, bad, 1);
    EXPECT_EQ(GetSimdFromEnv(), -1) << "input '" << bad << "'";
  }
  if (saved != nullptr) {
    setenv(kName, restore.c_str(), 1);
  } else {
    unsetenv(kName);
  }
}

TEST(EnvTest, BufferPoolPagesBareVsSuffixed) {
  unsetenv("SQLFACIL_BUFFER_POOL_PAGES");
  EXPECT_EQ(GetBufferPoolPagesFromEnv(2048), 2048u);

  setenv("SQLFACIL_BUFFER_POOL_PAGES", "64", 1);
  EXPECT_EQ(GetBufferPoolPagesFromEnv(2048), 64u);  // bare = page count

  // Size-suffixed = byte budget, converted to 4 KiB pages.
  setenv("SQLFACIL_BUFFER_POOL_PAGES", "64M", 1);
  EXPECT_EQ(GetBufferPoolPagesFromEnv(2048), (64u << 20) / 4096);
  setenv("SQLFACIL_BUFFER_POOL_PAGES", "8K", 1);
  EXPECT_EQ(GetBufferPoolPagesFromEnv(2048), 2u);

  // Sub-page budgets and garbage fall back.
  setenv("SQLFACIL_BUFFER_POOL_PAGES", "1K", 1);
  EXPECT_EQ(GetBufferPoolPagesFromEnv(2048), 2048u);
  setenv("SQLFACIL_BUFFER_POOL_PAGES", "none", 1);
  EXPECT_EQ(GetBufferPoolPagesFromEnv(2048), 2048u);
  unsetenv("SQLFACIL_BUFFER_POOL_PAGES");
}

TEST(EnvTest, StorageModeAndDataDir) {
  unsetenv("SQLFACIL_STORAGE");
  EXPECT_EQ(GetStorageModeFromEnv(), 0);
  setenv("SQLFACIL_STORAGE", "disk", 1);
  EXPECT_EQ(GetStorageModeFromEnv(), 1);
  setenv("SQLFACIL_STORAGE", "mem", 1);
  EXPECT_EQ(GetStorageModeFromEnv(), 0);
  unsetenv("SQLFACIL_STORAGE");

  setenv("SQLFACIL_DATA_DIR", "/nonexistent/override", 1);
  EXPECT_EQ(GetDataDirFromEnv(), "/nonexistent/override");
  unsetenv("SQLFACIL_DATA_DIR");
  EXPECT_FALSE(GetDataDirFromEnv().empty());
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0u);
  EXPECT_EQ(h.Percentile(99.9), 0u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
  // Values below 2*kSubBuckets are identity-bucketed, so percentiles over
  // small samples are exact rank statistics.
  EXPECT_EQ(h.Percentile(50.0), 5u);
  EXPECT_EQ(h.Percentile(100.0), 10u);
  EXPECT_EQ(h.Percentile(0.0), 1u);
}

TEST(LatencyHistogramTest, BucketEdgesBoundTheirValues) {
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform draws cover every magnitude the bucketing handles.
    const int shift = static_cast<int>(rng.NextUint64(63));
    const uint64_t value = (uint64_t{1} << shift) | rng.NextUint64(1u << 20);
    const size_t bucket = LatencyHistogram::BucketIndex(value);
    ASSERT_LT(bucket, LatencyHistogram::kNumBuckets);
    const uint64_t edge = LatencyHistogram::BucketUpperEdge(bucket);
    ASSERT_GE(edge, value) << "value " << value;
    ASSERT_EQ(LatencyHistogram::BucketIndex(edge), bucket)
        << "edge " << edge << " escapes bucket of " << value;
    // The bucket's relative width stays within the advertised ~3%
    // resolution at every magnitude.
    ASSERT_LE(static_cast<double>(edge - value),
              static_cast<double>(value) / LatencyHistogram::kSubBuckets + 1.0)
        << "value " << value;
  }
}

TEST(LatencyHistogramTest, BucketIndexIsMonotonic) {
  size_t last = 0;
  for (uint64_t v = 0; v < 4096; ++v) {
    const size_t bucket = LatencyHistogram::BucketIndex(v);
    ASSERT_GE(bucket, last) << "value " << v;
    last = bucket;
  }
}

TEST(LatencyHistogramTest, PercentilesWithinResolution) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  // Conservative upper-edge reporting: never under the true rank value,
  // never more than one bucket width (~3.2%) above it.
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = p / 100.0 * 100000.0;
    const double got = static_cast<double>(h.Percentile(p));
    EXPECT_GE(got, exact - 1.0) << "p" << p;
    EXPECT_LE(got, exact * 1.04) << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100.0), 100000u);
}

TEST(LatencyHistogramTest, PercentileClampsToObservedMax) {
  LatencyHistogram h;
  h.Record(1000000);  // alone in its bucket; upper edge is above the value
  EXPECT_EQ(h.Percentile(99.9), 1000000u);
  EXPECT_EQ(h.max(), 1000000u);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextUint64(1u << 22) + 1;
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.Percentile(p), all.Percentile(p)) << "p" << p;
  }
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(123);
  h.Record(456789);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(99.0), 0u);
  h.Record(42);
  EXPECT_EQ(h.Percentile(50.0), 42u);
}

TEST(LatencyHistogramTest, MicrosecondHelpers) {
  LatencyHistogram h;
  h.Record(1500);  // 1.5us in nanos
  EXPECT_NEAR(h.PercentileUs(50.0), 1.5, 1.5 / 32 + 0.001);
  EXPECT_NEAR(h.MeanUs(), 1.5, 1e-9);
}

TEST(EnvTest, ReadsValues) {
  setenv("SQLFACIL_SCALE", "2.5", 1);
  setenv("SQLFACIL_EPOCHS", "9", 1);
  setenv("SQLFACIL_SEED", "1234", 1);
  EXPECT_DOUBLE_EQ(GetScaleFromEnv(), 2.5);
  EXPECT_EQ(GetEpochsFromEnv(3), 9);
  EXPECT_EQ(GetSeedFromEnv(77), 1234u);
  unsetenv("SQLFACIL_SCALE");
  unsetenv("SQLFACIL_EPOCHS");
  unsetenv("SQLFACIL_SEED");
}

}  // namespace
}  // namespace sqlfacil
