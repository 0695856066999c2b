// Checks the ledger arithmetic: percentiles and their sample counts, the
// quiet quantile over rounds, span self time, stage coverage against a
// tolerance, ratios printed with their bases, and the result line. Exits
// non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "ledger_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool Contains(const std::string& s, const std::string& part) {
  return s.find(part) != std::string::npos;
}

void TestQuantiles() {
  using perfbench::Quantile;
  EXPECT(Quantile({}, 0.5) == 0.0);
  EXPECT(Near(Quantile({7.0}, 0.9), 7.0));
  // Type 7: rank q*(n-1), linear between neighbours; input order is free.
  EXPECT(Near(Quantile({4, 1, 3, 2}, 0.5), 2.5));
  EXPECT(Near(Quantile({1, 2, 3, 4, 5}, 0.9), 4.6));
  EXPECT(Near(Quantile({1, 2, 3, 4, 5}, 0.0), 1.0));
  EXPECT(Near(Quantile({1, 2, 3, 4, 5}, 1.0), 5.0));
  EXPECT(Near(perfbench::Median({9, 1, 5}), 5.0));

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const perfbench::Percentiles p = perfbench::Summarize(hundred);
  EXPECT(p.n == 100);
  EXPECT(Near(p.p50, 50.5));
  EXPECT(Near(p.p90, 90.1));
  EXPECT(Near(p.p99, 99.01));
}

void TestQuietQuantile() {
  // Ten rounds, two of them fast: a time takes the 10th percentile over
  // rounds, a rate the 90th, and both stay with the fast rounds.
  const std::vector<double> wall = {15, 15, 10, 15, 15, 15, 10.5, 15, 15, 15};
  EXPECT(Near(perfbench::QuietTime(wall), 10.45));
  std::vector<double> rate;
  for (double w : wall) rate.push_back(100.0 / w);
  EXPECT(Near(perfbench::QuietRate(rate), 100.0 / 10.5 * 0.9 + 10.0 * 0.1));
  EXPECT(perfbench::QuietTime({}) == 0.0);
}

void TestSampleCounts() {
  using perfbench::SamplesBeyond;
  EXPECT(SamplesBeyond(100, 0.90) == 10);
  EXPECT(SamplesBeyond(99, 0.90) == 9);
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(0, 0.5) == 0);

  std::vector<double> small(50, 1.0);
  const std::string thin = perfbench::FormatPercentiles(
      "lat", perfbench::Summarize(small), "us");
  EXPECT(Contains(thin, "n=50"));
  EXPECT(Contains(thin, "beyond p90=5"));
  EXPECT(Contains(thin, "(thin)"));
  std::vector<double> big(1000, 1.0);
  const std::string full = perfbench::FormatPercentiles(
      "lat", perfbench::Summarize(big), "us");
  EXPECT(Contains(full, "n=1000"));
  EXPECT(Contains(full, "beyond p99=10"));
  EXPECT(!Contains(full, "(thin)"));
}

void TestSelfTime() {
  perfbench::Trace t;
  const int root = t.Add("root", 0, 100);
  const int a = t.Add("a", 10, 40, root);
  t.Add("b", 30, 60, root);   // overlaps a: the union counts once
  t.Add("c", 90, 120, root);  // sticks out of root: clipped to 90..100
  t.Add("a.child", 15, 25, a);
  const std::vector<int64_t> self = perfbench::SelfTimes(t.spans());
  EXPECT(self[root] == 100 - (60 - 10) - (100 - 90));
  EXPECT(self[a] == 30 - 10);
  EXPECT(self[2] == 30);  // b has no children
  EXPECT(perfbench::CoveredNs(0, 10, {{2, 4}, {3, 6}, {8, 20}}) == 4 + 2);
  EXPECT(perfbench::CoveredNs(0, 10, {}) == 0);
}

void TestStageCoverage() {
  perfbench::Trace t;
  const int root = t.Add("round", 0, 1000);
  t.Add("load", 0, 600, root);
  t.Add("read", 610, 990, root);
  t.Add("nested", 700, 800, 2);  // a grandchild does not count as a stage
  const perfbench::Coverage c = perfbench::StageCoverage(t.spans(), root);
  EXPECT(c.total_ns == 1000);
  EXPECT(c.covered_ns == 980);
  EXPECT(c.residual_ns == 20);
  EXPECT(Near(c.residual_share(), 0.02));
  EXPECT(c.Within(0.02));
  EXPECT(!c.Within(0.019));
  EXPECT(perfbench::StageCoverage(t.spans(), 7).total_ns == 0);
}

void TestRatios() {
  EXPECT(perfbench::Ratio(1, 0) == 0.0);
  EXPECT(Near(perfbench::Ratio(3, 4), 0.75));
  const std::string s =
      perfbench::FormatRatio("hit_ratio", 3, "hits", 4, "lookups");
  EXPECT(Contains(s, "hit_ratio=0.75"));
  EXPECT(Contains(s, "base: hits=3 lookups=4"));
}

void TestResultJson() {
  const std::string j = perfbench::ResultJson(
      true, 12, 0,
      {{"p50_us", 1.25, "us"}, {"setup_s", 0.1, "s"}, {"bad", NAN, "x"}});
  EXPECT(j ==
         "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
         "{\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \"setup_s\": "
         "{\"value\": 0.10000000000000001, \"unit\": \"s\"}, \"bad\": "
         "{\"value\": 0, \"unit\": \"x\"}}}");
}

}  // namespace

int main() {
  TestQuantiles();
  TestQuietQuantile();
  TestSampleCounts();
  TestSelfTime();
  TestStageCoverage();
  TestRatios();
  TestResultJson();
  if (failures > 0) {
    std::fprintf(stderr, "ledger_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("ledger_test: all checks passed\n");
  return 0;
}
