// Self-tests of the benchmark's helpers: the percentile and sample-count
// rule, the output check, span self time and the host-speed reference.
// Exits nonzero after any failed expectation; run with
// `python3 perfbench/run.py --selftest` or ctest in the benchmark's build
// directory.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "host_speed.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentiles() {
  // Nearest rank: the 99th percentile of 1..100 is 99, of 1..1000 is 990.
  EXPECT(percentile(one_to(100), 0.99) == 99.0);
  EXPECT(percentile(one_to(1000), 0.99) == 990.0);
  EXPECT(percentile(one_to(5), 0.5) == 3.0);
  EXPECT(percentile({}, 0.5) == 0.0);
  EXPECT(median({4.0, 1.0, 3.0, 2.0}) == 2.5);

  // Ten samples must lie beyond the reported percentile.
  EXPECT(percentile_reportable(1000, 0.99));   // 10 beyond rank 990
  EXPECT(!percentile_reportable(999, 0.99));   // 9 beyond rank 990
  EXPECT(percentile_reportable(20, 0.5));
  EXPECT(!percentile_reportable(19, 0.5));
  EXPECT(!percentile_reportable(0, 0.5));

  // Distinct samples: the grouped percentile stays within half a group of
  // the nearest-rank one.
  const double p50 = grouped_percentile(one_to(101), 0.5, 1.0);
  EXPECT(p50 >= 50.5 && p50 <= 51.5);
  // A tie: 1 below, 6 at 10, 3 above. The median lies 4 of the 6 into the
  // group [9.5, 10.5): 9.5 + (5 - 1) / 6.
  const std::vector<double> tied = {1, 10, 10, 10, 10, 10, 10, 20, 30, 40};
  EXPECT(percentile(tied, 0.5) == 10.0);
  const double g = grouped_percentile(tied, 0.5, 1.0);
  EXPECT(g > 10.166 && g < 10.167);
  // Moving one sample from above the tie to below moves the grouped
  // figure, where the nearest-rank one would not move.
  const std::vector<double> shifted = {1, 2, 10, 10, 10, 10, 10, 10, 30, 40};
  EXPECT(percentile(shifted, 0.5) == 10.0);
  EXPECT(grouped_percentile(shifted, 0.5, 1.0) < g);
}

CellRun small_run() {
  // A short single-site cell on the simulator: fast, and its counts are a
  // pure function of the seed.
  std::vector<Cell> cells =
      make_cells(Workload::kSingleSite, kDefaultSeed, Scale::kCheck);
  Cell cell = cells.front();
  cell.config.workload.transaction_count = 50;
  Tracer off{false};
  return run_cell(cell, 0, off);
}

void output_check() {
  const CellRun run = small_run();
  Signature expected;
  append_signature(expected, "cell.", {&run});
  EXPECT(!expected.empty());
  EXPECT(failure_of(run).empty());

  // The same run again repeats bit for bit.
  const CellRun rerun = small_run();
  Signature again;
  append_signature(again, "cell.", {&rerun});
  EXPECT(compare(expected, again).empty());

  // One altered count is flagged, by name, with both values.
  CellRun altered = run;
  altered.counts.events += 1;
  Signature actual;
  append_signature(actual, "cell.", {&altered});
  const std::vector<Mismatch> found = compare(expected, actual);
  EXPECT(found.size() == 1);
  if (found.size() == 1) {
    EXPECT(found[0].key == "cell.events");
    EXPECT(found[0].actual == found[0].expected + 1);
    EXPECT(describe(found[0]).find("cell.events") != std::string::npos);
  }

  // A missing value is flagged too.
  Signature shorter(expected.begin(), expected.end() - 1);
  EXPECT(compare(expected, shorter).size() == 1);
  EXPECT(compare(expected, shorter)[0].missing);

  // Signatures survive the JSON round trip the recorded file uses.
  bool ok = false;
  const auto parsed = rtdb::exp::Json::parse(to_json(expected).dump(2));
  EXPECT(parsed.has_value());
  if (parsed) {
    EXPECT(compare(expected, signature_from_json(*parsed, &ok)).empty());
    EXPECT(ok);
  }

  // A violation fails the run even when every count matches.
  CellRun violated = run;
  violated.counts.invariant_violations = 1;
  EXPECT(!failure_of(violated).empty());
}

void span_self_time() {
  Tracer tracer;
  // parent [0, 100) with children [10, 30) and [20, 50) overlapping, and
  // [90, 120) running past the parent's end: covered = [10, 50) + [90, 100).
  const int parent = tracer.add("parent", 0, 100, -1, 0);
  tracer.add("a", 10, 30, parent, 0);
  tracer.add("b", 20, 50, parent, 0);
  const int c = tracer.add("c", 90, 120, parent, 0);
  // A grandchild is covered by its own parent, not counted twice.
  tracer.add("grandchild", 95, 99, c, 0);
  EXPECT(tracer.self_time_ns(parent) == 100 - 40 - 10);
  EXPECT(tracer.self_time_ns(c) == 30 - 4);
  EXPECT(tracer.self_time_ns(parent + 2) == 30);  // "b" has no children

  // Scopes nest by construction order and close in reverse.
  Tracer live;
  {
    auto outer = live.scope("outer", 3);
    { auto inner = live.scope("inner"); }
  }
  EXPECT(live.spans().size() == 2);
  EXPECT(live.spans()[1].parent == 0);
  EXPECT(live.spans()[0].cell == 3);
  EXPECT(live.spans()[0].end_ns >= live.spans()[1].end_ns);
  EXPECT(live.self_time_ns(0) <= live.spans()[0].duration_ns());

  // A disabled tracer records nothing.
  Tracer off{false};
  { auto s = off.scope("x"); EXPECT(s.index() == -1); }
  EXPECT(off.spans().empty());

  // The Chrome export carries one complete event per span.
  const rtdb::exp::Json doc = tracer.chrome_trace();
  const rtdb::exp::Json* events = doc.find("traceEvents");
  EXPECT(events != nullptr && events->size() == tracer.spans().size());
}

void host_reference() {
  // Slowness is the median block time over the nominal one.
  const double nominal = HostReference::kNominalBlockSeconds;
  EXPECT(slowness({}) == 1.0);
  EXPECT(slowness({2 * nominal, nominal, 3 * nominal}) == 2.0);
  EXPECT(slowness({nominal / 2}) == 0.5);

  // A block's work is fixed: two references that ran the same number of
  // blocks computed the same thing.
  HostReference a;
  HostReference b;
  for (int i = 0; i < 3; ++i) {
    a.run_block();
    b.run_block();
  }
  EXPECT(a.checksum() == b.checksum());
  EXPECT(a.checksum() != 0);
}

}  // namespace

int main() {
  percentiles();
  output_check();
  span_self_time();
  host_reference();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
