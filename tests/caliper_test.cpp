// Tests for the Caliper-like instrumentation library: region nesting,
// inclusive/exclusive aggregation, overhead accounting and clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

#include "caliper/caliper.hpp"
#include "caliper/clock.hpp"
#include "support/rng.hpp"

namespace ft::caliper {
namespace {

TEST(VirtualClock, AdvancesExplicitly) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(WallClock, MonotonicAndPositive) {
  WallClock clock;
  const double t0 = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double t1 = clock.now();
  EXPECT_GE(t0, 0.0);
  EXPECT_GT(t1, t0);
}

TEST(Caliper, SingleRegionInclusiveTime) {
  VirtualClock clock;
  Caliper caliper(&clock);
  caliper.begin("loop");
  clock.advance(2.0);
  caliper.end("loop");
  EXPECT_DOUBLE_EQ(caliper.inclusive("loop"), 2.0);
  EXPECT_EQ(caliper.count("loop"), 1u);
}

TEST(Caliper, AggregatesRepeatedEntries) {
  VirtualClock clock;
  Caliper caliper(&clock);
  for (int i = 0; i < 10; ++i) {
    ScopedRegion region(caliper, "step");
    clock.advance(0.5);
  }
  EXPECT_DOUBLE_EQ(caliper.inclusive("step"), 5.0);
  EXPECT_EQ(caliper.count("step"), 10u);
}

TEST(Caliper, NestedRegionsPathKeyed) {
  VirtualClock clock;
  Caliper caliper(&clock);
  caliper.begin("outer");
  clock.advance(1.0);
  caliper.begin("inner");
  clock.advance(2.0);
  caliper.end("inner");
  clock.advance(1.0);
  caliper.end("outer");
  EXPECT_DOUBLE_EQ(caliper.inclusive("outer"), 4.0);
  EXPECT_DOUBLE_EQ(caliper.inclusive("outer/inner"), 2.0);
  EXPECT_DOUBLE_EQ(caliper.inclusive("inner"), 0.0);  // path, not leaf
}

TEST(Caliper, ExclusiveSubtractsChildren) {
  VirtualClock clock;
  Caliper caliper(&clock);
  caliper.begin("outer");
  clock.advance(1.0);
  {
    ScopedRegion inner(caliper, "inner");
    clock.advance(2.0);
  }
  clock.advance(0.5);
  caliper.end("outer");
  const auto& stats = caliper.stats();
  EXPECT_NEAR(stats.at("outer").exclusive, 1.5, 1e-12);
  EXPECT_NEAR(stats.at("outer").inclusive, 3.5, 1e-12);
}

TEST(Caliper, SameNameDifferentParents) {
  VirtualClock clock;
  Caliper caliper(&clock);
  caliper.begin("a");
  {
    ScopedRegion region(caliper, "k");
    clock.advance(1.0);
  }
  caliper.end("a");
  caliper.begin("b");
  {
    ScopedRegion region(caliper, "k");
    clock.advance(2.0);
  }
  caliper.end("b");
  EXPECT_DOUBLE_EQ(caliper.inclusive("a/k"), 1.0);
  EXPECT_DOUBLE_EQ(caliper.inclusive("b/k"), 2.0);
}

TEST(Caliper, MismatchedEndThrows) {
  Caliper caliper;
  caliper.begin("a");
  EXPECT_THROW(caliper.end("b"), std::logic_error);
  // Region is still open and can be closed correctly.
  EXPECT_TRUE(caliper.in_region());
  EXPECT_NO_THROW(caliper.end("a"));
}

TEST(Caliper, EndWithoutBeginThrows) {
  Caliper caliper;
  EXPECT_THROW(caliper.end("x"), std::logic_error);
}

TEST(Caliper, ResetRequiresClosedRegions) {
  Caliper caliper;
  caliper.begin("x");
  EXPECT_THROW(caliper.reset(), std::logic_error);
  caliper.end("x");
  EXPECT_NO_THROW(caliper.reset());
  EXPECT_TRUE(caliper.stats().empty());
  EXPECT_EQ(caliper.event_count(), 0u);
}

TEST(Caliper, OverheadChargedToVirtualClock) {
  VirtualClock clock;
  Caliper caliper(&clock, 0.01);
  caliper.begin("r");
  clock.advance(1.0);
  caliper.end("r");
  // begin+end charged 0.02 total; end's overhead lands outside the
  // region (charged before reading the clock? begin charges before
  // entry timestamp; end charges before the exit timestamp).
  EXPECT_DOUBLE_EQ(clock.now(), 1.02);
  EXPECT_DOUBLE_EQ(caliper.inclusive("r"), 1.01);
  EXPECT_EQ(caliper.event_count(), 2u);
}

TEST(Caliper, OverheadStaysUnderThreePercent) {
  // Paper §3.3: Caliper instrumentation adds < 3% overhead. Simulate a
  // 20 s run with 12 loops x 60 time-steps of annotations at the
  // engine's default 2e-4 s/event.
  VirtualClock clock;
  Caliper caliper(&clock, 2e-4);
  const double loop_seconds = 20.0 / (12 * 60);
  for (int step = 0; step < 60; ++step) {
    for (int l = 0; l < 12; ++l) {
      ScopedRegion region(caliper, "loop" + std::to_string(l));
      clock.advance(loop_seconds);
    }
  }
  EXPECT_LT(clock.now(), 20.0 * 1.03);
  EXPECT_GT(clock.now(), 20.0);
}

TEST(Caliper, TopLevelInclusiveTotal) {
  VirtualClock clock;
  Caliper caliper(&clock);
  {
    ScopedRegion a(caliper, "a");
    clock.advance(1.0);
    ScopedRegion nested(caliper, "n");
    clock.advance(1.0);
  }
  {
    ScopedRegion b(caliper, "b");
    clock.advance(3.0);
  }
  EXPECT_DOUBLE_EQ(caliper.top_level_inclusive_total(), 5.0);
}

TEST(Caliper, ReportSortedByInclusive) {
  VirtualClock clock;
  Caliper caliper(&clock);
  {
    ScopedRegion a(caliper, "small");
    clock.advance(1.0);
  }
  {
    ScopedRegion b(caliper, "big");
    clock.advance(5.0);
  }
  const std::string report = caliper.report();
  EXPECT_LT(report.find("big"), report.find("small"));
}

TEST(Caliper, InternalClockWhenNoneSupplied) {
  Caliper caliper;
  caliper.begin("x");
  caliper.end("x");
  EXPECT_EQ(caliper.count("x"), 1u);
  EXPECT_DOUBLE_EQ(caliper.inclusive("x"), 0.0);  // clock never advanced
}

TEST(Caliper, IdAndStringApisShareRegions) {
  VirtualClock clock;
  Caliper caliper(&clock);
  const RegionId loop = caliper.intern("loop");
  EXPECT_EQ(caliper.intern("loop"), loop);
  caliper.begin(loop);
  clock.advance(1.0);
  caliper.end("loop");
  caliper.begin("loop");
  clock.advance(2.0);
  caliper.end(loop);
  EXPECT_EQ(caliper.count("loop"), 2u);
  EXPECT_DOUBLE_EQ(caliper.inclusive(loop), 3.0);
  EXPECT_THROW(caliper.begin(RegionId{99}), std::out_of_range);
}

TEST(Caliper, RunRegionsNeedsAVirtualClockAndMatchingSpans) {
  WallClock wall;
  Caliper timed(&wall);
  const std::vector<RegionId> ids = {timed.intern("a")};
  const std::vector<double> seconds = {1.0};
  EXPECT_THROW(timed.run_regions(ids, seconds), std::logic_error);

  VirtualClock clock;
  Caliper caliper(&clock);
  const std::vector<RegionId> two = {caliper.intern("a"),
                                     caliper.intern("b")};
  EXPECT_THROW(caliper.run_regions(two, seconds), std::invalid_argument);
  // An unknown id fails before any region runs.
  const std::vector<RegionId> bad = {two[0], RegionId{77}};
  const std::vector<double> times = {1.0, 2.0};
  EXPECT_THROW(caliper.run_regions(bad, times), std::out_of_range);
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_EQ(caliper.count("a"), 0u);
  EXPECT_EQ(caliper.event_count(), 0u);
}

TEST(Caliper, BorrowedTableIsNeverModified) {
  RegionTable regions;
  const RegionId a = regions.intern("a");
  VirtualClock clock;
  Caliper caliper(regions, &clock);
  caliper.begin(a);
  caliper.begin("new");  // nested path and unknown name: private copy
  clock.advance(1.0);
  caliper.end("new");
  caliper.end(a);
  EXPECT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(caliper.inclusive("a/new"), 1.0);
  EXPECT_DOUBLE_EQ(caliper.inclusive(a), 1.0);
}

TEST(RegionTable, PathsShareIdsWithTheirTopLevelName) {
  RegionTable regions;
  const RegionId a = regions.intern("a");
  const RegionId k = regions.intern("k");
  const RegionId ak = regions.child(a, k);
  EXPECT_EQ(regions.child(a, k), ak);
  EXPECT_NE(ak, k);
  EXPECT_EQ(regions.find_path("a"), a);
  EXPECT_EQ(regions.find_path("a/k"), ak);
  EXPECT_EQ(regions.find_path("k/a"), RegionTable::kNone);
  EXPECT_EQ(regions.path(ak), "a/k");
  EXPECT_EQ(regions.leaf(ak), k);
  EXPECT_EQ(regions.parent(ak), a);
}

// ------------------------------------------------- reference aggregation ----

/// Bit-identity oracle for the id-indexed Caliper: aggregation in a
/// std::map keyed by slash-joined path, every event charged to the
/// virtual clock.
class ReferenceCaliper {
 public:
  ReferenceCaliper(VirtualClock* clock, double overhead)
      : clock_(clock), overhead_(overhead) {}

  void begin(const std::string& region) {
    charge();
    Frame frame;
    frame.path = stack_.empty() ? region : stack_.back().path + "/" + region;
    frame.entry_time = clock_->now();
    stack_.push_back(frame);
  }

  void end() {
    Frame frame = stack_.back();
    stack_.pop_back();
    charge();
    const double elapsed = clock_->now() - frame.entry_time;
    RegionStats& entry = stats_[frame.path];
    if (entry.count == 0) {
      entry.min_inclusive = elapsed;
      entry.max_inclusive = elapsed;
    } else {
      entry.min_inclusive = std::min(entry.min_inclusive, elapsed);
      entry.max_inclusive = std::max(entry.max_inclusive, elapsed);
    }
    ++entry.count;
    entry.inclusive += elapsed;
    entry.exclusive += elapsed - frame.child_time;
    if (!stack_.empty()) stack_.back().child_time += elapsed;
  }

  [[nodiscard]] const std::map<std::string, RegionStats>& stats() const {
    return stats_;
  }

  [[nodiscard]] std::string report() const {
    std::vector<std::pair<std::string, RegionStats>> rows(stats_.begin(),
                                                          stats_.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.inclusive != b.second.inclusive)
        return a.second.inclusive > b.second.inclusive;
      return a.first < b.first;
    });
    std::ostringstream oss;
    oss << "path count inclusive exclusive\n";
    for (const auto& [path, entry] : rows) {
      oss << path << ' ' << entry.count << ' ' << entry.inclusive << ' '
          << entry.exclusive << '\n';
    }
    return oss.str();
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream oss;
    oss << "[";
    bool first = true;
    for (const auto& [path, entry] : stats_) {
      if (!first) oss << ",";
      first = false;
      oss << "{\"path\":\"" << path << "\",\"count\":" << entry.count
          << ",\"inclusive\":" << entry.inclusive
          << ",\"exclusive\":" << entry.exclusive
          << ",\"min\":" << entry.min_inclusive
          << ",\"max\":" << entry.max_inclusive << "}";
    }
    oss << "]";
    return oss.str();
  }

 private:
  struct Frame {
    std::string path;
    double entry_time = 0.0;
    double child_time = 0.0;
  };

  void charge() {
    if (overhead_ > 0.0) clock_->advance(overhead_);
  }

  VirtualClock* clock_;
  double overhead_;
  std::vector<Frame> stack_;
  std::map<std::string, RegionStats> stats_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_stats(const RegionStats& got, const RegionStats& want,
                       const std::string& path) {
  EXPECT_EQ(got.count, want.count) << path;
  EXPECT_TRUE(same_bits(got.inclusive, want.inclusive)) << path;
  EXPECT_TRUE(same_bits(got.exclusive, want.exclusive)) << path;
  EXPECT_TRUE(same_bits(got.min_inclusive, want.min_inclusive)) << path;
  EXPECT_TRUE(same_bits(got.max_inclusive, want.max_inclusive)) << path;
}

TEST(CaliperProperty, RandomNestingMatchesPathKeyedReference) {
  // Few names, so leaves repeat under different parents ("a/k", "b/k"),
  // siblings share names ("a/k" twice in one parent) and names nest in
  // themselves ("a/a").
  const std::vector<std::string> names = {"a", "b", "k", "loop"};
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    support::Rng rng(0xca11be7ULL + trial);
    const double overhead = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 1e-3);
    VirtualClock clock;
    VirtualClock reference_clock;
    // Half the trials borrow a pre-interned table, as the engine does.
    RegionTable shared;
    for (std::size_t n = 0; n < names.size(); n += 2) {
      shared.intern(names[n]);
    }
    Caliper caliper = trial % 2 == 0 ? Caliper(shared, &clock, overhead)
                                     : Caliper(&clock, overhead);
    ReferenceCaliper reference(&reference_clock, overhead);

    std::vector<std::string> open;
    std::uint64_t begins = 0;
    const int events = 1 + static_cast<int>(rng.next_below(300));
    for (int e = 0; e < events || !open.empty(); ++e) {
      const bool can_begin = e < events && open.size() < 4;
      if (e < events && rng.bernoulli(0.15)) {
        // Rounds of leaf regions, each round followed by a gap outside
        // any region; top level or nested in the open ones.
        std::vector<std::string> batch;
        std::vector<RegionId> ids;
        std::vector<double> seconds;
        for (std::uint64_t n = rng.next_below(4); n > 0; --n) {
          batch.push_back(names[rng.next_below(names.size())]);
          ids.push_back(caliper.intern(batch.back()));
          seconds.push_back(rng.uniform(0.0, 2.0));
        }
        const int rounds = static_cast<int>(rng.next_below(4));
        const double gap = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
        for (int round = 0; round < rounds; ++round) {
          for (std::size_t i = 0; i < batch.size(); ++i) {
            reference.begin(batch[i]);
            reference_clock.advance(seconds[i]);
            reference.end();
          }
          reference_clock.advance(gap);
        }
        caliper.run_regions(ids, seconds, rounds, gap);
        begins += ids.size() * static_cast<std::uint64_t>(rounds);
      } else if (can_begin && (open.empty() || rng.bernoulli(0.55))) {
        const std::string& name = names[rng.next_below(names.size())];
        if (rng.bernoulli(0.5)) {
          caliper.begin(caliper.intern(name));
        } else {
          caliper.begin(name);
        }
        reference.begin(name);
        open.push_back(name);
        ++begins;
      } else {
        if (rng.bernoulli(0.5)) {
          caliper.end(caliper.intern(open.back()));
        } else {
          caliper.end(open.back());
        }
        reference.end();
        open.pop_back();
      }
      const double step = rng.uniform(0.0, 2.0);
      clock.advance(step);
      reference_clock.advance(step);
    }

    ASSERT_TRUE(same_bits(clock.now(), reference_clock.now()));
    const std::map<std::string, RegionStats> got = caliper.stats();
    ASSERT_EQ(got.size(), reference.stats().size()) << "trial " << trial;
    for (const auto& [path, want] : reference.stats()) {
      ASSERT_EQ(got.count(path), 1u) << path;
      expect_same_stats(got.at(path), want, path);
      EXPECT_TRUE(same_bits(caliper.inclusive(path), want.inclusive));
      EXPECT_EQ(caliper.count(path), want.count);
    }
    EXPECT_EQ(caliper.report(), reference.report()) << "trial " << trial;
    EXPECT_EQ(caliper.to_json(), reference.to_json()) << "trial " << trial;
    EXPECT_EQ(caliper.event_count(), 2 * begins);
  }
}

TEST(Caliper, DepthTracksNesting) {
  Caliper caliper;
  EXPECT_EQ(caliper.depth(), 0u);
  caliper.begin("a");
  caliper.begin("b");
  EXPECT_EQ(caliper.depth(), 2u);
  caliper.end("b");
  caliper.end("a");
  EXPECT_EQ(caliper.depth(), 0u);
  EXPECT_FALSE(caliper.in_region());
}

}  // namespace
}  // namespace ft::caliper
