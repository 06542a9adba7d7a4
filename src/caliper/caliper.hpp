// A Caliper-like performance-introspection library (Boehme et al.,
// SC'16): nested region annotations, per-region aggregation, inclusive
// and exclusive times, and a printable report.
//
// FuncyTuner uses exactly this surface (paper §3.3): per-loop inclusive
// runtimes of instrumented code variants, with <3% annotation overhead.
// The overhead is modeled explicitly: every begin/end event costs
// `overhead_per_event` seconds on the attached clock when the clock is
// virtual (the execution engine advances it), mirroring the cost real
// annotations add to a run.
//
// Regions are dense integer ids. A RegionTable interns names and nested
// paths once; a Caliper aggregates into a flat vector indexed by path
// id, and the slash-joined path view (stats(), report(), to_json()) is
// built only when asked for.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "caliper/clock.hpp"

namespace ft::caliper {

/// Dense id of a region path. A top-level path's id is the id of its
/// name, so a name id is what begin()/end() take.
using RegionId = std::uint32_t;

/// Interns region names and nested paths ("a/b/c") to dense ids. Equal
/// names share one id.
class RegionTable {
 public:
  /// Parent of a top-level path; also "not found" for the find_*s.
  static constexpr RegionId kNone = 0xffffffffu;

  /// Id of `name` (= its top-level path), added if new.
  RegionId intern(std::string_view name);
  /// Id of the path `parent`/`name`, added if new; `name` is a name id.
  RegionId child(RegionId parent, RegionId name);

  /// Lookups that add nothing; kNone when absent.
  [[nodiscard]] RegionId find(std::string_view name) const;
  [[nodiscard]] RegionId find_child(RegionId parent, RegionId name) const;
  [[nodiscard]] RegionId find_path(std::string_view path) const;

  /// kNone for a top-level path.
  [[nodiscard]] RegionId parent(RegionId path) const {
    return nodes_[path].parent;
  }
  /// Name id of a path's leaf (the path itself when top-level).
  [[nodiscard]] RegionId leaf(RegionId path) const {
    return nodes_[path].name;
  }
  [[nodiscard]] const std::string& name(RegionId name) const {
    return names_[nodes_[name].name];
  }
  /// Slash-joined path.
  [[nodiscard]] std::string path(RegionId path) const;

  /// Ids in use (names and paths): every id is below this.
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

 private:
  struct Node {
    RegionId parent = kNone;
    RegionId name = kNone;
  };
  [[nodiscard]] static std::uint64_t child_key(RegionId parent,
                                               RegionId name) noexcept {
    return (static_cast<std::uint64_t>(parent) << 32) | name;
  }

  std::vector<Node> nodes_;
  /// Text of each name, indexed by name id (empty for nested paths).
  std::vector<std::string> names_;
  std::map<std::string, RegionId, std::less<>> by_name_;
  std::unordered_map<std::uint64_t, RegionId> children_;
};

/// Aggregated statistics of one region path ("a/b/c").
struct RegionStats {
  std::uint64_t count = 0;   ///< times the region was entered
  double inclusive = 0.0;    ///< total time inside, children included
  double exclusive = 0.0;    ///< total time minus child-region time
  double min_inclusive = 0.0;  ///< fastest single entry
  double max_inclusive = 0.0;  ///< slowest single entry

  [[nodiscard]] double mean_inclusive() const noexcept {
    return count == 0 ? 0.0 : inclusive / static_cast<double>(count);
  }
};

/// Annotation collector. Single writer; cheap queries.
class Caliper {
 public:
  /// `overhead_per_event` is added to the virtual clock on every
  /// begin/end when `clock` is a VirtualClock (pass nullptr clock to
  /// default to an internal virtual clock). Regions are interned into a
  /// table of the Caliper's own.
  explicit Caliper(Clock* clock = nullptr, double overhead_per_event = 0.0);

  /// As above, starting from the ids of `regions`, which is borrowed and
  /// must outlive the Caliper. It is never modified: a name or path it
  /// lacks is interned into a private copy.
  Caliper(const RegionTable& regions, Clock* clock,
          double overhead_per_event = 0.0);

  Caliper(const Caliper&) = delete;
  Caliper& operator=(const Caliper&) = delete;

  /// Id of a region name (see RegionTable::intern).
  RegionId intern(std::string_view name);

  /// Enters a region. Regions nest; the full path keys aggregation.
  void begin(RegionId name);
  void begin(std::string_view region) { begin(intern(region)); }

  /// Leaves the innermost region. `region` must match it (checked).
  void end(RegionId name);
  void end(std::string_view region);

  /// `rounds` times: leaf regions back to back on the virtual clock (for
  /// each i, the events of begin(names[i]), `seconds[i]` of work,
  /// end(names[i])), then `gap` seconds outside any region. Same overhead
  /// charges and aggregation as begin/end, in one call that keeps the
  /// clock arithmetic in registers. The clock must be a VirtualClock.
  void run_regions(std::span<const RegionId> names,
                   std::span<const double> seconds, int rounds = 1,
                   double gap = 0.0);

  /// True while at least one region is open.
  [[nodiscard]] bool in_region() const noexcept { return !stack_.empty(); }
  [[nodiscard]] std::size_t depth() const noexcept { return stack_.size(); }

  /// All entered regions, keyed by slash-joined path (built per call).
  [[nodiscard]] std::map<std::string, RegionStats> stats() const;

  /// Inclusive time of a path; 0 if never entered.
  [[nodiscard]] double inclusive(RegionId path) const noexcept {
    return path < stats_.size() ? stats_[path].inclusive : 0.0;
  }
  [[nodiscard]] double inclusive(std::string_view path) const;
  /// Entry count of a path; 0 if never entered.
  [[nodiscard]] std::uint64_t count(std::string_view path) const;

  /// Sum of inclusive times over top-level regions whose path has no
  /// slash (used to derive non-loop time as end-to-end minus loops).
  [[nodiscard]] double top_level_inclusive_total() const;

  /// Number of begin+end events processed (overhead accounting).
  [[nodiscard]] std::uint64_t event_count() const noexcept {
    return events_;
  }

  /// Flat report, longest inclusive first (like cali-query's table).
  [[nodiscard]] std::string report() const;

  /// JSON rendering of the aggregation (cali-query -j style): an array
  /// of {path, count, inclusive, exclusive, min, max} objects.
  [[nodiscard]] std::string to_json() const;

  /// Clears all aggregation (open regions must be closed first).
  void reset();

  /// The attached clock (internal one if none was supplied).
  [[nodiscard]] Clock& clock() noexcept { return *clock_; }

 private:
  struct Frame {
    RegionId path = RegionTable::kNone;
    double entry_time = 0.0;
    double child_time = 0.0;
  };

  [[nodiscard]] const RegionTable& regions() const noexcept {
    return *regions_;
  }
  /// The table, copied first when it is still the borrowed one.
  RegionTable& own_regions();
  /// Path id of `name` opened inside the innermost open region.
  RegionId nested_path(RegionId name);
  [[noreturn]] void fail_begin(RegionId name) const;
  [[noreturn]] void fail_run_regions(std::size_t names,
                                     std::size_t seconds) const;
  /// Throws for an end() that does not match the innermost region.
  [[noreturn]] void fail_end(std::string_view name) const;
  [[noreturn]] void fail_end(RegionId name) const;
  [[nodiscard]] double now() const {
    return virtual_clock_ ? virtual_clock_->now() : clock_->now();
  }
  void charge_overhead() {
    ++events_;
    if (charges_) virtual_clock_->advance(overhead_per_event_);
  }
  /// True when `name` is a name id (= a top-level path id).
  [[nodiscard]] bool is_name(RegionId name) const {
    return name < regions_->size() &&
           regions_->parent(name) == RegionTable::kNone;
  }
  /// Adds one completed entry to a region's aggregation.
  static void aggregate(RegionStats& entry, double elapsed,
                        double child_time);

  VirtualClock internal_clock_;
  Clock* clock_;
  /// `clock_` when it is virtual (resolved once), else null.
  VirtualClock* virtual_clock_;
  double overhead_per_event_;
  /// Events advance `virtual_clock_` by `overhead_per_event_`.
  bool charges_;
  std::unique_ptr<RegionTable> owned_regions_;
  const RegionTable* regions_;
  std::vector<Frame> stack_;
  std::vector<RegionStats> stats_;  ///< indexed by path id
  std::uint64_t events_ = 0;
};

/// RAII region guard, mirroring Caliper's CALI_CXX_MARK_SCOPE.
class ScopedRegion {
 public:
  ScopedRegion(Caliper& caliper, std::string_view region)
      : caliper_(caliper), region_(caliper.intern(region)) {
    caliper_.begin(region_);
  }
  ~ScopedRegion() { caliper_.end(region_); }
  ScopedRegion(const ScopedRegion&) = delete;
  ScopedRegion& operator=(const ScopedRegion&) = delete;

 private:
  Caliper& caliper_;
  RegionId region_;
};

}  // namespace ft::caliper
