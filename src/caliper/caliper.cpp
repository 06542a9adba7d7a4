#include "caliper/caliper.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ft::caliper {

// --- RegionTable -----------------------------------------------------------

RegionId RegionTable::intern(std::string_view name) {
  const RegionId found = find(name);
  if (found != kNone) return found;
  const auto id = static_cast<RegionId>(nodes_.size());
  nodes_.push_back(Node{kNone, id});
  names_.emplace_back(name);
  by_name_.emplace(std::string(name), id);
  return id;
}

RegionId RegionTable::child(RegionId parent, RegionId name) {
  const auto [it, inserted] = children_.try_emplace(
      child_key(parent, name), static_cast<RegionId>(nodes_.size()));
  if (inserted) {
    nodes_.push_back(Node{parent, name});
    names_.emplace_back();
  }
  return it->second;
}

RegionId RegionTable::find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNone : it->second;
}

RegionId RegionTable::find_child(RegionId parent, RegionId name) const {
  const auto it = children_.find(child_key(parent, name));
  return it == children_.end() ? kNone : it->second;
}

RegionId RegionTable::find_path(std::string_view path) const {
  RegionId id = kNone;
  while (true) {
    const std::size_t slash = path.find('/');
    const RegionId name = find(path.substr(0, slash));
    if (name == kNone) return kNone;
    id = id == kNone ? name : find_child(id, name);
    if (id == kNone || slash == std::string_view::npos) return id;
    path.remove_prefix(slash + 1);
  }
}

std::string RegionTable::path(RegionId path) const {
  std::string out = name(path);
  for (RegionId up = parent(path); up != kNone; up = parent(up)) {
    out.insert(0, name(up) + "/");
  }
  return out;
}

// --- Caliper ---------------------------------------------------------------

namespace {

/// What a Caliper without a shared table starts from (copied on the
/// first intern).
const RegionTable& no_regions() {
  static const RegionTable empty;
  return empty;
}

}  // namespace

Caliper::Caliper(Clock* clock, double overhead_per_event)
    : Caliper(no_regions(), clock, overhead_per_event) {}

Caliper::Caliper(const RegionTable& regions, Clock* clock,
                 double overhead_per_event)
    : clock_(clock ? clock : &internal_clock_),
      virtual_clock_(dynamic_cast<VirtualClock*>(clock_)),
      overhead_per_event_(overhead_per_event),
      charges_(virtual_clock_ != nullptr && overhead_per_event > 0.0),
      regions_(&regions),
      stats_(regions.size()) {}

RegionTable& Caliper::own_regions() {
  if (!owned_regions_) {
    owned_regions_ = std::make_unique<RegionTable>(*regions_);
    regions_ = owned_regions_.get();
  }
  return *owned_regions_;
}

RegionId Caliper::intern(std::string_view name) {
  const RegionId found = regions().find(name);
  return found != RegionTable::kNone ? found : own_regions().intern(name);
}

void Caliper::begin(RegionId name) {
  if (!is_name(name)) fail_begin(name);
  const RegionId path = stack_.empty() ? name : nested_path(name);
  charge_overhead();
  stack_.push_back(Frame{path, now(), 0.0});
}

void Caliper::end(RegionId name) {
  if (stack_.empty() || name >= regions().size() ||
      regions().leaf(stack_.back().path) != name) {
    fail_end(name);
  }
  const Frame frame = stack_.back();
  stack_.pop_back();
  charge_overhead();
  const double elapsed = now() - frame.entry_time;
  if (frame.path >= stats_.size()) stats_.resize(regions().size());
  aggregate(stats_[frame.path], elapsed, frame.child_time);
  if (!stack_.empty()) stack_.back().child_time += elapsed;
}

void Caliper::aggregate(RegionStats& entry, double elapsed,
                        double child_time) {
  if (entry.count == 0) {
    entry.min_inclusive = elapsed;
    entry.max_inclusive = elapsed;
  } else {
    entry.min_inclusive = std::min(entry.min_inclusive, elapsed);
    entry.max_inclusive = std::max(entry.max_inclusive, elapsed);
  }
  ++entry.count;
  entry.inclusive += elapsed;
  entry.exclusive += elapsed - child_time;
}

RegionId Caliper::nested_path(RegionId name) {
  const RegionId parent = stack_.back().path;
  const RegionId path = regions().find_child(parent, name);
  return path != RegionTable::kNone ? path : own_regions().child(parent, name);
}

void Caliper::fail_begin(RegionId name) const {
  throw std::out_of_range("caliper: begin() with unknown region id " +
                          std::to_string(name));
}

void Caliper::fail_end(RegionId name) const {
  if (name >= regions().size()) {
    throw std::out_of_range("caliper: end() with unknown region id " +
                            std::to_string(name));
  }
  fail_end(regions().name(name));
}

void Caliper::fail_end(std::string_view name) const {
  if (stack_.empty()) {
    throw std::logic_error("caliper: end('" + std::string(name) +
                           "') with no open region");
  }
  throw std::logic_error("caliper: mismatched end('" + std::string(name) +
                         "'), open region is '" +
                         regions().name(stack_.back().path) + "'");
}

void Caliper::run_regions(std::span<const RegionId> names,
                          std::span<const double> seconds, int rounds,
                          double gap) {
  if (virtual_clock_ == nullptr || names.size() != seconds.size()) {
    fail_run_regions(names.size(), seconds.size());
  }
  for (const RegionId name : names) {
    if (!is_name(name)) fail_begin(name);  // before any event
  }
  if (!stack_.empty()) {  // nested regions: the plain event sequence
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < names.size(); ++i) {
        begin(names[i]);
        virtual_clock_->advance(seconds[i]);
        end(names[i]);
      }
      virtual_clock_->advance(gap);
    }
    return;
  }
  // Top level: each path id is its name id, so the loop makes no call
  // that could force the clock value out of its register.
  if (stats_.size() < regions_->size()) stats_.resize(regions_->size());
  double t = virtual_clock_->now();
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (charges_) t += overhead_per_event_;  // begin
      const double entry_time = t;
      t += seconds[i];
      if (charges_) t += overhead_per_event_;  // end
      aggregate(stats_[names[i]], t - entry_time, 0.0);
    }
    t += gap;
    events_ += 2 * names.size();
  }
  virtual_clock_->set(t);
}

void Caliper::fail_run_regions(std::size_t names, std::size_t seconds) const {
  if (virtual_clock_ == nullptr) {
    throw std::logic_error("caliper: run_regions() needs a virtual clock");
  }
  throw std::invalid_argument("caliper: run_regions() got " +
                              std::to_string(names) + " names and " +
                              std::to_string(seconds) + " times");
}

void Caliper::end(std::string_view region) {
  const RegionId name = regions().find(region);
  // A name never interned cannot be the open region.
  if (name == RegionTable::kNone) fail_end(region);
  end(name);
}

std::map<std::string, RegionStats> Caliper::stats() const {
  std::map<std::string, RegionStats> view;
  for (RegionId id = 0; id < stats_.size(); ++id) {
    if (stats_[id].count > 0) view.emplace(regions().path(id), stats_[id]);
  }
  return view;
}

double Caliper::inclusive(std::string_view path) const {
  return inclusive(regions().find_path(path));  // kNone is out of range
}

std::uint64_t Caliper::count(std::string_view path) const {
  const RegionId id = regions().find_path(path);
  return id < stats_.size() ? stats_[id].count : 0;
}

double Caliper::top_level_inclusive_total() const {
  // Summed in path order, as the path-keyed aggregation always was.
  double total = 0.0;
  for (const auto& [path, entry] : stats()) {
    if (path.find('/') == std::string::npos) total += entry.inclusive;
  }
  return total;
}

std::string Caliper::report() const {
  const std::map<std::string, RegionStats> view = stats();
  std::vector<std::pair<std::string, RegionStats>> rows(view.begin(),
                                                        view.end());
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

std::string Caliper::to_json() const {
  std::ostringstream oss;
  oss << "[";
  bool first = true;
  for (const auto& [path, entry] : stats()) {
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

void Caliper::reset() {
  if (!stack_.empty()) {
    throw std::logic_error("caliper: reset() while regions are open");
  }
  std::fill(stats_.begin(), stats_.end(), RegionStats{});
  events_ = 0;
}

}  // namespace ft::caliper
