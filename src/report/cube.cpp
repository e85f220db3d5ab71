#include "report/cube.hpp"

#include <algorithm>
#include <cmath>

namespace metascope::report {

// --- MetricTree ------------------------------------------------------------

MetricId MetricTree::add(const std::string& name,
                         const std::string& description, MetricId parent) {
  MSC_CHECK(!name.empty(), "metric needs a name");
  MSC_CHECK(!contains(name), "duplicate metric name: " + name);
  MSC_CHECK(!parent.valid() ||
                static_cast<std::size_t>(parent.get()) < defs_.size(),
            "unknown parent metric");
  MetricDef d;
  d.id = MetricId{static_cast<int>(defs_.size())};
  d.name = name;
  d.description = description;
  d.parent = parent;
  defs_.push_back(d);
  children_.emplace_back();
  if (parent.valid())
    children_[static_cast<std::size_t>(parent.get())].push_back(d.id);
  return d.id;
}

const MetricDef& MetricTree::def(MetricId id) const {
  MSC_CHECK(id.valid() && static_cast<std::size_t>(id.get()) < defs_.size(),
            "unknown metric id");
  return defs_[static_cast<std::size_t>(id.get())];
}

MetricId MetricTree::find(const std::string& name) const {
  for (const auto& d : defs_)
    if (d.name == name) return d.id;
  throw Error("unknown metric: " + name);
}

bool MetricTree::contains(const std::string& name) const {
  for (const auto& d : defs_)
    if (d.name == name) return true;
  return false;
}

const std::vector<MetricId>& MetricTree::children(MetricId id) const {
  MSC_CHECK(id.valid() &&
                static_cast<std::size_t>(id.get()) < children_.size(),
            "unknown metric id");
  return children_[static_cast<std::size_t>(id.get())];
}

std::vector<MetricId> MetricTree::roots() const {
  std::vector<MetricId> out;
  for (const auto& d : defs_)
    if (!d.parent.valid()) out.push_back(d.id);
  return out;
}

std::vector<MetricId> MetricTree::preorder() const {
  std::vector<MetricId> out;
  out.reserve(defs_.size());
  std::vector<MetricId> stack = roots();
  std::reverse(stack.begin(), stack.end());
  while (!stack.empty()) {
    const MetricId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    const auto& kids = children(id);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it)
      stack.push_back(*it);
  }
  return out;
}

bool MetricTree::operator==(const MetricTree& other) const {
  if (defs_.size() != other.defs_.size()) return false;
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const auto& a = defs_[i];
    const auto& b = other.defs_[i];
    if (a.name != b.name || a.parent != b.parent) return false;
  }
  return true;
}

// --- CallTree ----------------------------------------------------------------

namespace {
std::uint64_t call_key(CallPathId parent, RegionId region) {
  return (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(parent.get() + 1))
          << 32) |
         static_cast<std::uint32_t>(region.get());
}
}  // namespace

CallPathId CallTree::get_or_add(CallPathId parent, RegionId region) {
  MSC_CHECK(region.valid(), "call path needs a region");
  const auto key = call_key(parent, region);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  CallPathNode n;
  n.id = CallPathId{static_cast<int>(nodes_.size())};
  n.region = region;
  n.parent = parent;
  nodes_.push_back(n);
  children_.emplace_back();
  if (parent.valid())
    children_[static_cast<std::size_t>(parent.get())].push_back(n.id);
  index_.emplace(key, n.id);
  return n.id;
}

const CallPathNode& CallTree::node(CallPathId id) const {
  MSC_CHECK(id.valid() && static_cast<std::size_t>(id.get()) < nodes_.size(),
            "unknown call path id");
  return nodes_[static_cast<std::size_t>(id.get())];
}

const std::vector<CallPathId>& CallTree::children(CallPathId id) const {
  MSC_CHECK(id.valid() &&
                static_cast<std::size_t>(id.get()) < children_.size(),
            "unknown call path id");
  return children_[static_cast<std::size_t>(id.get())];
}

std::vector<CallPathId> CallTree::roots() const {
  std::vector<CallPathId> out;
  for (const auto& n : nodes_)
    if (!n.parent.valid()) out.push_back(n.id);
  return out;
}

std::vector<CallPathId> CallTree::preorder() const {
  std::vector<CallPathId> out;
  out.reserve(nodes_.size());
  std::vector<CallPathId> stack = roots();
  std::reverse(stack.begin(), stack.end());
  while (!stack.empty()) {
    const CallPathId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    const auto& kids = children(id);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it)
      stack.push_back(*it);
  }
  return out;
}

std::string CallTree::path_string(CallPathId id,
                                  const NameTable<RegionId>& regions) const {
  std::vector<std::string> parts;
  CallPathId cur = id;
  while (cur.valid()) {
    const auto& n = node(cur);
    parts.push_back(regions.name(n.region));
    cur = n.parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += "/";
    out += *it;
  }
  return out;
}

bool CallTree::operator==(const CallTree& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].region != other.nodes_[i].region ||
        nodes_[i].parent != other.nodes_[i].parent)
      return false;
  }
  return true;
}

// --- Cube --------------------------------------------------------------------

void Cube::ensure(MetricId m) {
  MSC_CHECK(m.valid() && static_cast<std::size_t>(m.get()) < metrics.size(),
            "unknown metric");
  if (sev_.size() < metrics.size()) sev_.resize(metrics.size());
}

void Cube::add(MetricId m, CallPathId c, Rank r, double seconds) {
  ensure(m);
  MSC_CHECK(c.valid() && static_cast<std::size_t>(c.get()) < calls.size(),
            "unknown call path");
  MSC_CHECK(r >= 0 && r < num_ranks(), "rank out of range");
  auto& row = sev_[static_cast<std::size_t>(m.get())];
  const std::size_t need =
      calls.size() * static_cast<std::size_t>(num_ranks());
  if (row.size() < need) row.resize(need, 0.0);
  row[static_cast<std::size_t>(c.get()) *
          static_cast<std::size_t>(num_ranks()) +
      static_cast<std::size_t>(r)] += seconds;
}

double Cube::get(MetricId m, CallPathId c, Rank r) const {
  if (static_cast<std::size_t>(m.get()) >= sev_.size()) return 0.0;
  const auto& row = sev_[static_cast<std::size_t>(m.get())];
  const std::size_t idx = static_cast<std::size_t>(c.get()) *
                              static_cast<std::size_t>(num_ranks()) +
                          static_cast<std::size_t>(r);
  return idx < row.size() ? row[idx] : 0.0;
}

double Cube::metric_total(MetricId m) const {
  if (static_cast<std::size_t>(m.get()) >= sev_.size()) return 0.0;
  double s = 0.0;
  for (double v : sev_[static_cast<std::size_t>(m.get())]) s += v;
  return s;
}

double Cube::metric_inclusive_total(MetricId m) const {
  double s = metric_total(m);
  for (MetricId kid : metrics.children(m)) s += metric_inclusive_total(kid);
  return s;
}

double Cube::cnode_inclusive(MetricId m, CallPathId c) const {
  double s = 0.0;
  for (Rank r = 0; r < num_ranks(); ++r) s += location_inclusive(m, c, r);
  return s;
}

double Cube::cnode_subtree_inclusive(MetricId m, CallPathId c) const {
  double s = cnode_inclusive(m, c);
  for (CallPathId kid : calls.children(c))
    s += cnode_subtree_inclusive(m, kid);
  return s;
}

double Cube::location_inclusive(MetricId m, CallPathId c, Rank r) const {
  double s = get(m, c, r);
  for (MetricId kid : metrics.children(m))
    s += location_inclusive(kid, c, r);
  return s;
}

double Cube::rank_inclusive_total(MetricId m, Rank r) const {
  double s = 0.0;
  for (std::size_t c = 0; c < calls.size(); ++c)
    s += location_inclusive(m, CallPathId{static_cast<int>(c)}, r);
  return s;
}

double Cube::total_time() const {
  const auto roots = metrics.roots();
  MSC_CHECK(!roots.empty(), "cube has no metrics");
  return metric_inclusive_total(roots.front());
}

void Cube::add_pair_breakdown(MetricId m, MetahostId waiter, MetahostId peer,
                              double seconds) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.get()))
       << 32) |
      (static_cast<std::uint32_t>(waiter.get()) << 16) |
      static_cast<std::uint32_t>(peer.get());
  pair_sev_[key] += seconds;
}

double Cube::pair_breakdown(MetricId m, MetahostId waiter,
                            MetahostId peer) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.get()))
       << 32) |
      (static_cast<std::uint32_t>(waiter.get()) << 16) |
      static_cast<std::uint32_t>(peer.get());
  auto it = pair_sev_.find(key);
  return it == pair_sev_.end() ? 0.0 : it->second;
}

bool Cube::approx_equal(const Cube& other, double tol) const {
  if (!(metrics == other.metrics) || !(calls == other.calls)) return false;
  if (num_ranks() != other.num_ranks()) return false;
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    for (std::size_t c = 0; c < calls.size(); ++c) {
      for (Rank r = 0; r < num_ranks(); ++r) {
        const MetricId mid{static_cast<int>(m)};
        const CallPathId cid{static_cast<int>(c)};
        if (std::abs(get(mid, cid, r) - other.get(mid, cid, r)) > tol)
          return false;
      }
    }
  }
  return true;
}

}  // namespace metascope::report
