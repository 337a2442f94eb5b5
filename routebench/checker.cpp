#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

namespace routebench {

namespace {

// Route lengths are sums of the same doubles in possibly another order.
constexpr double kRelTolerance = 1e-9;

bool Close(double a, double b) {
  return std::fabs(a - b) <= kRelTolerance * std::max(1.0, std::fabs(b));
}

}  // namespace

EdgeSet::EdgeSet(Node n, const std::vector<Edge>& edges)
    : n_(n), offsets_(static_cast<std::size_t>(n) + 1, 0) {
  std::vector<std::pair<Node, Arc>> all;
  all.reserve(2 * edges.size());
  for (const Edge& e : edges) {
    if (e.a == e.b || e.a >= n || e.b >= n) continue;
    all.push_back({e.a, Arc{e.b, e.weight}});
    all.push_back({e.b, Arc{e.a, e.weight}});
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first < y.first;
    if (x.second.to != y.second.to) return x.second.to < y.second.to;
    return x.second.weight < y.second.weight;
  });
  // Of parallel arcs keep the lightest, which sorts first.
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& [from, arc] = all[i];
    if (i > 0 && all[i - 1].first == from && all[i - 1].second.to == arc.to) {
      continue;
    }
    arcs_.push_back(arc);
    ++offsets_[from + 1];
  }
  for (Node v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
}

double EdgeSet::Weight(Node a, Node b) const {
  if (a >= n_ || b >= n_) return -1;
  const Arc* lo = begin(a);
  const Arc* hi = end(a);
  const Arc* it = std::lower_bound(
      lo, hi, b, [](const Arc& arc, Node x) { return arc.to < x; });
  return it != hi && it->to == b ? it->weight : -1;
}

std::vector<double> Distances(const EdgeSet& es, Node source) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(es.num_nodes(), inf);
  using Item = std::pair<double, Node>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const EdgeSet::Arc* a = es.begin(v); a != es.end(v); ++a) {
      const double nd = d + a->weight;
      if (nd < dist[a->to]) {
        dist[a->to] = nd;
        heap.push({nd, a->to});
      }
    }
  }
  return dist;
}

std::uint64_t EdgeListHash(Node n, const std::vector<Edge>& edges) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(n);
  mix(edges.size());
  for (const Edge& e : edges) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.weight, sizeof bits);
    mix(e.a);
    mix(e.b);
    mix(bits);
  }
  return h;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kEmpty: return "empty path";
    case Verdict::kWrongSource: return "path does not start at s";
    case Verdict::kWrongTarget: return "path does not end at t";
    case Verdict::kNonEdge: return "hop is not an edge";
    case Verdict::kWrongLength: return "claimed length != summed weights";
    case Verdict::kStretchBelowOne: return "stretch below 1";
    case Verdict::kStretchTooHigh: return "stretch above the bound";
  }
  return "?";
}

Verdict CheckRoute(const EdgeSet& es, Node s, Node t,
                   const std::vector<Node>& path, double claimed_length) {
  if (path.empty()) return Verdict::kEmpty;
  if (path.front() != s) return Verdict::kWrongSource;
  if (path.back() != t) return Verdict::kWrongTarget;
  double length = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double w = es.Weight(path[i], path[i + 1]);
    if (w < 0) return Verdict::kNonEdge;
    length += w;
  }
  return Close(claimed_length, length) ? Verdict::kOk : Verdict::kWrongLength;
}

Verdict CheckStretch(double claimed_length, double true_distance,
                     double max_stretch) {
  if (true_distance == 0) {
    return claimed_length == 0 ? Verdict::kOk : Verdict::kStretchTooHigh;
  }
  const double stretch = claimed_length / true_distance;
  if (stretch < 1 - kRelTolerance) return Verdict::kStretchBelowOne;
  if (stretch > max_stretch * (1 + kRelTolerance)) {
    return Verdict::kStretchTooHigh;
  }
  return Verdict::kOk;
}

}  // namespace routebench
