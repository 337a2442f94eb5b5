// Route checks made apart from the program under test.
//
// The checker keeps its own copy of the topology (a sorted adjacency built
// from the generator's edge list, not from the program's CSR arrays) and its
// own Dijkstra, so a fault in the routing code or in the graph primitives it
// uses cannot also hide the fault from the check. It depends on nothing in
// src/.
#pragma once

#include <cstdint>
#include <vector>

namespace routebench {

using Node = std::uint32_t;

struct Edge {
  Node a = 0;
  Node b = 0;
  double weight = 1.0;
};

/// Undirected weighted edge set with O(log degree) edge lookup.
class EdgeSet {
 public:
  EdgeSet(Node n, const std::vector<Edge>& edges);

  Node num_nodes() const { return n_; }

  /// Weight of the lightest a-b edge (parallel edges are allowed), or a
  /// negative value when a and b are not adjacent.
  double Weight(Node a, Node b) const;

  /// Every neighbor of v with the lightest weight to it, ids ascending.
  struct Arc {
    Node to;
    double weight;
  };
  const Arc* begin(Node v) const { return arcs_.data() + offsets_[v]; }
  const Arc* end(Node v) const { return arcs_.data() + offsets_[v + 1]; }

 private:
  Node n_;
  std::vector<std::uint64_t> offsets_;
  std::vector<Arc> arcs_;
};

/// True shortest distances from `source` (binary-heap Dijkstra);
/// unreachable nodes read +infinity.
std::vector<double> Distances(const EdgeSet& es, Node source);

/// FNV-1a over (n, m, then a, b and the weight's bit pattern of every edge
/// in order): equal hashes mean equal edge lists.
std::uint64_t EdgeListHash(Node n, const std::vector<Edge>& edges);

enum class Verdict {
  kOk,
  kEmpty,
  kWrongSource,
  kWrongTarget,
  kNonEdge,
  kWrongLength,
  kStretchBelowOne,
  kStretchTooHigh,
};

const char* VerdictName(Verdict v);

/// A route answer is valid when its path runs from s to t, every hop is an
/// edge of `es`, and `claimed_length` equals the summed hop weights.
Verdict CheckRoute(const EdgeSet& es, Node s, Node t,
                   const std::vector<Node>& path, double claimed_length);

/// Stretch = claimed_length / true_distance must lie in [1, max_stretch];
/// a zero true distance (s == t) needs a zero-length route.
Verdict CheckStretch(double claimed_length, double true_distance,
                     double max_stretch);

}  // namespace routebench
