// Shows that the route checker rejects each kind of corrupted answer the
// harness must catch, and accepts a correct one. Exits non-zero if any
// expectation does not hold.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "checker.h"

namespace routebench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

void ExpectVerdict(Verdict got, Verdict want, const char* what) {
  if (got != want) {
    std::printf("  got \"%s\", want \"%s\"\n", VerdictName(got),
                VerdictName(want));
  }
  Expect(got == want, what);
}

// A ring 0-1-...-19-0 with unit weights, plus a heavy chord 0-10 and a
// lighter parallel copy of edge 3-4.
std::vector<Edge> RingEdges() {
  std::vector<Edge> edges;
  for (Node v = 0; v < 20; ++v) edges.push_back({v, (v + 1) % 20, 1.0});
  edges.push_back({0, 10, 2.5});
  edges.push_back({3, 4, 0.5});
  return edges;
}

void Run() {
  const std::vector<Edge> edges = RingEdges();
  const EdgeSet es(20, edges);

  Expect(es.Weight(0, 1) == 1.0 && es.Weight(1, 0) == 1.0,
         "edge lookup is symmetric");
  Expect(es.Weight(3, 4) == 0.5, "parallel edges read their lightest weight");
  Expect(es.Weight(0, 2) < 0, "a non-edge has no weight");

  const std::vector<double> dist = Distances(es, 0);
  Expect(dist[0] == 0 && dist[1] == 1 && dist[10] == 2.5 && dist[5] == 4.5,
         "own Dijkstra gives true distances (chord and light edge used)");

  ExpectVerdict(CheckRoute(es, 0, 3, {0, 1, 2, 3}, 3.0), Verdict::kOk,
                "a correct route is accepted");
  ExpectVerdict(CheckRoute(es, 0, 3, {0, 2, 3}, 2.0), Verdict::kNonEdge,
                "a walk with a non-edge hop is rejected");
  ExpectVerdict(CheckRoute(es, 0, 3, {0, 1, 2, 3}, 2.0),
                Verdict::kWrongLength,
                "a route with a wrong claimed length is rejected");
  ExpectVerdict(CheckRoute(es, 0, 4, {0, 1, 2, 3}, 3.0),
                Verdict::kWrongTarget,
                "a path ending at the wrong node is rejected");
  ExpectVerdict(CheckRoute(es, 1, 3, {0, 1, 2, 3}, 3.0),
                Verdict::kWrongSource,
                "a path starting at the wrong node is rejected");
  ExpectVerdict(CheckRoute(es, 0, 3, {}, 0.0), Verdict::kEmpty,
                "an empty (failed) route is rejected");

  // 0 -> 19 the long way round: every hop is an edge and the length is
  // right (18 unit hops + the 0.5 edge), but the true distance is 1.
  std::vector<Node> long_way;
  for (Node v = 0; v < 20; ++v) long_way.push_back(v);
  ExpectVerdict(CheckRoute(es, 0, 19, long_way, 18.5), Verdict::kOk,
                "the long way round is a valid walk");
  ExpectVerdict(CheckStretch(18.5, dist[19], 7.0), Verdict::kStretchTooHigh,
                "a first packet with stretch above 7 is rejected");
  ExpectVerdict(CheckStretch(4.0, dist[19], 3.0),
                Verdict::kStretchTooHigh,
                "a later packet with stretch above 3 is rejected");
  ExpectVerdict(CheckStretch(2.0, 2.5, 7.0), Verdict::kStretchBelowOne,
                "a route shorter than the true distance is rejected");
  ExpectVerdict(CheckStretch(7.0, 1.0, 7.0), Verdict::kOk,
                "stretch exactly at the bound is accepted");

  std::vector<Edge> moved = edges;
  moved[5].weight = 1.0 + 1e-12;
  Expect(EdgeListHash(20, edges) == EdgeListHash(20, RingEdges()) &&
             EdgeListHash(20, edges) != EdgeListHash(20, moved) &&
             EdgeListHash(20, edges) != EdgeListHash(21, edges),
         "edge-list hash separates a one-ulp weight change and a node count");
}

}  // namespace
}  // namespace routebench

int main() {
  routebench::Run();
  if (routebench::failures != 0) {
    std::printf("%d checker expectation(s) failed\n", routebench::failures);
    return EXIT_FAILURE;
  }
  std::printf("all checker expectations hold\n");
  return EXIT_SUCCESS;
}
