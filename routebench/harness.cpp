// routebench harness: the program's real job, routing on flat names, under
// closed-loop load.
//
// One run converges Disco on a workload's graph through the public api
// surface (MakeSchemes + PrewarmFor), then serves the workload's query
// stream twice from one client thread per core: first packets
// (RouteFirst, destination known only by its flat name), then later
// packets (RouteLater). Each client sends its next query only when the
// previous route returned. Every answer is checked by checker.h, which
// shares no code with the program. The last line of stdout is one JSON
// object: end-to-end metrics from an untraced run (--trace=0), or
// per-layer metrics from a traced run (--trace=1) whose spans wrap the
// harness's own calls into each layer.
//
//   routebench_harness run --workload=<name> --seed=<n> --seconds=<s>
//                          --trace=<0|1> --work=<dir>
//   routebench_harness prepare --workload=warm-restart --work=<dir>
//
// `prepare` publishes warm-restart's graph snapshot and landmark trees to
// <dir>/store in a process of its own, so the timed set-up of `run` is a
// fresh process's restart from the store.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/schemes.h"
#include "checker.h"
#include "core/disco.h"
#include "core/shortcut.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shortest_path.h"
#include "obs/trace.h"
#include "obs/tracefile.h"
#include "store/artifact_store.h"
#include "store/tree_codec.h"

namespace routebench {
namespace {

using Clock = std::chrono::steady_clock;
using disco::Graph;
using disco::NodeId;
using disco::Route;

const Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "routebench: %s\n", what.c_str());
  std::exit(1);
}

// ------------------------------------------------------------- workloads

enum class StoreUse {
  kNone,      // no artifact store: trees are computed in RAM
  kFresh,     // a fresh, empty store: setup writes every tree to it
  kPrepared,  // graph snapshot and trees published by `prepare`
};

struct WorkloadSpec {
  const char* name;
  bool router;          // RouterLevelInternet(n); else ConnectedGnm(n, 4n)
  NodeId n;
  double zipf;          // destination skew; 0 = uniform
  bool flash;           // last quarter of the stream: half its queries go
                        // to an 8-node hot set
  StoreUse store;
  std::size_t stretch_dests;  // per sampled source (kStretchSources)
  std::size_t probe_calls;    // batch size of the µs-scale layer probes
};

// Vicinity cache: 4096 entries; landmark-tree cache: 2048 trees.
// resident-zipf fits both; spill-uniform has twice as many nodes as the
// vicinity cache; warm-restart is the store/graph-io read path.
constexpr WorkloadSpec kWorkloads[] = {
    {"resident-zipf", false, 2048, 0.99, true, StoreUse::kNone, 32, 2000},
    {"spill-uniform", false, 8400, 0.0, false, StoreUse::kFresh, 8, 300},
    {"warm-restart", true, 16384, 0.99, false, StoreUse::kPrepared, 8, 200},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The topology, its landmarks and the destination popularity ranking
// define a workload and stay fixed; --seed draws the query stream and the
// stretch sample. (With seed-dependent topologies the 4-client throughput
// moved ~15% from seed to seed, more than a regression bound can absorb.)
constexpr std::uint64_t kTopologySeed = 1;
constexpr std::size_t kStreamLength = 1 << 16;
constexpr std::size_t kHotSet = 8;
constexpr std::size_t kStretchSources = 64;
// Queries per client re-answered by a single client after each phase.
constexpr std::size_t kDeterminismQueries = 16;
constexpr std::size_t kWindows = 10;
constexpr double kFirstStretchBound = 7.0;  // Theorem 1
constexpr double kLaterStretchBound = 3.0;  // after the handshake
constexpr unsigned kProbeThreads = 4;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;

// The harness's own generator (SplitMix64), so the query stream does not
// move when the program's RNG changes.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

std::vector<NodeId> Permutation(NodeId n, SplitMix& rng) {
  std::vector<NodeId> perm(n);
  for (NodeId v = 0; v < n; ++v) perm[v] = v;
  for (NodeId i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  return perm;
}

// Destination popularity: Zipf(s) over a seeded ranking of the nodes
// (uniform when s = 0), plus a flash-crowd hot set from a second ranking.
class Destinations {
 public:
  Destinations(NodeId n, double zipf, std::uint64_t seed) {
    SplitMix rng(seed);
    rank_ = Permutation(n, rng);
    const std::vector<NodeId> second = Permutation(n, rng);
    hot_.assign(second.begin(), second.begin() + std::min<NodeId>(n, kHotSet));
    cdf_.resize(n);
    double total = 0;
    for (NodeId r = 0; r < n; ++r) {
      total += std::pow(static_cast<double>(r) + 1.0, -zipf);
      cdf_[r] = total;
    }
  }
  NodeId Draw(SplitMix& rng) const {
    const double u = rng.Unit() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t r = std::min<std::size_t>(it - cdf_.begin(),
                                                cdf_.size() - 1);
    return rank_[r];
  }
  NodeId DrawHot(SplitMix& rng) const { return hot_[rng.Below(hot_.size())]; }

 private:
  std::vector<NodeId> rank_;
  std::vector<double> cdf_;
  std::vector<NodeId> hot_;
};

struct Query {
  NodeId s;
  NodeId t;
};

// Sources uniform, destinations by the workload's popularity; s != t.
std::vector<Query> MakeStream(const WorkloadSpec& w, const Destinations& dest,
                              NodeId n, std::uint64_t seed) {
  SplitMix rng(seed ^ 0x5EED5EEDull);
  std::vector<Query> stream(kStreamLength);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const bool flash = w.flash && i >= stream.size() * 3 / 4;
    Query q{static_cast<NodeId>(rng.Below(n)), 0};
    do {
      q.t = flash && rng.Unit() < 0.5 ? dest.DrawHot(rng) : dest.Draw(rng);
    } while (q.t == q.s);
    stream[i] = q;
  }
  return stream;
}

Graph Generate(const WorkloadSpec& w) {
  return w.router ? disco::RouterLevelInternet(w.n, kTopologySeed)
                  : disco::ConnectedGnm(w.n, 4ull * w.n, kTopologySeed);
}

std::vector<Edge> EdgeList(const Graph& g) {
  std::vector<Edge> edges(g.num_edges());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const disco::WeightedEdge we = g.edge(static_cast<disco::EdgeId>(e));
    edges[e] = {we.a, we.b, we.weight};
  }
  return edges;
}

disco::store::ArtifactKey GraphKey(const WorkloadSpec& w) {
  disco::store::ArtifactKey key;
  key.kind = "graph";
  key.graph = "routebench-input";
  key.scope = std::string(w.name) + ";n=" + std::to_string(w.n) +
              ";seed=" + std::to_string(kTopologySeed);
  key.version = 2;
  return key;
}

// Zero-copy view of the graph snapshot stored under `key`.
std::optional<Graph> ViewStoredGraph(const disco::store::ArtifactStore& st,
                                     const disco::store::ArtifactKey& key) {
  std::shared_ptr<disco::store::ArtifactReader> reader = st.Open(key);
  if (reader == nullptr || reader->frame_count() < 1) return std::nullopt;
  const auto frame = reader->frame(0);
  return disco::ViewGraphSnapshot(
      reader, disco::Span<const char>(
                  reinterpret_cast<const char*>(frame.data()), frame.size()));
}

disco::Params MakeParams() {
  disco::Params p;
  p.seed = kTopologySeed;
  return p;
}

// ------------------------------------------------------------ measuring

// Per-client latency histogram: exact below 128 ns, then 128 linear
// sub-buckets per power of two (under 1% wide), interpolated by rank
// inside a bucket. Fixed size, so memory does not grow with throughput.
class LatencyLog {
 public:
  LatencyLog() : counts_(kSub + (64 - kSubBits) * kSub, 0) {}

  void Add(std::uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  void Merge(const LatencyLog& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  double QuantileUs(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * static_cast<double>(total_);
    double below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (below + c >= rank) {
        double lo = 0;
        double width = 0;
        Bounds(i, &lo, &width);
        return (lo + width * std::max(0.0, rank - below) / c) / 1e3;
      }
      below += c;
    }
    return 0;
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t Index(std::uint64_t ns) {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int shift = (63 - __builtin_clzll(ns)) - kSubBits;
    return static_cast<std::size_t>(kSub + shift * kSub +
                                    ((ns >> shift) - kSub));
  }
  static void Bounds(std::size_t i, double* lo, double* width) {
    if (i < kSub) {
      *lo = static_cast<double>(i);
      *width = 1;
      return;
    }
    const std::size_t shift = (i - kSub) / kSub;
    const std::size_t sub = (i - kSub) % kSub;
    *lo = std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(shift));
    *width = std::ldexp(1.0, static_cast<int>(shift));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

std::uint64_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

// The cores this process may run on; one client serves from each.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) cpus.push_back(i);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      char* end = nullptr;
      const double kb = std::strtod(line.c_str() + 6, &end);
      return end == line.c_str() + 6 ? 0 : kb / 1024.0;
    }
  }
  return 0;
}

// --------------------------------------------------------------- checks

// Everything a route answer is checked against, built from the harness's
// own edge set: true distances from a fixed sample of sources.
class Checks {
 public:
  Checks(const EdgeSet& es, const std::vector<NodeId>& sample)
      : es_(es), sample_index_(es.num_nodes(), -1) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sample_index_[sample[i]] = static_cast<int>(i);
      dist_.push_back(Distances(es, sample[i]));
    }
  }

  // Validity for every answer; stretch too when s is a sampled source.
  Verdict Check(NodeId s, NodeId t, const Route& r, double bound) const {
    const Verdict v = CheckRoute(es_, s, t, r.path, r.length);
    if (v != Verdict::kOk || sample_index_[s] < 0) return v;
    return CheckStretch(r.length, TrueDistance(s, t), bound);
  }

  double TrueDistance(NodeId s, NodeId t) const {
    return dist_[sample_index_[s]][t];
  }

 private:
  const EdgeSet& es_;
  std::vector<int> sample_index_;
  std::vector<std::vector<double>> dist_;
};

std::atomic<int> g_reports{0};

void ReportFailure(const char* what, NodeId s, NodeId t, const char* why) {
  if (g_reports.fetch_add(1) < 10) {
    std::fprintf(stderr, "routebench: %s %u -> %u failed: %s\n", what, s, t,
                 why);
  }
}

// -------------------------------------------------------------- serving

struct PhaseStats {
  std::uint64_t routes = 0;
  std::uint64_t failed = 0;
  std::uint64_t hops = 0;
  double qps = 0;  // over the whole phase
  LatencyLog latency;
  std::vector<double> window_qps;  // routes/s in each of kWindows slices
  // Per client, its first kDeterminismQueries answers in order.
  std::vector<std::vector<std::vector<NodeId>>> replay_paths;
};

Route Answer(disco::api::RoutingScheme& scheme, bool first, const Query& q) {
  return first ? scheme.RouteFirst(q.s, q.t) : scheme.RouteLater(q.s, q.t);
}

// Client c answers stream queries c, c + clients, ... (wrapping).
std::size_t StreamIndex(unsigned c, std::uint64_t k, unsigned clients) {
  return static_cast<std::size_t>((c + k * clients) % kStreamLength);
}

// Closed loop: one client thread per entry of `cpus`, each sending its
// next query only after its previous route returned, for `seconds`.
PhaseStats Serve(disco::api::RoutingScheme& scheme, bool first,
                 const std::vector<Query>& stream, const Checks& checks,
                 double seconds, const std::vector<int>& cpus) {
  const unsigned clients = static_cast<unsigned>(cpus.size());
  struct Client {
    std::uint64_t routes = 0;
    std::uint64_t failed = 0;
    std::uint64_t hops = 0;
    LatencyLog latency;
    std::vector<std::vector<NodeId>> replay_paths;
    std::vector<std::uint64_t> window_routes;
    Clock::time_point end;
  };
  const double window_ns = seconds * 1e9 / kWindows;
  const double bound = first ? kFirstStretchBound : kLaterStretchBound;
  const char* what = first ? "first packet" : "later packet";
  std::vector<Client> per(clients);
  Clock::time_point start;
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Built on this thread and copied out at the end, so clients share
      // no cache line while they serve.
      Client st;
      st.window_routes.assign(kWindows, 0);
      // One client per core, pinned: unpinned clients migrating among
      // the idle pool threads' cores made later-packet throughput swing
      // ~13% run to run on a 4-core VM, pinned ~3%.
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[c], &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t k = 0;; ++k) {
        if (k >= kDeterminismQueries && stop.load(std::memory_order_acquire)) {
          break;
        }
        const Query& q = stream[StreamIndex(c, k, clients)];
        const Clock::time_point t0 = Clock::now();
        Route r = Answer(scheme, first, q);
        const Clock::time_point t1 = Clock::now();
        st.latency.Add(ElapsedNs(t0, t1));
        ++st.routes;
        const auto window = static_cast<std::size_t>(
            static_cast<double>(ElapsedNs(start, t1)) / window_ns);
        if (window < kWindows) ++st.window_routes[window];
        const Verdict v = checks.Check(q.s, q.t, r, bound);
        if (v != Verdict::kOk) {
          ++st.failed;
          ReportFailure(what, q.s, q.t, VerdictName(v));
        }
        if (!r.path.empty()) st.hops += r.path.size() - 1;
        if (k < kDeterminismQueries) st.replay_paths.push_back(std::move(r.path));
      }
      st.end = Clock::now();
      per[c] = std::move(st);
    });
  }
  start = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  PhaseStats total;
  Clock::time_point last = start;
  for (Client& st : per) {
    total.routes += st.routes;
    total.failed += st.failed;
    total.hops += st.hops;
    total.latency.Merge(st.latency);
    total.replay_paths.push_back(std::move(st.replay_paths));
    last = std::max(last, st.end);
  }
  total.window_qps.assign(kWindows, 0);
  for (std::size_t i = 0; i < kWindows; ++i) {
    for (const Client& st : per) {
      total.window_qps[i] += static_cast<double>(st.window_routes[i]) /
                             (window_ns / 1e9);
    }
  }
  total.qps = static_cast<double>(total.routes) /
              std::chrono::duration<double>(last - start).count();
  return total;
}

struct Tally {
  std::uint64_t routes = 0;
  std::uint64_t failed = 0;
};

// The API's determinism guarantee: one client re-answering the first
// queries of every client must get the paths the concurrent pass got.
Tally Replay(disco::api::RoutingScheme& scheme, bool first,
             const std::vector<Query>& stream, const PhaseStats& st) {
  const unsigned clients = static_cast<unsigned>(st.replay_paths.size());
  Tally out;
  for (unsigned c = 0; c < clients; ++c) {
    for (std::size_t k = 0; k < st.replay_paths[c].size(); ++k) {
      const Query& q = stream[StreamIndex(c, k, clients)];
      ++out.routes;
      if (Answer(scheme, first, q).path != st.replay_paths[c][k]) {
        ++out.failed;
        ReportFailure("single-client replay", q.s, q.t, "different path");
      }
    }
  }
  return out;
}

struct StretchSample : Tally {
  double first_mean = 0;
  double later_mean = 0;
};

// For each sampled source, w.stretch_dests destinations drawn like the
// stream's; first and later packet of each pair, from a single client.
StretchSample SampleStretch(disco::api::RoutingScheme& scheme,
                            const WorkloadSpec& w, const Destinations& dest,
                            const Checks& checks,
                            const std::vector<NodeId>& sources,
                            std::uint64_t seed) {
  SplitMix rng(seed ^ 0x57E7C4ull);
  StretchSample out;
  for (const NodeId s : sources) {
    for (std::size_t j = 0; j < w.stretch_dests; ++j) {
      NodeId t = s;
      while (t == s) t = dest.Draw(rng);
      const Route first = scheme.RouteFirst(s, t);
      const Route later = scheme.RouteLater(s, t);
      out.routes += 2;
      Verdict vf = checks.Check(s, t, first, kFirstStretchBound);
      Verdict vl = checks.Check(s, t, later, kLaterStretchBound);
      if (vl == Verdict::kOk && later.length > first.length * (1 + 1e-9)) {
        vl = Verdict::kStretchTooHigh;  // later must not exceed first
      }
      if (vf != Verdict::kOk) {
        ReportFailure("sampled first", s, t, VerdictName(vf));
      }
      if (vl != Verdict::kOk) {
        ReportFailure("sampled later", s, t, VerdictName(vl));
      }
      out.failed += (vf != Verdict::kOk) + (vl != Verdict::kOk);
      const double d = checks.TrueDistance(s, t);
      out.first_mean += first.length / d;
      out.later_mean += later.length / d;
    }
  }
  const double pairs = static_cast<double>(out.routes / 2);
  out.first_mean /= pairs;
  out.later_mean /= pairs;
  return out;
}

// ------------------------------------------------------------- tracing

// Calls made under each harness span name; a per-layer metric is the
// spans' total self time divided by these calls.
std::map<std::string, std::uint64_t> g_calls;

// Harness spans carry this prefix. Self times are computed over harness
// spans only, so spans the program records inside itself neither count
// nor shift the layer metrics.
constexpr char kSpanPrefix[] = "rb:";

#define RB_CONCAT2(a, b) a##b
#define RB_CONCAT(a, b) RB_CONCAT2(a, b)
#define RB_SPAN(name, calls)             \
  g_calls[std::string(name)] += (calls); \
  disco::obs::Span RB_CONCAT(rb_span_, __LINE__)("rb:" name)

// Self time per harness span name, from the flushed trace.
std::map<std::string, double> SelfTimesNs(const disco::obs::TraceDoc& doc) {
  struct Open {
    std::string name;
    std::uint64_t begin;
    std::uint64_t children = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Open>> stacks;
  std::map<std::string, double> self;
  const std::size_t plen = std::strlen(kSpanPrefix);
  for (const disco::obs::TraceEvent& e : doc.events) {
    if (e.name.compare(0, plen, kSpanPrefix) != 0) continue;
    std::vector<Open>& stack = stacks[{e.pid, e.tid}];
    if (e.phase == 'B') {
      stack.push_back({e.name.substr(plen), e.ts_ns});
    } else if (e.phase == 'E' && !stack.empty()) {
      const Open top = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts_ns - top.begin;
      self[top.name] += static_cast<double>(dur - std::min(dur, top.children));
      if (!stack.empty()) stack.back().children += dur;
    }
  }
  return self;
}

// ---------------------------------------------------------------- probes

// Runs `fn(i)` for i in [0, calls) on kProbeThreads threads at once, each
// inside its own span; returns the sum of what the calls returned.
template <class Fn>
std::size_t ProbeConcurrently(const char* span, std::size_t calls,
                              const Fn& fn) {
  std::atomic<unsigned> ready{0};
  std::atomic<std::size_t> sum{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kProbeThreads; ++c) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kProbeThreads) std::this_thread::yield();
      std::size_t local = 0;  // no shared write inside the timed loop
      {
        disco::obs::Span sp(span);
        for (std::size_t i = 0; i < calls; ++i) local += fn(i);
      }
      sum += local;
    });
  }
  for (std::thread& t : threads) t.join();
  return sum.load();
}

struct StoreBytes {
  std::uint64_t written = 0;  // encoded tree frames handed to Put
  std::uint64_t read = 0;     // object bytes mapped by Open
};

// Times each layer's public calls from the harness, one span per batch
// (self time / calls = per-call cost). Only in traced runs.
StoreBytes RunLayerProbes(const WorkloadSpec& w, const std::string& work,
                          const Graph& g, disco::api::RoutingScheme& scheme,
                          const std::vector<Query>& stream) {
  auto* ds = dynamic_cast<disco::api::DiscoScheme*>(&scheme);
  if (ds == nullptr) Die("scheme \"disco\" is not a DiscoScheme");
  disco::Disco& disco = ds->impl();
  disco::NdDisco& nd = disco.nd();
  const std::size_t calls = w.probe_calls;
  // Disjoint slices of the stream, so one probe does not warm the caches
  // for the next.
  const Query* plan_q = stream.data() + 1 * calls;
  const Query* first_q = stream.data() + 2 * calls;
  const Query* later_q = stream.data() + 3 * calls;
  const std::vector<NodeId>& landmarks = nd.landmarks().landmarks;

  // graph: truncated Dijkstra at the workload's vicinity size.
  {
    constexpr std::size_t kNodes = 64;
    RB_SPAN("graph.knearest", kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto near = disco::KNearest(g, stream[i].s, nd.vicinity_size());
      if (near.empty()) Die("KNearest returned nothing");
    }
  }

  // graph + store: landmark Dijkstra, EncodeTree + Put, Open + DecodeTree,
  // against a scratch store.
  disco::store::ArtifactStore probe_store(work + "/probe-store");
  if (!probe_store.ok()) Die("probe store: " + probe_store.error());
  const std::size_t trees = std::min<std::size_t>(16, landmarks.size());
  std::vector<disco::ShortestPathTree> computed(trees);
  for (std::size_t i = 0; i < trees; ++i) {
    RB_SPAN("graph.dijkstra", 1);
    computed[i] = disco::Dijkstra(g, landmarks[i]);
  }
  StoreBytes bytes;
  const auto tree_key = [](NodeId l) {
    disco::store::ArtifactKey key;
    key.kind = "ltree-probe";
    key.graph = "routebench-input";
    key.scope = "root=" + std::to_string(l);
    key.version = disco::store::kTreeCodecVersion;
    return key;
  };
  for (std::size_t i = 0; i < trees; ++i) {
    RB_SPAN("store.tree_put", 1);
    const std::string frame = disco::store::EncodeTree(g, computed[i]);
    if (frame.empty() || !probe_store.Put(tree_key(landmarks[i]), {frame})) {
      Die("tree put failed");
    }
    bytes.written += frame.size();
  }
  for (std::size_t i = 0; i < trees; ++i) {
    disco::ShortestPathTree decoded;
    {
      RB_SPAN("store.tree_decode", 1);
      const auto reader = probe_store.Open(tree_key(landmarks[i]));
      if (reader == nullptr || reader->frame_count() < 1 ||
          !disco::store::DecodeTree(g, reader->frame(0).data(),
                                    reader->frame(0).size(), &decoded)) {
        Die("tree decode failed");
      }
      bytes.read += reader->file_bytes();
    }
    if (decoded.dist != computed[i].dist ||
        decoded.parent != computed[i].parent) {
      Die("decoded tree differs from the computed one");
    }
  }

  // graph/io: zero-copy view of a stored snapshot, unless setup did one.
  if (g_calls["graph.view_load"] == 0) {
    const disco::store::ArtifactKey key = GraphKey(w);
    if (!probe_store.Put(key, {disco::GraphSnapshotBytes(g)})) {
      Die("snapshot put failed");
    }
    RB_SPAN("graph.view_load", 1);
    const auto view = ViewStoredGraph(probe_store, key);
    if (!view || view->num_edges() != g.num_edges()) Die("snapshot view");
  }

  // routing: cache hits on resident entries, 1 thread then 4 at once.
  std::vector<NodeId> resident;
  for (std::size_t i = 0; i < 64; ++i) resident.push_back(stream[i].s);
  for (const NodeId v : resident) nd.vicinity(v);
  for (const NodeId l : landmarks) nd.LandmarkTree(l);
  // Long enough that the four threads of the 4t probes overlap.
  constexpr std::size_t gets = std::size_t{1} << 17;
  std::size_t sink = 0;  // results are summed so no call is optimized out
  {
    RB_SPAN("routing.vicinity_get", gets);
    for (std::size_t i = 0; i < gets; ++i) {
      sink += nd.vicinity(resident[i % resident.size()])->size();
    }
  }
  {
    RB_SPAN("routing.ltree_get", gets);
    for (std::size_t i = 0; i < gets; ++i) {
      sink += nd.LandmarkTree(landmarks[i % landmarks.size()])->source;
    }
  }
  g_calls["routing.vicinity_get_4t"] += kProbeThreads * gets;
  sink += ProbeConcurrently(
      "rb:routing.vicinity_get_4t", gets, [&](std::size_t i) {
        return nd.vicinity(resident[i % resident.size()])->size();
      });
  g_calls["routing.ltree_get_4t"] += kProbeThreads * gets;
  sink += ProbeConcurrently(
      "rb:routing.ltree_get_4t", gets, [&](std::size_t i) {
        return std::size_t{
            nd.LandmarkTree(landmarks[i % landmarks.size()])->source};
      });

  // core: sloppy-group contact search on a source vicinity.
  {
    const auto vic = nd.vicinity(resident[0]);
    const std::size_t n = 16 * calls;
    RB_SPAN("core.find_contact", n);
    for (std::size_t i = 0; i < n; ++i) {
      sink += disco.groups().FindContact(*vic, stream[i % stream.size()].t)
                  .value_or(0);
    }
  }
  // core: first-packet plans, then shortcutting of those plans with nd's
  // oracles (its reverse plans are timed as plans, not as shortcutting).
  std::vector<std::vector<NodeId>> plans(calls);
  {
    RB_SPAN("core.plan", calls);
    for (std::size_t i = 0; i < calls; ++i) {
      plans[i] = nd.FirstPacketPlan(plan_q[i].s, plan_q[i].t);
    }
  }
  {
    const disco::DirectPathFn direct = nd.MakeDirectOracle();
    const disco::VicinityFn vicinity = nd.MakeVicinityOracle();
    RB_SPAN("core.shortcut", calls);
    for (std::size_t i = 0; i < calls; ++i) {
      const Query q = plan_q[i];
      const auto path = disco::ApplyShortcutMode(
          disco::Shortcut::kNoPathKnowledge, g, std::move(plans[i]),
          [&nd, q] {
            RB_SPAN("core.plan", 1);
            return nd.FirstPacketPlan(q.t, q.s);
          },
          direct, vicinity);
      if (path.empty() || path.front() != q.s || path.back() != q.t) {
        Die("shortcut path does not run from s to t");
      }
    }
  }

  // api: route calls from a single client.
  {
    RB_SPAN("api.disco_first_1t", calls);
    for (std::size_t i = 0; i < calls; ++i) {
      sink += scheme.RouteFirst(first_q[i].s, first_q[i].t).path.size();
    }
  }
  {
    RB_SPAN("api.disco_later_1t", calls);
    for (std::size_t i = 0; i < calls; ++i) {
      sink += scheme.RouteLater(later_q[i].s, later_q[i].t).path.size();
    }
  }
  if (sink == 0) Die("probes produced nothing");
  return bytes;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// -------------------------------------------------------------- commands

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: routebench_harness run|prepare --workload=...");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') Die("bad --seed");
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) Die("bad --seconds");
    } else if (const char* v = value("--trace=")) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Die("--trace must be 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (const char* v = value("--work=")) {
      a.work = v;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (a.work.empty()) Die("--work=<dir> is required");
  return a;
}

std::unique_ptr<disco::api::RoutingScheme> BuildDisco(const Graph& g) {
  auto schemes = disco::api::MakeSchemes({"disco"}, g, MakeParams());
  if (schemes.size() != 1) Die("scheme \"disco\" is not registered");
  return std::move(schemes[0]);
}

void OpenStore(const std::string& dir) {
  std::string err;
  if (!disco::store::OpenProcessStore(dir, &err)) Die("store: " + err);
}

int Prepare(const Args& a, const WorkloadSpec& w) {
  if (w.store != StoreUse::kPrepared) Die("nothing to prepare");
  OpenStore(a.work + "/store");
  const Graph g = Generate(w);
  if (!disco::store::ProcessStore()->Put(GraphKey(w),
                                         {disco::GraphSnapshotBytes(g)})) {
    Die("snapshot put failed");
  }
  auto scheme = BuildDisco(g);
  auto& nd = dynamic_cast<disco::api::DiscoScheme&>(*scheme).impl().nd();
  nd.PrewarmLandmarkTrees();
  for (const NodeId l : nd.landmarks().landmarks) nd.LandmarkTree(l);
  std::fprintf(stderr, "routebench: prepared n=%u m=%zu trees=%zu\n",
               g.num_nodes(), g.num_edges(), nd.landmarks().count());
  return 0;
}

int Run(const Args& a, const WorkloadSpec& w) {
  if (a.trace) {
    disco::obs::ConfigureTracing(a.work + "/trace.json", kTraceCapacity);
  }
  auto& counters = disco::store::Counters();

  // ---- set-up: graph generated or loaded, Disco built, PrewarmFor done.
  std::optional<Graph> graph;
  if (w.store != StoreUse::kNone) OpenStore(a.work + "/store");
  if (w.store == StoreUse::kPrepared) {
    RB_SPAN("graph.view_load", 1);
    graph = ViewStoredGraph(*disco::store::ProcessStore(), GraphKey(w));
    if (!graph) Die("no loadable graph snapshot in the store; run prepare");
  } else {
    RB_SPAN("graph.generate", 1);
    graph = Generate(w);
  }
  Graph& g = *graph;
  const std::uint64_t dijkstras0 = counters.tree_dijkstras.Value();
  const std::uint64_t store_hits0 = counters.tree_store_hits.Value();
  std::unique_ptr<disco::api::RoutingScheme> scheme;
  {
    RB_SPAN("core.disco_build", 1);
    scheme = BuildDisco(g);
  }
  {
    RB_SPAN("routing.prewarm", 1);
    scheme->PrewarmFor(scheme->AllNodes());
  }
  const double setup_s = SecondsSince(g_process_start);
  const std::uint64_t setup_dijkstras =
      counters.tree_dijkstras.Value() - dijkstras0;
  const std::uint64_t setup_store_hits =
      counters.tree_store_hits.Value() - store_hits0;

  // ---- checker inputs, from the harness's own edge set.
  const NodeId n = g.num_nodes();
  const std::vector<Edge> edges = EdgeList(g);
  const EdgeSet es(n, edges);
  SplitMix sample_rng(a.seed ^ 0x5A3B1Eull);
  std::vector<NodeId> sources = Permutation(n, sample_rng);
  sources.resize(std::min<std::size_t>(kStretchSources, n));
  const Checks checks(es, sources);
  const Destinations dest(n, w.zipf, kTopologySeed);
  const std::vector<Query> stream = MakeStream(w, dest, n, a.seed);

  // ---- serving: an untimed warm-up, then first packets, then later
  // packets. Right after PrewarmFor the vicinity cache holds the first 4096
  // node ids; on the spilling workloads first-packet throughput then fell
  // 30-50% over the next 5-10 s as the cache turned over, so the timed
  // phases start after half the run's time spent serving first packets.
  const std::vector<int> cpus = AllowedCpus();
  const PhaseStats warmup =
      Serve(*scheme, true, stream, checks, a.seconds / 2, cpus);
  const std::uint64_t ram0 = counters.tree_ram_hits.Value();
  const std::uint64_t lookups0 = ram0 + counters.tree_store_hits.Value() +
                                 counters.tree_dijkstras.Value();
  const PhaseStats first =
      Serve(*scheme, true, stream, checks, a.seconds / 2, cpus);
  const PhaseStats later =
      Serve(*scheme, false, stream, checks, a.seconds / 2, cpus);
  const std::uint64_t ram_hits = counters.tree_ram_hits.Value() - ram0;
  const std::uint64_t lookups = counters.tree_ram_hits.Value() +
                                counters.tree_store_hits.Value() +
                                counters.tree_dijkstras.Value() - lookups0;
  const double peak_rss_mb = PeakRssMb();
  for (const PhaseStats* st : {&first, &later}) {
    std::fprintf(stderr, "routebench: phase qps %.0f, per window", st->qps);
    for (const double q : st->window_qps) std::fprintf(stderr, " %.0f", q);
    std::fprintf(stderr, "\n");
  }

  // ---- checks after serving.
  const StretchSample stretch =
      SampleStretch(*scheme, w, dest, checks, sources, a.seed);
  std::uint64_t attempted = warmup.routes + first.routes + later.routes;
  std::uint64_t failed = warmup.failed + first.failed + later.failed;
  for (const Tally& t : {Replay(*scheme, true, stream, first),
                         Replay(*scheme, false, stream, later),
                         static_cast<const Tally&>(stretch)}) {
    attempted += t.routes;
    failed += t.failed;
  }
  bool correct = true;
  if (w.store == StoreUse::kPrepared) {
    Graph fresh;
    {
      RB_SPAN("graph.generate", 1);
      fresh = Generate(w);
    }
    if (EdgeListHash(n, edges) !=
        EdgeListHash(fresh.num_nodes(), EdgeList(fresh))) {
      std::fprintf(stderr, "routebench: stored graph differs from a fresh "
                           "one\n");
      correct = false;
    }
  }
  std::size_t state_max = 0;
  for (const double s : scheme->CollectState()) {
    state_max = std::max(state_max, static_cast<std::size_t>(s));
  }

  std::fprintf(stderr,
               "routebench: %s seed=%llu n=%u m=%zu clients=%u setup=%.3fs "
               "first=%.0f/s (%llu routes, p50 %.2fus p99 %.2fus) "
               "later=%.0f/s (%llu routes, p50 %.2fus p99 %.2fus) "
               "stretch first %.4f later %.4f state_max=%zu rss=%.1fMB "
               "tree dijkstras=%llu store_hits=%llu\n",
               w.name, static_cast<unsigned long long>(a.seed), n,
               g.num_edges(), static_cast<unsigned>(cpus.size()), setup_s,
               Median(first.window_qps),
               static_cast<unsigned long long>(first.routes),
               first.latency.QuantileUs(0.5), first.latency.QuantileUs(0.99),
               Median(later.window_qps),
               static_cast<unsigned long long>(later.routes),
               later.latency.QuantileUs(0.5), later.latency.QuantileUs(0.99),
               stretch.first_mean, stretch.later_mean, state_max, peak_rss_mb,
               static_cast<unsigned long long>(setup_dijkstras),
               static_cast<unsigned long long>(setup_store_hits));

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"first_qps", Median(first.window_qps), "routes/s"},
        {"first_p50_us", first.latency.QuantileUs(0.50), "us"},
        {"first_p99_us", first.latency.QuantileUs(0.99), "us"},
        {"later_qps", Median(later.window_qps), "routes/s"},
        {"later_p50_us", later.latency.QuantileUs(0.50), "us"},
        {"later_p99_us", later.latency.QuantileUs(0.99), "us"},
        {"stretch_first_mean", stretch.first_mean, "ratio"},
        {"stretch_later_mean", stretch.later_mean, "ratio"},
        {"state_entries_max", static_cast<double>(state_max), "entries"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const StoreBytes bytes = RunLayerProbes(w, a.work, g, *scheme, stream);
    const std::uint64_t dropped = disco::obs::DroppedTraceEvents();
    const std::string path = disco::obs::FlushTrace();
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    disco::obs::TraceDoc doc;
    std::string err;
    if (path.empty() || !disco::obs::ParseTraceJson(text.str(), &doc, &err)) {
      Die("trace does not parse: " + err);
    }
    if (dropped != 0 || doc.dropped != 0) {
      std::fprintf(stderr, "routebench: %llu trace events dropped\n",
                   static_cast<unsigned long long>(dropped + doc.dropped));
      correct = false;
    }
    const std::map<std::string, double> self = SelfTimesNs(doc);
    const auto per_call = [&](const std::string& span, double unit_ns) {
      const auto it = self.find(span);
      const std::uint64_t calls = g_calls[span];
      if (it == self.end() || calls == 0) Die("no spans for " + span);
      return it->second / static_cast<double>(calls) / unit_ns;
    };
    const std::uint64_t routes = first.routes + later.routes;
    metrics = {
        {"graph.generate_s", per_call("graph.generate", 1e9), "s"},
        {"graph.view_load_s", per_call("graph.view_load", 1e9), "s"},
        {"graph.dijkstra_us", per_call("graph.dijkstra", 1e3), "us"},
        {"graph.knearest_us", per_call("graph.knearest", 1e3), "us"},
        {"routing.prewarm_s", per_call("routing.prewarm", 1e9), "s"},
        {"routing.vicinity_get_ns", per_call("routing.vicinity_get", 1), "ns"},
        {"routing.ltree_get_ns", per_call("routing.ltree_get", 1), "ns"},
        {"routing.vicinity_get_4t_ns",
         per_call("routing.vicinity_get_4t", 1), "ns"},
        {"routing.ltree_get_4t_ns", per_call("routing.ltree_get_4t", 1),
         "ns"},
        {"routing.ltree_dijkstras", static_cast<double>(setup_dijkstras),
         "count"},
        {"routing.ltree_store_hits", static_cast<double>(setup_store_hits),
         "count"},
        {"routing.ltree_ram_hit_share",
         lookups == 0 ? 1.0 : static_cast<double>(ram_hits) / lookups,
         "ratio"},
        {"core.disco_build_s", per_call("core.disco_build", 1e9), "s"},
        {"core.find_contact_ns", per_call("core.find_contact", 1), "ns"},
        {"core.plan_us", per_call("core.plan", 1e3), "us"},
        {"core.shortcut_us", per_call("core.shortcut", 1e3), "us"},
        {"core.path_hops_mean",
         static_cast<double>(first.hops + later.hops) /
             static_cast<double>(routes),
         "hops"},
        {"api.disco_first_1t_us", per_call("api.disco_first_1t", 1e3), "us"},
        {"api.disco_later_1t_us", per_call("api.disco_later_1t", 1e3), "us"},
        {"store.tree_put_us", per_call("store.tree_put", 1e3), "us"},
        {"store.bytes_written", static_cast<double>(bytes.written), "bytes"},
        {"store.tree_decode_us", per_call("store.tree_decode", 1e3), "us"},
        {"store.bytes_read", static_cast<double>(bytes.read), "bytes"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace routebench

int main(int argc, char** argv) {
  const routebench::Args a = routebench::ParseArgs(argc, argv);
  const routebench::WorkloadSpec* w = routebench::FindWorkload(a.workload);
  if (w == nullptr) routebench::Die("unknown workload \"" + a.workload + "\"");
  if (a.command == "prepare") return routebench::Prepare(a, *w);
  if (a.command == "run") return routebench::Run(a, *w);
  routebench::Die("unknown command \"" + a.command + "\"");
}
