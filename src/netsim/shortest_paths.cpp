#include "netsim/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/hash.hpp"

namespace ibgp::netsim {

namespace {

/// The graph as one flat adjacency array: node v's neighbours are
/// adj[begin[v] .. begin[v + 1]).
struct FlatGraph {
  std::vector<std::uint32_t> begin;
  std::vector<Adjacency> adj;

  /// Loads `graph` with link i at effective[i], omitted when kInfCost, or at
  /// the graph's own cost when `effective` is null.
  void load(const PhysicalGraph& graph, const Cost* effective) {
    const std::size_t n = graph.node_count();
    const auto links = graph.links();
    const auto cost_of = [&](std::size_t i) {
      return effective == nullptr ? links[i].cost : effective[i];
    };
    // Degrees at begin[v + 2]; the prefix sum turns begin[v + 1] into v's
    // start, and the fill below advances it to v's end, which is where
    // v + 1 starts.
    begin.assign(n + 2, 0);
    std::size_t live = 0;
    for (std::size_t i = 0; i < links.size(); ++i) {
      if (cost_of(i) == kInfCost) continue;
      ++begin[links[i].a + 2];
      ++begin[links[i].b + 2];
      ++live;
    }
    for (std::size_t v = 2; v < begin.size(); ++v) begin[v] += begin[v - 1];
    adj.resize(2 * live);
    for (std::size_t i = 0; i < links.size(); ++i) {
      const Cost cost = cost_of(i);
      if (cost == kInfCost) continue;
      adj[begin[links[i].a + 1]++] = {links[i].b, cost};
      adj[begin[links[i].b + 1]++] = {links[i].a, cost};
    }
  }
};

/// Monotone priority queue: every key pushed is at least the last key
/// popped, as Dijkstra's are.  An item sits in the bucket numbered by the
/// bit width of (key XOR last popped key), so bucket 0 holds keys equal to
/// the last one.  When bucket 0 runs dry, the lowest non-empty bucket is
/// redistributed around its least key, and each of its items lands in a
/// lower bucket.  Keys stay below kInfCost < 2^62, so 64 buckets suffice.
class RadixHeap {
 public:
  struct Item {
    Cost key;
    NodeId node;
  };

  [[nodiscard]] bool empty() const { return nonempty_ == 0; }

  /// Starts a new run.  The heap must be empty.
  void restart() { last_ = 0; }

  void push(Cost key, NodeId node) {
    const unsigned b = bucket_of(key);
    buckets_[b].push_back({key, node});
    nonempty_ |= std::uint64_t{1} << b;
  }

  /// Removes an item with the least key.  The heap must not be empty.
  Item pop() {
    if ((nonempty_ & 1) == 0) refill();
    auto& zero = buckets_[0];
    const Item item = zero.back();
    zero.pop_back();
    if (zero.empty()) nonempty_ &= ~std::uint64_t{1};
    return item;
  }

 private:
  [[nodiscard]] unsigned bucket_of(Cost key) const {
    return static_cast<unsigned>(std::bit_width(static_cast<std::uint64_t>(key ^ last_)));
  }

  void refill() {
    const auto b = static_cast<unsigned>(std::countr_zero(nonempty_));
    auto& from = buckets_[b];
    last_ = std::min_element(from.begin(), from.end(), [](const Item& x, const Item& y) {
              return x.key < y.key;
            })->key;
    nonempty_ &= ~(std::uint64_t{1} << b);
    for (const Item& item : from) push(item.key, item.node);
    from.clear();
  }

  std::array<std::vector<Item>, 64> buckets_;
  std::uint64_t nonempty_ = 0;  // bit b set iff buckets_[b] is non-empty
  Cost last_ = 0;
};

/// The kernel's buffers, one set per thread: sweep workers build epochs
/// concurrently, and once warm a build allocates nothing but its matrices.
struct Scratch {
  FlatGraph graph;
  RadixHeap heap;
};

Scratch& scratch() {
  thread_local Scratch buffers;
  return buffers;
}

/// One row: Dijkstra from `src`, writing distances and first hops.  A node
/// reached from the source directly has itself as first hop; any other
/// inherits its predecessor's, and keeps the lowest over equal-cost
/// predecessors.  Those all settle before it (costs are positive), so its
/// first hop is final when it is popped.
void run_source(const FlatGraph& graph, NodeId src, Cost* dist, NodeId* first,
                RadixHeap& heap) {
  const std::size_t n = graph.begin.size() - 2;
  std::fill_n(dist, n, kInfCost);
  std::fill_n(first, n, kNoNode);
  dist[src] = 0;
  heap.restart();
  heap.push(0, src);
  while (!heap.empty()) {
    const auto [d, v] = heap.pop();
    if (d != dist[v]) continue;  // stale entry
    const NodeId hop = first[v];  // kNoNode only at the source
    const Adjacency* const end = graph.adj.data() + graph.begin[v + 1];
    for (const Adjacency* adj = graph.adj.data() + graph.begin[v]; adj != end; ++adj) {
      const NodeId x = adj->neighbor;
      const Cost nd = d + adj->cost;
      if (nd > dist[x]) continue;
      const NodeId via = hop == kNoNode ? x : hop;
      if (nd < dist[x]) {
        dist[x] = nd;
        first[x] = via;
        heap.push(nd, x);
      } else if (nd != kInfCost && via < first[x]) {
        first[x] = via;
      }
    }
  }
}

/// Throws unless `effective` is index-aligned with graph.links() and every
/// entry is a positive finite cost or kInfCost (down): the kernel sums
/// costs, and the radix heap needs finite keys.
void check_key(const PhysicalGraph& graph, std::span<const Cost> effective) {
  if (effective.size() != graph.link_count()) {
    throw std::invalid_argument("ShortestPaths: effective cost vector size mismatch");
  }
  for (const Cost cost : effective) {
    if (cost <= 0 || cost > kInfCost) {
      throw std::invalid_argument("ShortestPaths: effective link cost " + std::to_string(cost) +
                                  " is neither a positive finite metric nor kInfCost");
    }
  }
}

}  // namespace

ShortestPaths::ShortestPaths(std::size_t node_count)
    : n_(node_count), dist_(n_ * n_), next_(n_ * n_) {}

ShortestPaths::ShortestPaths(const PhysicalGraph& graph) : ShortestPaths(graph.node_count()) {
  compute(graph, nullptr);
}

ShortestPaths::ShortestPaths(const PhysicalGraph& graph, std::span<const Cost> effective)
    : ShortestPaths(graph.node_count()) {
  check_key(graph, effective);
  compute(graph, effective.data());
}

void ShortestPaths::compute(const PhysicalGraph& graph, const Cost* effective) {
  Scratch& s = scratch();
  s.graph.load(graph, effective);
  for (NodeId src = 0; src < n_; ++src) {
    run_source(s.graph, src, dist_.data() + index(src, 0), next_.data() + index(src, 0), s.heap);
  }
  seal();
}

ShortestPaths ShortestPaths::derive(const ShortestPaths& from, const PhysicalGraph& graph,
                                    std::span<const Cost> effective, std::size_t changed,
                                    Cost from_cost, std::size_t& rows_rerun) {
  check_key(graph, effective);
  if (from.n_ != graph.node_count() || changed >= effective.size() || from_cost <= 0 ||
      from_cost > kInfCost) {
    throw std::invalid_argument("ShortestPaths::derive: epoch, graph and key disagree");
  }
  ShortestPaths out = from;
  Scratch& s = scratch();
  s.graph.load(graph, effective.data());
  // Link a-b at the cheaper of its two costs (at least one is finite).  A
  // source whose row satisfies neither test reaches each end more cheaply
  // than through the link, in both epochs, so no shortest path from it uses
  // the link and its row stands.
  const Link& link = graph.links()[changed];
  const Cost c = std::min(from_cost, effective[changed]);
  rows_rerun = 0;
  for (NodeId src = 0; src < out.n_; ++src) {
    const Cost da = out.dist_[out.index(src, link.a)];
    const Cost db = out.dist_[out.index(src, link.b)];
    if (da + c > db && db + c > da) continue;
    run_source(s.graph, src, out.dist_.data() + out.index(src, 0),
               out.next_.data() + out.index(src, 0), s.heap);
    ++rows_rerun;
  }
  out.seal();
  return out;
}

void ShortestPaths::seal() {
  util::Fingerprint fp;
  fp.add(n_).add_range(dist_).add_range(next_);
  fingerprint_ = fp.value();
}

NodeId ShortestPaths::next_hop(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) throw std::invalid_argument("ShortestPaths: node out of range");
  if (u == v) return kNoNode;
  return next_[index(u, v)];
}

std::vector<NodeId> ShortestPaths::path(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) throw std::invalid_argument("ShortestPaths: node out of range");
  std::vector<NodeId> out;
  if (!reachable(u, v)) return out;
  out.push_back(u);
  NodeId cur = u;
  while (cur != v) {
    cur = next_hop(cur, v);
    // next_hop on a reachable pair always advances strictly toward v
    // (distance decreases), so this loop terminates.
    out.push_back(cur);
  }
  return out;
}

std::optional<std::size_t> ShortestPaths::hop_count(NodeId u, NodeId v) const {
  if (!reachable(u, v)) return std::nullopt;
  return path(u, v).size() - 1;
}

}  // namespace ibgp::netsim
