#include "topo/ghc.hpp"

#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace nestflow {

GhcTier::GhcTier(GraphBuilder& builder, std::vector<NodeId> servers,
                 std::vector<std::uint32_t> dims, double link_bps,
                 LinkClass server_link_class)
    : servers_(std::move(servers)), shape_(std::move(dims)) {
  if (servers_.size() != shape_.size()) {
    throw std::invalid_argument(
        "GhcTier: server count " + std::to_string(servers_.size()) +
        " != product of dims " + std::to_string(shape_.size()));
  }
  const auto n = shape_.num_dims();
  dim_first_switch_.assign(n, kInvalidNode);
  dim_group_count_.assign(n, 0);
  for (std::uint32_t dim = 0; dim < n; ++dim) {
    const std::uint32_t d = shape_.dims()[dim];
    if (d < 2) continue;
    dim_group_count_[dim] = shape_.size() / d;
    dim_first_switch_[dim] =
        builder.add_nodes(NodeKind::kSwitch, dim_group_count_[dim]);
  }
  live_ordinal_.assign(n, 0);
  for (std::uint32_t dim = 0; dim < n; ++dim) {
    live_ordinal_[dim] = num_live_dims_;
    if (shape_.dims()[dim] >= 2) ++num_live_dims_;
  }
  first_link_ = builder.num_links();
  for (std::uint32_t server = 0; server < shape_.size(); ++server) {
    for (std::uint32_t dim = 0; dim < n; ++dim) {
      if (shape_.dims()[dim] < 2) continue;
      const LinkId id = builder.add_duplex(
          servers_[server], switch_node(dim, group_of(server, dim)), link_bps,
          server_link_class);
      assert(id == uplink_id(server, dim));
      (void)id;
    }
  }
}

std::uint32_t GhcTier::group_of(std::uint32_t server, std::uint32_t dim) const {
  // Remove digit `dim` from the mixed-radix index: the digits below stay,
  // the digits above shift down by one radix position.
  std::uint32_t low_stride = 1;
  for (std::uint32_t i = 0; i < dim; ++i) low_stride *= shape_.dims()[i];
  const std::uint32_t low = server % low_stride;
  const std::uint32_t high = server / (low_stride * shape_.dims()[dim]);
  return low + high * low_stride;
}

NodeId GhcTier::switch_node(std::uint32_t dim, std::uint32_t group) const {
  assert(dim < shape_.num_dims());
  assert(dim_first_switch_[dim] != kInvalidNode);
  assert(group < dim_group_count_[dim]);
  return dim_first_switch_[dim] + group;
}

std::uint64_t GhcTier::num_switches() const noexcept {
  std::uint64_t total = 0;
  for (const auto c : dim_group_count_) total += c;
  return total;
}

void GhcTier::route(const Graph& graph, std::uint32_t src, std::uint32_t dst,
                    Path& path) const {
  (void)graph;  // kept for signature compatibility; ids are closed-form
  if (src == dst) return;
  std::uint32_t current = src;
  for (std::uint32_t dim = 0; dim < shape_.num_dims(); ++dim) {
    const std::uint32_t cur_digit = shape_.coord(current, dim);
    const std::uint32_t dst_digit = shape_.coord(dst, dim);
    if (cur_digit == dst_digit) continue;
    const std::uint32_t next =
        current + (dst_digit - cur_digit) * shape_.stride(dim);
    path.links.push_back(uplink_id(current, dim));      // server -> switch
    path.links.push_back(uplink_id(next, dim) + 1);     // switch -> server
    current = next;
  }
}

void GhcTier::route_lookup(const Graph& graph, std::uint32_t src,
                           std::uint32_t dst, Path& path) const {
  if (src == dst) return;
  const auto hop = [&](NodeId from, NodeId to) {
    const LinkId l = graph.find_link(from, to);
    if (l == kInvalidLink) {
      throw std::logic_error("GhcTier::route_lookup: missing link");
    }
    path.links.push_back(l);
  };
  std::uint32_t current = src;
  for (std::uint32_t dim = 0; dim < shape_.num_dims(); ++dim) {
    const std::uint32_t cur_digit = shape_.coord(current, dim);
    const std::uint32_t dst_digit = shape_.coord(dst, dim);
    if (cur_digit == dst_digit) continue;
    const std::uint32_t next =
        current + (dst_digit - cur_digit) * shape_.stride(dim);
    const NodeId sw = switch_node(dim, group_of(current, dim));
    hop(servers_[current], sw);
    hop(sw, servers_[next]);
    current = next;
  }
}

std::uint32_t GhcTier::route_distance(std::uint32_t src,
                                      std::uint32_t dst) const {
  // Peel the digits off from the least significant one: a single division
  // per dimension and endpoint yields both the digit and the rest.
  std::uint32_t differing = 0;
  for (const std::uint32_t d : shape_.dims()) {
    differing += src % d != dst % d;
    src /= d;
    dst /= d;
  }
  return 2 * differing;
}

std::vector<std::uint32_t> balanced_ghc_dims(std::uint64_t num_servers,
                                             std::uint32_t num_dims) {
  if (num_dims == 0) throw std::invalid_argument("balanced_ghc_dims: 0 dims");
  if (num_servers == 0 || !std::has_single_bit(num_servers)) {
    throw std::invalid_argument(
        "balanced_ghc_dims: server count must be a power of two, got " +
        std::to_string(num_servers));
  }
  const auto total = static_cast<std::uint32_t>(std::countr_zero(num_servers));
  std::vector<std::uint32_t> dims(num_dims);
  for (std::uint32_t i = 0; i < num_dims; ++i) {
    // Later dims get the spare exponents: ascending order (32, 64, 64).
    const std::uint32_t exponent =
        total / num_dims + (i >= num_dims - total % num_dims ? 1 : 0);
    dims[i] = 1u << exponent;
  }
  return dims;
}

GhcTopology::GhcTopology(std::vector<std::uint32_t> dims, double link_bps) {
  GraphBuilder builder;
  const std::uint64_t num_servers = dims_product(dims);
  if (num_servers < 2) {
    throw std::invalid_argument(
        "GhcTopology: needs at least 2 endpoints, got dims with product " +
        std::to_string(num_servers));
  }
  const NodeId first = builder.add_nodes(
      NodeKind::kEndpoint, static_cast<std::uint32_t>(num_servers));
  std::vector<NodeId> servers(num_servers);
  for (std::size_t i = 0; i < servers.size(); ++i) {
    servers[i] = first + static_cast<NodeId>(i);
  }
  tier_ = std::make_unique<GhcTier>(builder, std::move(servers),
                                    std::move(dims), link_bps,
                                    LinkClass::kUplink);
  adopt_graph(std::move(builder).build(link_bps));
}

void GhcTopology::route(std::uint32_t src, std::uint32_t dst,
                        Path& path) const {
  path.clear();
  if (src == dst) return;
  tier_->route(graph(), src, dst, path);
}

std::string GhcTopology::name() const {
  std::ostringstream out;
  out << "GHC(";
  for (std::size_t i = 0; i < tier_->shape().dims().size(); ++i) {
    if (i) out << "x";
    out << tier_->shape().dims()[i];
  }
  out << ")";
  return out.str();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
GhcTopology::adversarial_pairs() const {
  // First and last servers differ in every digit.
  return {{0u, num_endpoints() - 1}};
}

}  // namespace nestflow
