#include "topo/torus.hpp"

#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace nestflow {

GridShape::GridShape(std::vector<std::uint32_t> dims) : dims_(std::move(dims)) {
  if (dims_.empty()) throw std::invalid_argument("GridShape: no dimensions");
  size_ = static_cast<std::uint32_t>(dims_product(dims_));
  strides_.resize(dims_.size());
  std::uint32_t stride = 1;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    strides_[i] = stride;
    stride *= dims_[i];
  }
}

std::uint32_t GridShape::index_of(std::span<const std::uint32_t> coords) const {
  assert(coords.size() == dims_.size());
  std::uint32_t index = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    assert(coords[i] < dims_[i]);
    index += coords[i] * strides_[i];
  }
  return index;
}

void GridShape::coords_of(std::uint32_t index,
                          std::span<std::uint32_t> out) const {
  assert(out.size() == dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    out[i] = index % dims_[i];
    index /= dims_[i];
  }
}

std::uint32_t GridShape::coord(std::uint32_t index, std::uint32_t dim) const {
  assert(dim < dims_.size());
  return (index / strides_[dim]) % dims_[dim];
}

std::uint32_t GridShape::wrap_neighbor(std::uint32_t index, std::uint32_t dim,
                                       int direction) const {
  assert(dim < dims_.size());
  assert(direction == 1 || direction == -1);
  const std::uint32_t d = dims_[dim];
  const std::uint32_t c = coord(index, dim);
  const std::uint32_t next = direction == 1 ? (c + 1) % d : (c + d - 1) % d;
  return index + (next - c) * strides_[dim];
}

void wire_torus(GraphBuilder& builder, NodeId first, const GridShape& shape,
                double link_bps, LinkClass link_class) {
  for (std::uint32_t i = 0; i < shape.size(); ++i) {
    for (std::uint32_t dim = 0; dim < shape.num_dims(); ++dim) {
      const std::uint32_t d = shape.dims()[dim];
      if (d < 2) continue;
      // One cable per adjacent pair: node i owns the +1 cable. For d == 2
      // the +1 and -1 neighbours coincide, so only coord 0 adds it.
      if (d == 2 && shape.coord(i, dim) != 0) continue;
      const std::uint32_t j = shape.wrap_neighbor(i, dim, +1);
      builder.add_duplex(first + i, first + j, link_bps, link_class);
    }
  }
}

namespace {

/// Per-dimension signed displacement DOR takes: shortest wrap direction,
/// positive on ties.
int dor_step_direction(std::uint32_t from, std::uint32_t to, std::uint32_t d) {
  const std::uint32_t forward = dor_ring_forward(from, to, d);
  return (forward <= d - forward) ? +1 : -1;
}

}  // namespace

void route_torus_dor(const Graph& graph, NodeId first, const GridShape& shape,
                     std::uint32_t src_index, std::uint32_t dst_index,
                     Path& path) {
  std::uint32_t current = src_index;
  for (std::uint32_t dim = 0; dim < shape.num_dims(); ++dim) {
    const std::uint32_t d = shape.dims()[dim];
    const std::uint32_t goal = shape.coord(dst_index, dim);
    while (shape.coord(current, dim) != goal) {
      const int dir = dor_step_direction(shape.coord(current, dim), goal, d);
      const std::uint32_t next = shape.wrap_neighbor(current, dim, dir);
      const LinkId l = graph.find_link(first + current, first + next);
      if (l == kInvalidLink) {
        throw std::logic_error("route_torus_dor: missing torus link");
      }
      path.links.push_back(l);
      current = next;
    }
  }
}

std::uint32_t torus_num_cables(const GridShape& shape) {
  std::uint32_t cables = 0;
  for (std::uint32_t dim = 0; dim < shape.num_dims(); ++dim) {
    const std::uint32_t d = shape.dims()[dim];
    if (d < 2) continue;
    // Every node owns its +1 cable, except size-2 dims where only the
    // coord-0 half does (wire_torus collapses the +1/-1 pair).
    cables += d == 2 ? shape.size() / 2 : shape.size();
  }
  return cables;
}

namespace {

/// Ordinal (in wire_torus emission order) of the +1 cable node `node` owns
/// in dimension `dim`: cables emitted by all earlier nodes, plus node's own
/// earlier dimensions. Only valid when `node` owns that cable (always for
/// sizes > 2; coord 0 for size-2 dims).
std::uint32_t torus_cable_ordinal(const GridShape& shape, std::uint32_t node,
                                  std::uint32_t dim) {
  std::uint32_t cable = 0;
  for (std::uint32_t d = 0; d < shape.num_dims(); ++d) {
    const std::uint32_t s = shape.dims()[d];
    if (s < 2) continue;
    if (s == 2) {
      // Nodes below `node` with coord 0 in d: the coord pattern has period
      // 2*stride (stride zeros, then stride ones).
      const std::uint32_t st = shape.stride(d);
      cable += (node / (2 * st)) * st + std::min(st, node % (2 * st));
      if (d < dim && shape.coord(node, d) == 0) ++cable;
    } else {
      cable += node + (d < dim ? 1 : 0);
    }
  }
  return cable;
}

}  // namespace

LinkId torus_hop_link(const GridShape& shape, LinkId first_link,
                      std::uint32_t from_index, std::uint32_t dim,
                      int direction) {
  const std::uint32_t d = shape.dims()[dim];
  if (d == 2) {
    // One cable per pair, owned by the coord-0 node; +1 and -1 coincide.
    if (shape.coord(from_index, dim) == 0) {
      return first_link + 2 * torus_cable_ordinal(shape, from_index, dim);
    }
    const std::uint32_t owner = from_index - shape.stride(dim);
    return first_link + 2 * torus_cable_ordinal(shape, owner, dim) + 1;
  }
  if (direction == 1) {
    return first_link + 2 * torus_cable_ordinal(shape, from_index, dim);
  }
  // Stepping -1 traverses the neighbour's +1 cable in reverse.
  const std::uint32_t owner = shape.wrap_neighbor(from_index, dim, -1);
  return first_link + 2 * torus_cable_ordinal(shape, owner, dim) + 1;
}

void route_torus_dor_arith(const GridShape& shape, LinkId first_link,
                           std::uint32_t src_index, std::uint32_t dst_index,
                           Path& path) {
  std::uint32_t current = src_index;
  for (std::uint32_t dim = 0; dim < shape.num_dims(); ++dim) {
    const std::uint32_t d = shape.dims()[dim];
    const std::uint32_t goal = shape.coord(dst_index, dim);
    while (shape.coord(current, dim) != goal) {
      const int dir = dor_step_direction(shape.coord(current, dim), goal, d);
      path.links.push_back(torus_hop_link(shape, first_link, current, dim, dir));
      current = shape.wrap_neighbor(current, dim, dir);
    }
  }
}

std::uint32_t torus_dor_distance(const GridShape& shape,
                                 std::uint32_t src_index,
                                 std::uint32_t dst_index) {
  // Dimension 0 is least significant: one division per dimension and index
  // yields the coordinate and the rest.
  std::uint32_t hops = 0;
  for (const std::uint32_t d : shape.dims()) {
    hops += dor_ring_distance(src_index % d, dst_index % d, d);
    src_index /= d;
    dst_index /= d;
  }
  return hops;
}

TorusTopology::TorusTopology(std::vector<std::uint32_t> dims, double link_bps)
    : shape_(std::move(dims)) {
  if (shape_.size() < 2) {
    // A single endpoint has no cables (wire_torus skips dims < 2): nothing
    // to route or simulate. Individual dims of 1 (e.g. 2x2x1) stay legal.
    throw std::invalid_argument(
        "TorusTopology: needs at least 2 endpoints, got dims with product " +
        std::to_string(shape_.size()));
  }
  GraphBuilder builder;
  builder.add_nodes(NodeKind::kEndpoint, shape_.size());
  wire_torus(builder, 0, shape_, link_bps, LinkClass::kTorus);
  adopt_graph(std::move(builder).build(link_bps));
}

void TorusTopology::route(std::uint32_t src, std::uint32_t dst,
                          Path& path) const {
  path.clear();
  if (src == dst) return;
  // Endpoints are added before any cable, so the torus links start at id 0.
  route_torus_dor_arith(shape_, 0, src, dst, path);
}

std::string TorusTopology::name() const {
  std::ostringstream out;
  out << "Torus";
  out << shape_.num_dims() << "D(";
  for (std::size_t i = 0; i < shape_.dims().size(); ++i) {
    if (i) out << "x";
    out << shape_.dims()[i];
  }
  out << ")";
  return out.str();
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
TorusTopology::adversarial_pairs() const {
  // Node 0 to the antipodal node attains the DOR diameter.
  std::vector<std::uint32_t> coords(shape_.num_dims());
  for (std::uint32_t dim = 0; dim < shape_.num_dims(); ++dim) {
    coords[dim] = shape_.dims()[dim] / 2;
  }
  return {{0u, shape_.index_of(coords)}};
}

std::vector<std::uint32_t> balanced_pow2_dims(std::uint64_t n,
                                              std::uint32_t num_dims) {
  if (num_dims == 0) throw std::invalid_argument("balanced_pow2_dims: 0 dims");
  if (n == 0 || !std::has_single_bit(n)) {
    throw std::invalid_argument(
        "balanced_pow2_dims: size must be a power of two, got " +
        std::to_string(n));
  }
  const auto total = static_cast<std::uint32_t>(std::countr_zero(n));
  std::vector<std::uint32_t> dims(num_dims);
  for (std::uint32_t i = 0; i < num_dims; ++i) {
    // Earlier dims get the spare exponents: 2^17 over 3 dims -> 64, 64, 32.
    const std::uint32_t exponent =
        total / num_dims + (i < total % num_dims ? 1 : 0);
    dims[i] = 1u << exponent;
  }
  return dims;
}

}  // namespace nestflow
