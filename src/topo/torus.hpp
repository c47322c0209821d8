// d-dimensional torus with dimension-order routing (DOR).
//
// The paper's baseline network: nodes arranged in a grid with wrap-around
// links; the full-scale reference instance is 64x64x32 (131,072 QFDBs,
// diameter 80, average distance 40 — Table 1 caption). The same code also
// provides the subtorus wiring reused by the nested hybrid topologies.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "topo/topology.hpp"

namespace nestflow {

/// Coordinate/index arithmetic for an x-major grid, shared by the torus,
/// the nested topologies and grid-structured workloads (Sweep3D, stencils).
class GridShape {
 public:
  explicit GridShape(std::vector<std::uint32_t> dims);

  [[nodiscard]] const std::vector<std::uint32_t>& dims() const noexcept {
    return dims_;
  }
  [[nodiscard]] std::uint32_t num_dims() const noexcept {
    return static_cast<std::uint32_t>(dims_.size());
  }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }

  /// Coordinates -> linear index (dimension 0 least significant).
  [[nodiscard]] std::uint32_t index_of(
      std::span<const std::uint32_t> coords) const;
  [[nodiscard]] std::uint32_t index_of(
      std::initializer_list<std::uint32_t> coords) const {
    return index_of(std::span<const std::uint32_t>(coords.begin(),
                                                   coords.size()));
  }
  /// Linear index -> coordinates (out.size() must equal num_dims()).
  void coords_of(std::uint32_t index, std::span<std::uint32_t> out) const;

  /// Single coordinate of a linear index along `dim` (no allocation).
  [[nodiscard]] std::uint32_t coord(std::uint32_t index,
                                    std::uint32_t dim) const;

  /// Linear-index stride of `dim` (product of lower dimension sizes).
  [[nodiscard]] std::uint32_t stride(std::uint32_t dim) const noexcept {
    return strides_[dim];
  }

  /// Index of the neighbour one step along `dim` (+1 or -1, wrapped).
  [[nodiscard]] std::uint32_t wrap_neighbor(std::uint32_t index,
                                            std::uint32_t dim,
                                            int direction) const;

 private:
  std::vector<std::uint32_t> dims_;
  std::vector<std::uint32_t> strides_;
  std::uint32_t size_ = 0;
};

/// Wires a torus over `size()` consecutive node ids starting at `first`
/// using the given shape; shared by TorusTopology and the nested subtori.
/// Dimensions of size 1 get no links; size-2 dimensions get a single cable
/// (not a doubled wrap pair).
void wire_torus(GraphBuilder& builder, NodeId first, const GridShape& shape,
                double link_bps, LinkClass link_class);

/// Appends the DOR route between two indices of `shape` (nodes offset by
/// `first`) to `path`: dimensions corrected in ascending order, shortest
/// direction, positive direction on ties. Reference implementation via
/// graph lookups; production routing uses route_torus_dor_arith.
void route_torus_dor(const Graph& graph, NodeId first, const GridShape& shape,
                     std::uint32_t src_index, std::uint32_t dst_index,
                     Path& path);

/// Number of duplex cables wire_torus emits for `shape` (each cable is a
/// consecutive pair of link ids: forward = +1 direction, reverse = +1).
[[nodiscard]] std::uint32_t torus_num_cables(const GridShape& shape);

/// Closed-form link id of the hop leaving `from_index` one step along `dim`
/// in `direction`, where `first_link` is the id of the first link
/// wire_torus emitted for this shape. Reconstructs wire_torus's emission
/// order (node-major, dims ascending; size-2 dims owned by the coord-0
/// node) without touching the graph.
[[nodiscard]] LinkId torus_hop_link(const GridShape& shape, LinkId first_link,
                                    std::uint32_t from_index,
                                    std::uint32_t dim, int direction);

/// route_torus_dor with arithmetic link ids: identical path, no graph
/// lookups, no allocation beyond the path itself.
void route_torus_dor_arith(const GridShape& shape, LinkId first_link,
                           std::uint32_t src_index, std::uint32_t dst_index,
                           Path& path);

/// Steps from coordinate `from` to `to` (both < d) going +1 round a ring
/// of size `d`, without a division.
[[nodiscard]] inline std::uint32_t dor_ring_forward(std::uint32_t from,
                                                    std::uint32_t to,
                                                    std::uint32_t d) {
  return to >= from ? to - from : to + d - from;
}

/// Hops DOR takes along one ring of size `d` between coordinates `from`
/// and `to` (both < d): the shorter way round.
[[nodiscard]] inline std::uint32_t dor_ring_distance(std::uint32_t from,
                                                     std::uint32_t to,
                                                     std::uint32_t d) {
  const std::uint32_t forward = dor_ring_forward(from, to, d);
  return std::min(forward, d - forward);
}

/// Number of hops DOR takes between two indices (no graph access needed,
/// no allocation).
[[nodiscard]] std::uint32_t torus_dor_distance(const GridShape& shape,
                                               std::uint32_t src_index,
                                               std::uint32_t dst_index);

class TorusTopology final : public Topology {
 public:
  explicit TorusTopology(std::vector<std::uint32_t> dims,
                         double link_bps = kDefaultLinkBps);

  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }

  void route(std::uint32_t src, std::uint32_t dst, Path& path) const override;
  [[nodiscard]] std::uint32_t route_distance(
      std::uint32_t src, std::uint32_t dst) const override {
    return torus_dor_distance(shape_, src, dst);
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
  adversarial_pairs() const override;

 private:
  GridShape shape_;
};

/// The balanced 3-way power-of-two factorisation used for reference torus
/// shapes: N = 2^m -> dims with exponents as equal as possible, descending
/// (N = 2^17 -> 64x64x32, matching the paper's full-scale torus).
[[nodiscard]] std::vector<std::uint32_t> balanced_pow2_dims(
    std::uint64_t n, std::uint32_t num_dims);

}  // namespace nestflow
