// A route is the set of destinations a router copies a packet to: any of the
// six inter-chip links and/or any of the up-to-20 local cores.  Matches the
// output-vector format of the real multicast router.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace spinn::router {

/// A set of local cores: bit c is core c.
using CoreMask = std::uint32_t;

class Route {
 public:
  constexpr Route() = default;
  explicit constexpr Route(std::uint32_t bits) : bits_(bits) {}

  static constexpr Route to_link(LinkDir d) {
    return Route(1u << static_cast<int>(d));
  }
  static constexpr Route to_core(CoreIndex core) {
    return Route(1u << (kLinksPerChip + core));
  }

  constexpr Route with_link(LinkDir d) const {
    return Route(bits_ | (1u << static_cast<int>(d)));
  }
  constexpr Route with_core(CoreIndex core) const {
    return Route(bits_ | (1u << (kLinksPerChip + core)));
  }

  constexpr bool has_link(LinkDir d) const {
    return (bits_ >> static_cast<int>(d)) & 1u;
  }
  constexpr bool has_core(CoreIndex core) const {
    return (bits_ >> (kLinksPerChip + core)) & 1u;
  }

  /// The local-core destinations alone.
  constexpr CoreMask cores() const {
    return (bits_ >> kLinksPerChip) & ((CoreMask{1} << kCoresPerChip) - 1);
  }

  constexpr bool empty() const { return bits_ == 0; }
  constexpr std::uint32_t bits() const { return bits_; }

  constexpr Route operator|(Route other) const {
    return Route(bits_ | other.bits_);
  }
  Route& operator|=(Route other) {
    bits_ |= other.bits_;
    return *this;
  }

  friend constexpr bool operator==(Route, Route) = default;

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace spinn::router
