// Synthetic topology generators.
//
// The paper samples real Internet Topology Zoo graphs; the generators here
// produce synthetic AP networks for the scheduler micro-benchmarks and the
// small test instances. Random ones are deterministic given the Rng.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "net/graph.hpp"

namespace vnfr::net {

/// G(n, p) Erdos-Renyi graph. If `force_connected`, a random spanning tree
/// is laid down first so the result is always connected.
Graph erdos_renyi(std::size_t n, double p, common::Rng& rng, bool force_connected = true);

/// Ring of n nodes (n >= 3), unit weights.
Graph ring(std::size_t n);

}  // namespace vnfr::net
