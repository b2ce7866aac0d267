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

/// Connected G(n, p) Erdos-Renyi graph: a random spanning tree is laid
/// down first, then every other pair is linked with probability p.
Graph erdos_renyi(std::size_t n, double p, common::Rng& rng);

/// Ring of n nodes (n >= 3).
Graph ring(std::size_t n);

}  // namespace vnfr::net
