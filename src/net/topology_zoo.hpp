// Embedded real-world backbone topologies.
//
// The paper evaluates on graphs from the Internet Topology Zoo [18]; the
// dataset itself is not shipped here, so we embed well-known published
// backbone topologies (node counts and link lists) as data.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "net/graph.hpp"

namespace vnfr::net {

/// Topologies available via `load_topology`.
/// - "abilene":   Internet2 Abilene, 11 nodes / 14 links (US research net)
/// - "nsfnet":    NSFNET T1 backbone, 14 nodes / 21 links
/// - "geant":     GEANT European research network, 23 nodes / 37 links
/// - "att":       AT&T North America IP backbone (simplified), 25 nodes
/// - "internet2": Internet2 OS3E wave network (simplified), 34 nodes
/// - "cost266":   COST 266 pan-European reference network, 36 nodes
std::vector<std::string> topology_names();

/// Loads a named topology; throws std::invalid_argument for unknown names.
Graph load_topology(std::string_view name);

}  // namespace vnfr::net
