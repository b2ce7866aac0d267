#include "net/topology_zoo.hpp"

#include <stdexcept>
#include <utility>

namespace vnfr::net {

namespace {

struct TopologySpec {
    std::size_t nodes;
    std::vector<std::pair<int, int>> links;
};

Graph build(const TopologySpec& spec) {
    Graph g(spec.nodes);
    for (const auto& [a, b] : spec.links) g.add_edge(NodeId{a}, NodeId{b});
    return g;
}

TopologySpec abilene_spec() {
    // 0 Seattle, 1 Sunnyvale, 2 Denver, 3 LosAngeles, 4 Houston, 5 KansasCity,
    // 6 Indianapolis, 7 Atlanta, 8 Chicago, 9 WashingtonDC, 10 NewYork
    return TopologySpec{
        11,
        {
            {0, 1}, {0, 2}, {1, 2}, {1, 3}, {3, 4}, {2, 5}, {4, 5}, {4, 7},
            {5, 6}, {6, 8}, {6, 7}, {7, 9}, {8, 10}, {9, 10},
        },
    };
}

TopologySpec nsfnet_spec() {
    // 0 Seattle, 1 PaloAlto, 2 SanDiego, 3 SaltLake, 4 Boulder, 5 Houston,
    // 6 Lincoln, 7 Champaign, 8 Pittsburgh, 9 Atlanta, 10 AnnArbor, 11 Ithaca,
    // 12 Princeton, 13 CollegePark
    return TopologySpec{
        14,
        {
            {0, 1}, {0, 2}, {0, 7}, {1, 2}, {1, 3}, {2, 5}, {3, 4}, {3, 10},
            {4, 5}, {4, 6}, {5, 9}, {5, 12}, {6, 7}, {7, 8}, {8, 9}, {8, 11},
            {8, 13}, {9, 10}, {10, 11}, {11, 12}, {12, 13},
        },
    };
}

TopologySpec geant_spec() {
    // 0 Vienna, 1 Brussels, 2 Zurich, 3 Prague, 4 Frankfurt, 5 Copenhagen,
    // 6 Madrid, 7 Tallinn, 8 Paris, 9 Athens, 10 Zagreb, 11 Budapest,
    // 12 Dublin, 13 Tel-Aviv, 14 Milan, 15 Luxembourg, 16 Amsterdam, 17 Oslo,
    // 18 Poznan, 19 Lisbon, 20 Stockholm, 21 Ljubljana, 22 London
    return TopologySpec{
        23,
        {
            {0, 3},  {0, 11}, {0, 14}, {0, 21}, {0, 4},  {1, 4},  {1, 8},
            {1, 16}, {2, 4},  {2, 14}, {2, 8},  {3, 4},  {3, 18}, {4, 5},
            {4, 16}, {4, 15}, {4, 9},  {5, 17}, {5, 20}, {5, 7},  {6, 8},
            {6, 19}, {6, 14}, {7, 20}, {8, 15}, {8, 22}, {8, 19}, {9, 14},
            {10, 11}, {10, 21}, {11, 18}, {12, 22}, {13, 9}, {13, 14},
            {16, 22}, {17, 20}, {20, 18},
        },
    };
}

TopologySpec att_spec() {
    // 0 Seattle, 1 Portland, 2 SanFrancisco, 3 LosAngeles, 4 SanDiego,
    // 5 Phoenix, 6 SaltLake, 7 Denver, 8 Albuquerque, 9 Dallas, 10 Houston,
    // 11 NewOrleans, 12 KansasCity, 13 StLouis, 14 Chicago, 15 Minneapolis,
    // 16 Detroit, 17 Indianapolis, 18 Nashville, 19 Atlanta, 20 Miami,
    // 21 Charlotte, 22 WashingtonDC, 23 Philadelphia, 24 NewYork
    return TopologySpec{
        25,
        {
            {0, 1},  {0, 6},  {0, 14}, {1, 2},  {2, 3},  {2, 6},  {3, 4},
            {3, 5},  {3, 9},  {4, 5},  {5, 8},  {6, 7},  {7, 8},  {7, 12},
            {8, 9},  {9, 10}, {9, 12}, {10, 11}, {11, 19}, {12, 13}, {12, 15},
            {13, 14}, {13, 18}, {14, 15}, {14, 16}, {14, 17}, {16, 24},
            {17, 18}, {18, 19}, {19, 20}, {19, 21}, {20, 21}, {21, 22},
            {22, 23}, {22, 19}, {23, 24}, {14, 24},
        },
    };
}

TopologySpec internet2_spec() {
    // 0 Seattle, 1 Portland, 2 Sunnyvale, 3 LosAngeles, 4 SaltLake,
    // 5 LasVegas, 6 Phoenix, 7 Denver, 8 Albuquerque, 9 ElPaso, 10 KansasCity,
    // 11 Dallas, 12 Houston, 13 Minneapolis, 14 Chicago, 15 StLouis,
    // 16 Memphis, 17 BatonRouge, 18 Indianapolis, 19 Louisville, 20 Nashville,
    // 21 Atlanta, 22 Jacksonville, 23 Miami, 24 Cleveland, 25 Pittsburgh,
    // 26 Buffalo, 27 Boston, 28 NewYork, 29 Philadelphia, 30 WashingtonDC,
    // 31 Raleigh, 32 Charlotte, 33 Tulsa
    return TopologySpec{
        34,
        {
            {0, 1},  {0, 4},  {0, 13}, {1, 2},  {2, 3},  {2, 4},  {3, 5},
            {3, 6},  {4, 7},  {5, 4},  {6, 8},  {7, 8},  {7, 10}, {8, 9},
            {9, 12}, {10, 11}, {10, 14}, {10, 33}, {11, 12}, {11, 33},
            {12, 17}, {13, 14}, {14, 15}, {14, 18}, {14, 24}, {15, 16},
            {16, 17}, {16, 20}, {18, 19}, {19, 20}, {20, 21}, {21, 22},
            {22, 23}, {21, 32}, {24, 25}, {24, 26}, {25, 30}, {26, 27},
            {27, 28}, {28, 29}, {29, 30}, {30, 31}, {31, 32},
        },
    };
}

TopologySpec cost266_spec() {
    // 0 Amsterdam, 1 Athens, 2 Barcelona, 3 Belgrade, 4 Berlin, 5 Birmingham,
    // 6 Bordeaux, 7 Brussels, 8 Budapest, 9 Copenhagen, 10 Dublin,
    // 11 Dusseldorf, 12 Frankfurt, 13 Glasgow, 14 Hamburg, 15 Helsinki,
    // 16 Krakow, 17 Lisbon, 18 London, 19 Lyon, 20 Madrid, 21 Marseille,
    // 22 Milan, 23 Munich, 24 Oslo, 25 Paris, 26 Prague, 27 Rome, 28 Seville,
    // 29 Sofia, 30 Stockholm, 31 Strasbourg, 32 Vienna, 33 Warsaw, 34 Zagreb,
    // 35 Zurich
    return TopologySpec{
        36,
        {
            {0, 7},  {0, 11}, {0, 14}, {0, 18}, {1, 29}, {1, 27}, {2, 20},
            {2, 21}, {3, 8},  {3, 29}, {3, 34}, {4, 9},  {4, 14}, {4, 23},
            {4, 33}, {5, 10}, {5, 13}, {5, 18}, {6, 20}, {6, 25}, {7, 11},
            {7, 25}, {8, 16}, {8, 26}, {8, 32}, {9, 14}, {9, 24}, {9, 30},
            {10, 13}, {11, 12}, {12, 14}, {12, 23}, {12, 31}, {13, 24},
            {15, 24}, {15, 30}, {15, 33}, {16, 33}, {17, 18}, {17, 20},
            {17, 28}, {18, 25}, {19, 21}, {19, 25}, {19, 31}, {20, 28},
            {21, 27}, {22, 23}, {22, 27}, {22, 35}, {23, 32}, {25, 31},
            {26, 32}, {26, 33}, {27, 34}, {29, 32}, {30, 33}, {31, 35},
            {32, 34}, {25, 35},
        },
    };
}

}  // namespace

std::vector<std::string> topology_names() {
    return {"abilene", "nsfnet", "geant", "att", "internet2", "cost266"};
}

Graph load_topology(std::string_view name) {
    if (name == "abilene") return build(abilene_spec());
    if (name == "nsfnet") return build(nsfnet_spec());
    if (name == "geant") return build(geant_spec());
    if (name == "att") return build(att_spec());
    if (name == "internet2") return build(internet2_spec());
    if (name == "cost266") return build(cost266_spec());
    throw std::invalid_argument("load_topology: unknown topology '" + std::string(name) + "'");
}

}  // namespace vnfr::net
