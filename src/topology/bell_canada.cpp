#include <stdexcept>

#include "graph/builder.hpp"
#include "topology/topologies.hpp"

namespace netrec::topology {

namespace {

/// The paper's capacity plan: two backbones and the access links.
constexpr double kBackboneCapacity = 50.0;
constexpr double kSecondaryCapacity = 30.0;
constexpr double kAccessCapacity = 20.0;

struct City {
  const char* name;
  double lon;
  double lat;
};

// 48 nodes.  Coordinates are approximate city locations (degrees); the
// disruption models only use relative geometry.
constexpr City kCities[] = {
    {"Victoria", -123.37, 48.43},       // 0
    {"Vancouver", -123.12, 49.28},      // 1
    {"Whistler", -122.96, 50.12},       // 2
    {"Kamloops", -120.33, 50.67},       // 3
    {"Kelowna", -119.49, 49.89},        // 4
    {"PrinceGeorge", -122.75, 53.92},   // 5
    {"Edmonton", -113.49, 53.55},       // 6
    {"RedDeer", -113.81, 52.27},        // 7
    {"Calgary", -114.07, 51.05},        // 8
    {"Lethbridge", -112.84, 49.69},     // 9
    {"MedicineHat", -110.68, 50.04},    // 10
    {"Saskatoon", -106.67, 52.13},      // 11
    {"Regina", -104.62, 50.45},         // 12
    {"PrinceAlbert", -105.75, 53.20},   // 13
    {"Brandon", -99.95, 49.85},         // 14
    {"Winnipeg", -97.14, 49.90},        // 15
    {"Kenora", -94.49, 49.77},          // 16
    {"ThunderBay", -89.25, 48.38},      // 17
    {"SaultSteMarie", -84.33, 46.52},   // 18
    {"Sudbury", -80.99, 46.49},         // 19
    {"Timmins", -81.33, 48.48},         // 20
    {"NorthBay", -79.46, 46.31},        // 21
    {"Barrie", -79.69, 44.39},          // 22
    {"Toronto", -79.38, 43.65},         // 23
    {"Hamilton", -79.87, 43.26},        // 24
    {"Kitchener", -80.49, 43.45},       // 25
    {"London", -81.25, 42.98},          // 26
    {"Windsor", -83.04, 42.32},         // 27
    {"NiagaraFalls", -79.07, 43.09},    // 28
    {"Peterborough", -78.32, 44.30},    // 29
    {"Kingston", -76.48, 44.23},        // 30
    {"Ottawa", -75.70, 45.42},          // 31
    {"Montreal", -73.57, 45.50},        // 32
    {"TroisRivieres", -72.54, 46.34},   // 33
    {"Sherbrooke", -71.89, 45.40},      // 34
    {"QuebecCity", -71.21, 46.81},      // 35
    {"Chicoutimi", -71.06, 48.43},      // 36
    {"Rimouski", -68.52, 48.45},        // 37
    {"Bathurst", -65.65, 47.62},        // 38
    {"Fredericton", -66.64, 45.96},     // 39
    {"SaintJohn", -66.06, 45.27},       // 40
    {"Moncton", -64.80, 46.09},         // 41
    {"Charlottetown", -63.13, 46.24},   // 42
    {"Halifax", -63.57, 44.65},         // 43
    {"Sydney", -60.18, 46.14},          // 44
    {"StJohns", -52.71, 47.56},         // 45
    {"CornerBrook", -57.95, 48.95},     // 46
    {"Yarmouth", -66.12, 43.84},        // 47
};

struct Link {
  int u;
  int v;
  int tier;  ///< 0 = primary backbone, 1 = secondary backbone, 2 = access
};

// 64 edges: 11 primary + 17 secondary + 36 access.
constexpr Link kLinks[] = {
    // Primary west-east backbone (capacity 50).
    {1, 8, 0},   {8, 12, 0},  {12, 15, 0}, {15, 17, 0}, {17, 19, 0},
    {19, 23, 0}, {23, 31, 0}, {31, 32, 0}, {32, 35, 0}, {35, 39, 0},
    {39, 43, 0},
    // Secondary backbone (capacity 30).  Includes the prairie and northern
    // Ontario reliefs (12-14, 16-17, 20-31) that keep every west-east cut at
    // 80+ units, so the paper's heaviest sweeps (7 pairs x 10 units, 4 pairs
    // x 18 units) stay feasible exactly as on the real Bell Canada network.
    {1, 3, 1},   {3, 4, 1},   {4, 8, 1},   {6, 8, 1},   {6, 11, 1},
    {11, 12, 1}, {23, 24, 1}, {24, 26, 1}, {26, 27, 1}, {23, 30, 1},
    {30, 31, 1}, {32, 34, 1}, {34, 35, 1}, {35, 37, 1}, {37, 38, 1},
    {38, 41, 1}, {41, 43, 1}, {12, 14, 1}, {16, 17, 1}, {20, 31, 1},
    {23, 32, 1},
    // Access links (capacity 20).
    {0, 1, 2},   {1, 2, 2},   {3, 5, 2},   {5, 6, 2},   {6, 7, 2},
    {7, 8, 2},   {8, 9, 2},   {9, 10, 2},  {10, 12, 2}, {11, 13, 2},
    {14, 15, 2}, {15, 16, 2}, {17, 18, 2},
    {18, 19, 2}, {19, 20, 2}, {19, 21, 2}, {21, 22, 2}, {22, 23, 2},
    {23, 25, 2}, {25, 26, 2}, {24, 28, 2}, {29, 30, 2},
    {31, 21, 2}, {32, 33, 2}, {35, 36, 2}, {39, 40, 2},
    {40, 41, 2}, {41, 42, 2}, {43, 44, 2}, {44, 45, 2}, {45, 46, 2},
    {43, 47, 2},
};

}  // namespace

namespace detail {

graph::Graph bell_canada_impl() {
  graph::Builder builder;
  for (const City& city : kCities) {
    builder.add_node(city.name, city.lon, city.lat, kRepairCost);
  }
  for (const Link& link : kLinks) {
    double capacity = kAccessCapacity;
    if (link.tier == 0) capacity = kBackboneCapacity;
    if (link.tier == 1) capacity = kSecondaryCapacity;
    builder.add_edge(link.u, link.v, capacity, kRepairCost);
  }
  if (builder.num_nodes() != 48 || builder.num_edges() != 64) {
    throw std::logic_error("bell_canada_like: node/edge table corrupted");
  }
  return builder.finalize();
}

}  // namespace detail

}  // namespace netrec::topology
