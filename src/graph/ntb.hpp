// NTB — netrec topology binary, the versioned on-disk graph format.
//
// GML is the interchange format (Topology Zoo, CAIDA exports) but parsing it
// is a per-character lex of the whole file: minutes for a 10^6-node
// instance.  NTB stores the Graph's SoA columns verbatim — little-endian,
// 8-byte-aligned sections described by a section table — so loading is an
// mmap plus one bulk copy per column and one CSR pack, milliseconds to
// ~a second at internet scale.  See docs/ntb_format.md for the byte-level
// spec (magic, version, endianness tag, section kinds).
//
// Contract:
//   * save_ntb/to_ntb serialise topology, coordinates, capacities, repair
//     costs, broken flags and interned names — everything to_gml carries —
//     so GML -> NTB -> Graph round-trips bit-identically.
//   * load_ntb builds its graph through graph::Builder (full batch
//     validation: section bounds, endpoint ranges, finite metrics,
//     duplicate edges, 2^31 id ceiling).  Truncated or corrupt
//     input throws std::runtime_error naming the first offence.
//   * The format is strictly little-endian; a file written on a big-endian
//     host carries a mismatched endianness tag and is rejected rather than
//     misread.
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace netrec::graph {

/// Current format version written by save_ntb.
inline constexpr std::uint32_t kNtbVersion = 1;

/// Serialises `g` into an in-memory NTB image.
std::string to_ntb(const Graph& g);

/// Parses an NTB image; throws std::runtime_error on malformed input.
Graph parse_ntb(const void* data, std::size_t size);

/// Writes to_ntb(g) to `path`; throws std::runtime_error on I/O failure.
void save_ntb_file(const Graph& g, const std::string& path);

/// Loads `path` (mmap when available, buffered read otherwise) and parses.
Graph load_ntb_file(const std::string& path);

}  // namespace netrec::graph
