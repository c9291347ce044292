// Synthetic graph generators.
//
// The paper evaluates on 12 SuiteSparse graphs in four classes (web,
// social, road, protein k-mer) plus 2 SNAP temporal networks. Those
// datasets are hundreds of millions to billions of edges and are not
// available offline, so we generate deterministic stand-ins from the same
// structural families at laptop scale: the engines' relative behaviour
// depends on degree skew, locality and diameter, which a family keeps at
// any size. Every generator is seeded and reproducible.
#pragma once

#include <vector>

#include "graph/io.hpp"
#include "graph/types.hpp"
#include "util/rng.hpp"

namespace lfpr {

/// RMAT / Kronecker generator (Chakrabarti et al.): power-law in/out
/// degrees, community-like self-similarity, small-world. Produces
/// numVertices = 2^scale. Probabilities (a, b, c, d) must sum to 1;
/// defaults are the common parameterization.
std::vector<Edge> generateRmat(int scale, EdgeId numEdges, Rng& rng, double a = 0.57,
                               double b = 0.19, double c = 0.19, double d = 0.05);

/// Host-structured web-crawl generator: the stand-in for the LAW crawls
/// (indochina-2004, uk-2005, ...). Pages are grouped into hosts; most
/// links stay within the host (site navigation), some go to nearby hosts
/// (crawl/topical locality), and a few go to globally popular hub pages.
/// This matches the defining properties of real crawls that RMAT lacks:
/// heavy-tailed degrees *with* strong locality and a large effective
/// diameter — the structure that keeps dynamic-frontier propagation local.
std::vector<Edge> generateWebGraph(VertexId numPages, VertexId hostSize,
                                   double avgOutDegree, Rng& rng);

/// Erdős–Rényi G(n, m): m distinct uniform edges (no self-loops).
std::vector<Edge> generateErdosRenyi(VertexId numVertices, EdgeId numEdges, Rng& rng);

/// Barabási–Albert preferential attachment with `edgesPerVertex` out-edges
/// per new vertex; heavy-tailed degrees. Stand-in for social networks
/// (com-LiveJournal, com-Orkut) once symmetrized.
std::vector<Edge> generateBarabasiAlbert(VertexId numVertices, VertexId edgesPerVertex,
                                         Rng& rng);

/// 2-D grid (rows x cols, 4-neighbour) with a small fraction of random
/// shortcut edges; near-planar with avg degree ~3-4 when symmetrized.
/// Stand-in for the DIMACS10 road networks (asia_osm, europe_osm).
std::vector<Edge> generateGrid(VertexId rows, VertexId cols, double shortcutFraction,
                               Rng& rng);

/// Long chains with occasional branch/merge vertices; avg degree ~3 when
/// symmetrized, matching GenBank k-mer graphs (kmer_A2a, kmer_V1r).
std::vector<Edge> generateKmerChains(VertexId numVertices, double branchProbability,
                                     Rng& rng);

/// Add the reverse of every edge (paper: "for undirected graphs we add
/// two directed edges"). Result may contain duplicates; CSR dedup or
/// DynamicDigraph insertion removes them.
std::vector<Edge> symmetrize(const std::vector<Edge>& edges);

/// Append a self-loop for every vertex (dead-end elimination).
void appendSelfLoops(std::vector<Edge>& edges, VertexId numVertices);

/// Temporal-stream generator: a growing interaction network emitting
/// timestamped edges in arrival order, including duplicate edges
/// (Table 1 distinguishes |E_T| temporal from |E| static edges; e.g.
/// wiki-talk has 7.83M temporal vs 3.31M static).
///
/// `duplicateFraction` controls how many events repeat an existing edge.
/// Interactions exhibit *temporal locality*: most events connect recently
/// activated vertices (a question gets answered while fresh), with a
/// `hubFraction` of events targeting globally popular old vertices
/// (admins, celebrity users). `localityWindow` is the width of the
/// recent-vertex window (0 selects numVertices/20); locality is what
/// gives real interaction networks an effective diameter that grows with
/// their size.
std::vector<TemporalEdge> generateTemporalStream(VertexId numVertices,
                                                 EdgeId numTemporalEdges,
                                                 double duplicateFraction, Rng& rng,
                                                 double hubFraction = 0.15,
                                                 VertexId localityWindow = 0);

}  // namespace lfpr
