"""Brute-force ground truth on the full graph.

Nothing in here knows about the quotient decomposition.  Every dense oracle
starts from one boolean adjacency matrix computed from element gcds
(``comax_graph.adjacency``): spectra come from a dense symmetric eigensolver
or from the exact characteristic polynomial of the full n x n Laplacian
built on it, and component counts (of G2 and of its complement) come from a
frontier traversal of that matrix.  ``SimpleGraph`` adjacency sets remain
only for the vertex-capacity max-flow of the minimum vertex cut, which is
capped at a few hundred vertices.  Disagreement with the quotient pipeline
means a bug, so these paths share no spectral shortcut with it.  The one
exception is the exact charpoly kernel ``char_poly_matrix``, used by both on
different matrices; the tests check that kernel independently, against sympy
and against ``bareiss_det`` at random points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from . import config
from .comax_graph import adjacency, dense_laplacian, full_edges, g2_edges, g2_vertices
from .polynomial import IntPoly, char_poly_matrix
from .ring_divisors import Modulus


class OracleLimitExceeded(Exception):
    """Raised when an input is beyond the configured brute-force size caps."""


@dataclass(frozen=True)
class DenseSpectrum:
    """Numeric eigenvalues of a dense Laplacian, ascending, with an error bound."""

    eigenvalues: tuple[float, ...]
    backward_error: float


def numeric_spectrum(laplacian: np.ndarray) -> DenseSpectrum:
    """All eigenvalues of a dense symmetric integer matrix, ascending.

    Uses a backward-stable symmetric eigensolver (orthogonal similarity);
    the reported bound is a conservative estimate of the absolute eigenvalue
    error, far below the 1e-6 comparison tolerances used elsewhere.
    """
    mat = np.asarray(laplacian)
    n = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(mat, mat.T):
        raise ValueError("matrix must be symmetric")
    cap = config.dense_limit()
    if n > cap:
        raise OracleLimitExceeded(f"size {n} exceeds dense limit {cap}")
    eig = np.linalg.eigvalsh(mat.astype(np.float64))
    norm = float(np.abs(mat).sum(axis=1).max()) if n else 0.0
    bound = max(n, 1) * norm * np.finfo(np.float64).eps
    return DenseSpectrum(eigenvalues=tuple(float(v) for v in eig), backward_error=bound)


def exact_char_poly_full(m: Modulus) -> IntPoly:
    """Exact characteristic polynomial of the full n x n Laplacian.

    The exact charpoly kernel run on the dense matrix rather than on the
    quotient; capped (at 64) to keep the dense matrix small.
    """
    limit = config.EXACT_CHARPOLY_LIMIT
    if m.n > limit:
        raise OracleLimitExceeded(f"n={m.n} exceeds exact char poly limit {limit}")
    lap = dense_laplacian(m)
    return char_poly_matrix([[int(v) for v in row] for row in lap])


class SimpleGraph:
    """Small undirected graph on hashable vertex labels, adjacency-set based:
    the input of the capped minimum vertex cut."""

    def __init__(self, vertices: Iterable[Hashable], edges: Iterable[tuple] = ()):
        self.vertices = list(vertices)
        self.adj: dict[Hashable, set] = {v: set() for v in self.vertices}
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        if u == v:
            raise ValueError("no self-loops")
        self.adj[u].add(v)
        self.adj[v].add(u)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def degree(self, v: Hashable) -> int:
        return len(self.adj[v])

    def is_complete(self) -> bool:
        return all(len(self.adj[v]) == self.n - 1 for v in self.vertices)


def full_graph(m: Modulus) -> SimpleGraph:
    """Explicit comaximal graph of Z_n."""
    return SimpleGraph(range(m.n), full_edges(m))


def g2_graph(m: Modulus) -> SimpleGraph:
    """Explicit G2: induced subgraph on the nonzero non-units."""
    return SimpleGraph(g2_vertices(m), g2_edges(m))


def connected_components(g: SimpleGraph) -> int:
    """Number of connected components, by traversal."""
    seen: set = set()
    count = 0
    for start in g.vertices:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


def g2_adjacency(m: Modulus) -> np.ndarray:
    """Boolean adjacency of G2 (ascending nonzero non-units), capped at the
    dense limit on its n - phi(n) - 1 vertices."""
    size = m.n - m.phi - 1
    cap = config.dense_limit()
    if size > cap:
        raise OracleLimitExceeded(f"|V(G2)|={size} exceeds dense limit {cap}")
    return adjacency(m, g2_vertices(m))


def complement(adj: np.ndarray) -> np.ndarray:
    """Boolean adjacency of the complement graph (False diagonal)."""
    out = ~adj
    np.fill_diagonal(out, False)
    return out


def count_components(adj: np.ndarray) -> int:
    """Number of connected components of a boolean adjacency matrix, by
    frontier traversal: each step adds the unseen neighbours of the whole
    frontier at once."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    count = 0
    while not seen.all():
        frontier = np.zeros_like(seen)
        frontier[np.argmin(seen)] = True
        while frontier.any():
            seen |= frontier
            frontier = adj[frontier].any(axis=0) & ~seen
        count += 1
    return count


class _Dinic:
    """Unit-style max-flow on an integer-capacity digraph (adjacency lists)."""

    def __init__(self, size: int):
        self.size = size
        self.graph: list[list[list[int]]] = [[] for _ in range(size)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])

    def max_flow(self, s: int, t: int, limit: int) -> int:
        """Max flow from s to t, stopping early once ``limit`` is reached."""
        flow = 0
        while flow < limit:
            level = [-1] * self.size
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for e in self.graph[u]:
                    if e[1] > 0 and level[e[0]] < 0:
                        level[e[0]] = level[u] + 1
                        queue.append(e[0])
            if level[t] < 0:
                break
            it = [0] * self.size
            while flow < limit:
                pushed = self._dfs(s, t, level, it)
                if not pushed:
                    break
                flow += pushed
        return flow

    def _dfs(self, u: int, t: int, level: list[int], it: list[int]) -> int:
        if u == t:
            return 1
        while it[u] < len(self.graph[u]):
            e = self.graph[u][it[u]]
            v = e[0]
            if e[1] > 0 and level[v] == level[u] + 1:
                if self._dfs(v, t, level, it):
                    e[1] -= 1
                    self.graph[v][e[2]][1] += 1
                    return 1
            it[u] += 1
        return 0


def _disjoint_paths(g: SimpleGraph, s: Hashable, t: Hashable, limit: int) -> int:
    """Max internally vertex-disjoint s-t paths (vertex-splitting max-flow),
    truncated at ``limit``."""
    index = {v: i for i, v in enumerate(g.vertices)}
    size = 2 * g.n  # v_in = 2i, v_out = 2i + 1
    net = _Dinic(size)
    for v, i in index.items():
        net.add_edge(2 * i, 2 * i + 1, 1)
    for u in g.vertices:
        for v in g.adj[u]:
            net.add_edge(2 * index[u] + 1, 2 * index[v], 1)
    return net.max_flow(2 * index[s] + 1, 2 * index[t], limit)


def min_vertex_cut(g: SimpleGraph) -> int:
    """Vertex connectivity of g by Menger max-flow over non-adjacent pairs.

    Complete graphs return n - 1 by convention (no separating set exists);
    disconnected graphs return 0.  The pair search is reduced to a minimum
    degree vertex v: any minimum separator avoiding v is found on a pair
    (v, non-neighbor), and one containing v on a pair of non-adjacent
    neighbors of v.  Pairs whose common-neighborhood size already reaches
    the best cut found so far are skipped, since the flow between them
    cannot be smaller; this keeps the result exact while avoiding almost
    every flow computation on dense class-structured graphs.
    """
    n = g.n
    if n > config.VERTEX_CUT_LIMIT:
        raise OracleLimitExceeded(
            f"{n} vertices exceeds vertex cut limit {config.VERTEX_CUT_LIMIT}"
        )
    if n <= 1 or connected_components(g) > 1:
        return 0
    if g.is_complete():
        return n - 1
    v = min(g.vertices, key=g.degree)
    best = g.degree(v)  # N(v) separates v from the (nonempty) rest
    neighbors = g.adj[v]
    for t in g.vertices:
        if t == v or t in neighbors:
            continue
        if len(neighbors & g.adj[t]) >= best:
            continue
        best = min(best, _disjoint_paths(g, v, t, best))
    nb = sorted(neighbors, key=lambda u: g.degree(u))
    for i, x in enumerate(nb):
        for y in nb[i + 1 :]:
            if y in g.adj[x]:
                continue
            if len(g.adj[x] & g.adj[y]) >= best:
                continue
            best = min(best, _disjoint_paths(g, x, y, best))
    return best
