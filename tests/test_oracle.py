import itertools
import random

import numpy as np
import pytest

from comax.cli import main
from comax.oracle import (
    OracleLimitExceeded,
    SimpleGraph,
    complement,
    connected_components,
    count_components,
    exact_char_poly_full,
    full_graph,
    g2_adjacency,
    g2_graph,
    min_vertex_cut,
    numeric_spectrum,
)
from comax.comax_graph import dense_laplacian
from comax.polynomial import IntPoly, bareiss_det
from comax.ring_divisors import Modulus


def brute_force_vertex_cut(g: SimpleGraph) -> int:
    """Exhaustive subset-removal search; only sane for tiny graphs."""
    if connected_components(g) > 1:
        return 0
    if g.is_complete():
        return g.n - 1
    for k in range(1, g.n - 1):
        for removed in itertools.combinations(g.vertices, k):
            keep = [v for v in g.vertices if v not in removed]
            sub = SimpleGraph(keep)
            removed_set = set(removed)
            for u in keep:
                for v in g.adj[u]:
                    if v in removed_set or v <= u:
                        continue
                    sub.add_edge(u, v)
            if connected_components(sub) > 1:
                return k
    return g.n - 1


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(range(n), itertools.combinations(range(n), 2))


def test_numeric_spectrum_examples():
    k3 = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    s = numeric_spectrum(k3)
    assert np.allclose(s.eigenvalues, [0, 3, 3])
    assert s.backward_error < 1e-10

    z4 = numeric_spectrum(dense_laplacian(Modulus.of(4)))
    assert np.allclose(z4.eigenvalues, [0, 2, 4, 4])

    zeros = numeric_spectrum(np.zeros((5, 5), dtype=np.int64))
    assert zeros.eigenvalues == (0, 0, 0, 0, 0)


def test_numeric_spectrum_laplacian_invariants():
    for n in (6, 12, 30, 60):
        lap = dense_laplacian(Modulus.of(n))
        s = numeric_spectrum(lap)
        assert len(s.eigenvalues) == n
        assert list(s.eigenvalues) == sorted(s.eigenvalues)
        assert s.eigenvalues[0] >= -1e-9 * n
        assert abs(sum(s.eigenvalues) - lap.trace()) <= 1e-6 * max(1, lap.trace())


def test_numeric_spectrum_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError):
        numeric_spectrum(np.array([[0, 1], [2, 0]]))
    monkeypatch.setenv("COMAX_DENSE_LIMIT", "3")
    with pytest.raises(OracleLimitExceeded):
        numeric_spectrum(np.zeros((4, 4), dtype=np.int64))


def test_exact_char_poly_examples():
    assert exact_char_poly_full(Modulus.of(3)).coeffs == (0, 9, -6, 1)
    assert exact_char_poly_full(Modulus.of(5)) == IntPoly.from_roots([(0, 1), (5, 4)])
    assert exact_char_poly_full(Modulus.of(6)) == IntPoly.from_roots(
        [(0, 1), (6, 2), (5, 1), (3, 1), (2, 1)]
    )
    with pytest.raises(OracleLimitExceeded):
        exact_char_poly_full(Modulus.of(65))


def test_exact_char_poly_point_evaluation():
    # the polynomial evaluated at integer points equals the determinant there
    for n in (4, 6, 9, 10):
        m = Modulus.of(n)
        p = exact_char_poly_full(m)
        lap = dense_laplacian(m).tolist()
        for x in (0, 1, 7, -2):
            shifted = [
                [(x if i == j else 0) - lap[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert p(x) == bareiss_det(shifted)


def test_min_vertex_cut_examples():
    k4_minus_edge = complete_graph(4)
    k4_minus_edge.adj[0].discard(1)
    k4_minus_edge.adj[1].discard(0)
    assert min_vertex_cut(k4_minus_edge) == 2

    assert min_vertex_cut(full_graph(Modulus.of(6))) == 2

    star = SimpleGraph(range(5), [(0, i) for i in range(1, 5)])
    assert min_vertex_cut(star) == 1


def test_min_vertex_cut_conventions():
    assert min_vertex_cut(complete_graph(5)) == 4
    disconnected = SimpleGraph(range(4), [(0, 1), (2, 3)])
    assert min_vertex_cut(disconnected) == 0
    assert min_vertex_cut(SimpleGraph([0])) == 0
    with pytest.raises(OracleLimitExceeded):
        min_vertex_cut(SimpleGraph(range(300)))


def test_min_vertex_cut_double_oracle_random():
    rng = random.Random(20240811)
    for _ in range(40):
        n = rng.randrange(4, 11)
        g = SimpleGraph(range(n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    g.add_edge(u, v)
        assert min_vertex_cut(g) == brute_force_vertex_cut(g), (
            n,
            sorted((u, v) for u in g.adj for v in g.adj[u] if u < v),
        )


def test_min_vertex_cut_double_oracle_structured():
    for n in (6, 10, 12):
        g = full_graph(Modulus.of(n))
        assert min_vertex_cut(g) == brute_force_vertex_cut(g)
    for n in (12, 15, 16):
        g = g2_graph(Modulus.of(n))
        assert min_vertex_cut(g) == brute_force_vertex_cut(g)


def test_full_graph_matches_dense_laplacian():
    for n in (6, 12, 30, 49):
        adjacency = -dense_laplacian(Modulus.of(n))
        np.fill_diagonal(adjacency, 0)
        g = full_graph(Modulus.of(n))
        assert g.vertices == list(range(n))
        assert all(
            (v in g.adj[u]) == bool(adjacency[u, v]) for u in range(n) for v in range(n)
        )


def test_connected_components_examples():
    assert connected_components(g2_graph(Modulus.of(30))) == 1
    assert connected_components(g2_graph(Modulus.of(12))) == 2
    assert connected_components(SimpleGraph(range(5))) == 5
    assert connected_components(SimpleGraph([])) == 0


def test_complement():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[2, 3] = adj[3, 2] = True
    c = complement(adj)
    assert c.sum() // 2 == 4
    assert not c.diagonal().any()
    assert not c[0, 1] and c[0, 3]


def disjoint_cliques(*sizes: int) -> np.ndarray:
    adj = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
    start = 0
    for size in sizes:
        adj[start : start + size, start : start + size] = True
        start += size
    np.fill_diagonal(adj, False)
    return adj


def test_count_components_hand_cases():
    assert count_components(np.zeros((0, 0), dtype=bool)) == 0
    assert count_components(np.zeros((5, 5), dtype=bool)) == 5
    assert count_components(complement(np.zeros((5, 5), dtype=bool))) == 1
    two_cliques = disjoint_cliques(3, 4)
    assert count_components(two_cliques) == 2
    # the complement of two disjoint cliques is complete bipartite
    assert count_components(complement(two_cliques)) == 1
    assert count_components(disjoint_cliques(1, 2, 1)) == 3
    # a path 0-1-2-3 is found through several frontier steps
    path = np.zeros((4, 4), dtype=bool)
    for u in range(3):
        path[u, u + 1] = path[u + 1, u] = True
    assert count_components(path) == 1


def test_count_components_matches_simple_graph():
    for n in range(4, 301):
        m = Modulus.of(n)
        if m.is_prime:
            continue
        g = g2_graph(m)
        adj = g2_adjacency(m)
        assert adj.shape == (g.n, g.n)
        assert adj.sum() // 2 == g.edge_count(), n
        assert count_components(adj) == connected_components(g), n
        co = SimpleGraph(g.vertices)
        for i, u in enumerate(g.vertices):
            for v in g.vertices[i + 1 :]:
                if v not in g.adj[u]:
                    co.add_edge(u, v)
        assert count_components(complement(adj)) == connected_components(co), n


def test_g2_oracles_capped_at_dense_limit(monkeypatch, capsys):
    monkeypatch.setenv("COMAX_DENSE_LIMIT", "100")
    with pytest.raises(OracleLimitExceeded):
        g2_adjacency(Modulus.of(210))  # |V(G2)| = 161
    assert g2_adjacency(Modulus.of(120)).shape == (87, 87)
    assert main(["verify", "210"]) == 0
    out = capsys.readouterr().out
    assert "[skip] g2-connected-iff-squarefree: |V(G2)|=161 exceeds dense limit 100" in out
    assert "[skip] g2-complement-connected: |V(G2)|=161 exceeds dense limit 100" in out
    assert main(["g2", "210", "components"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|V(G2)|=161 exceeds dense limit 100" in captured.err
