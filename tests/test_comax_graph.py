import math
import random
import tracemalloc

import numpy as np

from comax.comax_graph import (
    AdjacencyRows,
    class_summary,
    full_edges,
    g2_edges,
    g2_vertices,
)
from comax.ring_divisors import Modulus
from reference import adjacent, degree, dense_laplacian


def full_adjacency(n: int) -> np.ndarray:
    """Every row of the comaximal graph of Z_n from its row source."""
    return AdjacencyRows(Modulus.of(n), range(n))[:]


def ideal_sum_is_whole_ring(n: int, x: int, y: int) -> bool:
    """Independent adjacency oracle: the additive closure of {x, y} is all of Z_n.

    Enumerates the subgroup generated by x and y element by element, with no
    gcd reasoning anywhere.
    """
    seen = {0}
    frontier = [0]
    while frontier:
        e = frontier.pop()
        for inc in (x, y):
            v = (e + inc) % n
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


def test_adjacent_examples():
    adj = full_adjacency(6)
    assert adj[1, 4]  # unit adjacent to everything
    assert not adj[0, 2]  # zero sees only units
    assert adj[2, 3]
    assert not adj[2, 4]
    assert not adj[3, 3]


def test_adjacent_matches_ideal_sum_oracle_exhaustive():
    # pins both the program's adjacency and the scalar reference the other
    # tests build on to the ring definition
    for n in range(3, 61):
        adj = full_adjacency(n)
        for x in range(n):
            for y in range(x + 1, n):
                whole = ideal_sum_is_whole_ring(n, x, y)
                assert adj[x, y] == whole == adjacent(n, x, y), (n, x, y)


def test_adjacent_matches_ideal_sum_oracle_sampled():
    rng = random.Random(20240811)
    for _ in range(400):
        n = rng.randrange(61, 201)
        x = rng.randrange(n)
        y = rng.randrange(n)
        if x == y:
            continue
        adj = full_adjacency(n)
        assert adj[x, y] == ideal_sum_is_whole_ring(n, x, y), (n, x, y)


def test_class_sizes_cover_ring():
    for n in range(3, 120):
        m = Modulus.of(n)
        rows = class_summary(m)
        assert sum(r["size"] for r in rows) == n
        unit = next(r for r in rows if r["divisor"] == 1)
        zero = next(r for r in rows if r["divisor"] == n)
        assert unit["size"] == m.phi
        assert zero["size"] == 1


def test_class_summary_matches_definition():
    # row by row from the classes A_d = {x : gcd(x, n) = d} listed element by
    # element, and from the scalar ``adjacent`` between two distinct members
    for n in list(range(3, 301)) + [2310]:
        m = Modulus.of(n)
        members: dict[int, list[int]] = {}
        for x in range(n):
            members.setdefault(math.gcd(x, n), []).append(x)
        rows = class_summary(m)
        assert [r["divisor"] for r in rows] == sorted(members), n
        for r in rows:
            d = r["divisor"]
            assert r["size"] == len(members[d]), (n, d)
            x = members[d][0]
            expected = []
            for e in sorted(members):
                others = [y for y in members[e] if y != x]
                if others and adjacent(n, x, others[0]):
                    expected.append(e)
            assert r["neighbors"] == expected, (n, d)


def test_degree_examples():
    assert full_adjacency(6).sum(axis=1).tolist() == [2, 5, 3, 4, 3, 5]
    assert degree(6, 1) == 5
    assert degree(6, 0) == 2
    by_enumeration = sum(1 for y in range(12) if adjacent(12, 3, y))
    assert by_enumeration == 8
    assert degree(12, 3) == 8
    assert dense_laplacian(12)[3, 3] == 8


def test_degree_matches_enumeration():
    # the program's degrees (the adjacency row sums) against the closed form
    # n * prod_{p | gcd(x, n)} (1 - 1/p), less 1 for units, and both against
    # a count of the reference adjacency
    for n in range(3, 80):
        diagonal = full_adjacency(n).sum(axis=1).tolist()
        for x in range(n):
            by_enumeration = sum(1 for y in range(n) if adjacent(n, x, y))
            assert diagonal[x] == degree(n, x) == by_enumeration, (n, x)


def test_no_adjacency_within_a_class():
    for n in (12, 30, 36, 60):
        adj = full_adjacency(n)
        byclass: dict[int, list[int]] = {}
        for x in range(n):
            byclass.setdefault(math.gcd(x, n), []).append(x)
        for d, members in byclass.items():
            if d == 1:
                continue  # units form a clique instead
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    assert not adj[x, y]


def test_between_class_adjacency_is_all_or_nothing():
    for n in (12, 30, 36, 45):
        adj = full_adjacency(n)
        byclass: dict[int, list[int]] = {}
        for x in range(n):
            byclass.setdefault(math.gcd(x, n), []).append(x)
        divs = sorted(byclass)
        for i, d in enumerate(divs):
            for e in divs[i + 1 :]:
                flags = {bool(adj[x, y]) for x in byclass[d] for y in byclass[e]}
                assert len(flags) == 1, (n, d, e)


def test_dense_laplacian_small():
    lap = dense_laplacian(3)
    assert lap.tolist() == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_dense_laplacian_structure():
    for n in (4, 6, 12, 30):
        lap = dense_laplacian(n)
        assert np.array_equal(lap, lap.T)
        assert lap.sum(axis=1).tolist() == [0] * n
        for x in range(n):
            assert lap[x, x] == degree(n, x)
            for y in range(n):
                if x != y:
                    assert lap[x, y] == (-1 if adjacent(n, x, y) else 0)
    assert dense_laplacian(6).trace() == 22


def test_edge_lists():
    m = Modulus.of(6)
    edges = list(full_edges(m))
    assert len(edges) == dense_laplacian(m.n).trace() // 2
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)
    g2e = list(g2_edges(m))
    assert g2_vertices(m) == [2, 3, 4]
    assert g2e == [(2, 3), (3, 4)]


def test_g2_vertices_are_the_nonzero_non_units_as_python_ints():
    for n in [*range(3, 61), 210, 2310, 4093]:
        verts = g2_vertices(Modulus.of(n))
        assert verts == [x for x in range(1, n) if math.gcd(x, n) != 1], n
        assert all(type(x) is int for x in verts), n


def test_g2_vertices_cost_scales_with_g2_not_with_n():
    # at p^2, G2 is the p - 1 multiples of p while n = p^2: a build over
    # 1..n-1 traces two int64 arrays of n (268 MB here), the multiples of the
    # primes about 1.3 MB
    p = 4093
    tracemalloc.start()
    try:
        verts = g2_vertices(Modulus.of(p * p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verts == list(range(p, p * p, p))
    assert peak < 8 * 2**20, peak


def scalar_edges(n: int, verts: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :] if adjacent(n, u, v)]


def test_edge_exports_match_scalar_adjacent():
    # the exports read the gcd table row by row; the reference is the scalar
    # pairwise definition, in lexicographic order
    for n in list(range(3, 61)) + [210]:
        m = Modulus.of(n)
        assert list(full_edges(m)) == scalar_edges(n, list(range(n))), n
        assert list(g2_edges(m)) == scalar_edges(n, g2_vertices(m)), n


def test_degree_sum_is_twice_edge_count():
    for n in (6, 12, 15, 30, 49, 60):
        m = Modulus.of(n)
        degree_sum = sum(degree(n, x) for x in range(n))
        assert degree_sum == 2 * len(list(full_edges(m)))
        assert degree_sum == dense_laplacian(m.n).trace()


def test_class_summary_schema():
    m = Modulus.of(12)
    summary = class_summary(m)
    by_div = {row["divisor"]: row for row in summary}
    assert set(by_div) == {1, 2, 3, 4, 6, 12}
    assert by_div[1]["size"] == 4
    # units are adjacent to every class including themselves (clique)
    assert by_div[1]["neighbors"] == [1, 2, 3, 4, 6, 12]
    assert by_div[2]["neighbors"] == [1, 3]
    assert by_div[12]["neighbors"] == [1]
    assert by_div[6]["neighbors"] == [1]


def test_adjacency_rows_read_slices_and_positions_alike():
    # a slice is turned into its positions, and an int array is used as it
    # is: both give the rows of the whole matrix at those positions, with a
    # False diagonal, in order, also for a G2 vertex list
    for m in (Modulus.of(30), Modulus.of(360)):
        for verts in (range(m.n), g2_vertices(m)):
            rows = AdjacencyRows(m, verts)
            whole = rows[:]
            size = len(verts)
            assert whole.shape == (size, size) and not whole.diagonal().any()
            ref = np.array([[adjacent(m.n, x, y) for y in verts] for x in verts])
            assert (whole == ref).all()
            for pos in (slice(3, 17), slice(None, None, 5), slice(size - 4, None)):
                picked = np.arange(size)[pos]
                assert rows[pos].tobytes() == rows[picked].tobytes() == whole[picked].tobytes()
            shuffled = np.random.default_rng(m.n).permutation(size)[:40]
            assert rows[shuffled].tobytes() == whole[shuffled].tobytes()
