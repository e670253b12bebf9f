import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from comax import config, oracle
from comax.cli import main
from comax.connectivity import g2_components, kappa_g2_bound, vertex_connectivity
from comax.oracle import (
    OracleLimitExceeded,
    block_power_sums,
    count_components,
    dense_spectrum,
    g2_rows,
    min_vertex_cut,
    numeric_spectrum,
)
from comax.comax_graph import adjacency, g2_vertices
from comax.polynomial import IntPoly, char_polys
from comax.ring_divisors import Modulus
from reference import (
    adjacent,
    bareiss_det,
    block_diagonal,
    class_blocks,
    dense_laplacian,
    exact_traces,
    expanded,
    g2_component_counts,
)


def brute_force_vertex_cut(adj: np.ndarray) -> int:
    """Exhaustive subset-removal search; only sane for tiny graphs."""
    n = adj.shape[0]
    if count_components(adj) > 1:
        return 0
    if adj.sum() == n * (n - 1):
        return n - 1
    for k in range(1, n - 1):
        for removed in itertools.combinations(range(n), k):
            keep = [v for v in range(n) if v not in removed]
            if count_components(adj[np.ix_(keep, keep)]) > 1:
                return k
    return n - 1


def complete_graph(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def graph_from_edges(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def full_adjacency(n: int) -> np.ndarray:
    return adjacency(Modulus.of(n), range(n))


def test_numeric_spectrum_examples():
    k3 = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.allclose(numeric_spectrum(k3), [0, 3, 3])

    z4 = numeric_spectrum(dense_laplacian(4))
    assert np.allclose(z4, [0, 2, 4, 4])

    zeros = numeric_spectrum(np.zeros((5, 5), dtype=np.int64))
    assert zeros == (0, 0, 0, 0, 0)


def test_numeric_spectrum_laplacian_invariants():
    for n in (6, 12, 30, 60):
        lap = dense_laplacian(n)
        s = numeric_spectrum(lap)
        assert len(s) == n
        assert list(s) == sorted(s)
        assert s[0] >= -1e-9 * n
        assert abs(sum(s) - lap.trace()) <= 1e-6 * max(1, lap.trace())


def test_numeric_spectrum_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError):
        numeric_spectrum(np.array([[0, 1], [2, 0]]))
    monkeypatch.setattr(config, "DENSE_LIMIT", 3)
    with pytest.raises(OracleLimitExceeded):
        numeric_spectrum(np.zeros((4, 4), dtype=np.int64))


def test_numeric_spectrum_refuses_one_asymmetric_pair():
    # the symmetry check runs in 256-row panels: a lone pair at the far
    # corner and one across a panel edge are both caught
    lap = dense_laplacian(301)
    assert len(numeric_spectrum(lap)) == 301
    for i, j in ((0, 300), (255, 256)):
        bad = lap.copy()
        bad[i, j] += 1
        with pytest.raises(ValueError, match="symmetric"):
            numeric_spectrum(bad)
        with pytest.raises(ValueError, match="symmetric"):
            numeric_spectrum(bad.T)


def test_dense_spectrum_holds_one_float_laplacian():
    # tracemalloc sees numpy buffers but not the eigensolver's internal
    # working copy: the solve must not copy the float64 Laplacian, and
    # building plus solving must hold it once
    lap = dense_laplacian(1155)
    tracemalloc.start()
    try:
        numeric_spectrum(lap)
        solve_peak = tracemalloc.get_traced_memory()[1]
        del lap
        tracemalloc.reset_peak()
        lap = dense_laplacian(1155)
        numeric_spectrum(lap)
        both_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak < lap.nbytes / 2
    assert both_peak < 1.5 * lap.nbytes


def test_split_spectrum_matches_the_unsplit_eigensolver():
    # every n to 300, and 2310, 2730, 3990 and 4095, with 32, 32, 32 and 24
    # divisor classes, the last two near the dense cap of earlier splits
    for n in [*range(3, 301), 2310, 2730, 3990, 4095]:
        split = dense_spectrum(Modulus.of(n))
        whole = np.linalg.eigvalsh(dense_laplacian(n))
        assert len(split) == n, n
        assert list(split) == sorted(split), n
        assert np.max(np.abs(np.array(split) - whole)) <= 1e-9 * n, n


def test_split_charpoly_equals_the_unsplit_one():
    for n in range(3, 65):
        [whole] = char_polys([dense_laplacian(n).astype(np.int64)])
        assert expanded(*block_power_sums(Modulus.of(n))) == whole, n


def divisor_classes(n: int) -> dict[int, list[int]]:
    """A_d = {x : gcd(x, n) = d} for each divisor d of n, from scalar gcds."""
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(math.gcd(x, n), []).append(x)
    return classes


def test_split_solves_one_block_with_a_row_per_orbit():
    # the orbits of the unit group are the divisor classes: the one block
    # the split solves, its quotient, has a row per class in both forms, and
    # its class sizes are those counted from scalar gcds
    for n in [*range(3, 301), 2310, 2730, 4080, 4095]:
        split = oracle.twin_split(Modulus.of(n))
        classes = divisor_classes(n)
        k = len(classes)
        assert split.quotient.shape == split.symmetric().shape == (k, k), n
        assert split.sizes.tolist() == [len(classes[d]) for d in sorted(classes)], n


def test_split_reads_off_exactly_the_diagonal_reference_blocks():
    # the reference builds every block from the definition: each class
    # block is diagonal, the split's roots are their diagonals, and its
    # quotient is the reference's integer quotient
    for n in [*range(3, 131), 1155]:
        split = oracle.twin_split(Modulus.of(n))
        quotient, *blocks = class_blocks(n)
        assert all((b == np.diag(b.diagonal())).all() for b in blocks), n
        roots = Counter(v for b in blocks for v in b.diagonal().tolist())
        assert split.roots == tuple(sorted(roots.items())), n
        assert (split.quotient == quotient).all(), n


@pytest.mark.parametrize("symmetric", [True, False])
def test_read_off_blocks_equal_the_eigensolver_bit_for_bit(symmetric):
    # the split builds no class block, so its roots are checked against the
    # reference's class blocks, int64 or float64: each is diagonal, and up
    # to n = 300 the eigensolver returns the roots from them bit for bit
    # (above, the unit class alone has up to 1727 rows, and a diagonal
    # block's eigenvalues are its diagonal); the quotient is the
    # reference's in the same form; up to 64 the int64 class blocks'
    # charpolys multiply to the roots' polynomial too
    for n in [*range(3, 301), 2310, 2730, 4080, 4095]:
        split = oracle.twin_split(Modulus.of(n))
        quotient, *blocks = class_blocks(n, symmetric=symmetric)
        assert all((b == np.diag(b.diagonal())).all() for b in blocks), n
        read = np.array([float(r) for r, mult in split.roots for _ in range(mult)])
        solved = np.array(sorted(v for b in blocks for v in (
            numeric_spectrum(b) if n <= 300 else b.diagonal().astype(np.float64).tolist())))
        assert read.tobytes() == solved.tobytes(), n
        if symmetric:
            assert split.symmetric().dtype == quotient.dtype == np.float64, n
            assert np.max(np.abs(split.symmetric() - quotient)) <= 1e-12 * n, n
        else:
            assert split.quotient.dtype == quotient.dtype == np.int64, n
            assert (split.quotient == quotient).all(), n
        if not symmetric and n <= 64:
            whole = IntPoly.one()
            for b in blocks:
                whole = whole * char_polys([b])[0]
            assert expanded(split.roots, ()) == whole, n


def test_split_oracles_solve_only_the_blocks_they_cannot_read_off(monkeypatch):
    solved = []
    real_solve = oracle.numeric_spectrum
    monkeypatch.setattr(
        oracle, "numeric_spectrum", lambda b: solved.append(b.shape) or real_solve(b)
    )
    dense_spectrum(Modulus.of(2310))
    assert solved == [(32, 32)]
    sizes = []
    real_power_sums = oracle.power_sums
    monkeypatch.setattr(
        oracle, "power_sums", lambda h: sizes.append(len(h)) or real_power_sums(h)
    )
    for n in range(3, 65):
        sizes.clear()
        m = Modulus.of(n)
        width = len(block_power_sums(m).sums)
        assert width == len(oracle.twin_split(m).quotient) == len(divisor_classes(n)), n
        assert sizes == [width], n


def edit_adjacency(monkeypatch, edit, reads: list | None = None) -> None:
    """Make the oracles' row source of the full graph serve the rows of its
    adjacency as ``edit(adj, n)`` changes it in place; with ``reads``, also
    record the positions of every read."""
    real = oracle.AdjacencyRows

    class Edited(real):
        def __init__(self, m, verts):
            super().__init__(m, verts)
            self.adj = super().__getitem__(slice(None))
            edit(self.adj, m.n)

        def __getitem__(self, pos):
            if reads is not None:
                reads.append(np.arange(len(self))[pos])
            return self.adj[pos]

    monkeypatch.setattr(oracle, "AdjacencyRows", Edited)


def move_one_edge(monkeypatch, x: int, mirrored: bool = False) -> None:
    """Make the oracles' adjacency rows drop the first edge x-y at vertex x
    and join x to its first non-neighbour z instead, in both triangles;
    with ``mirrored``, also move -x-(-y) to -x-(-z)."""

    def moved(adj, n):
        y = int(np.argmax(adj[x]))
        z = next(v for v in range(n) if v != x and not adj[x, v])
        for sign in (1, -1) if mirrored else (1,):
            u, v, w = (sign * t % n for t in (x, y, z))
            adj[u, v] = adj[v, u] = False
            adj[u, w] = adj[w, u] = True

    edit_adjacency(monkeypatch, moved)


@pytest.mark.parametrize("x", [0, 7, 252, 258, 294])
def test_involution_split_refuses_a_moved_edge(monkeypatch, x):
    # the twin check runs in 256-row panels: a break at a non-unit of
    # 301 = 7 * 43 in the first row (0, alone in its class), at a class
    # representative (7), on either side of the panel edge and near the
    # last row is caught
    move_one_edge(monkeypatch, x)
    with pytest.raises(ValueError, match="twin class"):
        dense_spectrum(Modulus.of(301))


def test_exact_split_refuses_a_moved_edge(monkeypatch):
    move_one_edge(monkeypatch, 5)
    with pytest.raises(ValueError, match="twin class"):
        block_power_sums(Modulus.of(60))


@pytest.mark.parametrize("n, x", [(301, 7), (2310, 10)])
def test_split_refuses_a_moved_edge_that_negation_keeps(monkeypatch, n, x):
    # x-y becomes x-z and -x-(-y) becomes -x-(-z): negation, a unit, maps
    # the moved graph onto itself, so a check by that symmetry alone would
    # pass it; the twin check compares every row with its class
    # representative's and refuses
    move_one_edge(monkeypatch, x, mirrored=True)
    adj = oracle.AdjacencyRows(Modulus.of(n), range(n))[:]
    neg = -np.arange(n) % n
    assert (adj[neg][:, neg] == adj).all()
    assert (adj != full_adjacency(n)).sum() == 8
    with pytest.raises(ValueError, match="twin class"):
        dense_spectrum(Modulus.of(n))


def test_split_refuses_a_representative_row_its_stabilizer_moves(monkeypatch):
    # row 0 of Z_24 alone drops its edge to the unit 1: the units, which fix
    # 0 and permute its neighbours in A_1, no longer fix its row, which is
    # not class-constant; every row is still its representative's (0 is
    # the representative of {0}, and row 1 is unedited), so only the first
    # check sees the break, before any panel is read
    def dropped(adj, n):
        adj[0, 1] = False

    reads = []
    edit_adjacency(monkeypatch, dropped, reads)
    with pytest.raises(ValueError, match="twin class"):
        dense_spectrum(Modulus.of(24))
    [reps] = reads
    classes = divisor_classes(24)
    assert reps.tolist() == [min(classes[d]) for d in sorted(classes)]


def test_split_refuses_a_moved_edge_beyond_the_first_panel(monkeypatch):
    # 4080 = 2^4 * 3 * 5 * 17: 2730 and 2754 lie in the eleventh 256-row
    # panel (2560..2815) and 2873 in the twelfth, and none is a class
    # representative (each class's least element is its divisor), so moving
    # the edge 2730-2873 to 2730-2754 changes no row that an earlier read
    # compares: the reads are the representatives, ten panels that pass and
    # the eleventh, which refuses
    def moved(adj, n):
        x, y, z = 2730, 2873, 2754
        assert adj[x, y] and not adj[x, z]
        adj[x, y] = adj[y, x] = False
        adj[x, z] = adj[z, x] = True

    reads = []
    edit_adjacency(monkeypatch, moved, reads)
    with pytest.raises(ValueError, match="twin class"):
        oracle.twin_split(Modulus.of(4080))
    reps, *panels = reads
    assert len(reps) == len(divisor_classes(4080)) == 40
    assert [len(p) for p in panels] == [256] * 11
    assert {2730, 2873, 2754}.isdisjoint(reps.tolist())
    assert {2730, 2754} <= set(panels[-1].tolist())
    assert {2730, 2873, 2754}.isdisjoint(np.concatenate(panels[:-1]).tolist())


@pytest.mark.parametrize("n", [24, 301, 2310, 4080, 4093])
def test_split_reads_every_row_in_panels(monkeypatch, n):
    # the rows come from the row source alone: the representatives' rows
    # once, by ascending divisor, then panels of at most 256 rows that cover every vertex in order
    reads = []
    edit_adjacency(monkeypatch, lambda adj, n: None, reads)
    oracle.twin_split(Modulus.of(n))
    reps, *panels = reads
    classes = divisor_classes(n)
    assert reps.tolist() == [min(classes[d]) for d in sorted(classes)], n
    assert all(len(p) <= 256 for p in panels), n
    assert np.concatenate(panels).tolist() == list(range(n)), n


@pytest.mark.parametrize("n", [2730, 4080])
def test_split_holds_the_representative_rows_and_one_table(n):
    # no n x n array: the k representative rows, as read and grouped by
    # class, the row source's k x n table, two 256-row panels (the one read
    # and the one it is compared in place with) and a few int64 vectors of
    # length n bound the split, within a quarter
    k = len(divisor_classes(n))
    bound = (3 * k + 2 * 256 + 64) * n
    tracemalloc.start()
    try:
        oracle.twin_split(Modulus.of(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * bound, (peak, bound)


def test_g2_components_hold_a_panel_not_a_matrix():
    # |V(G2)| = 3055 at 4080: its adjacency and the complement's were 8.9 MiB
    # each, and the counts peaked at 23.8 MiB; one 256-row panel is 0.75 MiB
    tracemalloc.start()
    try:
        g2_components(Modulus.of(4080))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_g2_component_counts_equal_the_dense_reference():
    for n in [*range(4, 601), 2310, 3990, 4080, 4095]:
        m = Modulus.of(n)
        if not m.is_prime:
            assert g2_components(m) == g2_component_counts(n), n


def test_involution_split_refuses_n_above_the_dense_limit(monkeypatch):
    monkeypatch.setattr(config, "DENSE_LIMIT", 50)
    with pytest.raises(OracleLimitExceeded):
        dense_spectrum(Modulus.of(100))
    monkeypatch.setattr(config, "DENSE_LIMIT", 200)
    assert len(dense_spectrum(Modulus.of(100))) == 100


def toggle_a_class(monkeypatch, y: int) -> None:
    """Make the oracles' adjacency rows toggle every pair inside the class
    of y and every pair between it and 0: for a unit y the units' clique
    becomes independent and 0 isolated, and every class is still a twin
    class, so the check passes."""

    def toggled(adj, n):
        members = np.flatnonzero(np.gcd(np.arange(n), n) == math.gcd(y, n))
        inside = np.ix_(members, members)
        adj[inside] = ~adj[inside]
        np.fill_diagonal(adj, False)
        adj[0, members] = adj[members, 0] = ~adj[0, members]

    edit_adjacency(monkeypatch, toggled)


@pytest.mark.parametrize("n, y", [(15, 2), (60, 7), (64, 3), (301, 2)])
def test_an_invariant_edge_change_is_solved_not_read_off(monkeypatch, n, y):
    # the change keeps every class a twin class, so the oracles must take
    # the roots and the quotient from the edited rows, not from the ring:
    # the units read as an independent class, of degree n - phi - 1, and 0
    # as an isolated vertex, whose row of the quotient is zero
    toggle_a_class(monkeypatch, y)
    m = Modulus.of(n)
    adj = oracle.AdjacencyRows(m, range(n))[:]
    assert (adj != full_adjacency(n)).sum() == m.phi * (m.phi + 1)
    lap = np.diag(adj.sum(axis=1)) - adj
    roots, quotient, _ = oracle.twin_split(m)
    assert dict(roots)[n - m.phi - 1] >= m.phi - 1
    assert not quotient[-1].any()
    split = np.array(dense_spectrum(m))
    assert np.max(np.abs(split - np.linalg.eigvalsh(lap))) <= 1e-9 * n
    if n <= 64:
        [whole] = char_polys([lap.astype(np.int64)])
        assert expanded(*block_power_sums(m)) == whole


@pytest.mark.parametrize("symmetric", [True, False])
def test_split_blocks_partition_the_vertices(symmetric):
    # the roots read off and the quotient's rows count every vertex once;
    # at a prime the units' clique gives n - 2 roots n, and the quotient has
    # the two rows of the units and of 0
    for n in [*range(3, 130), 1155, 2310, 4080]:
        split = oracle.twin_split(Modulus.of(n))
        block = split.symmetric() if symmetric else split.quotient
        read = sum(mult for _, mult in split.roots)
        assert read + len(block) == n, n
        if Modulus.of(n).is_prime:
            assert (split.roots, len(block)) == (((n, n - 2),), 2), n
        assert block.dtype == (np.float64 if symmetric else np.int64), n
        assert not symmetric or (block == block.T).all(), n


@pytest.mark.parametrize("n", [1155, 1156, 2310, 4080, 4093])
def test_split_spectrum_holds_under_half_a_float_laplacian(n):
    # the representative rows, the row panels and the quotient of tau(n)
    # rows: below half of the n x n float64 Laplacian the split replaces,
    # also at the prime 4093
    # (tracemalloc sees numpy buffers, not the eigensolver's internal
    # working copy)
    tracemalloc.start()
    try:
        dense_spectrum(Modulus.of(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_exact_char_poly_examples(monkeypatch):
    assert expanded(*block_power_sums(Modulus.of(3))).coeffs == (0, 9, -6, 1)
    assert expanded(*block_power_sums(Modulus.of(5))) == IntPoly.from_roots([(0, 1), (5, 4)])
    assert expanded(*block_power_sums(Modulus.of(6))) == IntPoly.from_roots(
        [(0, 1), (6, 2), (5, 1), (3, 1), (2, 1)]
    )
    monkeypatch.setattr(config, "DENSE_LIMIT", 64)
    with pytest.raises(OracleLimitExceeded):
        block_power_sums(Modulus.of(65))


def test_exact_char_poly_point_evaluation():
    # the polynomial evaluated at integer points equals the determinant there;
    # all eigenvalues but the quotient's are read off the classes' degrees,
    # so this checks the read-off roots and the one charpoly together
    points = {n: (0, 1, 7, -2) for n in (4, 6, 9, 10)}
    points.update({36: (1, -3), 48: (5, -1), 60: (2, 11), 64: (3, -7)})
    for n, xs in points.items():
        m = Modulus.of(n)
        p = expanded(*block_power_sums(m))
        lap = dense_laplacian(n).tolist()
        for x in xs:
            shifted = [
                [(x if i == j else 0) - lap[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert p(x) == bareiss_det(shifted)


@pytest.mark.parametrize("n", [6, 12, 30, 42])
def test_block_power_sums_with_the_roots_are_the_laplacians_power_sums(n):
    # trace(L^j) = sum mult * r**j over the roots + trace(Q^j), for the
    # dense Laplacian itself, j = 1..tau(n)
    m = Modulus.of(n)
    roots, sums = oracle.block_power_sums(m)
    laplacian = exact_traces(dense_laplacian(n).astype(np.int64), len(sums))
    assert [t - sum(c * r**j for r, c in roots) for j, t in enumerate(laplacian, 1)] == list(sums)
    assert roots == oracle.twin_split(m).roots


def test_block_power_sums_read_every_block_on_one_diagonal():
    # a handed split's quotient is read as it is: two or three random
    # blocks on one diagonal, so that j runs past each block's size
    rng = np.random.default_rng(38)
    for sizes in [(1, 2), (4, 3, 2), (9, 13), (5, 1, 11)]:
        h = block_diagonal([rng.integers(-30, 31, size=(w, w)) for w in sizes])
        split = oracle.TwinSplit(((0, 1), (7, 2)), h, np.ones(len(h), dtype=np.int64))
        want = (split.roots, tuple(exact_traces(h, len(h))))
        assert oracle.block_power_sums(Modulus.of(12), split) == want, sizes


def test_block_power_sums_refuse_above_the_exact_limit_before_splitting(monkeypatch):
    # the exact oracle runs wherever the split runs: its limit is the dense one
    def refuse(m):
        raise AssertionError("split above the dense limit")

    monkeypatch.setattr(oracle, "twin_split", refuse)
    monkeypatch.setattr(config, "DENSE_LIMIT", 64)
    with pytest.raises(OracleLimitExceeded, match="^n exceeds dense limit 64$"):
        oracle.block_power_sums(Modulus.of(65))


def test_min_vertex_cut_examples():
    k4_minus_edge = complete_graph(4)
    k4_minus_edge[0, 1] = k4_minus_edge[1, 0] = False
    assert min_vertex_cut(k4_minus_edge) == 2

    assert min_vertex_cut(full_adjacency(6)) == 2

    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert min_vertex_cut(star) == 1

    # two triangles sharing vertex 4: the pair (0, 2) has one common
    # neighbour, one less than the minimum degree, and its flow is the cut
    bowtie = graph_from_edges(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert min_vertex_cut(bowtie) == 1


def test_min_vertex_cut_conventions():
    assert min_vertex_cut(complete_graph(5)) == 4
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    assert min_vertex_cut(disconnected) == 0
    assert min_vertex_cut(np.zeros((1, 1), dtype=bool)) == 0
    with pytest.raises(OracleLimitExceeded):
        min_vertex_cut(np.zeros((300, 300), dtype=bool))


def test_min_vertex_cut_double_oracle_random():
    rng = random.Random(20240811)
    for _ in range(40):
        n = rng.randrange(4, 11)
        adj = np.zeros((n, n), dtype=bool)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    adj[u, v] = adj[v, u] = True
        assert min_vertex_cut(adj) == brute_force_vertex_cut(adj), (
            n,
            np.argwhere(np.triu(adj)).tolist(),
        )


def test_min_vertex_cut_double_oracle_structured():
    for n in (6, 10, 12):
        adj = full_adjacency(n)
        assert min_vertex_cut(adj) == brute_force_vertex_cut(adj)
    for n in (12, 15, 16):
        adj = g2_rows(Modulus.of(n))[:]
        assert min_vertex_cut(adj) == brute_force_vertex_cut(adj)


def test_count_components_examples():
    assert count_components(g2_rows(Modulus.of(30))) == 1
    assert count_components(g2_rows(Modulus.of(12))) == 2
    assert count_components(np.zeros((5, 5), dtype=bool)) == 5
    assert count_components(np.zeros((0, 0), dtype=bool)) == 0


def test_complement():
    # the complement of the edges 0-1 and 2-3 is the 4-cycle 0-2-1-3-0
    adj = graph_from_edges(4, [(0, 1), (2, 3)])
    assert count_components(adj) == 2
    assert count_components(adj, complement=True) == 1
    # a star's complement isolates its centre and joins its leaves
    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert count_components(star, complement=True) == 2
    # the row source's complement counts equal its complement matrix's
    rows = g2_rows(Modulus.of(60))
    matrix = ~rows[:] & ~np.eye(len(rows), dtype=bool)
    assert count_components(rows, complement=True) == count_components(matrix) == 1


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
    assert count_components(np.zeros((5, 5), dtype=bool), complement=True) == 1
    two_cliques = disjoint_cliques(3, 4)
    assert count_components(two_cliques) == 2
    # the complement of two disjoint cliques is complete bipartite
    assert count_components(two_cliques, complement=True) == 1
    assert count_components(disjoint_cliques(1, 2, 1)) == 3
    # a path 0-1-2-3 is found through several frontier steps
    path = np.zeros((4, 4), dtype=bool)
    for u in range(3):
        path[u, u + 1] = path[u + 1, u] = True
    assert count_components(path) == 1


def set_components(adj: dict) -> int:
    """Components of an adjacency-set graph, by stack traversal."""
    seen: set = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return count


def test_count_components_matches_set_traversal():
    # the reference graphs are filled pair by pair from the scalar reference
    # ``adjacent``, which the ideal-sum tests pin to the ring definition
    for n in range(4, 301):
        m = Modulus.of(n)
        if m.is_prime:
            continue
        verts = g2_vertices(m)
        g2 = {u: set() for u in verts}
        co = {u: set() for u in verts}
        edges = 0
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                target = g2 if adjacent(n, u, v) else co
                target[u].add(v)
                target[v].add(u)
                edges += target is g2
        rows = g2_rows(m)
        assert rows[:].shape == (len(verts), len(verts))
        assert rows[:].sum() // 2 == edges, n
        assert count_components(rows) == set_components(g2), n
        assert count_components(rows, complement=True) == set_components(co), n


def test_g2_oracles_capped_at_dense_limit(monkeypatch, capsys):
    monkeypatch.setattr(config, "DENSE_LIMIT", 100)
    with pytest.raises(OracleLimitExceeded):
        g2_rows(Modulus.of(210))  # |V(G2)| = 161
    assert len(g2_rows(Modulus.of(120))) == 87
    assert main(["verify", "210"]) == 0
    out = capsys.readouterr().out
    assert "[skip] g2-connected-iff-squarefree: |V(G2)|=161 exceeds dense limit 100" in out
    assert "[skip] g2-complement-connected: |V(G2)|=161 exceeds dense limit 100" in out
    assert main(["g2", "210", "components"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|V(G2)|=161 exceeds dense limit 100" in captured.err


def test_vertex_cut_refuses_above_its_cap_before_building_a_graph(monkeypatch, capsys):
    # the full graph of 258 = 2 * 3 * 43, the G2 of 2310 (1829 vertices)
    # and of 514 = 2 * 257 (257 vertices) are refused from n and phi(n)
    def build(*args):
        raise AssertionError("a graph was built above the vertex cut limit")

    monkeypatch.setattr(oracle, "adjacency", build)
    monkeypatch.setattr(oracle, "g2_vertices", build)
    with pytest.raises(OracleLimitExceeded, match="^n=258 exceeds vertex cut limit 256$"):
        vertex_connectivity(Modulus.of(258))
    with pytest.raises(OracleLimitExceeded, match=r"^\|V\(G2\)\|=1829 exceeds vertex cut limit 256$"):
        kappa_g2_bound(Modulus.of(2310))
    for n, size in [(2310, 1829), (514, 257)]:
        assert main(["g2", str(n), "kappa"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"|V(G2)|={size} exceeds vertex cut limit 256\n"
    monkeypatch.undo()
    # 16637 = 127 * 131: G2 has exactly 256 vertices, and its cut runs
    assert main(["g2", "16637", "kappa"]) == 0
    assert capsys.readouterr().out == "kappa(G2) = 126, bound = 126, tight\n"
