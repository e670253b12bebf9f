import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from comax import config, oracle
from comax.cli import main
from comax.connectivity import kappa_g2_bound, vertex_connectivity
from comax.oracle import (
    OracleLimitExceeded,
    TwinClasses,
    block_power_sums,
    count_components,
    dense_spectrum,
    g2_classes,
    numeric_spectrum,
    vertex_cut,
)
from comax.comax_graph import AdjacencyRows, g2_vertices
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
    label_components,
)


def brute_force_vertex_cut(adj: np.ndarray) -> int:
    """Exhaustive subset-removal search; only sane for tiny graphs."""
    n = adj.shape[0]
    if label_components(adj) > 1:
        return 0
    if adj.sum() == n * (n - 1):
        return n - 1
    for k in range(1, n - 1):
        for removed in itertools.combinations(range(n), k):
            keep = [v for v in range(n) if v not in removed]
            if label_components(adj[np.ix_(keep, keep)]) > 1:
                return k
    return n - 1


def unit_classes(adj: np.ndarray) -> TwinClasses:
    """Any graph as a class graph: one vertex per class."""
    return TwinClasses(np.ones(len(adj), dtype=np.int64), adj)


def complete_graph(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def graph_from_edges(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def full_adjacency(n: int) -> np.ndarray:
    return AdjacencyRows(Modulus.of(n), range(n))[:]


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
        assert split.classes.sizes.tolist() == [len(classes[d]) for d in sorted(classes)], n


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


def g2_counts(g2: TwinClasses) -> tuple[int, int]:
    return count_components(g2), count_components(g2, complement=True)


def test_g2_components_hold_a_panel_not_a_matrix():
    # |V(G2)| = 3055 at 4080: its adjacency and the complement's were 8.9 MiB
    # each; G2's own class check holds one 256-row panel of 0.75 MiB, and
    # the counts read its 38 classes.  A small G2 first, so that the lazy
    # imports of the first call are not counted
    g2_counts(g2_classes(Modulus.of(60)))
    tracemalloc.start()
    try:
        g2_counts(g2_classes(Modulus.of(4080)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_g2_component_counts_equal_the_dense_reference():
    # from the split's classes and from G2's own rows alike
    for n in [*range(4, 601), 2310, 3990, 4080, 4095]:
        m = Modulus.of(n)
        if not m.is_prime:
            split = oracle.twin_split(m)
            assert g2_counts(g2_classes(m, split)) == g2_component_counts(n), n
            assert g2_counts(g2_classes(m)) == g2_component_counts(n), n


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
        split = oracle.TwinSplit(((0, 1), (7, 2)), h, unit_classes(np.eye(len(h), dtype=bool)))
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
    assert vertex_cut(unit_classes(k4_minus_edge)) == 2

    assert vertex_cut(unit_classes(full_adjacency(6))) == 2

    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert vertex_cut(unit_classes(star)) == 1

    # two triangles sharing vertex 4: the pair (0, 2) has one common
    # neighbour, one less than the minimum degree, and its flow is the cut
    bowtie = graph_from_edges(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert vertex_cut(unit_classes(bowtie)) == 1

    # both minimum separators, {0, 2, 3} and {0, 2, 5}, hold vertex 0, the
    # first of least degree: only a pair of its neighbours (1 and 4, or 6
    # and 7) finds the cut of 3, and every pair (0, t) reads 4
    edges = [(0, 1), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 7), (2, 3), (2, 4),
             (2, 5), (2, 6), (2, 7), (3, 5), (3, 7), (4, 5), (4, 6), (5, 6)]
    both_sides = graph_from_edges(8, edges)
    assert vertex_cut(unit_classes(both_sides)) == brute_force_vertex_cut(both_sides) == 3


def test_min_vertex_cut_conventions():
    assert vertex_cut(unit_classes(complete_graph(5))) == 4
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    assert vertex_cut(unit_classes(disconnected)) == 0
    assert vertex_cut(unit_classes(np.zeros((1, 1), dtype=bool))) == 0
    # the cut has no cap of its own: its class graph's source has
    assert vertex_cut(unit_classes(np.zeros((300, 300), dtype=bool))) == 0


def test_min_vertex_cut_double_oracle_random():
    rng = random.Random(20240811)
    for _ in range(40):
        n = rng.randrange(4, 11)
        adj = np.zeros((n, n), dtype=bool)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    adj[u, v] = adj[v, u] = True
        assert vertex_cut(unit_classes(adj)) == brute_force_vertex_cut(adj), (
            n,
            np.argwhere(np.triu(adj)).tolist(),
        )


def test_min_vertex_cut_double_oracle_structured():
    # the comaximal graphs as they are, one vertex per class, and along
    # their divisor classes
    for n in (6, 10, 12):
        adj = full_adjacency(n)
        assert vertex_cut(unit_classes(adj)) == brute_force_vertex_cut(adj)
        assert vertex_cut(oracle.twin_split(Modulus.of(n)).classes) == brute_force_vertex_cut(adj)
    for n in (12, 15, 16):
        m = Modulus.of(n)
        adj = AdjacencyRows(m, g2_vertices(m))[:]
        assert vertex_cut(unit_classes(adj)) == brute_force_vertex_cut(adj)
        assert vertex_cut(g2_classes(m)) == brute_force_vertex_cut(adj)


def expand(classes: TwinClasses) -> np.ndarray:
    """The adjacency of the graph of ``classes``, class by class: each
    vertex joined to the whole of every linked class, and to the rest of
    its own class when that is a clique."""
    sizes, link = classes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    adj = link[np.ix_(owner, owner)]
    np.fill_diagonal(adj, False)
    return adj


def random_class_graph(rng: random.Random) -> TwinClasses:
    """4 to 8 classes of 1 to 4 vertices, at most one of them a clique,
    linked at random with a density of 0.3 to 0.8, with at most 13 vertices
    in all, so that the exhaustive search stays quick."""
    while True:
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(4, 8))]
        if sum(sizes) <= 13:
            break
    k, density = len(sizes), rng.uniform(0.3, 0.8)
    link = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            link[i, j] = link[j, i] = rng.random() < density
    if rng.random() < 0.5:
        c = rng.randrange(k)
        link[c, c] = True
    return TwinClasses(np.array(sizes, dtype=np.int64), link)


def test_class_graph_oracles_equal_the_exhaustive_search_on_its_expansion():
    # the blow-up double oracle: the counts and the cut read the classes,
    # and the references the expanded graph, vertex by vertex
    rng = random.Random(42)
    for _ in range(200):
        classes = random_class_graph(rng)
        adj = expand(classes)
        co = ~adj
        np.fill_diagonal(co, False)
        seen = (classes.sizes.tolist(), np.argwhere(np.triu(classes.link)).tolist())
        assert count_components(classes) == label_components(adj), seen
        assert count_components(classes, complement=True) == label_components(co), seen
        assert vertex_cut(classes) == brute_force_vertex_cut(adj), seen


def test_count_components_examples():
    assert count_components(g2_classes(Modulus.of(30))) == 1
    assert count_components(g2_classes(Modulus.of(12))) == 2
    assert count_components(unit_classes(np.zeros((5, 5), dtype=bool))) == 5
    assert count_components(unit_classes(np.zeros((0, 0), dtype=bool))) == 0


def test_complement():
    # the complement of the edges 0-1 and 2-3 is the 4-cycle 0-2-1-3-0
    adj = graph_from_edges(4, [(0, 1), (2, 3)])
    assert count_components(unit_classes(adj)) == 2
    assert count_components(unit_classes(adj), complement=True) == 1
    # a star's complement isolates its centre and joins its leaves
    star = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert count_components(unit_classes(star), complement=True) == 2
    # the class graph's complement counts equal its complement matrix's
    m = Modulus.of(60)
    rows = AdjacencyRows(m, g2_vertices(m))
    matrix = ~rows[:] & ~np.eye(len(rows), dtype=bool)
    assert count_components(g2_classes(m), complement=True) == label_components(matrix) == 1


def disjoint_cliques(*sizes: int) -> np.ndarray:
    adj = np.zeros((sum(sizes), sum(sizes)), dtype=bool)
    start = 0
    for size in sizes:
        adj[start : start + size, start : start + size] = True
        start += size
    np.fill_diagonal(adj, False)
    return adj


def test_count_components_hand_cases():
    def count(adj, complement=False):
        return count_components(unit_classes(adj), complement)

    assert count(np.zeros((0, 0), dtype=bool)) == 0
    assert count(np.zeros((5, 5), dtype=bool)) == 5
    assert count(np.zeros((5, 5), dtype=bool), complement=True) == 1
    two_cliques = disjoint_cliques(3, 4)
    assert count(two_cliques) == 2
    # the complement of two disjoint cliques is complete bipartite
    assert count(two_cliques, complement=True) == 1
    assert count(disjoint_cliques(1, 2, 1)) == 3
    # a path 0-1-2-3 is closed by more than one squaring
    path = np.zeros((4, 4), dtype=bool)
    for u in range(3):
        path[u, u + 1] = path[u + 1, u] = True
    assert count(path) == 1
    # as classes: an independent class joined to none is one component per
    # vertex, a clique or a single vertex one, and the complement swaps them
    alone = TwinClasses(np.array([3, 2, 1]), np.diag([False, True, False]))
    assert count_components(alone) == 3 + 1 + 1
    assert count_components(alone, complement=True) == 1


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


def class_edges(classes: TwinClasses) -> int:
    """The edges of the graph of ``classes``: |A_d| |A_e| for each linked
    pair, and |A_d| (|A_d| - 1) / 2 in each clique."""
    sizes, link = classes
    pairs = np.triu(link, 1) * np.multiply.outer(sizes, sizes)
    return int(pairs.sum() + (link.diagonal() * sizes * (sizes - 1) // 2).sum())


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
        classes = g2_classes(m, oracle.twin_split(m))
        assert AdjacencyRows(m, verts)[:].sum() // 2 == edges, n
        assert classes.sizes.sum() == len(verts), n
        assert class_edges(classes) == edges, n
        assert count_components(classes) == set_components(g2), n
        assert count_components(classes, complement=True) == set_components(co), n


def test_g2_oracles_capped_at_dense_limit(monkeypatch, capsys):
    monkeypatch.setattr(config, "DENSE_LIMIT", 100)
    with pytest.raises(OracleLimitExceeded):
        g2_classes(Modulus.of(210))  # |V(G2)| = 161
    assert g2_classes(Modulus.of(120)).sizes.sum() == 87
    assert main(["verify", "210"]) == 0
    out = capsys.readouterr().out
    assert "[skip] g2-connected-iff-squarefree: |V(G2)|=161 exceeds dense limit 100" in out
    assert "[skip] g2-complement-connected: |V(G2)|=161 exceeds dense limit 100" in out
    assert main(["g2", "210", "components"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "|V(G2)|=161 exceeds dense limit 100" in captured.err


def test_vertex_cut_refuses_above_its_cap_before_building_a_graph(monkeypatch, capsys):
    # with the dense limit at 256: the full graph of 258 = 2 * 3 * 43, the
    # G2 of 2310 (1829 vertices) and of 514 = 2 * 257 (257 vertices) are
    # refused from n and phi(n), before any row or vertex list is built
    def build(*args):
        raise AssertionError("a graph was built above the dense limit")

    monkeypatch.setattr(config, "DENSE_LIMIT", 256)
    monkeypatch.setattr(oracle, "AdjacencyRows", build)
    monkeypatch.setattr(oracle, "g2_vertices", build)
    with pytest.raises(OracleLimitExceeded, match="^n exceeds dense limit 256$"):
        vertex_connectivity(Modulus.of(258))
    with pytest.raises(OracleLimitExceeded, match=r"^\|V\(G2\)\|=1829 exceeds dense limit 256$"):
        kappa_g2_bound(Modulus.of(2310))
    for n, size in [(2310, 1829), (514, 257)]:
        assert main(["g2", str(n), "kappa"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"|V(G2)|={size} exceeds dense limit 256\n"
    monkeypatch.setattr(oracle, "AdjacencyRows", AdjacencyRows)
    monkeypatch.setattr(oracle, "g2_vertices", g2_vertices)
    # 16637 = 127 * 131: G2 has exactly 256 vertices, and its cut runs on
    # G2's own rows, n being above the limit
    assert main(["g2", "16637", "kappa"]) == 0
    assert capsys.readouterr().out == "kappa(G2) = 126, bound = 126, tight\n"
    # and at the real limit every one of them runs
    monkeypatch.undo()
    assert vertex_connectivity(Modulus.of(258)).computed == 84
    assert kappa_g2_bound(Modulus.of(2310)).computed == 48
    assert main(["g2", "514", "kappa"]) == 0
    assert capsys.readouterr().out == "kappa(G2) = 1, bound = 1, tight\n"


def move_a_g2_edge(monkeypatch, x: int, y: int, z: int) -> None:
    """Make G2's own row source drop the edge x-y and join x to z instead,
    in both triangles; x, y and z are vertices, not positions."""
    real = oracle.AdjacencyRows

    class Moved(real):
        def __init__(self, m, verts):
            super().__init__(m, verts)
            self.adj = super().__getitem__(slice(None))
            at = {v: i for i, v in enumerate(verts)}
            i, j, k = at[x], at[y], at[z]
            assert self.adj[i, j] and not self.adj[i, k]
            self.adj[i, j] = self.adj[j, i] = False
            self.adj[i, k] = self.adj[k, i] = True

        def __getitem__(self, pos):
            return self.adj[pos]

    monkeypatch.setattr(oracle, "AdjacencyRows", Moved)


def test_g2_check_refuses_a_moved_edge_above_the_split_cap(monkeypatch):
    # 44869 = 11 * 4079 is above the dense limit, and its G2 of 4088
    # vertices, K_{4078, 10}, is not: G2's own rows are checked.  The edge
    # 22-4079 moves to 22-33, inside the independent class A_11, and the
    # check refuses; so do the G2 laws and the G2 command that read it
    m = Modulus.of(44869)
    assert m.n > config.DENSE_LIMIT >= m.n - m.phi - 1 == 4088
    assert g2_counts(g2_classes(m)) == (1, 2)
    move_a_g2_edge(monkeypatch, 22, 4079, 33)
    with pytest.raises(ValueError, match="twin class"):
        g2_classes(m)
    with pytest.raises(ValueError, match="twin class"):
        kappa_g2_bound(m)
