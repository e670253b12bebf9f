import itertools
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
    dense_laplacian,
    exact_traces,
    expanded,
    g2_component_counts,
    involution_blocks,
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
    # E = {1, -1} at odd prime powers, and up to 16 involutive units below
    # 301 (at 120, 168, 240, 264 and 280); 2310, 2730, 3990 and 4095 have
    # 16, and the last two are near the dense limit
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


def test_split_solves_one_block_with_a_row_per_orbit():
    # every block of a non-trivial character is diagonal: E keeps gcd(x, n),
    # so A[r_O, g r_O'] does not depend on g off the diagonal and the
    # character sums cancel; only the trivial block, on every orbit, is left
    for n in [*range(3, 301), 2310, 2730, 4080, 4095]:
        [block] = oracle.involution_split(Modulus.of(n)).blocks
        k = len(orbits(n))
        assert block.sums.shape == block.exact().shape == block.symmetric().shape == (k, k), n


def test_split_reads_off_exactly_the_diagonal_reference_blocks():
    # the reference builds every character's block from the definition:
    # the split's roots are the diagonals of those that are diagonal, and
    # its exact blocks are the others, in character order
    for n in [*range(3, 131), 1155]:
        split = oracle.involution_split(Modulus.of(n))
        blocks = involution_blocks(n)
        diagonal = [np.count_nonzero(b) == np.count_nonzero(b.diagonal()) for b in blocks]
        roots = Counter(v for b, d in zip(blocks, diagonal) if d for v in b.diagonal().tolist())
        assert split.roots == tuple(sorted(roots.items())), n
        others = [b for b, d in zip(blocks, diagonal) if not d]
        assert len(split.blocks) == len(others), n
        assert all((a.exact() == b).all() for a, b in zip(split.blocks, others)), n


@pytest.mark.parametrize("symmetric", [True, False])
def test_read_off_blocks_equal_the_eigensolver_bit_for_bit(symmetric):
    # the split builds no diagonal block, so its roots are checked against
    # the reference's blocks in the float64 orthonormal form or the int64
    # similarity form: every non-trivial character's block is diagonal, and
    # the eigensolver returns the roots from it bit for bit; the trivial
    # block is the one the split returns, in the same form; within the exact
    # oracle's cap, the int64 blocks' charpolys factor into the roots too
    for n in [*range(3, 301), 2310, 2730, 4080, 4095]:
        roots, [block] = oracle.involution_split(Modulus.of(n))
        blocks = involution_blocks(n, symmetric=symmetric)
        diagonal = [np.count_nonzero(b) == np.count_nonzero(b.diagonal()) for b in blocks]
        assert diagonal == [False] + [True] * (len(blocks) - 1), n
        read = np.array([float(r) for r, mult in roots for _ in range(mult)])
        solved = np.array(sorted(v for b in blocks[1:] for v in numeric_spectrum(b)))
        assert read.tobytes() == solved.tobytes(), n
        if symmetric:
            assert block.symmetric().dtype == blocks[0].dtype == np.float64, n
            assert np.max(np.abs(block.symmetric() - blocks[0])) <= 1e-12 * n, n
        else:
            assert block.exact().dtype == blocks[0].dtype == np.int64, n
            assert (block.exact() == blocks[0]).all(), n
        if not symmetric and n <= config.EXACT_CHARPOLY_LIMIT:
            whole = IntPoly.one()
            for b in blocks[1:]:
                whole = whole * char_polys([b])[0]
            assert expanded(roots, ()) == whole, n


def test_split_oracles_solve_only_the_blocks_they_cannot_read_off(monkeypatch):
    solved = []
    real_solve = oracle.numeric_spectrum
    monkeypatch.setattr(
        oracle, "numeric_spectrum", lambda b: solved.append(b.shape) or real_solve(b)
    )
    dense_spectrum(Modulus.of(2310))
    assert solved == [(288, 288)]
    sizes = []
    real_power_sums = oracle.power_sums
    monkeypatch.setattr(
        oracle, "power_sums", lambda h: sizes.append(len(h)) or real_power_sums(h)
    )
    for n in range(3, 65):
        sizes.clear()
        m = Modulus.of(n)
        width = len(block_power_sums(m).sums)
        assert width == sum(len(b.degree) for b in oracle.involution_split(m).blocks), n
        assert sizes == ([width] if width else []), n


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
    # the invariance check runs in 256-row panels: a break at a non-unit of
    # 301 = 7 * 43 in the first row, on either side of the panel edge and
    # near the last row is caught; negation is one of the involutive units
    move_one_edge(monkeypatch, x)
    with pytest.raises(ValueError, match="automorphism"):
        dense_spectrum(Modulus.of(301))


def test_exact_split_refuses_a_moved_edge(monkeypatch):
    move_one_edge(monkeypatch, 5)
    with pytest.raises(ValueError, match="automorphism"):
        block_power_sums(Modulus.of(60))


@pytest.mark.parametrize("n, x", [(301, 7), (2310, 10)])
def test_split_refuses_a_moved_edge_that_negation_keeps(monkeypatch, n, x):
    # x-y becomes x-z and -x-(-y) becomes -x-(-z): negation maps the moved
    # graph onto itself, so only the other involutive units can see the
    # break (|E| = 4 at 301 = 7 * 43 and 16 at 2310)
    move_one_edge(monkeypatch, x, mirrored=True)
    adj = oracle.AdjacencyRows(Modulus.of(n), range(n))[:]
    neg = -np.arange(n) % n
    assert (adj[neg][:, neg] == adj).all()
    assert (adj != full_adjacency(n)).sum() == 8
    with pytest.raises(ValueError, match="automorphism"):
        dense_spectrum(Modulus.of(n))


def test_split_refuses_a_representative_row_its_stabilizer_moves(monkeypatch):
    # toggling these edges between the orbits {3, 9, 15, 21} and {4, 20} of
    # Z_24 leaves row 4 unfixed by its stabilizer {1, 7, 13, 19} while every
    # row that is not a representative still matches its representative's:
    # only the stabilizer part of the check sees the break
    def toggled(adj, n):
        for u, v in [(3, 4), (4, 21), (9, 20), (15, 20)]:
            adj[u, v] = adj[v, u] = not adj[u, v]

    edit_adjacency(monkeypatch, toggled)
    with pytest.raises(ValueError, match="automorphism"):
        dense_spectrum(Modulus.of(24))


def test_split_refuses_a_moved_edge_beyond_the_first_panel(monkeypatch):
    # 4080 = 2^4 * 3 * 5 * 17 has 32 involutive units; the 378 rows checked
    # under the first of them after 1, 169, take two panels.  2730, 2873 and
    # 2754 are rows of that second panel, none a representative, so moving
    # the edge 2730-2873 to 2730-2754 changes no row that an earlier read
    # compares: the reads are the representatives, the first panel, and the
    # second panel, which refuses
    def moved(adj, n):
        x, y, z = 2730, 2873, 2754
        assert adj[x, y] and not adj[x, z]
        adj[x, y] = adj[y, x] = False
        adj[x, z] = adj[z, x] = True

    reads = []
    edit_adjacency(monkeypatch, moved, reads)
    with pytest.raises(ValueError, match="automorphism"):
        oracle.involution_split(Modulus.of(4080))
    reps, first, second = reads
    assert len(reps) == len(orbits(4080)) == 378
    assert len(first) == 256 and len(second) == 122
    assert {2730, 2873, 2754} <= set(second.tolist()) - set(reps.tolist()) - set(first.tolist())


@pytest.mark.parametrize("n", [24, 301, 2310, 4080, 4093])
def test_split_reads_every_row_in_panels(monkeypatch, n):
    # the rows come from the row source alone: the representatives' rows
    # once, then panels of at most 256 rows that cover every other vertex
    reads = []
    edit_adjacency(monkeypatch, lambda adj, n: None, reads)
    oracle.involution_split(Modulus.of(n))
    reps, *panels = reads
    assert reps.tolist() == sorted(min(o) for o in orbits(n)), n
    assert all(len(p) <= 256 for p in panels), n
    assert set(np.concatenate([reps, *panels]).tolist()) == set(range(n)), n


@pytest.mark.parametrize("n", [2730, 4080])
def test_split_holds_the_representative_rows_and_one_table(n):
    # no n x n array: the k representative rows, the |E| x (k + 1) x k
    # Walsh-Hadamard table of int8 and one 256-row panel bound the split,
    # within a quarter; with the n x n adjacency it peaked at 9.5 and
    # 20.1 MiB here
    k, units = len(orbits(n)), len(involutive_units(n))
    bound = k * n + (units + 1) * k * k + 256 * n
    tracemalloc.start()
    try:
        oracle.involution_split(Modulus.of(n))
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


def involutive_units(n: int) -> list[int]:
    return [u for u in range(1, n) if u * u % n == 1]


def orbits(n: int) -> set[frozenset[int]]:
    units = involutive_units(n)
    return {frozenset(u * x % n for u in units) for x in range(n)}


def toggle_an_edge_orbit(monkeypatch, y: int) -> None:
    """Make the oracles' adjacency rows toggle every pair {g, g y}, g in E:
    the E-orbit of the pair {1, y}, for a unit y outside E, so that E still
    acts by automorphisms and the invariance check passes."""

    def toggled(adj, n):
        for g in involutive_units(n):
            u, v = g, g * y % n
            adj[u, v] = adj[v, u] = not adj[u, v]

    edit_adjacency(monkeypatch, toggled)


@pytest.mark.parametrize("n, y", [(15, 2), (60, 7), (64, 3), (301, 2)])
def test_an_invariant_edge_change_is_solved_not_read_off(monkeypatch, n, y):
    # H[O(1), O(y)] moves by +-chi(g) for one g, so no block stays diagonal,
    # and the oracles must solve every block rather than read one off
    toggle_an_edge_orbit(monkeypatch, y)
    m = Modulus.of(n)
    adj = oracle.AdjacencyRows(m, range(n))[:]
    assert (adj != full_adjacency(n)).sum() == 2 * len(involutive_units(n))
    lap = np.diag(adj.sum(axis=1)) - adj
    roots, blocks = oracle.involution_split(m)
    assert roots == () and len(blocks) == len(involutive_units(n))
    split = np.array(dense_spectrum(m))
    assert np.max(np.abs(split - np.linalg.eigvalsh(lap))) <= 1e-9 * n
    if n <= config.EXACT_CHARPOLY_LIMIT:
        [whole] = char_polys([lap.astype(np.int64)])
        assert expanded(*block_power_sums(m)) == whole


@pytest.mark.parametrize("symmetric", [True, False])
def test_split_blocks_partition_the_vertices(symmetric):
    # the roots read off and the rows solved count every vertex once; where
    # E = {1, -1} the odd block is read off and the even one solved
    for n in [*range(3, 130), 1155, 2310, 4080]:
        split = oracle.involution_split(Modulus.of(n))
        blocks = [b.symmetric() if symmetric else b.exact() for b in split.blocks]
        read = sum(mult for _, mult in split.roots)
        assert read + sum(len(b) for b in blocks) == n, n
        if len(involutive_units(n)) == 2:
            assert (read, [len(b) for b in blocks]) == ((n + 1) // 2 - 1, [n // 2 + 1]), n
        for b in blocks:
            assert b.dtype == (np.float64 if symmetric else np.int64), n
            assert not symmetric or (b == b.T).all(), n


@pytest.mark.parametrize("n", [1155, 1156, 2310, 4080, 4093])
def test_split_spectrum_holds_under_half_a_float_laplacian(n):
    # the adjacency, then the orbit table, then the sums and the float64
    # form of the one block solved: below half of the n x n float64
    # Laplacian the split replaces, also where E = {1, -1} leaves a block of
    # (n + 1) / 2 rows, as at the prime 4093
    # (tracemalloc sees numpy buffers, not the eigensolver's internal
    # working copy)
    tracemalloc.start()
    try:
        dense_spectrum(Modulus.of(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_exact_char_poly_examples():
    assert expanded(*block_power_sums(Modulus.of(3))).coeffs == (0, 9, -6, 1)
    assert expanded(*block_power_sums(Modulus.of(5))) == IntPoly.from_roots([(0, 1), (5, 4)])
    assert expanded(*block_power_sums(Modulus.of(6))) == IntPoly.from_roots(
        [(0, 1), (6, 2), (5, 1), (3, 1), (2, 1)]
    )
    with pytest.raises(OracleLimitExceeded):
        block_power_sums(Modulus.of(65))


def test_exact_char_poly_point_evaluation():
    # the polynomial evaluated at integer points equals the determinant there;
    # all blocks but the trivial character's are read off their diagonal, so
    # this checks the read-off roots and the one charpoly together
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
    # trace(L^j) = sum mult * r**j over the roots + trace(H^j), for the
    # dense Laplacian itself, j = 1..W
    m = Modulus.of(n)
    roots, sums = oracle.block_power_sums(m)
    laplacian = exact_traces(dense_laplacian(n).astype(np.int64), len(sums))
    assert [t - sum(c * r**j for r, c in roots) for j, t in enumerate(laplacian, 1)] == list(sums)
    assert roots == oracle.involution_split(m).roots


def test_block_power_sums_read_every_block_on_one_diagonal():
    # two or three random blocks, so that j runs past each block's size
    rng = np.random.default_rng(38)
    for sizes in [(1, 2), (4, 3, 2), (9, 13), (5, 1, 11)]:
        blocks = tuple(
            oracle.SolvedBlock(rng.integers(-30, 31, size=(w, w)), rng.integers(0, 30, size=w),
                               2 ** rng.integers(0, 3, size=w))
            for w in sizes
        )
        split = oracle.InvolutionSplit(((0, 1), (7, 2)), blocks)
        h = block_diagonal([b.exact() for b in blocks])
        want = (split.roots, tuple(exact_traces(h, len(h))))
        assert oracle.block_power_sums(Modulus.of(12), split) == want, sizes


def test_block_power_sums_refuse_above_the_exact_limit_before_splitting(monkeypatch):
    def refuse(m):
        raise AssertionError("split above the exact limit")

    monkeypatch.setattr(oracle, "involution_split", refuse)
    with pytest.raises(OracleLimitExceeded, match="^n exceeds exact limit 64$"):
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
