"""Row-blocked pair work against the full pair tables it replaced.

`RateModel.death_sums` and the snapshot pair histogram of `run_ensemble`
walk the pair table in row blocks (`space.row_blocks`).  The oracles below
are the full-table versions: the (n, n, d) displacement tensor for the
death pair sums and the `triu_indices` gather for the histogram.  Sums must
agree bit for bit and pair counts exactly.
"""
import tracemalloc

import numpy as np
import pytest

from birthdeath import (BDLPModel, BoxKernel, FixedInitial, GaussianKernel, GlauberModel,
                        normalize_on_grid, run_ensemble)
from birthdeath import space
from birthdeath.simulate import _pair_histogram
from birthdeath.space import Grid, Torus, row_blocks

#: peak traced allocation allowed for one pair pass over 2000 points in d = 2
#: (the full tables took hundreds of MB)
PEAK_BYTES = 16 * 2 ** 20


def full_death_sums(model, points):
    """S_i from the full (n, n) kernel matrix."""
    pts = np.asarray(points, dtype=float).reshape(-1, model.torus.dim)
    if len(pts) == 0:
        return np.zeros(0)
    k_m = model.death_kernel.radial(model.torus.distance(pts[:, None, :], pts[None, :, :]))
    np.fill_diagonal(k_m, 0.0)
    return k_m.sum(axis=1)


def triu_pair_histogram(torus, points, edges):
    """Unordered pair counts from all i < j gathered at once."""
    iu = np.triu_indices(len(points), k=1)
    hist, _ = np.histogram(torus.distance(points[iu[0]], points[iu[1]]), bins=edges)
    return hist


def pair_edges(torus, grid):
    width = torus.length / (2.0 * grid.m)
    return np.arange(0.0, torus.length / 2.0 + 0.5 * width, width)


def models(dim):
    torus = Torus(dim, 1.0)
    grid = Grid(torus, 16)
    box = normalize_on_grid(BoxKernel(1.0, 0.1), grid)
    return [
        GlauberModel(torus, 0.5, 3.0, BoxKernel(0.4, 0.1)),
        GlauberModel(torus, 0.7, 3.0, GaussianKernel(0.8, 0.05, 0.15)),
        BDLPModel(torus, m=1.0, kappa_minus=0.05, kappa_plus=0.5, a_minus=box, a_plus=box),
    ]


def points_for(n, dim, seed=3):
    rng = np.random.default_rng(seed + n)
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    if n >= 4:
        pts[1] = pts[0]            # a coincident pair
        pts[3] = (pts[2] + 0.1) % 1.0  # 0.1 apart per coordinate: the box radius in d = 1
    return pts


BLOCK_ROWS = 7
# (label, n): n relative to the rows per block B at that n
SIZES = [("0", 0), ("1", 1), ("2", 2), ("B-1", BLOCK_ROWS - 1), ("B", BLOCK_ROWS),
         ("B+1", BLOCK_ROWS + 1), ("3B+5", 3 * BLOCK_ROWS + 5)]


def with_block_rows(monkeypatch, n, rows):
    """Size the blocks so that a pass over n points takes `rows` rows each."""
    monkeypatch.setattr(space, "PAIR_BLOCK_ENTRIES", max(n, 1) * rows)
    spans = [s.stop - s.start for s in row_blocks(n, n)]
    assert sum(spans) == n
    if n > 1:
        assert spans[0] == min(rows, n)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("label,n", SIZES)
def test_death_sums_bitwise_at_block_edges(monkeypatch, dim, label, n):
    pts = points_for(n, dim)
    with_block_rows(monkeypatch, n, BLOCK_ROWS)
    for model in models(dim):
        got = model.death_sums(pts)
        want = full_death_sums(model, pts)
        assert got.dtype == want.dtype and got.shape == want.shape == (n,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (type(model), label)


@pytest.mark.parametrize("dim", [1, 2])
def test_death_sums_bitwise_at_default_blocks(dim):
    n = 700
    pts = points_for(n, dim)
    assert len(list(row_blocks(n, n))) > 1
    for model in models(dim):
        assert np.array_equal(model.death_sums(pts).view(np.int64),
                              full_death_sums(model, pts).view(np.int64))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("label,n", SIZES)
def test_pair_histogram_exact_at_block_edges(monkeypatch, dim, label, n):
    torus = Torus(dim, 1.0)
    edges = pair_edges(torus, Grid(torus, 16))
    pts = points_for(n, dim)
    with_block_rows(monkeypatch, n, BLOCK_ROWS)
    got = _pair_histogram(torus, pts, edges)
    assert np.array_equal(got, triu_pair_histogram(torus, pts, edges)), label
    if dim == 1:
        assert got.sum() == n * (n - 1) // 2   # every pair lies within L/2 in d = 1


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("label,n", SIZES + [("default", 700)])
def test_run_ensemble_pair_counts_equal_oracle(monkeypatch, dim, label, n):
    """A one-snapshot ensemble at t = 0 reports the oracle's pair counts of
    its fixed initial points, normalised by the same shells."""
    model = models(dim)[2]
    torus = model.torus
    grid = Grid(torus, 16)
    pts = points_for(n, dim)
    if label != "default":
        with_block_rows(monkeypatch, n, BLOCK_ROWS)
    res = run_ensemble(model, FixedInitial(pts), T=0.0, replicas=1, seed=5,
                       estimator_grid=grid, snapshot_times=[0.0])
    edges = pair_edges(torus, grid)
    shells = np.array([2.0 * (b - a) if dim == 1 else np.pi * (b * b - a * a)
                       for a, b in zip(edges[:-1], edges[1:])])
    want = 2.0 * triu_pair_histogram(torus, pts, edges) / (1 * torus.volume * shells)
    assert np.array_equal(res.correlations.k2, want)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_death_sums_memory_bounded():
    model = models(2)[0]
    pts = points_for(2000, 2)
    assert traced_peak(lambda: model.death_sums(pts)) < PEAK_BYTES


def test_snapshot_memory_bounded():
    model = models(2)[2]
    pts = points_for(2000, 2)
    grid = Grid(model.torus, 16)
    peak = traced_peak(lambda: run_ensemble(model, FixedInitial(pts), T=0.0, replicas=1,
                                            seed=5, estimator_grid=grid,
                                            snapshot_times=[0.0]))
    assert peak < PEAK_BYTES
