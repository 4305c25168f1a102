"""Flat-torus geometry, uniform grids, and periodic grid functions.

Everything downstream (quadrature, kernels, hierarchies, the event
simulator) lives on the torus [0, L)^d with d in {1, 2}.  Distances are
minimum-image, grids are uniform M^d meshes, and grid functions
interpolate multilinearly with wraparound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: entries (rows x columns) of a pair table that one row block holds; pair
#: loops over a point set work block by block, so their memory is O(n)
PAIR_BLOCK_ENTRIES = 1 << 14


def row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices covering range(n_rows), each spanning at most
    PAIR_BLOCK_ENTRIES entries of an (n_rows, n_cols) table (and at least
    one row)."""
    step = max(1, PAIR_BLOCK_ENTRIES // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


@dataclass(frozen=True)
class Torus:
    """Flat torus [0, L)^d with the minimum-image metric.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    length : float
        Side length L of the periodic box.
    """

    dim: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.length > 0:
            raise ValueError("length must be positive")

    @property
    def volume(self) -> float:
        return self.length ** self.dim

    def wrap(self, points) -> np.ndarray:
        """Map coordinates into [0, L) componentwise."""
        return np.asarray(points, dtype=float) % self.length

    def minimage(self, diff) -> np.ndarray:
        """Minimum-image representative of a displacement, in [-L/2, L/2]."""
        d = np.asarray(diff, dtype=float)
        return d - self.length * np.round(d / self.length)

    def distance(self, a, b) -> np.ndarray:
        """Periodic distance between point arrays; broadcasts over leading axes."""
        d = self.minimage(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return np.sqrt(np.sum(d * d, axis=-1))


@dataclass(frozen=True)
class Grid:
    """Uniform M^d mesh on a torus: quadrature nodes and index arithmetic.

    Node i along each axis sits at i * (L / M).  The single quadrature
    weight is (L / M)^d per node, so weights sum to the torus volume.
    """

    torus: Torus
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("at least two nodes per axis are required")

    @property
    def spacing(self) -> float:
        return self.torus.length / self.m

    @property
    def weight(self) -> float:
        """Quadrature weight per node, (L/M)^d."""
        return self.spacing ** self.torus.dim

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.torus.dim

    @property
    def node_count(self) -> int:
        return self.m ** self.torus.dim

    @cached_property
    def axis(self) -> np.ndarray:
        return np.arange(self.m) * self.spacing

    @cached_property
    def nodes(self) -> np.ndarray:
        """All grid nodes as an (M^d, d) array in C order."""
        mesh = np.meshgrid(*([self.axis] * self.torus.dim), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts.setflags(write=False)
        return pts

    @cached_property
    def distance_table(self) -> np.ndarray:
        """Pairwise periodic distances between nodes, shape (N, N)."""
        t = self.torus.distance(self.nodes[:, None, :], self.nodes[None, :, :])
        t.setflags(write=False)
        return t

    @cached_property
    def offset_index(self) -> np.ndarray:
        """Integer table O[i, j] = flat index of node_j - node_i (mod L)."""
        idx = np.arange(self.node_count)
        if self.torus.dim == 1:
            table = (idx[None, :] - idx[:, None]) % self.m
        else:
            ix, iy = np.divmod(idx, self.m)
            ox = (ix[None, :] - ix[:, None]) % self.m
            oy = (iy[None, :] - iy[:, None]) % self.m
            table = ox * self.m + oy
        table.setflags(write=False)
        return table

    @cached_property
    def negated_offset(self) -> np.ndarray:
        """Flat index of the offset -o for each flat offset o (mod L per axis),
        i.e. `offset_index[:, 0]` without the (N, N) table."""
        neg = -np.arange(self.m) % self.m
        flat = np.arange(self.node_count).reshape(self.shape)
        table = flat[np.ix_(*[neg] * self.torus.dim)].ravel()
        table.setflags(write=False)
        return table

    def cell_index(self, points) -> np.ndarray:
        """Flat index of the grid cell [i*h, (i+1)*h) containing each point."""
        pts = self.torus.wrap(points).reshape(-1, self.torus.dim)
        idx = np.floor(pts / self.spacing).astype(int) % self.m
        if self.torus.dim == 1:
            return idx[:, 0]
        return idx[:, 0] * self.m + idx[:, 1]

    def sample(self, fn) -> "GridFunction":
        """Sample a callable on all nodes into a GridFunction."""
        vals = np.asarray(fn(self.nodes), dtype=float).reshape(self.node_count)
        return GridFunction(self, vals)

    def constant(self, value: float) -> "GridFunction":
        return GridFunction(self, np.full(self.node_count, float(value)))


@dataclass(frozen=True)
class GridFunction:
    """Real function sampled on a grid, evaluated off-grid by periodic
    multilinear interpolation."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(self.grid.node_count)
        object.__setattr__(self, "values", vals)

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar_input = pts.ndim == 1
        pts = pts.reshape(-1, self.grid.torus.dim)
        u = self.grid.torus.wrap(pts) / self.grid.spacing
        base = np.floor(u).astype(int) % self.grid.m
        frac = u - np.floor(u)
        m = self.grid.m
        if self.grid.torus.dim == 1:
            i0 = base[:, 0]
            i1 = (i0 + 1) % m
            f = frac[:, 0]
            out = (1 - f) * self.values[i0] + f * self.values[i1]
        else:
            v = self.values.reshape(m, m)
            i0, j0 = base[:, 0], base[:, 1]
            i1, j1 = (i0 + 1) % m, (j0 + 1) % m
            fx, fy = frac[:, 0], frac[:, 1]
            out = ((1 - fx) * (1 - fy) * v[i0, j0]
                   + fx * (1 - fy) * v[i1, j0]
                   + (1 - fx) * fy * v[i0, j1]
                   + fx * fy * v[i1, j1])
        return out[0] if scalar_input else out

    def integral(self) -> float:
        """Torus integral by the grid quadrature."""
        return float(self.grid.weight * self.values.sum())


def circular_convolve(grid: Grid, f_values: np.ndarray, g_profile: np.ndarray) -> np.ndarray:
    """Periodic convolution (f * g)(x_i) = w * sum_j f(x_j) g(x_i - x_j).

    `g_profile` holds g sampled at node offsets from the origin.  Uses the
    fast Fourier transform on the grid shape, exact for grid-sampled data.
    """
    shape = grid.shape
    f = np.asarray(f_values, dtype=float).reshape(shape)
    g = np.asarray(g_profile, dtype=float).reshape(shape)
    conv = np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(g)).real
    return grid.weight * conv.reshape(grid.node_count)
