"""Uniform periodic box grids and grid-sampled fields.

All spatial discretization in greenwalk happens on a uniform grid over the
periodic box [-L, L)^d with N (a power of two) points per axis.  Fields are
stored as d-dimensional arrays in natural coordinate order (index 0 is
x = -L); FFT-based routines shift the origin to index 0 internally.
Fields are real, so the spectral pair _to_spectral/_from_spectral uses numpy's
rfftn half layout: fftn layout on every axis but the last, which keeps 0..N/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, InvalidInputError, _require, _require_count


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box [-half_width, half_width)^d."""

    dim: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        _require_count(self.dim, "dim", 1)
        n = self.points_per_axis
        _require_count(n, "points_per_axis", 8)
        _require(n & (n - 1) == 0, "points_per_axis", "a power of two")
        _require(0 < self.half_width < np.inf, "half_width", "finite and positive")
        with np.errstate(over="ignore"):
            volume = np.float64(self.spacing) ** self.dim
        _require(np.isfinite(volume), "half_width", "small enough for a finite spacing and cell volume")
        _require(n**self.dim <= 64**3 * 8, "points_per_axis**dim", "at most 64**3 * 8, the memory budget")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        """1-d coordinates -L, -L+h, ..., L-h."""
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*([self.axis] * self.dim), indexing="ij"))

    def points(self) -> np.ndarray:
        """(N^d, d) coordinates of every grid point, in C order of the field array."""
        pts = np.empty(self.shape + (self.dim,))
        for ax, c in enumerate(np.ix_(*[self.axis] * self.dim)):
            pts[..., ax] = c
        return pts.reshape(-1, self.dim)

    def radius_squared(self) -> np.ndarray:
        """|x|^2 at every grid point."""
        r2 = np.zeros(self.shape)
        for c in self.meshgrid():
            r2 += c * c
        return r2

    def wavenumbers(self) -> list[np.ndarray]:
        """Angular frequency meshes matching numpy's fftn layout."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return list(np.meshgrid(*([k1] * self.dim), indexing="ij"))

    def wavenumber_radius_squared(self) -> np.ndarray:
        """|k|^2 on the fftn-layout mesh, summed by broadcast from one axis."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)
        return sum(np.ix_(*[k1 * k1] * self.dim))

    def nearest_index(self, x) -> tuple[int, ...]:
        """Index of the node nearest x in the box [-L, L)^d; (L - h/2, L) wraps to -L."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        _require(x.shape == (self.dim,), "x", "a point with dim coordinates")
        _require((x >= -self.half_width) & (x < self.half_width), "x", "inside the box [-L, L)^d")
        idx = np.rint((x + self.half_width) / self.spacing).astype(int) % self.points_per_axis
        return tuple(idx)


@dataclass
class FieldGrid:
    """Real-valued function sampled on a GridSpec."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape == (self.grid.points_per_axis**self.grid.dim,):
            self.values = self.values.reshape(self.grid.shape)
        if self.values.shape != self.grid.shape:
            raise InvalidInputError(f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        _require(np.isfinite(self.values), "values", "finite")

    def integral(self) -> float:
        """Periodic trapezoidal integral (= cell volume times sum)."""
        return float(self.values.sum() * self.grid.cell_volume)

    def value_at(self, x) -> float:
        """Multilinear interpolation at a point inside the box."""
        return float(self.values_at(x)[0])

    def values_at(self, points) -> np.ndarray:
        """Multilinear interpolation at an (m, d) array of points inside the box.

        Raises InvalidInputError for a point outside [-L, L)^d, NaN included.  Indices wrap
        periodically, so points in the last cell [L - h, L) interpolate
        against the cells at the lower edge.
        """
        g = self.grid
        points = np.asarray(points, dtype=float).reshape(-1, g.dim)
        _require((points >= -g.half_width) & (points < g.half_width), "points", "inside the box [-L, L)^d")
        pos = (points + g.half_width) / g.spacing
        lo = np.floor(pos).astype(int)
        frac = pos - lo
        out = np.zeros(pos.shape[0])
        for corner in range(1 << g.dim):
            w = np.ones(pos.shape[0])
            idx = []
            for ax in range(g.dim):
                if corner >> ax & 1:
                    w *= frac[:, ax]
                    idx.append((lo[:, ax] + 1) % g.points_per_axis)
                else:
                    w *= 1.0 - frac[:, ax]
                    idx.append(lo[:, ax] % g.points_per_axis)
            out += w * self.values[tuple(idx)]
        return out


def _finite_point(x) -> np.ndarray:
    """x as a 1-d float array; InvalidInputError unless every coordinate is finite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _require(np.isfinite(x), "x", "finite")
    return x


def require_same_grid(a: FieldGrid, b: FieldGrid) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def field_from_function(grid: GridSpec, fn) -> FieldGrid:
    """Sample a callable fn(points (m, d)) -> (m,) on the grid."""
    vals = np.asarray(fn(grid.points()), dtype=float).reshape(grid.shape)
    return FieldGrid(grid, vals)


def _half(full: np.ndarray) -> np.ndarray:
    """View of a full fftn-layout array in rfftn half layout (last axis 0..N/2)."""
    return full[..., : full.shape[-1] // 2 + 1]


def _to_spectral(field: FieldGrid) -> np.ndarray:
    """Continuous-FT approximation of a real field, in rfftn half layout."""
    return np.fft.rfftn(np.fft.ifftshift(field.values)) * field.grid.cell_volume


def _from_spectral(grid: GridSpec, spec_vals: np.ndarray) -> np.ndarray:
    """Real field on grid whose half-layout spectrum is spec_vals; inverts _to_spectral."""
    return np.fft.fftshift(np.fft.irfftn(spec_vals, s=grid.shape, axes=range(grid.dim))) / grid.cell_volume

