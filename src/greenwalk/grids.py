"""Uniform periodic box grids and grid-sampled fields.

All spatial discretization in greenwalk happens on a uniform grid over the
periodic box [-L, L)^d with N (a power of two) points per axis.  Fields are
stored as d-dimensional arrays in natural coordinate order (index 0 is
x = -L).  Every transform runs here, on scipy.fft (imported on first use, so
importing greenwalk does not load it), through one of two _Layouts.  Any real
field takes _HALF: the origin shifted to index 0 and the rfftn half layout,
fftn layout on every axis but the last, which keeps 0..N/2.  A field that is
_mirror_even, equal to its reflection through the origin on every axis bit for
bit (a symmetric kernel's density, a_hat, G_lambda, a radial f sampled on a box
whose coordinates -L + i h mirror exactly), takes _ORTHANT: a DCT-I of its
(N/2+1)^d orthant x >= 0, which is its DFT on a 2^-d share of the data, and one
np.take per axis back to natural order.  A routine picks its layout once, from
the data alone, and runs one code path over it.  Either layout also gives a
field's real spectrum in full fftn layout (real_spectrum), the form in which
kernels.spectral_density keeps a_hat.
The module also holds the one Gauss-Legendre panel rule, behind the Kanter
integrals and the histogram's quadrature-weight fallback.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

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
        """(N^d, d) coordinates of every grid point, in C order of the field array.

        A transposed view of d contiguous coordinate planes: each column is contiguous and the
        array is not C-contiguous, the layout the path engine also passes; callables index by axis.
        """
        planes = np.empty((self.dim,) + self.shape)
        for ax, c in enumerate(np.ix_(*[self.axis] * self.dim)):
            planes[ax] = c
        return planes.reshape(self.dim, -1).T

    def radius_squared(self) -> np.ndarray:
        """|x|^2 at every grid point."""
        r2 = np.zeros(self.shape)
        for c in self.meshgrid():
            r2 += c * c
        return r2

    @property
    def frequency_axis(self) -> np.ndarray:
        """1-d angular frequencies 2 pi fftfreq(N, h), in fft layout."""
        return 2.0 * np.pi * _fft().fftfreq(self.points_per_axis, d=self.spacing)

    def wavenumbers(self) -> list[np.ndarray]:
        """Angular frequency meshes matching the fftn layout."""
        return list(np.meshgrid(*([self.frequency_axis] * self.dim), indexing="ij"))

    def wavenumber_radius_squared(self) -> np.ndarray:
        """|k|^2 on the fftn-layout mesh, summed by broadcast from one axis."""
        k1 = self.frequency_axis
        return sum(np.ix_(*[k1 * k1] * self.dim))


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


def _finite_point(x, dim: int) -> np.ndarray:
    """x as a 1-d float array; InvalidInputError unless it has dim coordinates, each finite."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _require(x.shape == (dim,), "x", f"a point of kernel.dim = {dim} coordinates")
    _require(np.isfinite(x), "x", "finite")
    return x


def _inside_box(x: np.ndarray, grid: GridSpec) -> np.ndarray:
    """x; InvalidInputError unless it lies in the box [-L, L)^d, which a periodic sum over the grid would wrap."""
    _require((x >= -grid.half_width) & (x < grid.half_width), "x", "finite and inside the box [-L, L)^d")
    return x


# Gauss-Legendre nodes and weights on [-1, 1] of each order, built once
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def _panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of order-point Gauss-Legendre on each panel [edges[i], edges[i + 1]], panel by panel."""
    t, w = _leggauss(order)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + t)).ravel(), (half * w).ravel()


def require_same_grid(a: FieldGrid, b: FieldGrid) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def field_from_function(grid: GridSpec, fn) -> FieldGrid:
    """Sample a callable fn(points (m, d)) -> (m,) on the grid."""
    vals = np.asarray(fn(grid.points()), dtype=float).reshape(grid.shape)
    return FieldGrid(grid, vals)


def _fft():
    """scipy.fft, imported on first use: it costs import time that most of greenwalk does not need."""
    import scipy.fft

    return scipy.fft


def _mirror_even(values: np.ndarray) -> bool:
    """True when values, in natural order, equal their reflection through the origin on every axis, bit for bit."""
    n = values.shape[0]
    return all(np.array_equal(v[n // 2 + 1 :], v[n // 2 - 1 : 0 : -1])
               for v in (np.moveaxis(values, ax, 0) for ax in range(values.ndim)))


def _each_axis(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a indexed by index along every axis, one np.take per axis."""
    for ax in range(a.ndim):
        a = np.take(a, index, axis=ax)
    return a


def _mirror_index(n: int) -> np.ndarray:
    """|i - N/2| for i = 0 .. N - 1: the orthant index of natural index i; N/2 minus it is the
    orthant index of fftn-layout frequency index i."""
    return np.abs(np.arange(n) - n // 2)


@dataclass(frozen=True)
class _Layout:
    """One spectral layout of real grid fields; a routine picks one, then runs one code path over it.

    real maps natural order to the layout's real order and natural maps it back; spectral views a
    full fftn-layout spectrum in the layout's spectral order; forward(values) and
    inverse(spec, shape) are the unscaled transforms between the two orders; real_spectrum(field)
    is the real part of the continuous-FT approximation of a field, in full fftn layout.
    """

    real: Callable[[np.ndarray], np.ndarray]
    natural: Callable[[np.ndarray], np.ndarray]
    spectral: Callable[[np.ndarray], np.ndarray]
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray, tuple], np.ndarray]
    real_spectrum: Callable[[FieldGrid], np.ndarray]

    def to_spectral(self, field: FieldGrid) -> np.ndarray:
        """Continuous-FT approximation of field, in this layout's spectral order."""
        spec = self.forward(self.real(field.values))
        spec *= field.grid.cell_volume
        return spec

    def from_spectral(self, grid: GridSpec, spec: np.ndarray) -> np.ndarray:
        """Real field on grid, in this layout's real order, whose spectrum is spec; inverts to_spectral."""
        vals = self.inverse(spec, grid.shape)
        vals /= grid.cell_volume
        return vals


# any real field: the origin at index 0, rfftn/irfftn, and the last axis of the spectrum kept 0..N/2
_HALF = _Layout(
    real=lambda v: _fft().ifftshift(v),
    natural=lambda v: _fft().fftshift(v),
    spectral=lambda full: full[..., : full.shape[-1] // 2 + 1],
    forward=lambda v: _fft().rfftn(v),
    inverse=lambda spec, shape: _fft().irfftn(spec, s=shape, axes=range(len(shape))),
    real_spectrum=lambda f: np.multiply(_fft().fftn(_HALF.real(f.values)).real, f.grid.cell_volume),
)
# a _mirror_even field: its (N/2+1)^d orthant x >= 0, read as x <= 0 reversed, and DCT-I, which is
# the DFT of an even sequence; orthant index j on an axis is x = j h and k = j pi/L
_ORTHANT = _Layout(
    real=lambda v: v[(slice(v.shape[0] // 2, None, -1),) * v.ndim],
    natural=lambda v: _each_axis(v, _mirror_index(2 * v.shape[0] - 2)),
    spectral=lambda full: full[tuple(slice(n // 2 + 1) for n in full.shape)],
    forward=lambda v: _fft().dctn(v, type=1),
    inverse=lambda spec, shape: _fft().idctn(spec, type=1),
    real_spectrum=lambda f: _each_axis(
        _ORTHANT.to_spectral(f), f.grid.points_per_axis // 2 - _mirror_index(f.grid.points_per_axis)
    ),
)


def _layout_of(field: FieldGrid) -> _Layout:
    """_ORTHANT for a _mirror_even field, else _HALF."""
    return _ORTHANT if _mirror_even(field.values) else _HALF


_to_spectral = _HALF.to_spectral


def _from_spectral(grid: GridSpec, spec_vals: np.ndarray) -> np.ndarray:
    """Real field on grid, in natural order, whose half-layout spectrum is spec_vals; inverts _to_spectral."""
    return _HALF.natural(_HALF.from_spectral(grid, spec_vals))
