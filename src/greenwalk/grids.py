"""Uniform periodic box grids and grid-sampled fields.

All spatial discretization in greenwalk happens on a uniform grid over the
periodic box [-L, L)^d with N (a power of two) points per axis.  Fields are
stored as d-dimensional arrays in natural coordinate order (index 0 is
x = -L); FFT-based routines shift the origin to index 0 internally.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

_HEADER = struct.Struct("<IId")  # dim, points per axis, half width


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on the box [-half_width, half_width)^d."""

    dim: int
    points_per_axis: int
    half_width: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n}")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if n**self.dim > 64**3 * 8:
            raise ValueError("grid exceeds the configured memory budget")

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
        k2 = np.zeros(self.shape)
        for k in self.wavenumbers():
            k2 += k * k
        return k2

    def nearest_index(self, x) -> tuple[int, ...]:
        """Index of the grid point closest to x (x inside the box)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError(f"point has wrong dimension {x.shape} for d={self.dim}")
        idx = np.rint((x + self.half_width) / self.spacing).astype(int)
        if np.any(idx < 0) or np.any(idx >= self.points_per_axis):
            raise ValueError(f"point {x} outside the box [-L, L)^d")
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
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def integral(self) -> float:
        """Periodic trapezoidal integral (= cell volume times sum)."""
        return float(self.values.sum() * self.grid.cell_volume)

    def value_at(self, x) -> float:
        """Multilinear interpolation at a point inside the box."""
        return float(self.values_at(x)[0])

    def values_at(self, points) -> np.ndarray:
        """Multilinear interpolation at an (m, d) array of points inside the box.

        Indices wrap periodically, so points past the upper edge interpolate
        against the cells at the lower edge.
        """
        g = self.grid
        pos = (np.asarray(points, dtype=float).reshape(-1, g.dim) + g.half_width) / g.spacing
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


def require_same_grid(a: FieldGrid, b: FieldGrid) -> None:
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")


def field_from_function(grid: GridSpec, fn) -> FieldGrid:
    """Sample a callable fn(points (m, d)) -> (m,) on the grid."""
    pts = np.stack([c.ravel() for c in grid.meshgrid()], axis=-1)
    vals = np.asarray(fn(pts), dtype=float).reshape(grid.shape)
    return FieldGrid(grid, vals)


def save_field(path, field_grid: FieldGrid) -> None:
    """Binary layout: little-endian (u32 d, u32 N, f64 L) then N^d f64 values."""
    g = field_grid.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.dim, g.points_per_axis, g.half_width))
        fh.write(field_grid.values.ravel(order="C").astype("<f8").tobytes())


def load_field(path) -> FieldGrid:
    with open(path, "rb") as fh:
        dim, n, half_width = _HEADER.unpack(fh.read(_HEADER.size))
        grid = GridSpec(dim, n, half_width)
        raw = np.frombuffer(fh.read(), dtype="<f8")
    if raw.size != n**dim:
        raise ValueError(f"expected {n**dim} values, found {raw.size}")
    return FieldGrid(grid, raw.reshape(grid.shape).copy())


def field_to_csv(path, field_grid: FieldGrid) -> None:
    """CSV export: one row per grid point, coordinate columns then value."""
    g = field_grid.grid
    coords = [c.ravel() for c in g.meshgrid()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(g.dim)] + ["value"])
        for row in zip(*coords, field_grid.values.ravel(order="C")):
            writer.writerow([repr(float(v)) for v in row])
