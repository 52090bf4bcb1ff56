"""Grid container tests: construction and interpolation."""

import itertools

import numpy as np
import pytest

from greenwalk.grids import (
    FieldGrid,
    GridSpec,
    field_from_function,
    require_same_grid,
)
from greenwalk.errors import GridMismatchError


def test_gridspec_geometry():
    g = GridSpec(2, 8, 4.0)
    assert g.shape == (8, 8)
    assert g.spacing == pytest.approx(1.0)
    assert g.cell_volume == pytest.approx(1.0)
    assert g.axis.size == 8
    # FFT-friendly axis: symmetric about 0 with the left endpoint included
    assert g.axis[0] == pytest.approx(-4.0)
    assert 0.0 in g.axis


def test_gridspec_rejects_bad_args():
    with pytest.raises(ValueError):
        GridSpec(0, 8, 4.0)
    with pytest.raises(ValueError):
        GridSpec(1, 8, -1.0)


def test_field_integral_of_ones():
    g = GridSpec(3, 8, 2.0)
    f = FieldGrid(g, np.ones(g.shape))
    assert f.integral() == pytest.approx((2 * 2.0) ** 3)


def test_value_at_reproduces_nodes_and_interpolates():
    g = GridSpec(1, 64, 8.0)
    f = field_from_function(g, lambda x: np.atleast_2d(x)[:, 0] * 2.0)
    node = g.axis[36]  # x = 1.0
    assert f.value_at([node]) == pytest.approx(2.0 * node, abs=1e-12)
    # linear functions are reproduced exactly between nodes as well
    assert f.value_at([node + 0.3 * g.spacing]) == pytest.approx(
        2.0 * (node + 0.3 * g.spacing), abs=1e-12
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_broadcast_grid_arrays_match_meshgrid_references_bitwise(dim):
    g = GridSpec(dim, 8, 3.0)
    weights = 10.0 ** np.arange(dim)  # tells the axes apart
    reference = np.stack([c.ravel() for c in g.meshgrid()], axis=-1)
    np.testing.assert_array_equal(g.points(), reference)
    f = field_from_function(g, lambda p: np.sin(p @ weights))
    np.testing.assert_array_equal(f.values, np.sin(reference @ weights).reshape(g.shape))
    k2 = np.zeros(g.shape)
    for k in g.wavenumbers():
        k2 += k * k
    np.testing.assert_array_equal(g.wavenumber_radius_squared(), k2)




@pytest.mark.parametrize("x", [8.5, 4.0, -4.0 - 1e-12, 40.0, np.nan, np.inf])
def test_values_at_raises_outside_the_box(x):
    # the box is [-4, 4); with periodic indices 8.5 would read f(0.5)
    g = GridSpec(2, 16, 4.0)
    f = field_from_function(g, lambda p: np.atleast_2d(p)[:, 0])
    with pytest.raises(ValueError, match=r"\bpoints must be inside the box"):
        f.values_at([[0.0, 0.0], [0.5, x]])
    with pytest.raises(ValueError, match=r"\bpoints must be inside the box"):
        f.value_at([x, 0.0])


def test_require_same_grid_raises():
    a = FieldGrid(GridSpec(1, 16, 4.0), np.zeros(16))
    b = FieldGrid(GridSpec(1, 16, 8.0), np.zeros(16))
    with pytest.raises(GridMismatchError):
        require_same_grid(a, b)


def _multilinear_reference(f, x):
    """Per-point multilinear interpolation with periodic indices."""
    g = f.grid
    pos = (np.asarray(x, dtype=float) + g.half_width) / g.spacing
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    total = 0.0
    for corner in itertools.product((0, 1), repeat=g.dim):
        w = np.prod([frac[ax] if c else 1.0 - frac[ax] for ax, c in enumerate(corner)])
        total += w * f.values[tuple((lo + np.array(corner)) % g.points_per_axis)]
    return total


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_values_at_matches_per_point_lookup(dim):
    g = GridSpec(dim, 16, 3.0)
    f = field_from_function(g, lambda x: np.cos(np.atleast_2d(x) @ np.arange(1.0, dim + 1.0)))
    rng = np.random.default_rng(4)
    L, h = g.half_width, g.spacing
    edge = np.array([-L, -L + 1e-13, L - h, L - 0.5 * h, L - 1e-13])
    points = np.concatenate([
        rng.uniform(-L, L, size=(200, dim)),
        np.repeat(edge[:, None], dim, axis=1),
        rng.choice(edge, size=(50, dim)),
    ])
    got = f.values_at(points)
    assert got.shape == (points.shape[0],)
    np.testing.assert_allclose(got, [f.value_at(p) for p in points], rtol=0, atol=1e-15)
    np.testing.assert_allclose(got, [_multilinear_reference(f, p) for p in points], rtol=0, atol=1e-15)
