"""Whole-solver symmetries, pinned bit for bit.

Viscosity solutions commute with translations, and on a periodic grid so
does the solver: every kernel is a local stencil, and the only reductions
(the switching scale's maximum, the NaN checks, the node counts) do not
depend on order.  So a run on shifted data must give the shifted run,
its fields, records and maps equal to the last bit.  This catches any
error that depends on position: a ghost slab filled from the wrong side,
a run's between-row elements or a NaN end reaching the cut, or a seam at
the periodic wrap."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hjaf.filtering import SCHEME_NAMES, SolverConfig, af_evolve
from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.hamiltonians import (eikonal_hamiltonian, shifted_quadratic_hamiltonian,
                               transport_hamiltonian)
from hjaf.indicators2d import Formula2D, Indicator2DConfig, smoothness_2d

# every registry hamiltonian that does not depend on (x, y)
HAMILTONIANS = (transport_hamiltonian(), eikonal_hamiltonian(),
                shifted_quadratic_hamiltonian())


@st.composite
def periodic_runs(draw):
    """(initial field, dt, steps): 5..12 nodes per axis, dx != dy, a low
    Fourier mode plus node noise, each at most a tenth of the finer
    spacing, so slopes stay below 1/2 and lam * speed below 0.3 for every
    hamiltonian above."""
    ny, nx = draw(st.integers(5, 12)), draw(st.integers(5, 12))
    dx, dy = (draw(st.floats(0.05, 2.0)) for _ in range(2))
    assume(dx != dy)
    h = min(dx, dy)
    g = Grid2D(0.0, 0.0, dx, dy, nx, ny)
    X, Y = g.meshes()
    kx, ky = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    wave = np.sin(2 * np.pi * (kx * X / (nx * dx) + ky * Y / (ny * dy))
                  + draw(st.floats(0.0, 6.0)))
    if draw(st.booleans()):
        wave = np.abs(wave)     # kinked along the wave's zero lines
    seed = draw(st.integers(0, 2 ** 32 - 1))
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, (ny, nx))
    values = 0.1 * h * (draw(st.floats(0.0, 1.0)) * wave
                        + draw(st.sampled_from([0.0, 1e-3, 1.0])) * noise)
    return (GridField(g, values, BoundaryCondition.PERIODIC), 0.1 * h,
            draw(st.integers(1, 3)))


def shifted(a, k1, k2):
    """``a`` with node (i, j) moved to (i + k2, j + k1), wrapped."""
    return np.roll(a, (k2, k1), axis=(0, 1))


def assert_same_bits(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@settings(max_examples=25, deadline=None)
@given(run=periodic_runs(), H=st.sampled_from(HAMILTONIANS),
       variant=st.sampled_from(Formula2D), sigma=st.sampled_from([2.0, 1e-3]),
       shift=st.tuples(st.integers(0, 11), st.integers(0, 11)))
def test_translation_commutes_with_af_evolve(scheme, run, H, variant, sigma,
                                             shift):
    # sigma = 1e-3 leaves nodes of the noisier data untrusted
    u0, dt, steps = run
    k1, k2 = shift[0] % u0.grid.nx, shift[1] % u0.grid.ny
    indicator = Indicator2DConfig(sigma=sigma, variant=variant)
    config = SolverConfig(hamiltonian=H, scheme=scheme, indicator=indicator,
                          epsilon_fixed=1.0 if scheme == "f-hc-fixed" else None)
    u, records = af_evolve(u0, config, steps * dt, steps)
    moved, moved_records = af_evolve(u0.like(shifted(u0.values, k1, k2)),
                                     config, steps * dt, steps)
    assert_same_bits(moved.values, shifted(u.values, k1, k2), "final field")
    assert repr(moved_records) == repr(records)
    maps, moved_maps = smoothness_2d(u, indicator), smoothness_2d(moved, indicator)
    assert_same_bits(moved_maps.omega, shifted(maps.omega, k1, k2), "omega")
    assert_same_bits(moved_maps.phi, shifted(maps.phi, k1, k2), "phi")
