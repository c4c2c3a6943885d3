"""The FFT coefficient table against explicit mode sums, and its invariants.

The three reference functions are the slow definitions: one Python loop
over every mode per coefficient.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwdual.geometry import build_grid
from pwdual.hamiltonian import NucleiSpec, build_dual, dual_coefficients, \
    mode_energies
from pwdual.fermion import RAISE, LOWER


def dual_kinetic_coefficient(grid, delta_site) -> float:
    """(1/2N) sum_nu k^2 cos(k . r_delta) by explicit mode summation."""
    r = grid.r_vector(delta_site)
    acc = 0.0
    for nu in grid.nu_list:
        k = grid.k_vector(nu)
        acc += float(k @ k) * math.cos(float(k @ r))
    return acc / (2.0 * grid.n_spatial)


def dual_pair_coefficient(grid, delta_site) -> float:
    """(4 pi / Omega) sum_{nu != 0} cos(k . r_delta) / k^2: the coefficient
    of one unordered density-density pair."""
    r = grid.r_vector(delta_site)
    acc = 0.0
    for nu in grid.nu_list:
        if not any(nu):
            continue
        k = grid.k_vector(nu)
        acc += math.cos(float(k @ r)) / float(k @ k)
    return 4.0 * math.pi / grid.cell.volume * acc


def dual_site_potential(grid, nuclei, site) -> float:
    """-(4 pi / Omega) sum_{nu != 0, j} zeta_j cos(k . (R_j - r_site)) / k^2."""
    r = grid.r_vector(site)
    acc = 0.0
    for nu in grid.nu_list:
        if not any(nu):
            continue
        k = grid.k_vector(nu)
        k2 = float(k @ k)
        for pos, charge in nuclei.entries:
            acc += charge * math.cos(float(k @ (np.asarray(pos) - r))) / k2
    return -4.0 * math.pi / grid.cell.volume * acc


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


GRIDS = [(1, 64, 64.0, False), (2, 8, 64.0, False), (3, 4, 64.0, False),
         (2, 4, 16.0, True)]
NUCLEI = [(), ((0.37, 1.0),), ((0.37, 1.0), (0.81, 2.5))]


@pytest.mark.parametrize("spec", GRIDS)
@pytest.mark.parametrize("nuclei", NUCLEI)
def test_table_matches_explicit_sums(spec, nuclei):
    grid = build_grid(*spec)
    length = grid.cell.length
    nuc = NucleiSpec.build([((f * length,) * grid.dimension, z)
                            for f, z in nuclei])
    table = dual_coefficients(grid, nuc)
    for s, site in enumerate(grid.site_vectors()):
        assert close(table.t[s], dual_kinetic_coefficient(grid, site))
        assert close(table.v[s], dual_pair_coefficient(grid, site))
        assert close(table.u[s], dual_site_potential(grid, nuc, site))
        nu = grid.slot_mode(s)
        k2 = grid.k_squared(nu)
        assert close(table.k2[s], k2)
        assert close(table.inv_k2[s], 1.0 / k2 if any(nu) else 0.0)
        structure = sum(z * np.exp(1j * float(grid.k_vector(nu) @ pos))
                        for pos, z in nuc.entries)
        assert close(abs(table.structure[s] - structure), 0.0)


grids = st.builds(build_grid, st.integers(1, 3), st.sampled_from([2, 4, 6]),
                  st.floats(0.5, 50.0), st.booleans())


@settings(max_examples=40, deadline=None)
@given(grids)
def test_table_invariants(grid):
    table = dual_coefficients(grid)
    sep = grid.separation_index()
    scale_t = max(1.0, float(np.max(np.abs(table.t))))
    scale_v = max(1.0, float(np.max(np.abs(table.v))))
    # even in the separation: the table read at q - p equals it at p - q
    assert np.allclose(table.t[sep], table.t[sep.T], rtol=0,
                       atol=1e-12 * scale_t)
    assert np.allclose(table.v[sep], table.v[sep.T], rtol=0,
                       atol=1e-12 * scale_v)
    # sum over all separations picks out the zero mode, where k^2 = 0
    n = grid.n_spatial
    assert abs(np.sum(table.t)) <= 1e-12 * n * scale_t
    assert abs(np.sum(table.v)) <= 1e-12 * n * scale_v
    # the identity behind the single-Z weight of the LCU table
    assert abs(np.sum(table.v[1:]) + table.v[0]) <= 1e-12 * n * scale_v


def test_mode_energies_are_half_k_squared():
    grid = build_grid(2, 4, 9.0, True)
    eps = mode_energies(build_dual(grid))
    assert np.allclose(eps, dual_coefficients(grid).k2 / 2.0, rtol=0,
                       atol=1e-12)


def test_mode_energies_reject_broken_translation():
    hs = build_dual(build_grid(1, 4, 4.0))
    for key in (((1, RAISE), (2, LOWER)), ((2, RAISE), (1, LOWER))):
        hs.kinetic.terms[key] += 0.5
    with pytest.raises(ValueError, match="translation invariant"):
        mode_energies(hs)
