import itertools

import numpy as np
import pytest

from pwdual.geometry import build_grid


def test_modes_1d_m2():
    grid = build_grid(1, 2, 2 * np.pi)
    assert grid.nu_list == ((-1,), (0,))
    assert grid.k_vector((-1,))[0] == pytest.approx(-1.0)
    assert grid.k_vector((0,))[0] == pytest.approx(0.0)


def test_site_positions_1d_m4():
    grid = build_grid(1, 4, 4.0)
    for p in range(4):
        assert grid.r_vector((p,))[0] == pytest.approx(float(p))


def test_counts_3d_spinful():
    grid = build_grid(3, 2, 8.0, spinful=True)
    assert grid.n_spatial == 8
    assert grid.n_qubits == 16


@pytest.mark.parametrize("m,nu,expected", [
    (4, (2,), (-2,)),
    (4, (-3,), (1,)),
    (2, (0,), (0,)),
])
def test_wrap_mode(m, nu, expected):
    grid = build_grid(1, m, 1.0)
    assert grid.wrap_mode(nu) == expected
    assert grid.wrap_mode(grid.wrap_mode(nu)) == expected  # idempotent


def test_k_squared_examples():
    grid3 = build_grid(3, 2, (2 * np.pi) ** 3)
    assert grid3.k_squared((1, 1, 0)) == pytest.approx(2.0)
    assert grid3.k_squared((0, 0, 0)) == 0.0
    grid1 = build_grid(1, 4, 2 * np.pi)
    assert grid1.k_squared((-2,)) == pytest.approx(4.0)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_grid(1, 3, 1.0)
    with pytest.raises(ValueError):
        build_grid(1, 2, -1.0)
    with pytest.raises(ValueError):
        build_grid(4, 2, 1.0)


@pytest.mark.parametrize("d,m,spinful", [
    (1, 2, False), (1, 4, True), (2, 2, True), (2, 4, False), (3, 2, True),
    (3, 4, False),
])
def test_qubit_index_bijective(d, m, spinful):
    grid = build_grid(d, m, 1.0, spinful=spinful)
    seen = set()
    spins = ("up", "down") if spinful else (None,)
    for p in grid.site_vectors():
        for s in spins:
            q = grid.qubit_index(p, s)
            assert 0 <= q < grid.n_qubits
            seen.add(q)
    assert len(seen) == grid.n_qubits


def test_spin_parity_convention():
    grid = build_grid(2, 2, 1.0, spinful=True)
    for p in grid.site_vectors():
        up = grid.qubit_index(p, "up")
        assert up % 2 == 0
        assert grid.qubit_index(p, "down") == up + 1


@pytest.mark.parametrize("d,m", [(1, 4), (2, 4), (3, 2)])
def test_wrap_closure(d, m):
    grid = build_grid(d, m, 1.0)
    vals = range(-m // 2, m // 2)
    for p in itertools.product(vals, repeat=d):
        for nu in itertools.product(vals, repeat=d):
            total = grid.wrap_mode(np.add(p, nu))
            for a in range(d):
                assert (total[a] - p[a]) % m == nu[a] % m


def test_mode_slot_roundtrip():
    grid = build_grid(2, 4, 1.0)
    for slot in range(grid.n_spatial):
        assert grid.mode_slot(grid.slot_mode(slot)) == slot


def test_modes_by_energy_tiebreak():
    grid = build_grid(1, 4, 4.0)
    order = grid.modes_by_energy()
    assert order[0] == (0,)
    assert order[1] == (-1,)  # lexicographic tiebreak between +-1
    assert order[2] == (1,)
    assert order[3] == (-2,)


def test_min_image_distance():
    grid = build_grid(1, 4, 4.0)
    assert grid.min_image_distance((0,), (3,)) == pytest.approx(1.0)
    assert grid.min_image_distance((0,), (2,)) == pytest.approx(2.0)
