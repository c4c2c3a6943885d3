"""Computational cell, momentum-mode grid, and shared index conventions.

Conventions used by every other module:

* Sites ``p`` and modes ``nu`` are integer vectors of length ``d``.
  Sites live in ``{0, ..., M-1}^d``; modes live in ``{-M/2, ..., M/2-1}^d``.
* Both are enumerated lexicographically (first axis most significant).
* Mode arithmetic wraps componentwise into the mode range.
* The "slot" of a mode is the site-style linear index of ``nu mod M``;
  this is where the mode lands after the fermionic Fourier circuit,
  matching the radix-2 decimation output order.
* Qubits: spinless grids use qubit = site index; spinful grids interleave
  spins, qubit = 2 * site + (0 for up, 1 for down), so spin-up orbitals sit
  on even qubits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

UP = "up"
DOWN = "down"


@dataclass(frozen=True)
class Cell:
    """Cubic computational cell: dimension, volume (length^d), and spin flag."""

    dimension: int
    volume: float
    spinful: bool = False

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.volume <= 0:
            raise ValueError(f"volume must be positive, got {self.volume}")

    @property
    def length(self) -> float:
        """Edge length of the cell, volume**(1/d)."""
        return self.volume ** (1.0 / self.dimension)


@dataclass(frozen=True)
class ModeGrid:
    """Even per-axis mode grid over a cell, with all index maps.

    ``nu_list`` enumerates the modes in lexicographic order; everything else
    (site vectors, slots, qubit indices) is derived from ``modes_per_axis``.
    """

    cell: Cell
    modes_per_axis: int
    nu_list: tuple = field(init=False)

    def __post_init__(self):
        M = self.modes_per_axis
        if M < 2 or M % 2 != 0:
            raise ValueError(
                f"modes_per_axis must be an even integer >= 2 (radix-2 "
                f"Fourier circuits require it), got {M}"
            )
        nu = tuple(
            itertools.product(range(-M // 2, M // 2), repeat=self.cell.dimension)
        )
        object.__setattr__(self, "nu_list", nu)

    # -- counting ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.cell.dimension

    @property
    def n_spatial(self) -> int:
        return self.modes_per_axis ** self.cell.dimension

    @property
    def n_spin(self) -> int:
        return 2 if self.cell.spinful else 1

    @property
    def n_qubits(self) -> int:
        return self.n_spin * self.n_spatial

    @property
    def spacing(self) -> float:
        """Lattice constant of the dual grid, (volume / n_spatial)**(1/d)."""
        return (self.cell.volume / self.n_spatial) ** (1.0 / self.cell.dimension)

    # -- vectors ----------------------------------------------------------

    def site_vectors(self):
        """All site vectors in lexicographic order."""
        M = self.modes_per_axis
        return tuple(itertools.product(range(M), repeat=self.cell.dimension))

    def k_vector(self, nu) -> np.ndarray:
        """Momentum 2*pi*nu / volume**(1/d) of mode ``nu``."""
        return 2.0 * np.pi * np.asarray(nu, dtype=float) / self.cell.length

    def k_squared(self, nu) -> float:
        k = self.k_vector(nu)
        return float(k @ k)

    def r_vector(self, p) -> np.ndarray:
        """Real-space position of site ``p``."""
        return np.asarray(p, dtype=float) * self.spacing

    # -- index maps -------------------------------------------------------

    def wrap_mode(self, nu):
        """Wrap an integer vector componentwise into {-M/2, ..., M/2-1}."""
        M = self.modes_per_axis
        half = M // 2
        return tuple((int(c) + half) % M - half for c in nu)

    def site_index(self, p) -> int:
        M = self.modes_per_axis
        idx = 0
        for c in p:
            idx = idx * M + (int(c) % M)
        return idx

    def index_site(self, idx: int):
        M = self.modes_per_axis
        digits = []
        for _ in range(self.cell.dimension):
            digits.append(idx % M)
            idx //= M
        return tuple(reversed(digits))

    def mode_slot(self, nu) -> int:
        """Linear slot of a mode: the site-style index of ``nu mod M``."""
        M = self.modes_per_axis
        return self.site_index(tuple(int(c) % M for c in nu))

    def slot_mode(self, slot: int):
        return self.wrap_mode(self.index_site(slot))

    def qubit_index(self, p, spin=None) -> int:
        """Qubit carrying spatial orbital ``p`` (and ``spin`` if spinful)."""
        s = self.site_index(p)
        if not self.cell.spinful:
            if spin not in (None, UP):
                raise ValueError("spin label on a spinless grid")
            return s
        if spin not in (UP, DOWN):
            raise ValueError(f"spin must be '{UP}' or '{DOWN}', got {spin!r}")
        return 2 * s + (0 if spin == UP else 1)

    def qubit_site_index(self, q: int) -> int:
        """Spatial (site or mode-slot) index carried by qubit ``q``."""
        return q // 2 if self.cell.spinful else q

    def same_spin(self, q1: int, q2: int) -> bool:
        if not self.cell.spinful:
            return True
        return q1 % 2 == q2 % 2

    # -- mode orderings ---------------------------------------------------

    def modes_by_energy(self):
        """Modes sorted by k^2 with lexicographic nu tiebreak."""
        return sorted(self.nu_list, key=lambda nu: (self.k_squared(nu), nu))

    def separation_index(self) -> np.ndarray:
        """(N, N) array whose [p, q] entry is the site index of q - p,
        wrapped componentwise into the site range."""
        M = self.modes_per_axis
        sites = np.array(self.site_vectors())
        wrapped = (sites[None, :, :] - sites[:, None, :]) % M
        return wrapped @ M ** np.arange(self.dimension - 1, -1, -1)

    def min_image_distance(self, p, q) -> float:
        """Minimum-image distance between sites p and q."""
        M = self.modes_per_axis
        d2 = 0.0
        for a, b in zip(p, q):
            delta = abs(int(a) - int(b)) % M
            delta = min(delta, M - delta)
            d2 += float(delta) ** 2
        return math.sqrt(d2) * self.spacing


def build_grid(dimension: int, modes_per_axis: int, volume: float,
               spinful: bool = False) -> ModeGrid:
    """Construct the mode grid for a cubic cell.

    Rejects odd ``modes_per_axis`` (the radix-2 Fourier circuit needs powers
    of two per axis; evenness is the structural minimum enforced here) and
    nonpositive volume.
    """
    return ModeGrid(Cell(dimension, volume, spinful), modes_per_axis)
