"""Planar swap schedules that make every qubit pair adjacent in linear depth,
and the lowering of diagonal pair-phase layers through them.

Qubits live on a rows x cols lattice in boustrophedon order (the same layout
the Circuit connectivity check uses), so qubit labels that are consecutive
along the snake path are always lattice neighbors.

Levels of the schedule: a closed loop through each sector alternates two
staggered swap layers until every opposite-parity pair has met and all
labels are back home; a short color-division sort then separates the two
parity classes into half sectors, and the construction recurses until
sectors are single adjacent pairs. Every sector of one level has the same
shape, so each layer is one relative pattern shifted to each sector's origin.

A schedule is three arrays: the qubit pairs of every swap in layer order,
an interact flag per swap and the layer offsets. Its checks, its replay and
the walks over the replay are array operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .statevector import Circuit, Gate


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def snake_qubit(cols: int, r, c):
    """Qubit label at lattice position (r, c) under boustrophedon layout,
    odd rows running right to left; ints or integer arrays."""
    odd = r % 2
    return r * cols + odd * (cols - 1 - c) + (1 - odd) * c


def snake_position(cols: int, qubit):
    """Lattice position (r, c) of a qubit label; inverse of snake_qubit,
    since reversing a row is its own inverse."""
    r, c = divmod(qubit, cols)
    return r, snake_qubit(cols, r, c) - r * cols


def transposition_phases(keys):
    """Odd-even transposition sort of ``keys`` into nondecreasing order.

    Phase k compares the adjacent pairs (i, i + 1) with i = k mod 2,
    k mod 2 + 2, ... and swaps every pair out of order. Returns the swapped
    positions i of each phase, up to the phase that leaves the keys sorted;
    empty phases are kept, so phase k always has parity k mod 2. At most
    len(keys) phases.
    """
    arr = list(keys)
    goal = sorted(arr)
    phases = []
    while arr != goal:
        phase = [i for i in range(len(phases) % 2, len(arr) - 1, 2)
                 if arr[i] > arr[i + 1]]
        for i in phase:
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
        phases.append(phase)
    return phases


def _cycle_positions(h: int, w: int):
    """Closed loop through an h x w block at the origin, consecutive entries
    adjacent: along the top row, then snaking back through rows 1 to h - 1
    and up column 0. Needs h even and w >= 2, as every sector that
    ``build_full_schedule`` loops through has."""
    path = [(0, c) for c in range(w)]
    for i, r in enumerate(range(1, h)):
        cs = range(w - 1, 0, -1) if i % 2 == 0 else range(1, w)
        path.extend((r, c) for c in cs)
    path.extend((r, 0) for r in range(h - 1, 0, -1))
    return path


def _stagger_pairs(m: int):
    """Cycle-index pairs (i, i + 1 mod m) of the left stagger layer (i
    even) and the right one (i odd) on a cycle of even length m."""
    i = np.arange(m)
    return [np.stack([i[k::2], (i[k::2] + 1) % m], axis=1) for k in (0, 1)]


@dataclass
class SwapSchedule:
    """Swap layers on a rows x cols lattice, held as arrays.

    ``pairs[s]`` is the qubit pair (qa, qb) of swap s, in layer order, and
    ``interact[s]`` whether the swap also lets its two labels interact.
    Layer k holds swaps ``offsets[k]:offsets[k + 1]``.
    """

    rows: int
    cols: int
    pairs: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    interact: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))
    offsets: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64))
    provenance: list = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    def depth(self) -> int:
        return len(self.offsets) - 1

    def first_level_layer_count(self) -> int:
        lev = self.provenance[0]
        return lev["step2_layers"] + lev["step3_layers"]

    def replay(self):
        """Follow the labels through the swaps, qubit q starting with label
        q, one array swap per layer (layers are disjoint, as ``check``
        requires). Returns (labels, final_labels):
        ``labels[s]`` is the label pair on ``pairs[s]`` just before swap s,
        and ``final_labels[q]`` the label on qubit q after the last layer."""
        label = np.arange(self.n_qubits)
        labels = np.empty_like(self.pairs)
        for start, stop in zip(self.offsets[:-1], self.offsets[1:]):
            layer = self.pairs[start:stop]
            labels[start:stop] = label[layer]
            label[layer] = labels[start:stop, ::-1]
        return labels, label

    def interact_pairs(self) -> np.ndarray:
        """Label pairs (a < b) brought adjacent by interact-tagged swaps, one
        row each in lexicographic order."""
        labels, _ = self.replay()
        return np.argwhere(np.triu(self._met(labels), 1))

    def _met(self, labels) -> np.ndarray:
        """n x n table of the label pairs that meet on an interact swap."""
        met = np.zeros((self.n_qubits,) * 2, dtype=bool)
        a, b = labels[self.interact].T
        met[a, b] = met[b, a] = True
        return met

    def check(self):
        """Disjointness and adjacency of every layer; raises on violation."""
        n, pairs = self.n_qubits, self.pairs
        if pairs.size and not 0 <= pairs.min() <= pairs.max() < n:
            raise ValueError(f"schedule names a qubit outside 0..{n - 1}")
        layer = np.repeat(np.arange(self.depth()), np.diff(self.offsets))
        slots = (layer[:, None] * n + pairs).ravel()
        reused = np.flatnonzero(np.bincount(slots) > 1)
        if reused.size:
            k, q = divmod(int(reused[0]), n)
            raise ValueError(f"layer {k} reuses qubit {q}")
        r, c = snake_position(self.cols, np.arange(n))
        far = np.flatnonzero(np.abs(np.diff(r[pairs]))
                             + np.abs(np.diff(c[pairs])) != 1)
        if far.size:
            qa, qb = pairs[far[0]].tolist()
            raise ValueError(f"pair ({qa},{qb}) not lattice-adjacent")


def build_full_schedule(rows: int, cols: int) -> SwapSchedule:
    """Recursive stagger + color-division schedule covering the complete
    graph on rows*cols qubits (a power of two; the recursion's class split
    needs it, so other sizes are rejected - pad to the next power of two)."""
    n = rows * cols
    if not _is_power_of_two(n):
        raise ValueError(
            f"swap schedule needs a power-of-two qubit count, got {n}; "
            "pad the register to the next power of two"
        )
    if n == 1:
        return SwapSchedule(rows, cols)
    if (rows == 1 or cols == 1) and n > 2:
        raise ValueError("1 x n lattices with n > 2 have no closed loop")

    qubit = snake_qubit(cols, *np.indices((rows, cols)))

    def shifted(origins, rel_a, rel_b):
        """Qubit pairs of the relative position pairs (rel_a, rel_b) in
        every sector, sector by sector."""
        ends = [origins[:, None, :] + np.reshape(rel, (1, -1, 2))
                for rel in (rel_a, rel_b)]
        return np.stack([qubit[e[..., 0], e[..., 1]] for e in ends],
                        axis=-1).reshape(-1, 2)

    layers, provenance = [], []  # layers: (qubit pairs, interact flag)
    origins = np.zeros((1, 2), dtype=np.int64)
    h, w = rows, cols
    while True:
        level = {"level": len(provenance), "sector_shape": (h, w),
                 "sectors": len(origins)}
        if h * w == 2:
            layers.append((shifted(origins, (0, 0), (h - 1, w - 1)), True))
            provenance.append({**level, "step2_layers": 1, "step3_layers": 0})
            break

        cycle = np.array(_cycle_positions(h, w))
        stagger = [(shifted(origins, cycle[p[:, 0]], cycle[p[:, 1]]), True)
                   for p in _stagger_pairs(len(cycle))]
        layers += stagger * (len(cycle) // 2)

        # color division: sort each line of each sector so the even parity
        # class fills the leading half sector; every sector's lines share
        # the relative pattern, so each relative line sorts once and phase
        # k of every line shares layer k
        parity = np.empty((h, w), dtype=np.int64)
        parity[cycle[:, 0], cycle[:, 1]] = np.arange(len(cycle)) % 2
        if w >= h:  # vertical split, sort rows
            lines = [[(r, c) for c in range(w)] for r in range(h)]
            half, w = (0, w // 2), w // 2
        else:  # horizontal split, sort columns
            lines = [[(r, c) for r in range(h)] for c in range(w)]
            half, h = (h // 2, 0), h // 2
        line_phases = [transposition_phases([parity[p] for p in line])
                       for line in lines]
        step3 = 0
        for k in range(max(map(len, line_phases))):
            moves = [(line[i], line[i + 1])
                     for line, phases in zip(lines, line_phases)
                     if k < len(phases) for i in phases[k]]
            if moves:
                rel_a, rel_b = zip(*moves)
                layers.append((shifted(origins, rel_a, rel_b), False))
                step3 += 1
        provenance.append({**level, "step2_layers": len(cycle),
                           "step3_layers": step3})
        origins = (origins[:, None, :] + np.array([(0, 0), half])
                   ).reshape(-1, 2)

    sizes = [len(pairs) for pairs, _ in layers]
    sched = SwapSchedule(
        rows, cols, np.concatenate([pairs for pairs, _ in layers]),
        np.repeat([flag for _, flag in layers], sizes),
        np.concatenate([[0], np.cumsum(sizes)]), provenance)
    sched.check()
    return sched


def _phase_table(pair_phases: dict, n: int) -> np.ndarray:
    """Symmetric n x n table of the phases given for each unordered label
    pair, summed; raises on an entry that names one label twice or a label
    outside the n labels."""
    table = np.zeros((n, n))
    for (a, b), phi in pair_phases.items():
        if a == b:
            raise ValueError(f"pair {a, b} is not a pair")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair {a, b} names a label outside 0..{n - 1}")
        table[min(a, b), max(a, b)] += phi
    return table + table.T


def dumps_schedule(schedule: SwapSchedule, pair_phases: dict = None) -> str:
    """One layer per line of ``(a,b)`` pairs; interact-tagged pairs carry
    ``:phase`` when a label-pair phase map is given, ``:interact`` otherwise.
    """
    from .serialize import fmt
    n, pairs, interact = schedule.n_qubits, schedule.pairs, schedule.interact
    # suffixes[suffix_of[s]] is the tag text of swap s
    suffixes, suffix_of = ["", ":interact"], interact.astype(np.int64)
    if pair_phases is not None:
        labels, _ = schedule.replay()
        table = _phase_table(pair_phases, n)
        values, at = np.unique(table[tuple(labels[interact].T)],
                               return_inverse=True)
        suffixes = [""] + [":" + fmt(v) for v in values]
        suffix_of[interact] = 1 + at.reshape(-1)
    # one string per distinct (qa, qb, suffix) entry, gathered onto the swaps
    keys, at = np.unique((pairs[:, 0] * n + pairs[:, 1]) * len(suffixes)
                         + suffix_of, return_inverse=True)
    edge, suffix = np.divmod(keys, len(suffixes))
    qa, qb = np.divmod(edge, n)
    text = np.array([f"({a},{b}){suffixes[k]}" for a, b, k
                     in zip(qa.tolist(), qb.tolist(), suffix.tolist())],
                    dtype=object)[at.reshape(-1)]
    lines = [" ".join(text[start:stop]) for start, stop
             in zip(schedule.offsets[:-1], schedule.offsets[1:])]
    return "\n".join(lines) + ("\n" if lines else "")


def lower_diagonal_layer(pair_phases: dict, schedule: SwapSchedule):
    """Compile exp(-i sum phi_ab Z_a Z_b) onto the lattice.

    ``pair_phases`` maps unordered label pairs (a, b) to phases phi_ab. Each
    pair's rotation is applied exactly once, at the first interact swap
    that brings the labels adjacent, just before that swap. Returns
    (circuit, final_labels) where final_labels[q] is the label sitting on
    qubit q afterwards (``SwapSchedule.replay``); the circuit equals the
    diagonal exponential up to that relabeling.
    """
    n = schedule.n_qubits
    table = _phase_table(pair_phases, n)
    labels, final_labels = schedule.replay()
    missing = np.argwhere(np.triu((np.abs(table) > 0)
                                  & ~schedule._met(labels), 1))
    if missing.size:
        raise ValueError(f"schedule never covers pairs "
                         f"{[tuple(p) for p in missing.tolist()]}")
    meets = np.flatnonzero(schedule.interact)
    a, b = np.sort(labels[meets], axis=1).T
    _, first = np.unique(a * n + b, return_index=True)
    angle = np.zeros(len(labels))
    angle[meets[first]] = table[a[first], b[first]]
    gates, swap_gate = [], {}
    for edge, phi in zip(map(tuple, schedule.pairs.tolist()), angle.tolist()):
        if phi:
            gates.append(Gate("PEXP", edge, angle=phi, letters="ZZ"))
        if edge not in swap_gate:  # gates are immutable, so one per edge
            swap_gate[edge] = Gate("SWAP", edge)
        gates.append(swap_gate[edge])
    return Circuit(n, gates, ("planar", schedule.rows, schedule.cols)), \
        final_labels.tolist()
