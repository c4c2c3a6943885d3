"""Planar swap schedules that make every qubit pair adjacent in linear depth,
and the lowering of diagonal pair-phase layers through them.

Qubits live on a rows x cols lattice in boustrophedon order (the same layout
the Circuit connectivity check uses), so qubit labels that are consecutive
along the snake path are always lattice neighbors.

Levels of the schedule: a closed loop through each sector alternates two
staggered swap layers until every opposite-parity pair has met and all
labels are back home; a short color-division sort then separates the two
parity classes into half sectors, and the construction recurses until
sectors are single adjacent pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .statevector import Circuit, Gate

SWAP = "swap"
INTERACT_SWAP = "interact+swap"


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def snake_qubit(cols: int, r: int, c: int) -> int:
    """Qubit label at lattice position (r, c) under boustrophedon layout."""
    return r * cols + (c if r % 2 == 0 else cols - 1 - c)


def snake_position(cols: int, qubit: int):
    """Lattice position (r, c) of a qubit label; inverse of snake_qubit."""
    r, c = divmod(qubit, cols)
    return r, (c if r % 2 == 0 else cols - 1 - c)


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


def _cycle_positions(r0: int, c0: int, h: int, w: int):
    """Closed loop through an h x w block, consecutive entries adjacent."""
    if h * w % 2 != 0 or h * w < 2:
        raise ValueError(f"no closed loop through a {h}x{w} block")
    if h == 1 or w == 1:
        if h * w != 2:
            raise ValueError(f"no closed loop through a {h}x{w} block")
        return [(r0, c0), (r0 + h - 1, c0 + w - 1)]
    if h % 2 != 0:
        # odd h needs even w; walk the transposed construction
        transposed = _cycle_positions(c0, r0, w, h)
        return [(r, c) for c, r in transposed]
    path = [(r0, c) for c in range(c0, c0 + w)]
    for i, r in enumerate(range(r0 + 1, r0 + h)):
        cs = range(c0 + w - 1, c0, -1) if i % 2 == 0 else \
            range(c0 + 1, c0 + w)
        path.extend((r, c) for c in cs)
    path.extend((r, c0) for r in range(r0 + h - 1, r0, -1))
    return path


def hamiltonian_cycle(rows: int, cols: int):
    """Cyclic qubit ordering with consecutive (and first/last) entries
    lattice-adjacent."""
    positions = _cycle_positions(0, 0, rows, cols)
    return [snake_qubit(cols, r, c) for r, c in positions]


def stagger_rounds(cycle):
    """Alternating left/right stagger swap layers along a cycle of even
    length M, repeated M/2 times: M layers, all labels restored, and every
    opposite-parity cycle pair is adjacent at least once."""
    m = len(cycle)
    if m % 2 != 0:
        raise ValueError("stagger rounds need an even cycle")
    layers = []
    for _ in range(m // 2):
        for offset in (0, 1):  # left stagger, then right stagger
            layers.append([
                (cycle[i], cycle[(i + 1) % m]) for i in range(offset, m, 2)
            ])
    return layers


@dataclass
class SwapSchedule:
    rows: int
    cols: int
    layers: list = field(default_factory=list)
    provenance: list = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    def depth(self) -> int:
        return len(self.layers)

    def first_level_layer_count(self) -> int:
        lev = self.provenance[0]
        return lev["step2_layers"] + lev["step3_layers"]

    def replay(self):
        """Follow the labels through the swaps, qubit q starting with label
        q. Returns (layers, final_labels): ``layers`` yields, per layer, one
        (qa, qb, tag, labels) entry per swap with ``labels`` the label pair
        on (qa, qb) before it; ``final_labels`` holds the label on each
        qubit once ``layers`` is exhausted. Layers stream, so a replay
        holds one layer's entries at a time."""
        label = list(range(self.n_qubits))

        def layers():
            for layer in self.layers:
                entries = []
                for qa, qb, tag in layer:
                    entries.append((qa, qb, tag, (label[qa], label[qb])))
                    label[qa], label[qb] = label[qb], label[qa]
                yield entries
        return layers(), label

    def interact_pairs(self):
        """Label pairs brought adjacent by interact-tagged layers; returns a
        set of frozensets."""
        layers, _ = self.replay()
        return {frozenset(labels) for layer in layers
                for _, _, tag, labels in layer if tag == INTERACT_SWAP}

    def check(self):
        """Disjointness and adjacency of every layer; raises on violation."""
        position = [snake_position(self.cols, q) for q in range(self.n_qubits)]
        for layer in self.layers:
            seen = set()
            for qa, qb, _ in layer:
                if qa in seen or qb in seen or qa == qb:
                    raise ValueError(f"layer reuses a qubit: {layer}")
                seen.update((qa, qb))
                (ra, ca), (rb, cb) = position[qa], position[qb]
                if abs(ra - rb) + abs(ca - cb) != 1:
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
    sched = SwapSchedule(rows, cols)
    sectors = [(0, 0, rows, cols)]
    level = 0
    while sectors:
        h, w = sectors[0][2], sectors[0][3]
        size = h * w
        if size == 2:
            layer = []
            for r0, c0, hh, ww in sectors:
                qa = snake_qubit(cols, r0, c0)
                qb = snake_qubit(cols, r0 + hh - 1, c0 + ww - 1)
                layer.append((qa, qb, INTERACT_SWAP))
            sched.layers.append(layer)
            sched.provenance.append({
                "level": level, "sector_shape": (h, w), "sectors": len(sectors),
                "step2_layers": 1, "step3_layers": 0,
            })
            break

        cycles = [_cycle_positions(*sector) for sector in sectors]
        step2 = 0
        for round_layers in zip(*[stagger_rounds(c) for c in cycles]):
            layer = []
            for cyc_layer in round_layers:
                for (ra, ca), (rb, cb) in cyc_layer:
                    layer.append((
                        snake_qubit(cols, ra, ca),
                        snake_qubit(cols, rb, cb),
                        INTERACT_SWAP,
                    ))
            sched.layers.append(layer)
            step2 += 1

        # color division: sort each line of each sector so the even parity
        # class fills the leading half sector; all lines sort at once, phase
        # k of every line sharing layer k
        lines = []
        children = []
        for sector, cycle in zip(sectors, cycles):
            r0, c0, h, w = sector
            parity = {pos: i % 2 for i, pos in enumerate(cycle)}
            if w >= h:  # vertical split, sort rows
                sector_lines = [[(r, c) for c in range(c0, c0 + w)]
                                for r in range(r0, r0 + h)]
                children.append((r0, c0, h, w // 2))
                children.append((r0, c0 + w // 2, h, w // 2))
            else:  # horizontal split, sort columns
                sector_lines = [[(r, c) for r in range(r0, r0 + h)]
                                for c in range(c0, c0 + w)]
                children.append((r0, c0, h // 2, w))
                children.append((r0 + h // 2, c0, h // 2, w))
            lines += [([snake_qubit(cols, r, c) for r, c in line],
                       [parity[p] for p in line]) for line in sector_lines]
        step3_layers = []
        for qubits, classes in lines:
            for k, phase in enumerate(transposition_phases(classes)):
                if k == len(step3_layers):
                    step3_layers.append([])
                step3_layers[k] += [(qubits[i], qubits[i + 1], SWAP)
                                    for i in phase]
        step3_layers = [layer for layer in step3_layers if layer]
        sched.layers.extend(step3_layers)
        sched.provenance.append({
            "level": level, "sector_shape": (h, w), "sectors": len(sectors),
            "step2_layers": step2, "step3_layers": len(step3_layers),
        })
        sectors = children
        level += 1
    sched.check()
    return sched


def _merged_phases(pair_phases: dict) -> dict:
    """Sum the phases given for each unordered label pair; raises on an
    entry that names one label twice."""
    phases = {}
    for (a, b), phi in pair_phases.items():
        key = frozenset((a, b))
        if len(key) != 2:
            raise ValueError(f"pair {a, b} is not a pair")
        phases[key] = phases.get(key, 0.0) + phi
    return phases


def dumps_schedule(schedule: SwapSchedule, pair_phases: dict = None) -> str:
    """One layer per line of ``(a,b)`` pairs; interact-tagged pairs carry
    ``:phase`` when a label-pair phase map is given, ``:interact`` otherwise.
    """
    from .serialize import fmt
    phases = _merged_phases(pair_phases or {})
    lines = []
    layers, _ = schedule.replay()
    for layer in layers:
        entries = []
        for qa, qb, tag, labels in layer:
            suffix = ""
            if tag == INTERACT_SWAP:
                suffix = ":interact" if pair_phases is None else \
                    f":{fmt(phases.get(frozenset(labels), 0.0))}"
            entries.append(f"({qa},{qb}){suffix}")
        lines.append(" ".join(entries))
    return "\n".join(lines) + ("\n" if lines else "")


def lower_diagonal_layer(pair_phases: dict, schedule: SwapSchedule):
    """Compile exp(-i sum phi_ab Z_a Z_b) onto the lattice.

    ``pair_phases`` maps unordered label pairs (a, b) to phases phi_ab. Each
    pair's rotation is applied exactly once, at the moment the schedule
    brings the labels adjacent, interleaved with the swap layers. Returns
    (circuit, final_labels) where final_labels[q] is the label sitting on
    qubit q afterwards (``SwapSchedule.replay``); the circuit equals the
    diagonal exponential up to that relabeling.
    """
    phases = _merged_phases(pair_phases)
    circ = Circuit(schedule.n_qubits,
                   connectivity=("planar", schedule.rows, schedule.cols))
    layers, final_labels = schedule.replay()
    applied = set()
    for layer in layers:
        for qa, qb, tag, labels in layer:
            pair = frozenset(labels)
            if tag == INTERACT_SWAP and pair not in applied:
                applied.add(pair)
                phi = phases.get(pair, 0.0)
                if phi:
                    circ.add(Gate("PEXP", (qa, qb), angle=phi, letters="ZZ"))
            circ.add(Gate("SWAP", (qa, qb)))
    missing = {p for p in set(phases) - applied if abs(phases[p]) > 0}
    if missing:
        raise ValueError(f"schedule never covers pairs {sorted(map(tuple, missing))}")
    return circ, final_labels
