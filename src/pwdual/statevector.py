"""Exact dense statevector engine: gates, circuits, evolution, sampling.

Bit convention (fixed everywhere): basis-state index bit b_q is the
occupation of qubit q, and qubit 0 is the least significant bit. All
serialized states and bitstrings use this order.

Sampling uses numpy's Philox counter-based generator (Philox4x64-10), so a
fixed seed reproduces shot sequences across platforms.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, NamedTuple, Optional

import numpy as np

from .pauli import QubitOperator, expectation_value, qubit_operator_matrix, \
    require_bytes, string_matrix, _real_if_exact

NORM_TOL = 1e-10

_SQ2 = 1.0 / math.sqrt(2.0)

_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_FSWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], dtype=complex
)
# two-qubit basis order inside a gate: index = 2*b(targets[1]) + b(targets[0])
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# butterfly for k = 0; k-dependent gates add a mode phase on targets[1]
_F0 = np.exp(-1j * np.pi / 4) * np.array(
    [[1, 0, 0, 0],
     [0, _SQ2, _SQ2, 0],
     [0, _SQ2, -_SQ2, 0],
     [0, 0, 0, -1]], dtype=complex
)


# inverse rules: the gate itself, the same gate at minus the angle, or the
# conjugate transpose (dagger flag)
_SELF, _NEGATE, _DAGGER = "self", "negate", "dagger"


# the Pauli matrix of a PEXP letters string of at most this many letters is
# built once and shared read-only; a wider one is built per call and held
# by nothing after it
_CACHED_LETTERS = 4


@functools.lru_cache(maxsize=512)
def _cached_pauli(letters: str) -> np.ndarray:
    p = string_matrix(tuple(enumerate(letters)), len(letters))
    p.flags.writeable = False
    return p


def _pauli(letters: str) -> np.ndarray:
    """P with ``letters[j]`` on qubit j."""
    if len(letters) <= _CACHED_LETTERS:
        return _cached_pauli(letters)
    return string_matrix(tuple(enumerate(letters)), len(letters))


class GateKind(NamedTuple):
    arity: Optional[int]  # None: one target per PEXP letter
    matrix: Callable  # (angle, letters) -> matrix
    inverse: str


GATE_KINDS = {
    "H": GateKind(1, lambda a, _: _H, _SELF),
    "X": GateKind(1, lambda a, _: _X, _SELF),
    "RZ": GateKind(1, lambda a, _: np.diag([np.exp(-0.5j * a),
                                            np.exp(0.5j * a)]), _NEGATE),
    "PHASEN": GateKind(1, lambda a, _: np.diag([1, np.exp(1j * a)]), _NEGATE),
    "GPHASE": GateKind(1, lambda a, _: np.exp(1j * a) * np.eye(2), _NEGATE),
    "CNOT": GateKind(2, lambda a, _: _CNOT, _SELF),
    "CZ": GateKind(2, lambda a, _: _CZ, _SELF),
    "SWAP": GateKind(2, lambda a, _: _SWAP, _SELF),
    "FSWAP": GateKind(2, lambda a, _: _FSWAP, _SELF),
    # exp(i*theta*fswap); fswap is an involution
    "FSWAP_POW": GateKind(2, lambda a, _: math.cos(a) * np.eye(4)
                          + 1j * math.sin(a) * _FSWAP, _NEGATE),
    "CPHASE": GateKind(2, lambda a, _: np.diag([1, 1, 1, np.exp(1j * a)]),
                       _NEGATE),
    "FK": GateKind(2, lambda a, _: _F0 @ np.diag([1, 1, np.exp(1j * a),
                                                  np.exp(1j * a)]), _DAGGER),
    "PEXP": GateKind(None, lambda a, p: math.cos(a) * np.eye(2 ** len(p))
                     - 1j * math.sin(a) * _pauli(p), _NEGATE),
}


class Gate(NamedTuple):
    """One gate: kind, target qubits, optional angle, optional dagger flag.

    A hashable record (targets a tuple), checked where it is used.

    Kinds are the keys of GATE_KINDS. PEXP carries ``letters`` (one Pauli
    letter per target) and applies exp(-i * angle * P). PHASEN applies
    exp(i * angle * n_q). FK carries the butterfly twiddle as its angle
    (2*pi*k/M). GPHASE is the circuit-level global phase exp(i * angle),
    kept so compiled steps can be compared against operator exponentials as
    full matrices.
    """

    kind: str
    targets: tuple
    angle: float = 0.0
    letters: str = ""
    dagger: bool = False

    def inverse(self) -> "Gate":
        rule = GATE_KINDS[self.kind].inverse
        if rule == _SELF:
            return self
        if rule == _NEGATE:
            return self._replace(angle=-self.angle)
        return self._replace(dagger=not self.dagger)

    def matrix(self) -> np.ndarray:
        """Dense matrix on the gate's own targets."""
        m = GATE_KINDS[self.kind].matrix(self.angle, self.letters)
        return m.conj().T if self.dagger else m


def fk_gate(k: int, m_modes: int, p: int, q: int) -> Gate:
    """Butterfly gate with twiddle exp(-2*pi*i*k/M) acting on orbitals (p, q)."""
    return Gate("FK", (p, q), angle=2.0 * np.pi * k / m_modes)


def _check_gates(gates, n: int, connectivity: tuple = None):
    """Raise ValueError naming the first offender unless, in this order,
    each gate has a kind of GATE_KINDS, Pauli letters X, Y, Z on PEXP only,
    as many distinct targets as it takes and a finite angle; each target
    is an integer in range(n); and on a ("planar", rows, cols) lattice of
    n sites each multi-qubit gate acts on neighbours. A gate must hash;
    equal gates pass or fail alike, so the gate and lattice rules run once
    per distinct gate, in order of first appearance; the integer test
    reads every target, since 1.0 equals 1."""
    distinct = list(dict.fromkeys(gates))
    for g in distinct:
        kind, targets, angle, letters, _ = g
        spec = GATE_KINDS.get(kind)
        if spec is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity = spec.arity
        if arity is None:
            if not letters or letters.strip("XYZ"):
                raise ValueError(f"PEXP needs Pauli letters X, Y, Z, got "
                                 f"{letters!r}")
            arity = len(letters)
        elif letters:
            raise ValueError(f"{kind} takes no Pauli letters")
        if len(targets) != arity:
            raise ValueError(f"{kind} needs {arity} targets, got "
                             f"{len(targets)}")
        if arity > 1 and len(set(targets)) != arity:
            raise ValueError(f"repeated target in {g}")
        if not math.isfinite(angle):
            raise ValueError(f"angle of {g} is not finite")
    targets = [g.targets for g in gates]
    try:
        used = set(map(operator.index, chain.from_iterable(targets)))
        inside = not used or 0 <= min(used) and max(used) < n
    except TypeError:  # a target that is not an integer
        inside = False
    if not inside:  # name the first target that is not an integer in range
        for t in chain.from_iterable(targets):
            try:
                inside = 0 <= operator.index(t) < n
            except TypeError:
                raise ValueError(f"target {t!r} is not an integer") from None
            if not inside:
                raise ValueError(f"target {t} outside {n} qubits")
    if connectivity is None:
        return
    kind, rows, cols = connectivity
    if kind != "planar":
        raise ValueError(f"unknown connectivity {kind!r}; expected "
                         f"('planar', rows, cols)")
    if rows * cols != n:
        raise ValueError(f"planar lattice {rows}x{cols} has {rows * cols}"
                         f" sites, not {n} qubits")
    from .swapnet import snake_position
    targets = [g.targets for g in distinct]
    sizes = np.fromiter(map(len, targets), dtype=np.intp, count=len(targets))
    # every target is by now an integer in range(n)
    flat = np.fromiter(chain.from_iterable(targets), dtype=np.int64)
    wide = np.flatnonzero(sizes > 2)
    wide = wide[0] if wide.size else len(sizes)
    two = np.flatnonzero(sizes[:wide] == 2)
    start = np.cumsum(sizes) - sizes
    pairs = flat[start[two, None] + np.arange(2)]
    r, c = snake_position(cols, np.arange(n, dtype=np.int64))
    far = np.flatnonzero(np.abs(np.diff(r[pairs]))
                         + np.abs(np.diff(c[pairs])) != 1)
    if far.size:
        (r1, r2), (c1, c2) = r[pairs[far[0]]].tolist(), \
            c[pairs[far[0]]].tolist()
        raise ValueError(f"gate {distinct[two[far[0]]]} acts on non-adjacent "
                         f"grid sites ({r1},{c1})-({r2},{c2})")
    if wide < len(sizes):
        raise ValueError(f"planar circuit holds >2-qubit gate "
                         f"{distinct[wide]}")


@dataclass(frozen=True)
class Circuit:
    """Immutable gate sequence with optional planar-grid connectivity,
    validated once, when it is made (``check_connectivity``).

    connectivity is None (all-to-all) or ("planar", rows, cols) with
    rows * cols == n_qubits; planar qubits are laid out along a
    boustrophedon path (swapnet.snake_qubit) so that chain-adjacent qubit
    labels are always grid-adjacent.
    """

    n_qubits: int
    gates: tuple = ()
    connectivity: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        self.check_connectivity()

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits,
                       [g.inverse() for g in reversed(self.gates)],
                       self.connectivity)

    def depth(self) -> int:
        """Greedy layering: gates sharing a qubit may not share a layer."""
        level = [0] * self.n_qubits
        depth = 0
        for g in self.gates:
            layer = 1 + max(level[t] for t in g.targets)
            for t in g.targets:
                level[t] = layer
            depth = max(depth, layer)
        return depth

    def check_connectivity(self):
        """``_check_gates`` on this circuit's gates, register and lattice."""
        _check_gates(self.gates, self.n_qubits, self.connectivity)


@dataclass
class Statevector:
    """Amplitudes of an n-qubit state. ``support``, when known, is the
    sorted int64 array of basis states that may hold a nonzero amplitude:
    every amplitude outside it is exactly zero. None means unknown."""

    n_qubits: int
    amplitudes: np.ndarray
    support: Optional[np.ndarray] = None

    @classmethod
    def basis_state(cls, n_qubits: int, bits) -> "Statevector":
        """bits may be an int index or an iterable of per-qubit occupations."""
        if not isinstance(bits, int):
            bits = sum(1 << q for q, b in enumerate(bits) if b)
        return cls.on_support(n_qubits, [bits], [1.0])

    @classmethod
    def on_support(cls, n_qubits: int, support, values) -> "Statevector":
        """The state holding ``values`` on the distinct basis states
        ``support`` and zero elsewhere, with that support: the one
        constructor that sets a support. Values may be zero."""
        require_bytes(16 * 2 ** n_qubits, f"a {n_qubits}-qubit state")
        support = np.asarray(support, dtype=np.int64)
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[support] = values
        return cls(n_qubits, amps, np.sort(support))

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy(),
                           self.support)

    def norm(self) -> float:
        amps = self.amplitudes
        return float(np.linalg.norm(
            amps if self.support is None else amps[self.support]))


def _blocks(targets, n: int) -> list:
    """Index of each gate-local block on the view (2,) * n + (batch,):
    block r fixes target j's axis to bit j of r."""
    blocks = []
    for r in range(2 ** len(targets)):
        at = [slice(None)] * (n + 1)
        for j, t in enumerate(targets):
            at[n - 1 - t] = r >> j & 1  # view axis of qubit q is n-1-q
        blocks.append(tuple(at))
    return blocks


def _combine(m: np.ndarray, inputs, outputs, term: np.ndarray):
    """outputs[r] = sum over nonzero m[r, c] of m[r, c] * inputs[c], with
    ufunc ``out=`` into ``term`` and no other temporary: a copy for an entry
    of 1, a multiply for the first nonzero entry, then multiply-and-add.
    The nonzero entries are read once, in row order, as Python numbers."""
    rows, cols = m.nonzero()
    last = -1
    for r, c, x in zip(rows.tolist(), cols.tolist(), m[rows, cols].tolist()):
        if r == last:
            np.multiply(inputs[c], x, out=term)
            np.add(outputs[r], term, out=outputs[r])
        elif x == 1:  # the first nonzero entry of row r
            np.copyto(outputs[r], inputs[c])
        else:
            np.multiply(inputs[c], x, out=outputs[r])
        last = r


def _apply(amps: np.ndarray, m: np.ndarray, targets, n: int,
           out: np.ndarray = None) -> np.ndarray:
    """Apply the gate matrix ``m`` on ``targets`` to amplitudes of shape
    (2^n,) or (2^n, batch), into ``out`` (a new array by default);
    targets[0] is the least significant bit of the matrix.

    Output block r combines the input blocks (``_combine``) as strided
    views: no copies and no full-size temporary. A trailing batch makes
    contiguous runs span the batch; for a single state it is a unit axis
    that keeps a block an array when all qubits are targets (a numpy scalar
    takes no ``out=`` and its complex arithmetic differs in the last bit),
    so batches agree bit for bit."""
    psi = amps.reshape((2,) * n + (-1,))
    out = np.empty_like(psi) if out is None else out.reshape(psi.shape)
    blocks = _blocks(targets, n)
    _combine(m, [psi[at] for at in blocks], [out[at] for at in blocks],
             np.empty_like(psi[blocks[0]]))
    return out.reshape(amps.shape)


def _apply_on_support(amps: np.ndarray, m: np.ndarray, targets, n: int,
                      support: np.ndarray):
    """``_apply`` for a single state that is zero outside ``support``:
    (amplitudes, support) of the result. Only the blocks whose base (the
    non-target bits) occurs in the support are gathered, combined and
    scattered, with the same arithmetic as ``_apply``, so every nonzero
    amplitude is bit-identical to the dense path. When the active bases
    are more than half of the 2^(n-k) blocks, the strided dense kernel
    runs instead and the support is dropped."""
    mask = sum(1 << t for t in targets)
    base = np.sort(support & ~mask)
    distinct = np.ones(len(base), dtype=bool)
    distinct[1:] = base[1:] != base[:-1]
    base = base[distinct]
    if 2 * len(base) > 2 ** (n - len(targets)):
        return _apply(amps, m, targets, n), None
    # basis index of gate-local state c on each base
    index = base | np.array([sum((c >> j & 1) << t for j, t in
                                 enumerate(targets)) for c in range(len(m))],
                            dtype=np.int64)[:, None]
    rows = np.empty(index.shape, dtype=amps.dtype)
    _combine(m, amps[index], rows, np.empty_like(rows[0]))
    out = np.zeros(amps.shape, dtype=amps.dtype)
    out[index] = rows
    return out, np.sort(index[rows != 0])


def _run_gate(state: Statevector, gate: Gate) -> Statevector:
    """``gate`` on ``state``; the caller has checked the gate."""
    n = state.n_qubits
    if state.support is None:
        return Statevector(n, _apply(state.amplitudes, gate.matrix(),
                                     gate.targets, n))
    return Statevector(n, *_apply_on_support(
        state.amplitudes, gate.matrix(), gate.targets, n, state.support))


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    _check_gates((gate,), state.n_qubits)
    return _run_gate(state, gate)


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """The circuit on ``state``; its gates were checked when it was made."""
    out = state
    for g in circuit.gates:
        out = _run_gate(out, g)
    _check_drift(state, out)
    return out


def _check_drift(start: Statevector, out: Statevector):
    """Raise RuntimeError when gates took a unit-norm ``start`` to an
    ``out`` whose norm is off by more than NORM_TOL."""
    drift = abs(out.norm() - 1.0)
    if drift > NORM_TOL and abs(start.norm() - 1.0) <= NORM_TOL:
        raise RuntimeError(f"norm drift {drift:.3e} after circuit")


def _monomial(m: np.ndarray):
    """(source column, entry) of each row when ``m`` has exactly one nonzero
    per row and per column, else None."""
    nonzero = m != 0
    if (nonzero.sum(axis=0) != 1).any() or (nonzero.sum(axis=1) != 1).any():
        return None
    cols = nonzero.argmax(axis=1)
    return cols, m[np.arange(len(m)), cols]


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full unitary of the circuit (small registers only).

    Column j carries basis state j through the circuit. A run of monomial
    gates (one nonzero per row and column) moves no data gate by gate: its
    permutation and its +-1 entries compose into one pending (source row,
    sign) pair, applied with one row gather into a reused buffer when the
    run meets a gate that mixes rows or ends. Every other entry is a phase,
    multiplied in place on its strided block in gate order. Each amplitude
    thus sees the same multiplications as on the gate-by-gate path (a sign
    commutes exactly with rounding), and the columns stay bit-identical to
    ``apply_circuit`` on basis states."""
    n = circuit.n_qubits
    width = max((len(g.targets) for g in circuit.gates), default=0)
    # two matrices, a half-matrix block of scratch, index vectors, and the
    # widest gate's matrix with the temporaries that build it
    require_bytes(40 * 4 ** n + 128 * 2 ** n + 64 * 4 ** width,
                  f"a {n}-qubit circuit matrix")
    cur = np.eye(2 ** n, dtype=complex)
    spare = np.empty_like(cur)
    index = np.arange(2 ** n)
    # the pending run: row x so far is sign[x] * cur[source[x]], and a
    # sign of None is +1 everywhere
    source, sign = index, None

    def flush():
        nonlocal cur, spare, source, sign
        if source is index and sign is None:
            return
        np.take(cur, source, axis=0, out=spare, mode="clip")
        if sign is not None:
            np.multiply(spare, sign[:, None], out=spare)
        cur, spare = spare, cur
        source, sign = index, None

    for g in circuit.gates:
        m = g.matrix()
        mono = _monomial(m)
        if mono is None:
            flush()
            cur, spare = _apply(cur, m, g.targets, n, out=spare), cur
            continue
        cols, entries = mono
        moves = (cols != np.arange(len(cols))).any()
        flips = entries == -1
        if moves or flips.any():
            # gate-local basis index of every row
            local = sum((index >> t & 1) << j for j, t in enumerate(g.targets))
        if moves:
            spread = np.array([sum((c >> j & 1) << t for j, t in
                                   enumerate(g.targets)) for c in cols])
            step = (index & ~sum(1 << t for t in g.targets)) | spread[local]
            source = source[step]
            sign = None if sign is None else sign[step]
        if flips.any():
            flipped = np.where(flips, -1.0, 1.0)[local]
            sign = flipped if sign is None else sign * flipped
        phases = [r for r, e in enumerate(entries) if e != 1 and e != -1]
        if phases:
            flush()
            view = cur.reshape((2,) * n + (-1,))
            blocks = _blocks(g.targets, n)
            for r in phases:
                np.multiply(view[blocks[r]], entries[r], out=view[blocks[r]])
    flush()
    return cur


# -- evolution and measurement ------------------------------------------------


def evolve_bytes(n_qubits: int) -> int:
    """Peak bytes of ``exact_evolve``: three matrices and a few states."""
    return 48 * 4 ** n_qubits + 64 * 2 ** n_qubits


def exact_evolve(hamiltonian: QubitOperator, t: float,
                 state: Statevector) -> Statevector:
    """Reference exp(-iHt) by dense eigendecomposition."""
    n = state.n_qubits
    require_bytes(evolve_bytes(n), f"exact evolution on {n} qubits")
    vals, vecs = np.linalg.eigh(
        _real_if_exact(qubit_operator_matrix(hamiltonian, n)))
    phases = np.exp(-1j * vals * t)
    amps = vecs @ (phases * (vecs.conj().T @ state.amplitudes))
    return Statevector(n, amps)


def expectation(state: Statevector, op: QubitOperator) -> float:
    if not op.is_hermitian():
        raise ValueError("expectation needs a Hermitian operator")
    val = expectation_value(op, state.amplitudes)
    if abs(val.imag) > NORM_TOL:
        raise RuntimeError(f"imaginary expectation {val.imag:.3e}")
    return float(val.real)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox4x64-10 generator; fixed seed, fixed stream."""
    return np.random.Generator(np.random.Philox(seed))


def sample_bitstrings(state: Statevector, *, shots: int = 1,
                      seed=0) -> np.ndarray:
    """Draw basis-state indices from |<x|psi>|^2; deterministic per seed.

    The draw inverts the CDF as Generator.choice(p=...) does. A sequence of
    seeds gives one row of shots per seed from the one distribution. On a
    state with a support the CDF runs over the support only: the sum that
    normalizes it still runs over all 2^n probabilities, so its rounding is
    unchanged, the CDF at each support index is the full CDF there (adding
    0.0 is exact), and a zero-probability index is never drawn, so every
    draw equals the full CDF's."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    support = state.support
    if support is None:
        probs = on = np.abs(state.amplitudes) ** 2
    else:
        on = np.abs(state.amplitudes[support]) ** 2
        probs = np.zeros(len(state.amplitudes))
        probs[support] = on
    total = probs.sum()
    if not (np.isfinite(total) and total > 0):
        raise ValueError(f"probabilities sum to {total}; need finite and > 0")
    cdf = np.cumsum(on / total)
    cdf /= cdf[-1]

    def draw(s):
        # sorted keys walk the CDF once; the picks go back in draw order
        keys = make_rng(s).random(shots)
        order = np.argsort(keys)
        pick = np.empty(shots, dtype=np.intp)
        pick[order] = cdf.searchsorted(keys[order], side="right")
        return pick if support is None else support[pick]

    rows = [draw(s) for s in (seed if np.ndim(seed) else [seed])]
    return np.array(rows) if np.ndim(seed) else rows[0]


# -- text formats --------------------------------------------------------------


def dumps_circuit(circuit: Circuit) -> str:
    from .serialize import fmt
    lines = []
    for g in circuit.gates:
        name = g.kind + (":" + g.letters if g.letters else "")
        if g.dagger:
            name += "'"
        qubits = ",".join(str(t) for t in g.targets)
        if GATE_KINDS[g.kind].inverse == _SELF:
            lines.append(f"{name} {qubits}")
        else:
            lines.append(f"{name} {qubits} {fmt(g.angle)}")
    return "\n".join(lines) + ("\n" if lines else "")


def loads_circuit(text: str, n_qubits: int) -> Circuit:
    gates = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"circuit line {line!r} is not <gate> "
                             f"<targets> [<angle>]")
        name = parts[0]
        dagger = name.endswith("'")
        if dagger:
            name = name[:-1]
        kind, _, letters = name.partition(":")
        angled = len(parts) == 3
        if kind in GATE_KINDS \
                and angled != (GATE_KINDS[kind].inverse != _SELF):
            raise ValueError(f"{kind} {'takes no' if angled else 'needs an'}"
                             f" angle: {line!r}")
        targets = tuple(int(x) for x in parts[1].split(","))
        angle = float(parts[2]) if angled else 0.0
        gates.append(Gate(kind, targets, angle=angle, letters=letters,
                          dagger=dagger))
    return Circuit(n_qubits, gates)


def dumps_state(state: Statevector) -> str:
    from .serialize import fmt
    lines = ["index,re,im"]
    for i, a in enumerate(state.amplitudes):
        lines.append(f"{i},{fmt(a.real)},{fmt(a.imag)}")
    return "\n".join(lines) + "\n"


def loads_state(text: str) -> Statevector:
    rows = [line for line in text.splitlines() if line and not
            line.startswith("index")]
    if not rows or len(rows) & (len(rows) - 1):
        raise ValueError(f"state needs a power-of-two row count, got "
                         f"{len(rows)}")
    n = len(rows).bit_length() - 1
    amps = np.zeros(len(rows), dtype=complex)
    seen = set()
    for row in rows:
        idx, re, im = row.split(",")
        idx = int(idx)
        if idx in seen or not 0 <= idx < len(rows):
            raise ValueError(f"state row index {idx} repeated or outside "
                             f"0..{len(rows) - 1}")
        seen.add(idx)
        amps[idx] = complex(float(re), float(im))
    return Statevector(n, amps)
