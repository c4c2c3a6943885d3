"""Text round-trip for fermion and qubit operators and Hamiltonians. The
circuit and state formats live in ``statevector`` (``dumps_circuit``,
``dumps_state``) and the swap-schedule format in ``swapnet``
(``dumps_schedule``).

Operator lines: ``<re> <im> <factor>...`` with one term per line, factors
``3^`` (raise orbital 3), ``3`` (lower), or ``X3``/``Y3``/``Z3``. Numbers
print with 17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

from .fermion import FermionOperator, RAISE, LOWER
from .pauli import QubitOperator, pauli_string


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _term_line(coeff, factors) -> str:
    tail = (" " + " ".join(factors)) if factors else ""
    return f"{fmt(coeff.real)} {fmt(coeff.imag)}{tail}"


def dumps_fermion(op: FermionOperator) -> str:
    lines = []
    for key, coeff in op.items():
        factors = [f"{q}^" if f == RAISE else f"{q}" for q, f in key]
        lines.append(_term_line(coeff, factors))
    return "\n".join(lines) + ("\n" if lines else "")


def _term_lines(text: str):
    """(coefficient, factor tokens) per term line; blank and # lines are skipped."""
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 2:
            raise ValueError(f"term line {line.strip()!r} needs a real and "
                             f"an imaginary part")
        yield complex(float(parts[0]), float(parts[1])), parts[2:]


def loads_fermion(text: str) -> FermionOperator:
    op = FermionOperator()
    for coeff, tokens in _term_lines(text):
        key = tuple((int(tok[:-1]), RAISE) if tok.endswith("^")
                    else (int(tok), LOWER) for tok in tokens)
        op.terms[key] = op.terms.get(key, 0.0) + coeff
    return op


def dumps_hamiltonian(hs) -> str:
    """Header block plus one term-format section per component."""
    lines = [
        f"# representation {hs.representation}",
        f"# n_qubits {hs.n_qubits}",
        f"# constant {fmt(hs.constant)}",
    ]
    if hs.grid is not None:
        lines += [
            f"# dimension {hs.grid.dimension}",
            f"# modes_per_axis {hs.grid.modes_per_axis}",
            f"# volume {fmt(hs.grid.cell.volume)}",
            f"# spinful {int(hs.grid.cell.spinful)}",
        ]
    if hs.truncation is not None:
        lines.append(f"# truncation {fmt(hs.truncation)}")
    for pos, charge in hs.nuclei.entries:
        coords = ",".join(fmt(x) for x in pos)
        lines.append(f"# nucleus {coords} {fmt(charge)}")
    for name, op in (("kinetic", hs.kinetic), ("external", hs.external),
                     ("interaction", hs.interaction)):
        lines.append(f"[{name}]")
        text = dumps_fermion(op)
        if text:
            lines.append(text.rstrip("\n"))
    return "\n".join(lines) + "\n"


def loads_hamiltonian(text: str):
    """Inverse of dumps_hamiltonian; reconstructs the grid when present."""
    from .geometry import build_grid
    from .hamiltonian import HamiltonianSet, NucleiSpec
    header = {}
    nuclei = []
    sections = {"kinetic": [], "external": [], "interaction": []}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# nucleus"):
            _, _, coords, charge = line.split()
            nuclei.append((tuple(float(x) for x in coords.split(",")),
                           float(charge)))
        elif line.startswith("#"):
            _, key, value = line.split(None, 2)
            header[key] = value
        elif line.startswith("["):
            current = line.strip("[]")
            if current not in sections:
                raise ValueError(f"unknown section [{current}]; expected "
                                 f"one of {sorted(sections)}")
        elif current is None:
            raise ValueError(f"term line {line!r} before any [section]")
        else:
            sections[current].append(line)
    grid = None
    if "dimension" in header:
        grid = build_grid(int(header["dimension"]),
                          int(header["modes_per_axis"]),
                          float(header["volume"]),
                          bool(int(header["spinful"])))
    truncation = float(header["truncation"]) if "truncation" in header else None
    return HamiltonianSet(
        loads_fermion("\n".join(sections["kinetic"])),
        loads_fermion("\n".join(sections["external"])),
        loads_fermion("\n".join(sections["interaction"])),
        float(header["constant"]), header["representation"], grid,
        int(header["n_qubits"]), NucleiSpec.build(nuclei), truncation)


def dumps_qubit(op: QubitOperator) -> str:
    lines = []
    for key, coeff in op.items():
        factors = [f"{letter}{q}" for q, letter in key]
        lines.append(_term_line(coeff, factors))
    return "\n".join(lines) + ("\n" if lines else "")


def loads_qubit(text: str) -> QubitOperator:
    op = QubitOperator()
    for coeff, tokens in _term_lines(text):
        key = pauli_string((int(tok[1:]), tok[0]) for tok in tokens)
        op.terms[key] = op.terms.get(key, 0.0) + coeff
    return op
