"""Repository tooling: a smoke test of the benchmark harness
(``perfbench/selftest.py``) and static scans of the package source.

The harness wraps pwdual functions by module and name, so a refactor that
unbinds a traced name fails here. No timings are asserted.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def unread_names(tree):
    """(line, function, name) for every parameter or local of a ``def``
    that is bound but never read there or in a nested scope. ``self``,
    ``cls`` and ``_``-prefixed names are exempt; lambdas are skipped, since
    their signatures are fixed by the tables they fill."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, defs):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [x for x in (a.vararg, a.kwarg) if x]
        bound = {x.arg: x.lineno for x in params}
        stack = list(fn.body)
        while stack:  # names stored in this scope, not in nested defs
            node = stack.pop()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            if not isinstance(node, defs + (ast.Lambda,)):
                stack.extend(ast.iter_child_nodes(node))
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and \
                    not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [(line, fn.name, name) for name, line in bound.items()
                  if name not in read and name not in ("self", "cls")
                  and not name.startswith("_")]
    return found


def test_no_unread_parameters_or_locals():
    found = [f"{path.name}:{line} {fn}: {name}"
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))
             for line, fn, name in unread_names(ast.parse(path.read_text()))]
    assert not found, "bound but never read:\n" + "\n".join(found)


def test_unread_name_scan_sees_parameters_locals_and_loop_targets():
    tree = ast.parse(
        "def f(used, unused, _skip):\n"
        "    tmp = 1\n"
        "    for a, b in used:\n"
        "        print(a)\n"
        "    def g():\n"
        "        return used\n"
        "    return g\n")
    assert sorted(name for _, _, name in unread_names(tree)) == \
        ["b", "tmp", "unused"]


def reads_limit(node) -> bool:
    """Whether ``node`` reads or imports DENSE_BYTES_LIMIT."""
    if isinstance(node, ast.Name):
        return node.id == "DENSE_BYTES_LIMIT" and \
            not isinstance(node.ctx, ast.Store)
    if isinstance(node, ast.Attribute):
        return node.attr == "DENSE_BYTES_LIMIT"
    if isinstance(node, ast.ImportFrom):
        return any(a.name == "DENSE_BYTES_LIMIT" for a in node.names)
    return False


def budget_violations(tree):
    """(line, what) for each module-level ``*_CAP`` assignment, and for
    each read or import of DENSE_BYTES_LIMIT outside ``require_bytes``."""
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        found += [(node.lineno, f"module-level {t.id}") for t in targets
                  if isinstance(t, ast.Name) and t.id.endswith("_CAP")]
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and fn.name == "require_bytes" for node in ast.walk(fn)}
    found += [(node.lineno, "DENSE_BYTES_LIMIT read")
              for node in ast.walk(tree)
              if id(node) not in inside and reads_limit(node)]
    return found


def test_one_dense_budget():
    found = [f"{path.name}:{line} {what}"
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))
             for line, what in budget_violations(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_budget_scan_sees_caps_reads_and_imports():
    tree = ast.parse(
        "from .pauli import DENSE_BYTES_LIMIT\n"
        "MATRIX_CAP = 12\n"
        "DENSE_BYTES_LIMIT = 2 ** 30\n"
        "def require_bytes(n):\n"
        "    return n > DENSE_BYTES_LIMIT\n"
        "def other(n, pauli):\n"
        "    return n > pauli.DENSE_BYTES_LIMIT\n")
    assert budget_violations(tree) == [
        (2, "module-level MATRIX_CAP"), (1, "DENSE_BYTES_LIMIT read"),
        (7, "DENSE_BYTES_LIMIT read")]


def scipy_imports(tree):
    """Lines of each ``import scipy...`` or ``from scipy... import``, at
    any depth (function bodies included)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "scipy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level
            and node.module.split(".")[0] == "scipy"]


def test_package_imports_no_scipy():
    """scipy is a test-only dependency (pyproject's ``test`` extra), so no
    module of the package imports it, on any path."""
    found = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))
             for line in scipy_imports(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_scipy_scan_sees_nested_from_and_aliased_imports():
    tree = ast.parse(
        "import numpy, scipy\n"
        "from . import scipyish\n"
        "from .scipy import x\n"
        "def f():\n"
        "    import scipy.optimize as so\n"
        "    from scipy.linalg import expm\n"
        "    import scipyx\n")
    assert scipy_imports(tree) == [1, 5, 6]


def support_constructions(tree):
    """Lines of each ``Statevector(...)`` call that may pass a support: a
    third positional argument, a ``support=`` keyword, or a ``*`` or
    ``**`` argument that may hold one."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            getattr(func, "attr", None)
        if name == "Statevector" and (
                len(node.args) > 2
                or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg in ("support", None) for k in node.keywords)):
            found.append(node.lineno)
    return found


def test_one_support_constructor():
    """Outside statevector.py a state with a support comes from
    ``Statevector.on_support``, the one place that sets one."""
    found = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))
             if path.name != "statevector.py"
             for line in support_constructions(ast.parse(path.read_text()))]
    assert not found, "Statevector(...) given a support:\n" + \
        "\n".join(found)


def test_support_scan_sees_positional_keyword_and_unpacked():
    tree = ast.parse(
        "a = Statevector(n, amps)\n"
        "b = Statevector(n, amps, states)\n"
        "c = sv.Statevector(n, amps, support=states)\n"
        "d = Statevector(n, *pair)\n"
        "e = Statevector(**fields)\n"
        "f = Statevector.on_support(n, states, values)\n")
    assert support_constructions(tree) == [2, 3, 4, 5]


# what the CLI config and its blocks are called in cli.py
CONFIG_NAMES = {"cfg", "config", "data", "system", "sysblock", "task",
                "block"}


def config_default_reads(tree):
    """Lines of each ``.get(key, default)`` whose receiver is the config
    or one of its blocks: a name in CONFIG_NAMES, or a subscript or an
    attribute chain that holds one (``cfg["task"]``, ``run.task``)."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) >= 2):
            continue
        receiver, names = node.func.value, set()
        while isinstance(receiver, (ast.Attribute, ast.Subscript)):
            names.add(getattr(receiver, "attr", None))
            receiver = receiver.value
        names.add(getattr(receiver, "id", None))
        if names & CONFIG_NAMES:
            found.append(node.lineno)
    return found


def test_cli_defaults_come_from_the_command_table():
    """Defaults live in ``cli.COMMANDS`` and ``cli.SYSTEM_DEFAULTS``,
    which the report echoes; a default read elsewhere would not be."""
    path = ROOT / "src" / "pwdual" / "cli.py"
    found = config_default_reads(ast.parse(path.read_text()))
    assert not found, f"cli.py lines {found} read a config default"


def test_config_default_scan_sees_blocks_and_attributes():
    tree = ast.parse(
        "def f(cfg, run, rec):\n"
        "    a = cfg.get('seed', 0)\n"
        "    b = cfg['task'].get('t', 1.0)\n"
        "    c = run.task.get('order', 2)\n"
        "    d = rec.terms.get('k', 0)\n"
        "    e = run.task['order']\n"
        "    g = cfg.get('seed')\n")
    assert config_default_reads(tree) == [2, 3, 4]


def command_config_raises(tree):
    """Lines of each ``raise ConfigError`` in a ``cmd_*`` function,
    nested blocks and functions included."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) \
                else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if getattr(exc, "id", getattr(exc, "attr", None)) == "ConfigError":
                found.append(node.lineno)
    return sorted(found)


def test_command_bodies_check_no_config():
    """A config value's type is checked by ``cli.resolve`` and its range by
    the library function that reads it; no command body checks either."""
    path = ROOT / "src" / "pwdual" / "cli.py"
    found = command_config_raises(ast.parse(path.read_text()))
    assert not found, f"cli.py lines {found} check config in a command"


def test_command_config_scan_sees_nested_and_qualified_raises():
    tree = ast.parse(
        "def cmd_a(run):\n"
        "    if run.task['t'] < 0:\n"
        "        raise ConfigError('t')\n"
        "    def inner():\n"
        "        raise cli.ConfigError\n"
        "def cmd_b(run):\n"
        "    raise ValueError('x')\n"
        "def resolve(cfg):\n"
        "    raise ConfigError('seed')\n"
        "def cmd_c(run):\n"
        "    with run.stage('x'):\n"
        "        raise ConfigError\n")
    assert command_config_raises(tree) == [3, 5, 12]


def snake_reversals(tree):
    """Lines of each ``cols - 1 - x``: the column reversal on odd rows of
    the boustrophedon layout, with ``cols`` a name or an attribute."""
    def is_cols(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "cols"

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Sub)
            and is_cols(node.left.left)
            and isinstance(node.left.right, ast.Constant)
            and node.left.right.value == 1]


def test_one_snake_map():
    """The boustrophedon layout is written once, in swapnet.py; every
    other reader goes through ``snake_qubit`` or ``snake_position``."""
    found = {path.name: snake_reversals(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}
    assert len(found.pop("swapnet.py")) == 1
    assert not any(found.values()), f"snake formula copied: {found}"


def test_snake_scan_sees_names_and_attributes():
    tree = ast.parse(
        "a = cols - 1 - c\n"
        "b = n - 1 - t\n"
        "d = self.cols - 1 - col\n"
        "e = cols - 2 - c\n"
        "f = np.where(r % 2 == 0, c, cols - 1 - c)\n")
    assert snake_reversals(tree) == [1, 3, 5]


def phase_exponent_counts(tree):
    """Lines of each call (a bit count such as ``(x & z).bit_count()`` or
    ``np.bitwise_count(z1 & x2)``) on the ``&`` of an x mask and a z mask:
    a term of the Pauli phase exponent. Mask names are ``x`` or ``z``,
    optionally followed by digits."""
    def mask(node, letter):
        return isinstance(node, ast.Name) and \
            re.fullmatch(letter + r"\d*", node.id) is not None

    def is_xz(node):
        return isinstance(node, ast.BinOp) \
            and isinstance(node.op, ast.BitAnd) \
            and (mask(node.left, "x") and mask(node.right, "z")
                 or mask(node.left, "z") and mask(node.right, "x"))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            operands = list(node.args)
            if isinstance(node.func, ast.Attribute):
                operands.append(node.func.value)
            found += [node.lineno for op in operands if is_xz(op)]
    return sorted(found)


def test_one_phase_rule():
    """The Pauli phase exponent is written once, in pauli.py: four counts
    in ``_mask_product`` and the i^|x&z| of one string in
    ``_permutation``. Every other product goes through the kernel."""
    found = {path.name: phase_exponent_counts(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}
    assert len(found.pop("pauli.py")) == 5
    assert not any(found.values()), f"phase exponent copied: {found}"


def test_phase_exponent_scan_sees_calls_and_methods():
    tree = ast.parse(
        "a = (x1 & z1).bit_count()\n"
        "b = np.bitwise_count(z & x2)\n"
        "c = count(x3 & z3) + 2 * count(z1 & x2)\n"
        "d = np.bitwise_count(rows & mask)\n"
        "e = x & z\n"
        "f = (x & y).bit_count()\n"
        "g = np.bitwise_count(cols & z)\n")
    assert phase_exponent_counts(tree) == [1, 2, 3, 3]


def connectivity_checks(tree):
    """Lines of each call of a function or method named
    ``check_connectivity``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "check_connectivity"]


def circuit_bypasses(tree):
    """Lines that make or fill a Circuit past ``_check_gates``: a read or
    an import of the unchecked path ``_assemble``, a ``__new__`` call that
    names Circuit, an ``object.__setattr__`` call on anything but
    ``self``, and a class derived from Circuit."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "_assemble" for alias in node.names):
            found.append(node.lineno)
        elif isinstance(node, (ast.Name, ast.Attribute)) and getattr(
                node, "id", getattr(node, "attr", None)) == "_assemble":
            found.append(node.lineno)
        elif isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) == "Circuit"
                for base in node.bases):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            owner = getattr(node.func.value, "id", None)
            first = getattr(node.args[0], "id", None) if node.args else None
            if node.func.attr == "__new__" and "Circuit" in (owner, first) \
                    or node.func.attr == "__setattr__" \
                    and owner == "object" and first != "self":
                found.append(node.lineno)
    return found


def test_circuits_validate_themselves():
    """A Circuit checks its new gates when it is made (``_check_gates`` in
    ``Circuit`` and ``Circuit.join``), so no builder calls
    ``check_connectivity``. The one way to make a Circuit whose gates
    ``_check_gates`` does not read there, ``_assemble``, is used only by
    Circuit's own methods in statevector.py; no other module names it,
    makes a Circuit with ``__new__``, sets another object's attribute with
    ``object.__setattr__`` or derives from Circuit."""
    trees = source_trees()
    found = {name: connectivity_checks(tree) for name, tree in trees.items()}
    assert not any(found.values()), f"hand-placed checks: {found}"
    assert top_level_readers(trees, "_assemble") == {
        "statevector.py": {"Circuit"}}
    bypasses = {name: circuit_bypasses(tree) for name, tree in trees.items()}
    assert bypasses.pop("statevector.py")  # _assemble and its callers
    assert not any(bypasses.values()), f"unchecked circuits: {bypasses}"


def test_connectivity_scan_sees_methods_and_names():
    tree = ast.parse(
        "circ.check_connectivity()\n"
        "check_connectivity(circ)\n"
        "self.step.check_connectivity()\n"
        "check = circ.check_connectivity\n"
        "circ.check_targets()\n")
    assert connectivity_checks(tree) == [1, 2, 3]


def test_bypass_scan_sees_new_setattr_subclasses_and_the_path():
    tree = ast.parse(
        "from .statevector import Circuit, _assemble\n"
        "circ = object.__new__(Circuit)\n"
        "object.__setattr__(circ, 'columns', cols)\n"
        "statevector._assemble(4, cols, None)\n"
        "class Loose(statevector.Circuit):\n"
        "    pass\n"
        "other = Circuit.__new__(cls)\n"
        "object.__setattr__(self, 'nu_list', nu)\n"
        "grid = object.__new__(ModeGrid)\n"
        "circ = Circuit.join(4, parts)\n")
    assert sorted(circuit_bypasses(tree)) == [1, 2, 3, 4, 5, 7]


# one pattern per gate rule, matched against each raise's unparsed message
GATE_RULES = ("unknown gate kind", "Pauli letters", "targets, got",
              "repeated target", "is not an integer",
              r"target .*outside .*qubits", "not finite")


def gate_rule_raises(tree):
    """(line, enclosing function, rule) for each ``raise`` whose exception
    text, as ``ast.unparse`` writes it, matches a pattern of GATE_RULES."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = ast.unparse(node.exc)
            found.extend((node.lineno, fn, rule) for rule in GATE_RULES
                         if re.search(rule, text))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def post_init_classes(tree):
    """Names of the classes that define ``__post_init__``."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(f, ast.FunctionDef)
                    and f.name == "__post_init__" for f in node.body)]


def test_one_gate_validator():
    """Every gate rule is raised in one function, ``_check_gates`` in
    statevector.py, which a Circuit and apply_gate both call; a Gate is a
    plain record with no constructor checks."""
    found = {path.name: gate_rule_raises(ast.parse(path.read_text()))
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}
    mine = found.pop("statevector.py")
    assert {fn for _, fn, _ in mine} == {"_check_gates"}, mine
    assert {rule for _, _, rule in mine} == set(GATE_RULES)
    assert not any(found.values()), f"gate rule raised elsewhere: {found}"
    source = (ROOT / "src" / "pwdual" / "statevector.py").read_text()
    assert "Gate" not in post_init_classes(ast.parse(source))


def test_gate_rule_scan_sees_functions_methods_and_fstrings():
    tree = ast.parse(
        "class Gate:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError(f'repeated target in {self}')\n"
        "def check(t, n):\n"
        "    if t >= n:\n"
        "        raise ValueError(f'target {t} '\n"
        "                         f'outside {n} qubits')\n"
        "    raise TypeError('angle is not finite')\n"
        "def other(q):\n"
        "    raise ValueError(f'orbital {q} outside the register')\n"
        "raise ValueError('unknown gate kind')\n")
    assert gate_rule_raises(tree) == [
        (3, "__post_init__", "repeated target"),
        (6, "check", r"target .*outside .*qubits"),
        (8, "check", "not finite"), (11, None, "unknown gate kind")]
    assert post_init_classes(tree) == ["Gate"]


def name_uses(tree, name):
    """(line, enclosing function) of each read of ``name``, as a bare name
    or an attribute, and of each import of it."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Name) and node.id == name \
                or isinstance(node, ast.Attribute) and node.attr == name \
                or isinstance(node, ast.alias) and node.name == name:
            found.append((getattr(node, "lineno", None), fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_one_occupation_builder():
    """Every occupation-basis matrix reads one term-ordered entry list:
    ``fermion._entries`` is the only caller of ``_ladder_action``."""
    found = {path.name: name_uses(ast.parse(path.read_text()),
                                  "_ladder_action")
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}
    mine = found.pop("fermion.py")
    assert [fn for _, fn in mine] == ["_entries"], mine
    assert not any(found.values()), f"ladder action read elsewhere: {found}"


def test_name_scan_sees_calls_attributes_and_imports():
    tree = ast.parse(
        "from .fermion import _ladder_action\n"
        "def a(key, n):\n"
        "    return _ladder_action(key, n)\n"
        "def b(key, n):\n"
        "    f = fermion._ladder_action\n"
        "    return list(map(_ladder_action, [key], [n]))\n"
        "def _ladder_action(key, n):\n"
        "    return ladder_action(key, n)\n")
    uses = name_uses(tree, "_ladder_action")
    assert [fn for _, fn in uses] == [None, "a", "b", "b"]
    assert [line for line, _ in uses[1:]] == [3, 5, 6]


def imag_zero_tests(tree):
    """(line, function) of each exact-zero test of an imaginary part: an
    ``.imag`` (or its abs) compared with 0, or read for truth by ``not``,
    ``any``, ``all`` or ``count_nonzero``, and each call of numpy's
    ``isreal`` or ``real_if_close``. A comparison with a tolerance is not
    an exact-zero test."""
    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    def is_imag(node):
        if isinstance(node, ast.Call) and name(node.func) == "abs" \
                and len(node.args) == 1:
            node = node.args[0]
        return isinstance(node, ast.Attribute) and node.attr == "imag"

    def is_test(node):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            return any(map(is_imag, operands)) and any(
                isinstance(op, ast.Constant) and op.value == 0
                for op in operands)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return is_imag(node.operand)
        if isinstance(node, ast.Call):
            fn = name(node.func)
            if fn in ("isreal", "real_if_close"):
                return True
            read = list(node.args[:1])
            if isinstance(node.func, ast.Attribute):
                read.append(node.func.value)
            return fn in ("any", "all", "count_nonzero") \
                and any(map(is_imag, read))
        return False

    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if is_test(node):
            found.append((node.lineno, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_one_realness_rule():
    """Whether a matrix reaches LAPACK's real or complex solvers is decided
    once, in ``pauli._real_if_exact``: no other code tests an imaginary
    part for exact zero, and the exact spectra (``HamiltonianSet.blocks``)
    and ``exact_evolve`` both call it."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}
    found = {name: imag_zero_tests(tree) for name, tree in trees.items()}
    mine = found.pop("pauli.py")
    assert [fn for _, fn in mine] == ["_real_if_exact"], mine
    assert not any(found.values()), f"realness rule copied: {found}"
    for module, caller in (("hamiltonian.py", "blocks"),
                           ("statevector.py", "exact_evolve")):
        callers = {fn for _, fn in name_uses(trees[module], "_real_if_exact")}
        assert caller in callers, f"{caller} skips the realness rule"


def test_imag_zero_scan_sees_compares_truth_tests_and_predicates():
    tree = ast.parse(
        "def a(m):\n"
        "    return not m.imag.any()\n"
        "def b(m):\n"
        "    return np.all(m.imag == 0) or np.count_nonzero(m.data.imag)\n"
        "def c(m):\n"
        "    return abs(m.imag) <= tol or np.isreal(m) or 0.0 != m.imag\n"
        "def d(m):\n"
        "    return not m.imag, np.real_if_close(m), abs(m.imag) == 0\n"
        "def e(m):\n"
        "    return all(abs(c.imag) <= tol for c in m), m.real.any()\n")
    assert imag_zero_tests(tree) == [
        (2, "a"), (4, "b"), (4, "b"), (6, "c"), (6, "c"),
        (8, "d"), (8, "d"), (8, "d")]


def block_slices(tree):
    """(line, enclosing function) of each cut of a full matrix into
    particle-number blocks: a subscript indexed by an ``ix_`` call (a
    rows-by-columns gather), and an outer comparison of two popcount
    vectors, ``a[:, None] != b[None, :]`` (the mask of the entries that
    join different particle numbers)."""
    def is_ix(node):
        return isinstance(node, ast.Call) and \
            getattr(node.func, "attr", getattr(node.func, "id", None)) \
            == "ix_"

    def axes(node):
        """The None/slice pattern of ``x[:, None]``-style indexing."""
        if not isinstance(node, ast.Subscript) or \
                not isinstance(node.slice, ast.Tuple):
            return None
        return tuple("new" if isinstance(e, ast.Constant) and e.value is None
                     else "all" if isinstance(e, ast.Slice) else "other"
                     for e in node.slice.elts)

    def is_outer(node):
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left] + node.comparators
        found = set()
        for side in sides:
            for sub in ast.walk(side):
                found.add(axes(sub))
        return {("all", "new"), ("new", "all")} <= found

    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Subscript) and is_ix(node.slice) \
                or is_outer(node):
            found.append((node.lineno, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def source_trees() -> dict:
    """module file name -> parsed source, for every module of the
    package."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}


def top_level_readers(trees: dict, name: str) -> dict:
    """module -> the top-level definitions that read ``name`` (a call, a
    bare name, an attribute or an import), None for a module-level
    statement such as an import."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if name_uses(node, name):
                found.setdefault(module, set()).add(
                    getattr(node, "name", None))
    return found


def test_one_builder_per_circuit_kind():
    """Each circuit kind has one builder: the 1D transform is read only by
    ``build_ffft_nd`` (1D grids included) and its own recursion, and the
    stagger layers and the closed loop only by ``build_full_schedule``. A
    strategy name picks its step builder only in ``trotter_step``, so no
    other code reads either step builder."""
    trees = source_trees()
    assert top_level_readers(trees, "split_operator_step") == {
        "__init__.py": {None}, "trotter.py": {"trotter_step"}}
    assert top_level_readers(trees, "direct_jw_step") == {
        "__init__.py": {None}, "trotter.py": {"trotter_step"}}
    assert top_level_readers(trees, "_ffft_1d_ops") == {
        "ffft.py": {"_ffft_1d_ops", "build_ffft_nd"}}
    assert top_level_readers(trees, "_stagger_pairs") == {
        "swapnet.py": {"build_full_schedule"}}
    assert top_level_readers(trees, "_cycle_positions") == {
        "swapnet.py": {"build_full_schedule"}}


def test_reader_scan_sees_calls_names_and_attributes():
    trees = {"a.py": ast.parse(
        "from .ffft import _ffft_1d_ops\n"
        "def build(m):\n"
        "    return _ffft_1d_ops(list(range(m)))\n"
        "def table(m):\n"
        "    return {1: ffft._ffft_1d_ops}[m]\n"
        "def other():\n"
        "    def inner(ops=_ffft_1d_ops):\n"
        "        return ops\n"
        "    return inner\n"
        "def _ffft_1d_ops(positions):\n"
        "    return []\n"), "b.py": ast.parse(
        "class Maker:\n"
        "    def run(self):\n"
        "        return list(map(_ffft_1d_ops, []))\n"
        "x = 1\n")}
    assert top_level_readers(trees, "_ffft_1d_ops") == {
        "a.py": {None, "build", "table", "other"}, "b.py": {"Maker"}}


def test_one_coulomb_cutoff():
    """The truncation distance cuts the pair table in one place,
    ``hamiltonian.dual_coefficients``: it is the only reader of
    ``min_image_distance``, and the builders and the LCU weights read the
    cut table from it. No second cutoff helper is left."""
    trees = source_trees()
    assert top_level_readers(trees, "min_image_distance") == {
        "hamiltonian.py": {"dual_coefficients"}}
    for path in sorted((ROOT / "src" / "pwdual").glob("*.py")):
        assert "truncated_pairs" not in path.read_text(), path.name


def test_cutoff_scan_sees_calls_names_and_attributes():
    trees = {"a.py": ast.parse(
        "def table(grid, p, q):\n"
        "    return grid.min_image_distance(p, q)\n"
        "def far(grid):\n"
        "    dist = grid.min_image_distance\n"
        "    return dist\n"
        "def near(p):\n"
        "    return min_image_distance(p, p)\n"
        "def plain(grid):\n"
        "    return grid.distance\n"), "b.py": ast.parse(
        "class Grid:\n"
        "    def min_image_distance(self, p, q):\n"
        "        return 0.0\n"
        "    def diameter(self, sites):\n"
        "        return max(map(self.min_image_distance, sites, sites))\n")}
    assert top_level_readers(trees, "min_image_distance") == {
        "a.py": {"table", "far", "near"}, "b.py": {"Grid"}}


def test_one_number_block_view():
    """A full matrix is cut into particle-number blocks in one place,
    ``trotter.number_block_view``, and the Trotter sweep and the FFFT
    check read their blocks from it."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "pwdual").glob("*.py"))}
    found = {name: block_slices(tree) for name, tree in trees.items()}
    mine = found.pop("trotter.py")
    assert {fn for _, fn in mine} == {"number_block_view"}, mine
    assert not any(found.values()), f"number blocks cut elsewhere: {found}"
    for module, caller in (("cli.py", "cmd_trotter_sweep"),
                           ("cli.py", "cmd_ffft_check")):
        callers = {fn for _, fn in name_uses(trees[module],
                                             "number_block_view")}
        assert caller in callers, f"{caller} cuts its own blocks"


def test_one_sector_algebra():
    """The particle-number blocks of the FFFT and of the diagonal phases
    have one source each. Only the statevector engine and the two CLI
    checks of compiled circuits form a full ``circuit_matrix``; the FFFT's
    single-particle matrix is read only by ``sector_transform`` (its
    Slater determinants), and the diagonal terms and mode phases only by
    the three gate emitters and the two per-state evaluators."""
    trees = source_trees()

    def readers(name):
        return top_level_readers(trees, name)

    matrix = readers("circuit_matrix")
    matrix.pop("statevector.py", None)
    assert matrix == {"cli.py": {None, "cmd_trotter_sweep",
                                 "cmd_ffft_check"}}, matrix
    assert readers("single_particle_transform") == {
        "ffft.py": {"sector_transform"}}
    assert readers("diagonal_terms") == {
        "hamiltonian.py": {"diagonal_potential_values"},
        "trotter.py": {None, "_diagonal_potential_gates",
                       "_planar_potential_gates"}}
    assert readers("mode_phases") == {
        "hamiltonian.py": {"kinetic_mode_values"},
        "trotter.py": {None, "_kinetic_mode_gates"}}


def test_block_slice_scan_sees_gathers_and_masks():
    tree = ast.parse(
        "def a(m, b):\n"
        "    return m[np.ix_(b, b)]\n"
        "def b(m, rows, cols):\n"
        "    return [m[ix_(r, c)] for r, c in zip(rows, cols)]\n"
        "def c(count, m):\n"
        "    off = count[:, None] != count[None, :] + 1\n"
        "    return m[off], count[None, :] == count[:, None]\n"
        "def d(m, order, s):\n"
        "    keep = m[order][:, order], s[:, None] * m, np.ix_(order, order)\n"
        "    return m[:, None] < 0, m[0, 1:] != m[None, 0]\n")
    assert block_slices(tree) == [(2, "a"), (4, "b"), (6, "c"), (7, "c")]


def public_names(tree) -> list:
    """Names of the public top-level functions, classes and assignments."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.Assign):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            found.append(node.target.id)
    return [name for name in found if not name.startswith("_")]


def unread_public_names(trees: dict, criteria) -> list:
    """(module, name) of each public top-level name that no top-level
    statement of the package reads, its own definition and the re-exports
    of ``__init__.py`` aside, and that the ``criteria`` tree does not read."""
    found = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for name in public_names(tree):
            readers = top_level_readers(trees, name)
            readers.pop("__init__.py", None)
            readers.get(module, set()).discard(name)
            if not any(readers.values()) and not name_uses(criteria, name):
                found.append((module, name))
    return found


# the public names with no reader in the package or the criteria, and why
# each stays
PUBLIC_EXEMPT = {
    ("measurement.py", "exact_group_variances"):
        "the matrix-level variances the sampled estimator is checked "
        "against, until an exact variance on the sector replaces them",
    ("measurement.py", "empirical_variance"):
        "the sampled single-shot variance checked against those",
    ("serialize.py", "loads_hamiltonian"):
        "reads the hamiltonian_<rep>.txt files that build writes",
    ("statevector.py", "loads_circuit"):
        "reads the ffft_circuit.txt file that ffft-check writes",
}


def test_every_public_name_has_a_reader():
    """A public name of the package is read by a command (cli.py), by
    another definition of the package or by an acceptance criterion; a name
    that only unit tests read leaves the package, unless PUBLIC_EXEMPT
    says why it stays."""
    criteria = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    found = set(unread_public_names(source_trees(), criteria))
    assert not found - set(PUBLIC_EXEMPT), "read only by unit tests: " \
        f"{sorted(found - set(PUBLIC_EXEMPT))}"
    assert not set(PUBLIC_EXEMPT) - found, "exempt but read: " \
        f"{sorted(set(PUBLIC_EXEMPT) - found)}"


def test_public_name_scan_sees_exports_recursion_and_criteria():
    trees = {"__init__.py": ast.parse(
        "from .a import used, helper, Shape\n"), "a.py": ast.parse(
        "LIMIT = 4\n"
        "def used(n):\n"
        "    return n < LIMIT\n"
        "def helper(n):\n"
        "    return helper(n - 1) if n else 0\n"
        "class Shape:\n"
        "    size: int = 0\n"
        "def _private():\n"
        "    return 1\n"
        "def checked():\n"
        "    return 2\n"), "b.py": ast.parse(
        "from .a import used\n"
        "def run():\n"
        "    return used(3)\n")}
    criteria = ast.parse("from pwdual.a import checked\n"
                         "def test_criterion():\n"
                         "    assert checked() == 2\n")
    assert unread_public_names(trees, criteria) == [
        ("a.py", "helper"), ("a.py", "Shape"), ("b.py", "run")]
