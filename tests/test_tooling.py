"""Repository tooling: a smoke test of the benchmark harness
(``perfbench/selftest.py``) and a static scan of the package source.

The harness wraps pwdual functions by module and name, so a refactor that
unbinds a traced name fails here. No timings are asserted.
"""

import ast
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
