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
