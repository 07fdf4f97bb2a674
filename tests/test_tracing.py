"""The benchmark still finds every name it wraps, reads and calls.

perfbench/tracing.py rebinds public functions and two methods of the
package by name, and the workloads call library functions with fixed
arguments; a deleted or renamed target, or a renamed parameter, would
crash the benchmark but no other test.  The perfbench files are only
read: the tracer is loaded by path, the rest is parsed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import gaussbell.cli  # noqa: F401  (the tracer needs every module loaded)
from gaussbell import gauss, report

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _state():
    """Every attribute of every gaussbell module, and the two wrapped methods."""
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "gaussbell" or name.startswith("gaussbell.")}
    methods = (report.VerificationReport.__dict__["dumps"],
               gauss.WeightSpec.__dict__["__call__"])
    return modules, methods


def _same(a, b):
    (mods_a, meth_a), (mods_b, meth_b) = a, b
    return (mods_a.keys() == mods_b.keys()
            and all(mods_a[n].keys() == mods_b[n].keys()
                    and all(mods_a[n][k] is mods_b[n][k] for k in mods_a[n])
                    for n in mods_a)
            and all(x is y for x, y in zip(meth_a, meth_b)))


def test_tracer_installs_and_uninstalls_cleanly():
    before = _state()
    tracer = _load_tracer_class()()
    try:
        tracer.install()
        during = _state()
        assert tracer._undo, "the tracer wrapped nothing"
        assert not _same(before, during)
        assert hasattr(gauss.q2_characteristic, "__wrapped__")
        assert hasattr(report.VerificationReport.__dict__["dumps"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert _same(before, _state())


PERFBENCH = TRACING.parent


def _perfbench_calls():
    """Each perfbench file's `<module>.<name>` references into gaussbell.

    Module aliases come only from the file's own ``from gaussbell import``
    lines, so a local variable that shadows a module name elsewhere (as
    ``report`` does in workloads.py) is not mistaken for the module.
    Yields (where, object, the call node or None when it is not called).
    """
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "gaussbell"
                   for a in node.names}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                module = importlib.import_module(f"gaussbell.{aliases[node.value.id]}")
                where = f"{path.name}:{node.lineno} {node.attr}"
                assert hasattr(module, node.attr), f"{where}: not in {module.__name__}"
                yield where, getattr(module, node.attr), calls.get(id(node))


def test_perfbench_names_and_call_signatures_exist():
    """Every gaussbell name perfbench reads exists, and each direct call binds
    to its signature (positional count and keyword names)."""
    seen = 0
    for where, obj, call in _perfbench_calls():
        seen += 1
        if (call is None or any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            continue
        try:
            inspect.signature(obj).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
    assert seen > 20
