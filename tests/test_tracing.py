"""The benchmark's tracer still finds every name it wraps.

perfbench/tracing.py rebinds public functions and two methods of the
package by name; a deleted or renamed target would crash the benchmark
but no other test.  The tracer is loaded by path and only read.
"""

import importlib.util
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
