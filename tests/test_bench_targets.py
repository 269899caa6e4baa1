"""The benchmark's tracer still finds every function it times.

`bench/tracing.py` patches the dpsynth functions named in its `TARGETS` by
name, so renaming or deleting one of them breaks `bench/run.py --trace 1`.
This test installs a tracer and checks that each target was wrapped and is
restored afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import dpsynth.cli  # noqa: F401  the tracer patches cli's functions too

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _bindings():
    """(name, current binding) of every traced target."""
    out = []
    for mod_name, attrs in tracing.TARGETS.items():
        module = sys.modules[f"dpsynth.{mod_name}"]
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                raw = vars(getattr(module, cls_name))[meth]
                out.append((f"{mod_name}.{attr}", getattr(raw, "__func__", raw)))
            else:
                out.append((f"{mod_name}.{attr}", getattr(module, attr)))
    return out


def test_every_target_resolves_and_is_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
    finally:
        tracer.uninstall()
    unwrapped = [
        name for (name, orig), (_, now) in zip(before, during) if getattr(now, "__wrapped__", None) is not orig
    ]
    assert not unwrapped, f"tracer did not wrap {unwrapped}"
    assert [fn for _, fn in _bindings()] == [fn for _, fn in before]
