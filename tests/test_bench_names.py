"""The library names the benchmark harness looks up must keep resolving.

``bench/spans.py`` wraps the public functions of each module in ``MODULES``
and the methods of each class in ``TRACED_CLASSES``; ``bench/workloads.py``
draws the sampled state and observables with ``vbcast.densemat``.  Removing
one of these names breaks a traced benchmark run with ``KeyError`` or
``AttributeError``, so the harness files are read here as they are.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")


@pytest.mark.parametrize("short", spans.MODULES)
def test_traced_module_resolves(short):
    module = importlib.import_module(f"vbcast.{short}")
    for cls_name in spans.TRACED_CLASSES.get(short, ()):
        assert isinstance(getattr(module, cls_name), type), (short, cls_name)


def test_workload_draws_resolve():
    densemat = importlib.import_module("vbcast.densemat")
    for name in ("Rng", "random_density", "random_hermitian"):
        assert hasattr(densemat, name), name


def test_tracer_installs_and_restores():
    import vbcast.hovm
    import vbcast.qsample

    before = (vbcast.hovm.sample_mp_blocks, vbcast.qsample.estimate_with_trace)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert vbcast.hovm.sample_mp_blocks is not before[0]
        assert vbcast.qsample.estimate_with_trace is not before[1]
    finally:
        tracer.uninstall()
    assert (vbcast.hovm.sample_mp_blocks, vbcast.qsample.estimate_with_trace) == before


def test_tracer_installs_after_bare_cli_import():
    # the tracer reads every module in MODULES from sys.modules; the other tests here import them all first
    src = os.path.join(os.path.dirname(BENCH), "src")
    code = (
        "import importlib.util, sys\n"
        "import vbcast.cli\n"
        f"spec = importlib.util.spec_from_file_location('spans', {os.path.join(BENCH, 'spans.py')!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "spans.Tracer().install()\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
