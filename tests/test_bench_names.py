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
