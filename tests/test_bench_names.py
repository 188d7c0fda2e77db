"""The library names the benchmark harness looks up must keep resolving.

``bench/spans.py`` wraps the public functions of each module in ``MODULES``
and the methods of each class in ``TRACED_CLASSES``; ``bench/workloads.py``
draws the sampled state and observables with ``vbcast.densemat``.  Removing
one of these names breaks a traced benchmark run with ``KeyError`` or
``AttributeError``, so the harness files are read here as they are.
"""

import importlib
import importlib.util
import json
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


def _in_child(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(BENCH), "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


def test_tracer_installs_after_bare_cli_import(tmp_path):
    # the tracer reads every module in MODULES from sys.modules, where a bare import of vbcast.cli leaves
    # them registered but not yet run; its wrappers must still see the layers a command runs
    code = (
        "import importlib.util, sys\n"
        "import vbcast.cli\n"
        f"spec = importlib.util.spec_from_file_location('spans', {os.path.join(BENCH, 'spans.py')!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "def wrappers():\n"
        "    owners = [sys.modules['vbcast.' + m] for m in spans.MODULES]\n"
        "    owners += [getattr(sys.modules['vbcast.' + m], c) for m, cs in spans.TRACED_CLASSES.items() for c in cs]\n"
        "    return sorted(f'{o.__name__}.{a}' for o in owners for a, v in vars(o).items()\n"
        "                  if getattr(getattr(v, '__code__', None), 'co_filename', None) == spans.__file__)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "assert 'vbcast.broadcast.check_axioms' in wrappers()\n"
        f"assert vbcast.cli.main(['verify', '--dim', '2', '--out', {str(tmp_path / 'verify.json')!r}]) == 0\n"
        "tracer.uninstall()\n"
        "names = {span[0] for span in tracer.spans}\n"
        "assert {'broadcast.check_axioms', 'hovm.verify_theorem3'} <= names, sorted(names)\n"
        "assert wrappers() == [], wrappers()\n"
        "assert vbcast.broadcast.check_axioms.__module__ == 'vbcast.broadcast'\n"
    )
    res = _in_child(code)
    assert res.returncode == 0, res.stderr


# (argv of main, or None for a bare import; the vbcast layers it may not run)
_UNRUN = [
    (None, set(spans.MODULES) - {"cli"}),
    (["verify", "--dim", "3", "--target", "B"], {"diamond", "qsample", "sot", "mcstats"}),
    (["diamond", "--dim", "3", "--target", "B"], {"hovm", "qsample", "mcstats", "sot"}),
    (["diamond", "--dim", "3", "--target", "B-minus-Bplus"], {"hovm", "qsample", "mcstats", "sot"}),
    (["sample", "--dim", "2", "--object", "M", "--n", "100"], {"broadcast", "diamond", "qsample", "sot"}),
    (["dump", "--dim", "2", "--object", "B"], {"diamond", "hovm", "qsample", "mcstats", "sot"}),
]


@pytest.mark.parametrize("argv, unrun", _UNRUN)
def test_command_runs_only_its_layers(argv, unrun, tmp_path):
    # a layer bound through vbcast._lazy but not yet read is a LazyLoader module, whose type is not ModuleType;
    # type() reads no attribute, so the check runs nothing
    code = "import json, sys, types\nimport vbcast.cli\n"
    if argv is not None:
        code += f"assert vbcast.cli.main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
    code += (
        "mods = {name.removeprefix('vbcast.'): m for name, m in sys.modules.items() if name.startswith('vbcast.')}\n"
        "print(json.dumps([sorted(mods), sorted(name for name, m in mods.items() if type(m) is types.ModuleType)]))\n"
    )
    res = _in_child(code)
    assert res.returncode == 0, res.stderr
    registered, run = json.loads(res.stdout)
    assert set(spans.MODULES) <= set(registered)
    assert "cli" in run and not unrun & set(run), run
