"""Every function in ``src/vbcast`` runs under some ``vbcast`` command, or is named here with its reason.

A child interpreter records each Python function call (``sys.setprofile``)
from before ``import vbcast.cli`` on, and runs a fixed command set through
``main``: ``verify`` and ``dump`` of every named object at d = 2 and 3
(all but ``B`` fail ``verify``), ``diamond`` on ``B``, on
``B-minus-Bplus``, on the benchmark's covariant ``file:`` target and on a
dense channel difference, which reaches ADMM, and ``sample`` of B and M.
The functions are read off the compiled sources, so a fresh import in the
child, with empty caches, sees every call.  A function that no command
calls belongs in the tests, unless ``NOT_REACHED`` names it.
"""

import glob
import inspect
import json
import os
import subprocess
import sys
import types

import vbcast
from vbcast.cli import OBJECTS, main
from vbcast.densemat import Rng

from random_fixtures import random_channel
from test_bench_checks import SEED, workloads
from test_cli import _child_env, write_supermap

SRC = os.path.dirname(os.path.abspath(vbcast.__file__))

# The functions that no command calls, each with the reason it stays in ``src/vbcast``.
NOT_REACHED = {
    "vbcast.densemat.random_density": "bench/workloads.py draws the sample inputs with it",
    "vbcast.densemat.random_hermitian": "bench/workloads.py draws the sample observables with it",
    "vbcast.sot.star": "bench/spans.py lists sot among the layers it traces",
    "vbcast.densemat.Operator.__setattr__": "immutability guard: runs only on an assignment, which it refuses",
    "vbcast.supermap.SuperMap.__setattr__": "immutability guard: runs only on an assignment, which it refuses",
    "vbcast.densemat.Operator.__repr__": "repr for a reader of the library; no report prints it",
    "vbcast.densemat.Rng.__repr__": "repr for a reader of the library; no report prints it",
    "vbcast.supermap.SuperMap.__repr__": "repr for a reader of the library; no report prints it",
    "vbcast._Absent.__getattr__": "runs only where numpy is not installed",
    "vbcast.cli._operator_doc": "the dense half of the Choi JSON layout that diamond --target file: reads",
    "vbcast.supermap.SuperMap.jamiolkowski": "the dense Jamiolkowski operator that dump's pattern layout must match",
    "vbcast.supermap.SuperMap._c4": "the 4-tensor Choi that jamiolkowski, a dense apply and the tests' maps read",
    "vbcast.densemat.Operator.trace": "dense-map vocabulary of the tests' references",
    "vbcast.densemat.Operator.__sub__": "dense-map vocabulary of the tests' references",
    "vbcast.densemat.Operator.__add__": "dense-map vocabulary of the tests' references",
    "vbcast.densemat.Operator.__mul__": "dense-map vocabulary of the tests' references",
    "vbcast.densemat.Operator.absmax": "dense-map vocabulary of the tests' references",
}

# Child code: record (file, first line, name) of every Python call while the argv lists in sys.argv[1] run
# through main, then print the exit codes and the calls as JSON.
_RECORD = """
import json, sys

calls = set()

def record(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))

sys.setprofile(record)
from vbcast.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "calls": sorted(calls)}))
"""


def _functions(code: types.CodeType, prefix: str):
    """(first line, name) -> qualified name of each function and lambda under a compiled module or class."""
    found = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED and (const.co_name == "<lambda>" or const.co_name[0] != "<"):
                found[const.co_firstlineno, const.co_name] = name
            found.update(_functions(const, name + "."))
    return found


def _library_functions() -> dict:
    """(file name, first line, name) -> dotted name of every function defined in src/vbcast."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        base = os.path.basename(path)[:-3]
        module = "vbcast" if base == "__init__" else f"vbcast.{base}"
        with open(path) as fp:
            code = compile(fp.read(), path, "exec")
        for (line, name), qualname in _functions(code, module + ".").items():
            found[base, line, name] = qualname
    return found


def test_every_function_runs_under_a_command(tmp_path):
    dense = tmp_path / "dense.json"
    write_supermap(dense, random_channel(2, 4, Rng(1)) - random_channel(2, 4, Rng(2)))
    assert main(workloads.file_target_setup_argv(str(tmp_path), SEED)) == 0  # the bracket workload's set-up
    workloads.write_file_target(str(tmp_path))
    covariant = workloads.file_target_path(str(tmp_path))
    out = ["--out", str(tmp_path / "report")]
    runs = []  # (argv, exit code)
    for d in ("2", "3"):
        for name in (*OBJECTS, "B_lambda:0.3"):
            runs.append((["dump", "--dim", d, "--object", name], 0))
            if name != "D":  # D maps d -> d, no broadcaster
                runs.append((["verify", "--dim", d, "--target", name], int(name != "B")))  # only B passes
    for d, target in (("2", "B"), ("2", "B-minus-Bplus"), ("4", f"file:{covariant}"), ("2", f"file:{dense}")):
        runs.append((["diamond", "--dim", d, "--target", target], 0))
    runs.append((["sample", "--dim", "3", "--object", "B", "--obs", "random", "--n", "1000"], 0))
    runs.append((["sample", "--dim", "2", "--object", "M", "--n", "40"], 0))

    res = subprocess.run(
        [sys.executable, "-c", _RECORD, json.dumps([argv + out for argv, _ in runs])],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["codes"] == [code for _, code in runs]

    functions = _library_functions()
    called = {(os.path.basename(path)[:-3], line, name) for path, line, name in doc["calls"]}
    not_reached = {qualname for key, qualname in functions.items() if key not in called}
    assert sorted(not_reached - set(NOT_REACHED)) == [], "no command calls these: move them to the tests"
    assert sorted(set(NOT_REACHED) - not_reached) == [], "a command calls these now: drop them from NOT_REACHED"
