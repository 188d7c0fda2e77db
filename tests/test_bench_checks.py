"""Every benchmark command writes a report that the benchmark's own checks accept.

``bench/workloads.py`` lists the commands of each workload and checks their
reports against the paper's closed forms; a report that its checks cannot
read, such as one without the ``tolerances.axioms`` field ``_check_verify``
reads, counts as a failed operation of a benchmark run.  Each command runs
once here through ``vbcast.cli.main``, so such a change fails the tests
first.  The harness file is read as it is, by path.

The commands that never execute numpy -- the benchmark's, and ``verify``
and ``dump`` of every named object at d = 2..6 -- also run in a child
interpreter whose ``sys.meta_path`` refuses numpy, and must write the same
bytes there; so they must under every other Python 3.10-3.13 on ``PATH``
that starts, or that pyenv names where its shim does not start.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from vbcast.cli import OBJECTS, main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its @dataclass looks the module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_commands_pass_benchmark_checks(workload, tmp_path):
    out_dir = str(tmp_path)
    if workload == "bracket":
        assert main(workloads.file_target_setup_argv(out_dir, SEED)) == 0
        workloads.write_file_target(out_dir)
    failures = {}
    for cmd in workloads.commands(workload, SEED, out_dir):
        why = workloads.check_command(cmd, main(list(cmd.argv)), SEED)
        if why is not None:
            failures[cmd.name] = why
    assert failures == {}


# Child code: refuse numpy at the head of sys.meta_path, then run each argv of the JSON list in sys.argv[1]
# through main and print the exit codes as JSON.
_WITHOUT_NUMPY = """
import json, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseNumpy())
from vbcast.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
assert "numpy" not in sys.modules
print(json.dumps(codes))
"""


def _report_lines(path):
    with open(path) as fp:
        return [line for line in fp.read().splitlines() if '"timestamp":' not in line]


def _named_runs(out_dir):
    """(argv, exit code) of verify and dump of every named object at d = 2..6: exact arithmetic on their forms."""
    runs = []
    for d in ("2", "3", "4", "5", "6"):
        for name in (*OBJECTS, "B_lambda:0.3"):
            runs.append((["dump", "--dim", d, "--object", name, "--out", os.path.join(out_dir, f"dump-{d}-{name}")], 0))
            if name != "D":  # D maps d -> d, no broadcaster
                out = os.path.join(out_dir, f"verify-{d}-{name}")
                runs.append((["verify", "--dim", d, "--target", name, "--out", out], int(name != "B")))
    return runs


def _check_numpy_free(python, tmp_path):
    """Run the numpy-free commands under interpreter ``python`` with numpy refused, and match their bytes here."""
    # every benchmark command but sample --object M, and verify and dump of every named object, is exact
    # arithmetic on a covariant or pattern map
    out_dir = str(tmp_path)
    setup = workloads.file_target_setup_argv(out_dir, SEED)
    assert main(setup) == 0
    workloads.write_file_target(out_dir)
    cmds = [
        cmd
        for workload in workloads.WORKLOADS
        for cmd in workloads.commands(workload, SEED, out_dir)
        if cmd.argv[:1] != ("sample",) or "M" not in cmd.argv
    ]
    named = _named_runs(out_dir)
    argvs = [setup, *(list(cmd.argv) for cmd in cmds), *(argv for argv, _ in named)]
    dense = ["sample", "--dim", "2", "--object", "M", "--out", os.path.join(out_dir, "dense.csv")]
    src = os.path.join(os.path.dirname(BENCH), "src")
    res = subprocess.run(
        [python, "-c", _WITHOUT_NUMPY, json.dumps([*argvs, dense])],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    *codes, dense_code = json.loads(res.stdout)
    assert codes == [0, *(cmd.expect_rc for cmd in cmds), *(code for _, code in named)]
    assert dense_code == 2 and not os.path.exists(dense[-1])
    want = "error: sample needs numpy here, which is not installed; install vbcast[dense]"
    assert res.stderr.splitlines()[-1] == want

    outs = [setup[-1], *(cmd.out for cmd in cmds), *(argv[-1] for argv, _ in named)]
    without = [_report_lines(out) for out in outs]
    assert [main(argv) for argv in argvs] == codes
    assert [_report_lines(out) for out in outs] == without


def test_numpy_free_commands_run_without_numpy(tmp_path):
    _check_numpy_free(sys.executable, tmp_path)


def _probe(python):
    return subprocess.run(
        [python, "-c", "import os, sys; print(os.path.realpath(sys.executable))"],
        capture_output=True, text=True, timeout=60,
    )


def _pyenv_python(version):
    """The python{version} of the latest pyenv install of that version, or None without pyenv or such an install."""
    if shutil.which("pyenv") is None:
        return None
    latest = subprocess.run(["pyenv", "latest", version], capture_output=True, text=True, timeout=60)
    prefix = subprocess.run(["pyenv", "prefix", latest.stdout.strip()], capture_output=True, text=True, timeout=60)
    if latest.returncode or prefix.returncode:
        return None
    return os.path.join(prefix.stdout.strip(), "bin", f"python{version}")


@pytest.mark.parametrize("version", ("3.10", "3.11", "3.12", "3.13"))
def test_numpy_free_reports_match_other_interpreters(version, tmp_path):
    # README promises the same seeded report bytes on Python 3.10-3.13; check each one installed here.
    # A pyenv shim of a version that is installed but not selected refuses to start; pyenv names that install
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"no python{version} on PATH")
    probe = _probe(python)
    pyenv = _pyenv_python(version) if probe.returncode else None
    if pyenv is not None:
        python, probe = pyenv, _probe(pyenv)
    if probe.returncode != 0:
        pytest.skip(f"python{version} does not start (exit {probe.returncode})")
    if probe.stdout.strip() == os.path.realpath(sys.executable):
        pytest.skip(f"python{version} is the running interpreter")
    _check_numpy_free(python, tmp_path)
