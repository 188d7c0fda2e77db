"""Every benchmark command writes a report that the benchmark's own checks accept.

``bench/workloads.py`` lists the commands of each workload and checks their
reports against the paper's closed forms; a report that its checks cannot
read, such as one without the ``tolerances.axioms`` field ``_check_verify``
reads, counts as a failed operation of a benchmark run.  Each command runs
once here through ``vbcast.cli.main``, so such a change fails the tests
first.  The harness file is read as it is, by path.

The commands that never execute numpy also run in a child interpreter whose
``sys.meta_path`` refuses numpy, and must write the same bytes there.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from vbcast.cli import main

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


def test_numpy_free_commands_run_without_numpy(tmp_path):
    # every benchmark command but sample --object M is exact arithmetic on a covariant map's coefficients
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
    argvs = [setup, *(list(cmd.argv) for cmd in cmds)]
    dense = ["sample", "--dim", "2", "--object", "M", "--out", os.path.join(out_dir, "dense.csv")]
    src = os.path.join(os.path.dirname(BENCH), "src")
    res = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps([*argvs, dense])],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    *codes, dense_code = json.loads(res.stdout)
    assert codes == [0, *(cmd.expect_rc for cmd in cmds)]
    assert dense_code == 2 and not os.path.exists(dense[-1])
    assert res.stderr.splitlines()[-1] == "error: sample needs numpy here, which is not installed"

    outs = [setup[-1], *(cmd.out for cmd in cmds)]
    without = [_report_lines(out) for out in outs]
    assert [main(argv) for argv in argvs] == codes
    assert [_report_lines(out) for out in outs] == without
