"""Every benchmark command writes a report that the benchmark's own checks accept.

``bench/workloads.py`` lists the commands of each workload and checks their
reports against the paper's closed forms; a report that its checks cannot
read, such as one without the ``tolerances.axioms`` field ``_check_verify``
reads, counts as a failed operation of a benchmark run.  Each command runs
once here through ``vbcast.cli.main``, so such a change fails the tests
first.  The harness file is read as it is, by path.
"""

import importlib.util
import os
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
