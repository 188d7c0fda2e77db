import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest
from numpy.testing import assert_array_equal

import vbcast
from vbcast import broadcast, cli, densemat, diamond, supermap
from vbcast.broadcast import canonical_b, classical_bcl, cloner, family_b_lambda
from vbcast.cli import DEFAULT_TOLERANCES, VERIFY_TOLERANCES, CliError, _dumps, main
from vbcast.densemat import Operator, Rng, trace_norm
from vbcast.diamond import diamond_bracket, float_slack
from vbcast.supermap import SuperMap, covariant_map

from dense_maps import apply_right, dense, dense_choi, dense_sub, jamiolkowski, operator_doc
from dense_uniqueness import table_column_uniqueness
from random_fixtures import random_channel
from report_schemas import REPORT_SCHEMAS


PATTERNS = supermap.equality_patterns(6)


def _reject_constant(token):
    raise ValueError(f"report holds {token}, which is not JSON")


def strict_loads(text):
    """json.loads that fails on the NaN / Infinity tokens Python's encoder writes for non-finite floats."""
    return json.loads(text, parse_constant=_reject_constant)


def _child_env(**preset):
    """Environment of a child interpreter that imports this checkout's vbcast.

    OPENBLAS_NUM_THREADS is removed first: importing ``vbcast.cli`` in this
    process set it here too.  ``preset`` adds variables back.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(vbcast.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return {**env, "PYTHONPATH": src, **preset}


def supermap_doc(m):
    """m in the Choi JSON layout: a structured map by pattern, as ``dump`` writes it, a dense one entry by entry."""
    if m.exact is not None:
        return cli._supermap_doc(m)
    return {"d_in": m.d_in, "d_out": m.d_out, "choi": operator_doc(m.choi)}


def write_supermap(path, m):
    """Write m to path in the Choi JSON layout that ``dump`` writes and ``diamond --target file:`` reads."""
    path.write_text(_dumps(supermap_doc(m)))


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    doc = strict_loads(out.read_text()) if out.exists() and name.endswith(".json") else None
    return code, doc, out


# verify's eigenvalue_residual at d = 2..6
EIGENVALUE_RESIDUALS = {
    "B_lambda:0.3": [0.1269427669584645, 0.22336879396140857, 0.3130067012440755, 0.39999999999999997, 0.48568501158667515],
    "M": [0.4166666666666667, 1.0625, 1.95, 3.0833333333333335, 4.464285714285714],
    "B+": [0.5, 1.0, 1.5, 2.0, 2.5],
    "Mprime": [1.25, 1.8888888888888888, 2.4375, 2.96, 3.4722222222222223],
}


class TestVerify:
    def test_passes_at_dim_2(self, tmp_path):
        code, doc, _ = run(["verify", "--dim", "2", "--seed", "42"], tmp_path)
        assert code == 0
        assert doc["pass"] is True
        assert doc["schema"] == 10
        assert doc["dim"] == 2 and doc["seed"] == 42
        gates = dict.fromkeys(("axioms", "eigenvalues", "spectral", "theorem3"), 0.0)
        assert doc["tolerances"] == VERIFY_TOLERANCES == gates
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "broadcast_axioms",
            "uniqueness",
            "spectral_decomposition",
            "theorem3",
        ]
        uniq = doc["checks"][1]
        assert uniq["skipped"] is None
        assert uniq["values"]["nullity"] == 0

    @pytest.mark.parametrize("d", range(2, 7))
    def test_classical_broadcaster_covariance(self, d, tmp_path):
        code, doc, _ = run(["verify", "--dim", str(d), "--target", "B_cl"], tmp_path)
        assert code == 1 and doc["pass"] is False
        checks = {c["name"]: c for c in doc["checks"]}
        values = checks["broadcast_axioms"]["values"]
        assert values["covariance"] == (d + 4) * (d - 1) / ((d + 1) * (d + 2))
        assert (values["broadcasting"], values["permutation"], values["classical"]) == (1.0, 0.0, 0.0)

    def test_corrupted_fixture_names_permutation(self, tmp_path, capsys):
        code, doc, _ = run(["verify", "--dim", "2", "--target", "B_lambda:0.3"], tmp_path)
        assert code == 1
        assert doc["pass"] is False
        ax = doc["checks"][0]
        assert ax["name"] == "broadcast_axioms" and not ax["pass"]
        assert ax["values"]["permutation"] > 1e-2
        assert ax["values"]["broadcasting"] < 1e-10
        err = capsys.readouterr().err
        assert "permutation" in err

    def test_tiny_deformation_fails_the_axiom_check(self, tmp_path):
        # the states-over-time axioms are the broadcaster's, so broadcast_axioms judges them too
        code, doc, _ = run(["verify", "--dim", "2", "--target", "B_lambda:1e-9"], tmp_path)
        assert code == 1
        axioms = {c["name"]: c for c in doc["checks"]}["broadcast_axioms"]
        assert not axioms["pass"]
        assert axioms["values"]["permutation"] == 2e-9 > doc["tolerances"]["axioms"]

    @pytest.mark.parametrize("command", ("verify", "dump"))
    @pytest.mark.parametrize("lam", ("nan", "inf", "-inf"))
    def test_non_finite_lambda_rejected(self, command, lam, tmp_path, capsys):
        # a NaN or infinite lambda would write NaN tokens; run() parses any report strictly
        flag = "--target" if command == "verify" else "--object"
        code, _, out = run([command, "--dim", "2", flag, f"B_lambda:{lam}"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_overflowing_residuals_write_no_report(self, tmp_path, capsys):
        # a finite lambda past the bound (1e308 overflows the residuals to inf and NaN) is rejected before any work
        for lam in (repr(math.nextafter(1e300, math.inf)), "-1e301", "1e308"):
            for command, flag in (("verify", "--target"), ("dump", "--object")):
                code, _, out = run([command, "--dim", "2", flag, f"B_lambda:{lam}"], tmp_path)
                assert code == 2
                want = f"error: lambda must be finite with |lambda| <= 1e+300, got 'B_lambda:{lam}'\n"
                assert capsys.readouterr().err == want
                assert not out.exists()

    @pytest.mark.parametrize("command", ("verify", "dump"))
    @pytest.mark.parametrize("dim", (2, 6))
    @pytest.mark.parametrize("lam", ("1e300", "-1e300"))
    def test_largest_lambda_stays_finite(self, command, dim, lam, tmp_path, monkeypatch):
        # at the bound no value overflows: a RuntimeWarning would fail the test, and no inf reaches the writer
        docs = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda cfg, doc: (docs.append(doc), emit(cfg, doc)))
        flag = "--target" if command == "verify" else "--object"
        code, _, _ = run([command, "--dim", str(dim), flag, f"B_lambda:{lam}"], tmp_path)
        assert code == (1 if command == "verify" else 0)
        assert all(math.isfinite(x) for x in _floats(docs[0]))
        if command == "verify":
            assert docs[0]["checks"][0]["values"]["permutation"] == pytest.approx(2e300)

    def test_one_hermiticity_gate_for_the_spectrum(self, tmp_path, monkeypatch):
        # a covariant map's is_hp is exact, so a Choi 5e-9 away from Hermitian is not HP, and no command reads
        # its spectrum: dump prints none and verify an unbounded eigenvalue residual.  The skew is on B's second
        # 3-cycle coefficient: C - C^dag is 5e-9 i at the all-equal entry.
        def skewed(d):
            return covariant_map(d, [0, 0, 0, 0, 0.5, 0.5 + 2.5e-9j])

        monkeypatch.setitem(cli.OBJECTS, "B", skewed)
        code, doc, _ = run(["dump", "--object", "B", "--dim", "2"], tmp_path)
        assert code == 0 and doc["eigenvalues"] == []
        code, doc, _ = run(["verify", "--dim", "2"], tmp_path)
        spectral = doc["checks"][2]
        assert code == 1 and spectral["name"] == "spectral_decomposition" and not spectral["pass"]
        assert spectral["values"]["eigenvalue_residual"] == cli._UNBOUNDED

    def test_dim_6_certifies_uniqueness(self, tmp_path):
        code, doc, _ = run(["verify", "--dim", "6", "--seed", "0"], tmp_path)
        assert code == 0
        uniq = [c for c in doc["checks"] if c["name"] == "uniqueness"][0]
        assert uniq["skipped"] is None
        assert uniq["pass"] is True
        assert uniq["values"]["nullity"] == 0
        assert uniq["values"]["candidate_residual"] == 0.0
        assert uniq["values"]["rank"] == uniq["values"]["unknowns"] == 6
        assert uniq["values"]["nullity"] == table_column_uniqueness(6).nullity

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("lam", ("1e-20", "1e-12", "-1e-12", "5e-324"))
    def test_any_nonzero_lambda_fails(self, lam, d, tmp_path, capsys):
        # every residual is exact, so a deformation far below any float tolerance still fails every check that reads the target
        code, doc, _ = run(["verify", "--dim", str(d), "--target", f"B_lambda:{lam}"], tmp_path)
        failing = ["broadcast_axioms", "spectral_decomposition", "theorem3"]
        assert code == 1 and doc["pass"] is False
        assert [c["name"] for c in doc["checks"] if not c["pass"]] == failing
        assert capsys.readouterr().err.endswith(f"verification failed: {', '.join(failing)}\n")
        checks = {c["name"]: c["values"] for c in doc["checks"]}
        assert checks["broadcast_axioms"]["permutation"] == 2 * abs(float(lam))
        assert checks["theorem3"]["residual"] == abs(float(lam))
        assert checks["spectral_decomposition"]["decomposition_residual"] == abs(float(lam))
        # the top eigenvalue (1 + sqrt(d^2 + 4 (d^2 - 1) lam^2)) / 2 exceeds (d + 1) / 2 by (d^2 - 1) lam^2 / d to first
        # order; the rounded spectrum once put it at (d + 1) / 2 exactly.  At 5e-324 the difference underflows to 0.0
        want = (d * d - 1) * float(lam) ** 2 / d
        assert checks["spectral_decomposition"]["eigenvalue_residual"] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("target, want", EIGENVALUE_RESIDUALS.items())
    @pytest.mark.parametrize("d", range(2, 7))
    def test_eigenvalue_residual_pinned(self, target, want, d, tmp_path):
        # each value is one surd rounded once, paired with B's spectrum in exact descending order
        _, doc, _ = run(["verify", "--dim", str(d), "--target", target], tmp_path)
        assert doc["checks"][2]["values"]["eigenvalue_residual"] == want[d - 2]

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("target", ("B", "B_lambda:0", "B_lambda:-0.0"))
    def test_b_passes_with_every_residual_zero(self, target, d, tmp_path):
        code, doc, _ = run(["verify", "--dim", str(d), "--target", target], tmp_path)
        assert code == 0 and doc["pass"] is True
        for check in doc["checks"]:
            counts = ("rank", "unknowns", "constraint_rows", "weight")
            assert {v for k, v in check["values"].items() if k not in counts} == {0.0}, check["name"]

    @pytest.mark.parametrize("command", (["verify"], ["sample"], ["dump", "--object", "B"]), ids=lambda c: c[0])
    def test_only_diamond_takes_tol(self, command, capsys):
        for pair in ("sdp=1e-6", "axioms=1e-10"):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--dim", "2", "--tol", pair])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_each_report_lists_its_own_gates(self, tmp_path):
        for args, want in (
            (["diamond"], DEFAULT_TOLERANCES),
            (["diamond", "--tol", "sdp=1e-6"], {"sdp": 1e-6}),
            (["sample", "--n", "100", "--format", "json"], {}),
            (["dump", "--object", "B"], {}),
        ):
            code, doc, _ = run(args + ["--dim", "2"], tmp_path)
            assert code == 0 and doc["tolerances"] == want, args

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf", "0", "-1e-8", "1e-400"))
    @pytest.mark.parametrize("command", ("diamond",))
    def test_tolerance_must_be_finite_and_positive(self, command, value, tmp_path, capsys):
        # an infinite tolerance passes any bracket as converged
        code, _, out = run([command, "--dim", "2", "--tol", f"sdp={value}"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: --tol sdp must be finite and positive, got {value!r}\n"
        assert not out.exists()

    def test_unknown_tolerance_name(self, tmp_path, capsys):
        # verify's gates are exact and take no value, so their names are unknown to diamond too
        for pair in ("nope=1", "axioms=1e-10", "eigenvalues=1e-8", "uniqueness_residual=1"):
            code = main(["diamond", "--dim", "2", "--tol", pair])
            assert code == 2
            assert f"known: {sorted(DEFAULT_TOLERANCES)}" in capsys.readouterr().err

    def test_bad_dim(self):
        assert main(["verify", "--dim", "7"]) == 2
        assert main(["verify", "--dim", "1"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["verify"],
            ["diamond"],
            ["sample", "--object", "M", "--n", "100"],
            ["dump", "--object", "B"],
        ],
    )
    def test_negative_seed_rejected(self, args, tmp_path, capsys):
        # numpy's SeedSequence rejects negative entropy; sample crashed with a traceback and exit 1
        code, _, out = run(args + ["--dim", "2", "--seed", "-1"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got '-1'\n"
        assert not out.exists()

    def test_deterministic_reports(self, tmp_path):
        _, a, _ = run(["verify", "--dim", "2", "--seed", "5"], tmp_path, "a.json")
        _, b, _ = run(["verify", "--dim", "2", "--seed", "5"], tmp_path, "b.json")
        a.pop("timestamp")
        b.pop("timestamp")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("target", ("B", "B_lambda:0.3"))
    def test_axiom_values_ignore_seed(self, target, tmp_path, monkeypatch):
        # every check is exact and verify draws no random numbers, so no seed reaches the report
        def fail(*args, **kwargs):
            raise AssertionError("verify must not draw random numbers")

        for module in (densemat, supermap, cli):
            for name in ("random_channel", "random_density", "random_hermitian"):
                monkeypatch.setattr(module, name, fail, raising=False)
        monkeypatch.setattr(densemat, "Rng", fail)
        docs = [
            run(["verify", "--dim", "2", "--target", target, "--seed", seed], tmp_path, f"{seed}.json")[1]
            for seed in ("0", "5")
        ]
        a, b = ([(c["name"], c["values"]) for c in doc["checks"]] for doc in docs)
        assert a == b
        assert [doc["seed"] for doc in docs] == [0, 5]


class TestDiamond:
    def test_canonical_map(self, tmp_path):
        code, doc, _ = run(["diamond", "--dim", "2", "--target", "B"], tmp_path)
        assert code == 0
        assert doc["converged"] is True
        assert doc["value"] == pytest.approx(2.0, abs=1e-4)
        assert doc["upper_bound"] == pytest.approx(2.0)
        assert doc["lower_bound"] <= doc["value"] + 1e-4

    def test_closed_bracket_reported(self, tmp_path, capsys):
        code, doc, _ = run(["diamond", "--dim", "3", "--target", "B"], tmp_path)
        assert code == 0
        assert doc["upper_bound"] == 3.0
        assert doc["lower_bound"] <= doc["value"] <= doc["upper_bound"]
        assert doc["gap"] == doc["upper_bound"] - doc["lower_bound"]
        assert 0 <= doc["gap"] <= DEFAULT_TOLERANCES["sdp"]
        assert doc["iterations"] == 0
        assert "gap=" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ("file:{b_lambda}", "file:{channel}"))
    def test_tolerance_below_rounding_floor(self, target, tmp_path, capsys):
        # no bracket is narrower than its bounds' outward rounding; ADMM once ran 50000 iterations (9 s) here.
        # The exact bracket of B_lambda:0.3 holds an irrational norm, so it is still an ulp or two wide.
        channel, b_lambda = tmp_path / "channel.json", tmp_path / "b_lambda.json"
        write_supermap(channel, random_channel(2, 2, Rng(7)))
        write_supermap(b_lambda, family_b_lambda(2, 0.3))
        start = time.perf_counter()
        args = ["diamond", "--dim", "2", "--target", target.format(channel=channel, b_lambda=b_lambda)]
        code, doc, _ = run(args + ["--tol", "sdp=1e-20"], tmp_path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert doc["converged"] is False and doc["iterations"] == 0
        assert doc["lower_bound"] <= doc["upper_bound"]
        err = capsys.readouterr().err
        assert err.startswith("--tol sdp=1e-20 is below the bracket's rounding floor ")
        assert "no SDP run" in err

    def test_named_floor_is_within_the_bracket(self, tmp_path, capsys, monkeypatch):
        # B's Choi as a dense map closes at gap 1.1680e-13, above its two float slacks (1.1369e-13): the floor
        monkeypatch.setattr(cli, "_resolve_diamond_target", lambda cfg, target: dense(canonical_b(2)))
        code, doc, _ = run(["diamond", "--dim", "2", "--tol", "sdp=1e-14"], tmp_path)
        floor = 2 * float_slack(8, doc["lower_bound"])
        assert code == 2 and doc["gap"] > floor > 1e-14
        want = f"--tol sdp=1e-14 is below the bracket's rounding floor {floor:.3e}; no SDP run"
        assert capsys.readouterr().err.startswith(want)

    def test_tolerance_between_two_and_three_slacks_converges(self, tmp_path):
        # every dense bound is rounded by one float slack, so a tolerance of 2.5 slacks is met, and quickly
        m = dense_sub(random_channel(2, 4, Rng(1)), random_channel(2, 4, Rng(2)))
        path = tmp_path / "difference.json"
        write_supermap(path, m)
        tolerance = 2.5 * float_slack(8, diamond_bracket(m, 1e-20).lower_bound)
        start = time.perf_counter()
        args = ["diamond", "--dim", "2", "--target", f"file:{path}", "--tol", f"sdp={tolerance!r}"]
        code, doc, _ = run(args, tmp_path)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and doc["converged"] is True and doc["iterations"] > 0
        assert doc["gap"] <= tolerance

    def test_unconverged_admm_is_not_called_a_skipped_sdp(self, tmp_path, capsys):
        # ADMM runs (the tolerance is above the floor before it) and stops short of 6e-14; the floor of its
        # tighter final bracket is above the tolerance, which once printed "no SDP run" after 1336 iterations
        path = tmp_path / "difference.json"
        write_supermap(path, dense_sub(random_channel(2, 4, Rng(1)), random_channel(2, 4, Rng(2))))
        code, doc, _ = run(["diamond", "--dim", "2", "--target", f"file:{path}", "--tol", "sdp=6e-14"], tmp_path)
        assert code == 2 and doc["converged"] is False and doc["iterations"] > 0
        err = capsys.readouterr().err
        assert err.startswith(f"SDP did not converge within {doc['iterations']} iterations (")
        assert "no SDP run" not in err

    def test_exact_bracket_meets_any_tolerance(self, tmp_path):
        # B's bracket is [d, d] exactly, so even --tol sdp=1e-20 converges
        code, doc, _ = run(["diamond", "--dim", "2", "--target", "B", "--tol", "sdp=1e-20"], tmp_path)
        assert code == 0
        assert (doc["value"], doc["lower_bound"], doc["upper_bound"], doc["gap"]) == (2.0, 2.0, 2.0, 0.0)
        assert doc["converged"] is True and doc["iterations"] == 0

    def test_distance_target(self, tmp_path):
        code, doc, _ = run(["diamond", "--dim", "2", "--target", "B-minus-Bplus"], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-4)

    def test_file_target_channel(self, tmp_path):
        path = tmp_path / "chan.json"
        write_supermap(path, random_channel(2, 2, Rng(7)))
        code, doc, _ = run(["diamond", "--dim", "2", "--target", str(path)], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-4)
        # a channel's Choi is PSD, so the Jordan bound is ||Tr_out J||_inf = 1
        assert 1.0 <= doc["upper_bound"] <= 1.0 + 2 * float_slack(4, 1.0)

    def test_open_gap_file_target_certified(self, tmp_path):
        # the bracket of a channel difference stays open until ADMM certifies it; at d = 3 its d^3 x d^3
        # Choi is first tested for covariance, which must fail
        for d, d_out, seeds in ((2, 2, (1, 2)), (3, 9, (2, 3))):
            path = tmp_path / f"diff{d}.json"
            a, b = (random_channel(d, d_out, Rng(seed)) for seed in seeds)
            write_supermap(path, dense_sub(a, b))
            docs = []
            for seed in ("0", "5"):
                args = ["diamond", "--dim", str(d), "--target", f"file:{path}", "--seed", seed]
                code, doc, _ = run(args, tmp_path, f"{seed}.json")
                assert code == 0
                assert doc["iterations"] > 0
                assert doc["gap"] <= DEFAULT_TOLERANCES["sdp"]
                assert doc["lower_bound"] <= doc["value"] <= doc["upper_bound"]
                docs.append({k: v for k, v in doc.items() if k not in ("seed", "timestamp")})
            # diamond draws no random numbers, so the seed does not reach the report
            assert docs[0] == docs[1]

    @pytest.mark.parametrize(
        "target,d",
        [("B", d) for d in range(2, 7)] + [("B-minus-Bplus", 3), ("B-minus-Bplus", 4), ("B_lambda", 4), ("diff", 2)],
    )
    def test_witness_certifies_lower_bound(self, target, d, tmp_path, monkeypatch):
        # the report's witness is the bracket's input vec A, a unit vector whose state attains the lower bound
        maps = {
            "B_lambda": lambda: family_b_lambda(4, 0.3),
            "diff": lambda: dense_sub(random_channel(2, 2, Rng(2)), random_channel(2, 2, Rng(3))),
        }
        admm = target == "diff"  # the one bracket here that the Jordan bound leaves open
        if target in maps:
            path = tmp_path / "target.json"
            write_supermap(path, maps[target]())
            target = f"file:{path}"
        calls = []

        def bracket(m, *args, **kwargs):
            calls.append((m, diamond_bracket(m, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(diamond, "diamond_bracket", bracket)
        code, doc, _ = run(["diamond", "--dim", str(d), "--target", target], tmp_path)
        assert code == 0
        (m, res), = calls
        assert (doc["iterations"] > 0) == admm
        re, im = np.array(doc["witness"]["re"]), np.array(doc["witness"]["im"])
        assert re.shape == im.shape == (d * d,)
        want = np.asarray(res.witness, dtype=complex)
        assert_array_equal(re.view(np.int64), np.ascontiguousarray(want.real).view(np.int64))
        assert_array_equal(im.view(np.int64), np.ascontiguousarray(want.imag).view(np.int64))
        w = re + 1j * im
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        state = Operator(np.outer(w, w.conj()))
        # a covariant lower bound is exact for the maximally entangled input, whose entries the witness rounds
        slack = 0.0 if admm else float_slack(d**3, doc["lower_bound"])
        assert trace_norm(apply_right(m, state, d_left=d)) >= doc["lower_bound"] - slack

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("name", ("B", "B+", "M", "B_lambda:0.3", "B-minus-Bplus"))
    def test_covariant_file_target_has_the_in_memory_bracket(self, name, d, tmp_path):
        # a covariant map read back from its dump holds its float coefficients, so it takes their exact bracket
        m = canonical_b(d) - cloner(d) if name == "B-minus-Bplus" else cli.build_object(name, d)
        path = tmp_path / "target.json"
        write_supermap(path, m)
        code, doc, _ = run(["diamond", "--dim", str(d), "--target", f"file:{path}"], tmp_path)
        assert code == 0
        read = covariant_map(d, m.coeffs)
        res = diamond_bracket(read, DEFAULT_TOLERANCES["sdp"])
        for field in ("value", "lower_bound", "upper_bound", "gap"):
            assert doc[field].hex() == getattr(res, field).hex(), field
        assert [x.hex() for x in doc["witness"]["re"]] == [x.hex() for x in res.witness]
        assert doc["witness"]["im"] == [0.0] * (d * d)
        assert doc["iterations"] == 0
        if read.exact == m.exact:  # dyadic coefficients: the file holds the map itself
            assert res == diamond_bracket(m, DEFAULT_TOLERANCES["sdp"])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_named_and_file_targets_agree(self, d, tmp_path):
        # one map, one bracket, however it arrives: B's is [d, d] exactly, named or read back from its dump
        path = tmp_path / "target.json"
        write_supermap(path, canonical_b(d))
        reports = []
        for target in ("B", f"file:{path}"):
            code, doc, _ = run(["diamond", "--dim", str(d), "--target", target], tmp_path, f"{len(reports)}.json")
            assert code == 0
            reports.append({k: v for k, v in doc.items() if k not in ("target", "timestamp")})
        assert reports[0] == reports[1]
        assert (reports[0]["value"], reports[0]["lower_bound"], reports[0]["upper_bound"]) == (d, d, d)
        assert reports[0]["gap"] == 0.0 and reports[0]["iterations"] == 0
        # B - B+ holds 1/(2(d+1)) exactly in memory, and its norm is d - 1 exactly
        code, doc, _ = run(["diamond", "--dim", str(d), "--target", "B-minus-Bplus"], tmp_path, "distance.json")
        assert code == 0
        assert (doc["value"], doc["lower_bound"], doc["upper_bound"], doc["gap"]) == (d - 1, d - 1, d - 1, 0.0)

    @pytest.mark.parametrize("target", ("B_cl", "diff"))
    def test_dense_file_target_reads_the_parsed_lists(self, target, tmp_path):
        # a Choi that is not covariant is the ndarray of its JSON lists, so its report is the dense bracket's
        d = 6 if target == "B_cl" else 3
        if target == "B_cl":
            m = classical_bcl(d)
        else:
            m = dense_sub(random_channel(d, 9, Rng(2)), random_channel(d, 9, Rng(3)))
        path = tmp_path / "target.json"
        write_supermap(path, m)
        choi = json.loads(path.read_text())["choi"]
        re, im = np.array(choi["re"], dtype=float), np.array(choi["im"], dtype=float)
        dense = SuperMap(d, d * d, Operator(re + 1j * im))
        code, doc, _ = run(["diamond", "--dim", str(d), "--target", f"file:{path}"], tmp_path)
        assert code == 0
        res = diamond_bracket(dense, DEFAULT_TOLERANCES["sdp"])
        assert (doc["value"], doc["lower_bound"], doc["upper_bound"]) == (res.value, res.lower_bound, res.upper_bound)
        assert doc["iterations"] == res.iterations and (res.iterations > 0) == (target == "diff")
        assert_array_equal(np.array(doc["witness"]["re"]), res.witness.real)
        assert_array_equal(np.array(doc["witness"]["im"]), res.witness.imag)

    def test_file_target_must_match_dim(self, tmp_path, capsys):
        path = tmp_path / "cloner_d3.json"
        write_supermap(path, cloner(3))
        code, _, out = run(["diamond", "--dim", "2", "--target", f"file:{path}"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "input dimension 3" in err and "--dim is 2" in err
        assert not out.exists()

    def test_one_dimensional_file_target_reads_dense(self, tmp_path, capsys):
        # a 1 -> 1 map has d_out = d_in^2 and a d^3 x d^3 Choi, but no covariant form: it reads as a dense map
        path = tmp_path / "one.json"
        choi = {"rows": 1, "cols": 1, "re": [[1.0]], "im": [[0.0]]}
        path.write_text(json.dumps({"d_in": 1, "d_out": 1, "choi": choi}))
        code, _, out = run(["diamond", "--dim", "2", "--target", f"file:{path}"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: diamond target 'file:{path}' has input dimension 1, but --dim is 2\n"
        assert not out.exists()

    def test_missing_file_target(self, tmp_path):
        assert main(["diamond", "--dim", "2", "--target", str(tmp_path / "nope.json")]) == 2

    def test_non_object_file_target(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["diamond", "--dim", "2", "--target", f"file:{path}"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot load supermap")

    def test_non_hp_file_target(self, tmp_path, capsys):
        path = tmp_path / "triu.json"
        bad = SuperMap(2, 2, Operator(np.triu(np.ones((4, 4)))))
        write_supermap(path, bad)
        assert main(["diamond", "--dim", "2", "--target", f"file:{path}"]) == 2
        assert "Hermitian-preserving" in capsys.readouterr().err

    @pytest.mark.parametrize("part", ("re", "im"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="10**400")))
    def test_non_finite_file_target(self, part, value, tmp_path, capsys):
        # Python's json loads NaN and +-Infinity; a NaN once failed as "requires a Hermitian-preserving map",
        # and an inf also printed numpy's RuntimeWarning.  An integer past the float range once escaped as
        # an OverflowError traceback.
        path = tmp_path / "non_finite.json"
        doc = json.loads(_dumps(cli._supermap_doc(canonical_b(2))))
        doc["choi"][part][1][2] = value
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, out = run(["diamond", "--dim", "2", "--target", f"file:{path}"], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: cannot load supermap from {path}: choi entries must be finite, got NaN or Infinity\n"
        )

    @pytest.mark.parametrize("part", ("re", "im"))
    @pytest.mark.parametrize("value", ('"0.5"', "true", "false", "null", "[0.5]", "{}"))
    def test_non_number_file_target(self, part, value, tmp_path, capsys):
        # numpy's float conversion once read "0.5" and true as numbers, and null as NaN
        path = tmp_path / "non_number.json"
        doc = json.loads(_dumps(cli._supermap_doc(canonical_b(2))))
        doc["choi"][part][1][2] = json.loads(value)
        path.write_text(json.dumps(doc))
        code, _, out = run(["diamond", "--dim", "2", "--target", f"file:{path}"], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: cannot load supermap from {path}: choi entries must be JSON numbers, got {value}\n"
        )

    @pytest.mark.parametrize("field", ("d_in", "d_out"))
    @pytest.mark.parametrize("value", ("true", "2.5", "0", '"2"'))
    def test_file_target_dimensions_are_positive_integers(self, field, value, tmp_path, capsys):
        # "d_in": 2.5 once got as far as the shape check: "choi must be 10.0x10.0 for d_in=2.5"
        path = tmp_path / "bad.json"
        doc = json.loads(_dumps(supermap_doc(random_channel(2, 2, Rng(7)))))
        doc[field] = json.loads(value)
        path.write_text(json.dumps(doc))
        code, _, out = run(["diamond", "--dim", "2", "--target", f"file:{path}"], tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: cannot load supermap from {path}: {field} must be a positive integer, got {value}\n"
        )


class TestSupermapLayout:
    """``_supermap_doc`` and ``_read_supermap`` are the one writer and reader of the Choi JSON layout."""

    @staticmethod
    def assert_bit_identical(got, m):
        assert (got.d_in, got.d_out) == (m.d_in, m.d_out)
        assert dense_choi(got).mat.tobytes() == dense_choi(m).mat.tobytes()

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("name", ("B", "B_cl", "D", "M"))
    def test_named_maps_round_trip(self, name, d):
        m = cli.build_object(name, d)
        doc = cli._supermap_doc(m)
        self.assert_bit_identical(cli._read_supermap(_as_lists(doc)), m)
        got = cli._read_supermap(json.loads(_dumps(doc)))
        self.assert_bit_identical(got, m)
        # a covariant Choi comes back as its six coefficients: from d = 3 each reads off one entry, and at d = 2,
        # where the six elements span five dimensions, they read off pairs of entries with x_(12) = 0, as in B and M
        assert got.coeffs == m.coeffs

    def test_one_ulp_anywhere_reads_dense(self):
        # recognition is exact: moving any one entry of a covariant Choi by one ulp leaves a dense map
        m = family_b_lambda(3, 0.3)
        doc = json.loads(_dumps(cli._supermap_doc(m)))
        assert cli._read_supermap(doc).coeffs == m.coeffs
        for part in ("re", "im"):
            for row in doc["choi"][part]:
                for col, x in enumerate(row):
                    row[col] = math.nextafter(x, math.inf)
                    got = cli._read_supermap(doc)
                    row[col] = x
                    assert got.coeffs is None

    def test_random_channel_round_trip(self):
        m = random_channel(2, 4, Rng(60))
        self.assert_bit_identical(cli._read_supermap(json.loads(_dumps(supermap_doc(m)))), m)

    @pytest.mark.parametrize("part", ("re", "im"))
    def test_bad_shape(self, part):
        doc = json.loads(_dumps(supermap_doc(random_channel(2, 2, Rng(0)))))
        rows = doc["choi"][part]
        for bad in ([[1.0]], [rows[0], rows[1][:-1], *rows[2:]], sum(rows, [])):  # 1 x 1, ragged, flat
            doc["choi"][part] = bad
            with pytest.raises(ValueError, match="inconsistent dimensions"):
                cli._read_supermap(doc)


class TestSample:
    def test_quasi_csv_default(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["sample", "--dim", "2", "--n", "2000", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,running_mean,running_stderr"
        assert int(lines[-1].split(",")[0]) == 2000

    def test_quasi_json_summary(self, tmp_path):
        code, doc, _ = run(
            ["sample", "--dim", "2", "--n", "5000", "--obs", "zz", "--format", "json"], tmp_path
        )
        assert code == 0
        assert doc["result"]["l1_overhead"] == pytest.approx(2.0)
        assert abs(doc["result"]["zscore"]) < 5.0

    def test_random_obs_any_dim(self, tmp_path):
        code, doc, _ = run(
            ["sample", "--dim", "3", "--n", "4000", "--obs", "random", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        assert doc["result"]["l1_overhead"] == pytest.approx(3.0)

    def test_mp_pipeline_csv(self, tmp_path):
        out = tmp_path / "mp.csv"
        code = main(
            ["sample", "--object", "M", "--dim", "2", "--n", "2000", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().split("\n", 1)[0]
        assert header.startswith("sample_block,entry_row,entry_col")

    def test_unbounded_zscore_written_as_sentinel(self, tmp_path):
        # at seed 2 both draws hit one component, so the stderr is 0 and the z-score infinite; JSON has no Infinity
        code, doc, _ = run(["sample", "--dim", "2", "--n", "2", "--seed", "2", "--format", "json"], tmp_path)
        assert code == 0
        assert doc["result"]["stderr"] == 0.0
        assert doc["result"]["zscore"] == 1e300

    def test_astronomical_n_runs_in_seconds(self, tmp_path):
        # each segment's draws are counted by one multinomial, not drawn one by one, so n does not set the cost
        out = tmp_path / "out.json"
        argv = ["sample", "--dim", "2", "--n", "1000000000000", "--format", "json", "--out", str(out)]
        res = subprocess.run(
            [sys.executable, "-m", "vbcast.cli", *argv], env=_child_env(), capture_output=True, text=True, timeout=30
        )
        assert res.returncode == 0, res.stderr
        doc = strict_loads(out.read_text())
        assert doc["n"] == 10**12
        assert abs(doc["result"]["zscore"]) < 5.0

    def test_pauli_obs_needs_qubits(self):
        assert main(["sample", "--dim", "3", "--obs", "zz", "--n", "100"]) == 2

    def test_bad_obs_and_n(self):
        assert main(["sample", "--dim", "2", "--obs", "qq", "--n", "100"]) == 2
        assert main(["sample", "--dim", "2", "--n", "1"]) == 2

    def test_unknown_object(self):
        assert main(["sample", "--object", "Q", "--dim", "2", "--n", "100"]) == 2

    # mean, stderr and exact of `sample --object B` at n = 1e4, seed 1, recorded once; any change of
    # the draw order or the arithmetic of the quasi-sampler shows here
    @pytest.mark.parametrize(
        "dim,obs,want",
        [
            ("2", "zz", (0.9921333333333332, 0.005727650569173078, 1.0)),
            ("3", "random", (-0.0036547852897616394, 0.0055011206648672385, -0.006616621758899223)),
        ],
    )
    def test_seeded_stream_pinned(self, dim, obs, want, tmp_path):
        args = ["sample", "--dim", dim, "--obs", obs, "--n", "10000", "--seed", "1", "--format", "json"]
        code, doc, _ = run(args, tmp_path)
        assert code == 0
        got = doc["result"]
        for key, value in zip(("mean", "stderr", "exact"), want):
            assert abs(got[key] - value) <= 1e-12, (key, got[key], value)

    # max_zscore of `sample --object M` at seed 1, recorded once; a change of the draw order or of the
    # sampler's arithmetic beyond roundoff shows here
    @pytest.mark.parametrize(
        "dim,n,want", [("6", "50000", 3.1837534167618413), ("3", "10000", 2.2050254289112003)], ids=("6-50000", "3-10000")
    )
    def test_seeded_mp_stream_pinned(self, dim, n, want, tmp_path):
        args = ["sample", "--object", "M", "--dim", dim, "--n", n, "--seed", "1", "--format", "json"]
        code, doc, _ = run(args, tmp_path)
        assert code == 0
        assert abs(doc["result"]["max_zscore"] - want) <= 1e-12, doc["result"]["max_zscore"]

    def test_seeded_csv_stream_pinned(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["sample", "--dim", "2", "--n", "10000", "--seed", "1", "--out", str(out)]) == 0
        n, mean, stderr = out.read_text().strip().split("\n")[-1].split(",")
        assert int(n) == 10000
        assert abs(float(mean) - 0.9921333333333332) <= 1e-12
        assert abs(float(stderr) - 0.005727650569173078) <= 1e-12

    def test_mp_needs_two_samples_per_block(self, tmp_path, capsys):
        # 10 blocks of at least 2 samples: too few is an operational error, not a failed verification
        for n in ("5", "19"):
            assert main(["sample", "--object", "M", "--dim", "2", "--n", n]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        code, doc, _ = run(["sample", "--object", "M", "--dim", "2", "--n", "20", "--format", "json"], tmp_path)
        assert code == 0
        assert doc["n"] == 20

    @pytest.mark.parametrize("obs", ("zz", "random", "nonsense"))
    def test_mp_rejects_obs(self, obs, tmp_path, capsys):
        # M's blocks use no observable, so an explicit --obs is an error rather than a report field
        args = ["sample", "--object", "M", "--dim", "2", "--n", "100", "--format", "json"]
        code, _, out = run(args + ["--obs", obs], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        code, doc, _ = run(args, tmp_path)
        assert code == 0 and doc["observable"] == "zz"


COVARIANT_OBJECTS = (
    "B", "B+", "B-", "M", "Mprime", "B_lambda:0.3", "B_lambda:1e300", "B_lambda:-1e-12", "B_lambda:-0.0"
)


class TestDump:
    def test_canonical_eigenvalues(self, tmp_path):
        code, doc, _ = run(["dump", "--object", "B", "--dim", "2"], tmp_path)
        assert code == 0
        want = sorted([1.5, 1.5, 0.0, 0.0, 0.0, 0.0, -0.5, -0.5], reverse=True)
        np.testing.assert_allclose(doc["eigenvalues"], want, atol=1e-8)
        assert doc["supermap"]["d_in"] == 2 and doc["supermap"]["d_out"] == 4
        assert doc["jamiolkowski"]["rows"] == 8

    def test_mp_map_has_negative_eigenvalue(self, tmp_path):
        code, doc, _ = run(["dump", "--object", "M", "--dim", "3"], tmp_path)
        assert code == 0
        assert min(doc["eigenvalues"]) < -0.1

    def test_lambda_family_object(self, tmp_path):
        code, doc, _ = run(["dump", "--object", "B_lambda:0.25", "--dim", "2"], tmp_path)
        assert code == 0
        assert doc["object"] == "B_lambda:0.25"

    def test_unknown_object_lists_names(self, capsys):
        code = main(["dump", "--object", "nope", "--dim", "2"])
        assert code == 2
        err = capsys.readouterr().err
        for name in ("B+", "B-", "B_cl", "Mprime"):
            assert name in err

    @pytest.mark.parametrize("alias", ("Bplus", "Bminus", "M'"))
    def test_no_aliases(self, alias, capsys):
        assert main(["dump", "--object", alias, "--dim", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown object {alias!r}; valid names: B, B+, B-, B_cl, D, M, Mprime, B_lambda:<x>\n"
        )

    def test_bad_lambda(self):
        assert main(["dump", "--object", "B_lambda:abc", "--dim", "2"]) == 2

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("name", (*COVARIANT_OBJECTS, "B_cl", "D"))
    def test_covariant_dump_matches_dense_choi(self, name, d):
        # a covariant or pattern map's operators, laid out by pattern with no dense Choi, write the bytes of
        # the tests' dense Choi and its Jamiolkowski operator, entry by entry; D is a pattern map of four labels
        m = cli.build_object(name, d)
        got = {"supermap": cli._supermap_doc(m), "jamiolkowski": cli._map_operator_doc(m, jamiolkowski=True)}
        assert m.choi is None
        for op in (got["supermap"]["choi"], got["jamiolkowski"]):
            assert isinstance(op["re"], cli._Indexed) and len(op["re"].values) <= 1 + len(PATTERNS)
        want = {
            "supermap": {"d_in": m.d_in, "d_out": m.d_out, "choi": operator_doc(dense_choi(m))},
            "jamiolkowski": operator_doc(jamiolkowski(m)),
        }
        assert len(want["jamiolkowski"]["re"].values) == (m.d_in * m.d_out) ** 2
        assert _dumps(got).splitlines() == _dumps(want).splitlines()  # a list compare names the first differing line

    @pytest.mark.parametrize("name", COVARIANT_OBJECTS)
    def test_covariant_dump_reads_no_choi(self, name, tmp_path, monkeypatch):
        def fail(m):
            raise AssertionError("dump read a dense Choi")

        monkeypatch.setattr(SuperMap, "choi", property(fail, SuperMap.choi.__set__))
        assert run(["dump", "--object", name, "--dim", "3"], tmp_path)[0] == 0


class TestFormat:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--dim", "2"],
            ["diamond", "--dim", "2", "--target", "B"],
            ["dump", "--dim", "2", "--object", "B"],
        ],
    )
    def test_csv_only_for_sample(self, args, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(args + ["--format", "csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--format csv" in err
        assert not out.exists()
        code, doc, _ = run(args + ["--format", "json"], tmp_path)
        assert code == 0 and doc["command"] == args[0]


def _floats(obj):
    """Every float in a report document."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for x in obj:
            yield from _floats(x)
    elif isinstance(obj, float):
        yield obj


def _closed_records(doc, schema):
    """Every object in ``doc`` whose schema admits exactly its listed fields."""
    if schema.get("additionalProperties") is False:
        yield doc
        for key, sub in schema["properties"].items():
            yield from _closed_records(doc[key], sub)
    elif "items" in schema:
        for item in doc:
            yield from _closed_records(item, schema["items"])


class TestSchemas:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--dim", "2", "--target", "B_lambda:0.3"],
            ["diamond", "--dim", "2", "--target", "B"],
            ["sample", "--dim", "2", "--n", "1000", "--format", "json"],
            ["dump", "--object", "B", "--dim", "2"],
            ["sample", "--object", "M", "--dim", "2", "--n", "100", "--format", "json"],
            ["dump", "--object", "B_cl", "--dim", "2"],
            ["dump", "--object", "D", "--dim", "2"],
            ["diamond", "--dim", "2", "--target", "file:{channel}"],
            ["verify", "--dim", "2"],
        ],
    )
    def test_report_validates(self, args, tmp_path):
        channel = tmp_path / "channel.json"
        write_supermap(channel, random_channel(2, 2, Rng(7)))
        _, doc, _ = run([a.format(channel=channel) for a in args], tmp_path)
        jsonschema.validate(doc, REPORT_SCHEMAS[args[0]])

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--dim", "2"],
            ["diamond", "--dim", "2"],
            ["sample", "--dim", "2", "--n", "100", "--format", "json"],
            ["dump", "--object", "B", "--dim", "2"],
        ],
    )
    def test_exactly_the_schema_fields(self, args, tmp_path):
        # every closed object of a report, nested ones too, fails with one key missing or one key extra
        _, doc, _ = run(args, tmp_path)
        schema = REPORT_SCHEMAS[args[0]]
        records = list(_closed_records(doc, schema))
        assert records[0] is doc
        for record in records:
            for key in list(record):
                value = record.pop(key)
                with pytest.raises(jsonschema.ValidationError, match="required"):
                    jsonschema.validate(doc, schema)
                record[key] = value
            record["extra"] = 0
            with pytest.raises(jsonschema.ValidationError, match="Additional properties"):
                jsonschema.validate(doc, schema)
            del record["extra"]
        jsonschema.validate(doc, schema)

    def test_cli_import_skips_jsonschema(self):
        code = "import sys, vbcast.cli; sys.exit('jsonschema' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=_child_env(), timeout=60).returncode == 0

    def test_cli_import_skips_dataclasses(self):
        # the records are NamedTuples: a @dataclass costs about 1 ms to create, and dataclasses imports copy
        code = "import sys, vbcast.cli; sys.exit(sorted({'dataclasses', 'copy'} & set(sys.modules)) or 0)"
        res = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr

    def test_commands_skip_numpy_ma(self, tmp_path):
        # numpy.ma costs a lazy import of tens of milliseconds, and no command needs it
        argvs = [
            ["verify", "--dim", "2", "--target", "B"],
            ["diamond", "--dim", "2"],
            ["sample", "--dim", "2", "--n", "1000", "--format", "json"],
            ["dump", "--dim", "2", "--object", "B"],
        ]
        code = (
            "import sys\n"
            "from vbcast.cli import main\n"
            f"for argv in {argvs!r}:\n"
            f"    main(argv + ['--out', {str(tmp_path / 'out.json')!r}])\n"
            "    if 'numpy.ma' in sys.modules:\n"
            "        sys.exit(argv[0] + ' imported numpy.ma')\n"
        )
        res = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


class TestReadme:
    def test_tolerance_table_matches_defaults(self):
        with open(README) as fp:
            table = fp.read().split("\n### Default tolerance table\n", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \| (\S+) \|$", table, re.M)
        assert [(name, float(value)) for name, value in rows] == list(DEFAULT_TOLERANCES.items())

    def test_schema_matches_cli(self):
        with open(README) as fp:
            assert {int(n) for n in re.findall(r'"schema": (\d+)', fp.read())} == {cli.SCHEMA}


def _as_lists(obj):
    """obj with every ``_Indexed`` replaced by the values its rows pick: the document json.dumps can write."""
    if isinstance(obj, cli._Indexed):
        return _picked(obj.rows, obj.values)
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


def _picked(rows, values):
    return [values[r] if isinstance(r, int) else _picked(r, values) for r in rows]


def _indexed(arr):
    """A float64 array as an ``_Indexed`` of its distinct values, told apart by their bits so that -0.0 is not 0.0."""
    keys, inverse = np.unique(arr.view(np.int64).ravel(), return_inverse=True)
    return cli._Indexed(keys.view(np.float64).tolist(), inverse.reshape(arr.shape).tolist())


def _random_array(rng, shape, kind):
    """A float64 array of one kind of values: few distinct, all distinct, or special."""
    if kind == "few":
        return np.asarray(rng.choice([0.0, -0.0, 0.5, -0.5, 1.0 / 3.0], size=shape))
    if kind == "distinct":
        return np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape))
    special = [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e300, 1e-300, 2.5]
    if kind == "inf":
        special += [np.inf, -np.inf]
    if kind == "nan":
        special += [np.nan]
    return np.asarray(rng.choice(special, size=shape))


class TestReportWriter:
    """The report writer lays reports out exactly as json.dumps(doc, sort_keys=True, indent=2)."""

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--dim", "2", "--target", "B"],
            ["verify", "--dim", "2", "--target", "B_lambda:0.3"],
            ["diamond", "--dim", "3"],
            ["diamond", "--dim", "2", "--target", "file:{channel}"],
            ["sample", "--dim", "2", "--object", "B", "--n", "1000", "--format", "json"],
            ["sample", "--dim", "2", "--object", "M", "--n", "1000", "--format", "json"],
        ]
        + [
            ["dump", "--dim", str(d), "--object", name]
            for name in (*cli.OBJECTS, "B_lambda:0.3")
            for d in range(2, 7)
        ],
    )
    def test_reports_byte_identical(self, args, tmp_path, monkeypatch):
        channel = tmp_path / "channel.json"
        write_supermap(channel, random_channel(2, 2, Rng(7)))
        docs = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda cfg, doc: (docs.append(doc), emit(cfg, doc)))
        _, _, out = run([a.format(channel=channel) for a in args], tmp_path)
        assert len(docs) == 1
        assert out.read_text() == json.dumps(_as_lists(docs[0]), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("seed", range(20))
    def test_arrays_match_json_dumps(self, seed):
        # seeded documents of _Indexed arrays in nested dicts and lists, against json.dumps of the values they pick
        rng = np.random.default_rng(seed)
        shapes = [(0,), (1,), (7,), (0, 3), (3, 0), (1, 1), (4, 5), (2, 3, 2)]
        kinds = ["few", "distinct", "special", "inf"] + ["nan"] * (seed % 4 == 3)
        doc = {"meta": {"n": seed, "name": "x"}, "rows": []}
        for i in range(6):
            shape = shapes[rng.integers(len(shapes))]
            kind = kinds[rng.integers(len(kinds))]
            arr = _indexed(_random_array(rng, shape, kind))
            doc[f"a{i}"] = {"re": arr, "size": len(arr.values)}
            doc["rows"].append([arr, float(i)])
        want = json.dumps(_as_lists(doc), sort_keys=True, indent=2)
        if "NaN" in want:
            with pytest.raises(CliError, match="NaN"):
                _dumps(doc)
        else:
            assert _dumps(doc) == want.replace("Infinity", "1e+300")

    def test_array_is_refused(self):
        # the writer is standard library only: an ndarray is not JSON, as in json.dumps
        for arr in (np.arange(3), np.zeros((2, 2)), np.float64(0.5) * np.ones(0)):
            with pytest.raises(TypeError, match="ndarray"):
                _dumps({"a": [arr]})

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            [[]],
            [[], {}, [[]]],
            {"b": {}, "a": []},
            [float("inf"), float("-inf"), 0.0, -0.0, 1e-300],
            [1, True, False, None, 2.5, "x", np.float64(0.1)],
            {"b": [1, [2, {"c": None}]], "a": [[1.5], []], "c": (3, 4)},
            {"caf\u00e9": ["\u00fc", "\u2603 snow"]},
            "\u00e9t\u00e9",
            float("nan"),
            3,
            None,
            [1.0, float("nan")],
            {"a": [{"b": float("nan")}]},
            [[0.5], [np.float64("nan")]],
            {"a": float("inf"), "b": [np.float64("-inf"), 1.0]},
        ],
    )
    def test_edge_cases(self, obj):
        # json.dumps's layout, except that JSON has no NaN or Infinity: +-inf is written as +-1e300
        want = json.dumps(obj, sort_keys=True, indent=2)
        if "NaN" in want:
            with pytest.raises(CliError, match="NaN"):
                _dumps(obj)
        else:
            assert _dumps(obj) == want.replace("Infinity", "1e+300")


class TestMemory:
    @pytest.mark.parametrize(
        "args, want",
        [
            (["verify", "--target", "B"], 0),
            (["verify", "--target", "B_lambda:0.3"], 1),
            (["diamond", "--target", "B"], 0),
            (["diamond", "--target", "B-minus-Bplus"], 0),
        ],
    )
    def test_covariant_targets_build_no_dense_choi(self, args, want, tmp_path):
        # one 216 x 216 complex array is 0.75 MB; building and factoring the dense Choi peaked at 6.0 MB
        tracemalloc.start()
        try:
            code = main(args + ["--dim", "6", "--out", str(tmp_path / "out.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == want
        assert peak < 216 * 216 * 16

    @pytest.mark.parametrize(
        "args",
        [
            ["--dim", "2", "--object", "B"],
            ["--dim", "6", "--object", "B", "--obs", "random"],
            ["--dim", "6", "--object", "M"],
        ],
    )
    def test_sample_reads_no_choi(self, args, tmp_path, monkeypatch):
        # every map sample uses is covariant, and apply reads its six coefficients
        def fail(m):
            raise AssertionError("sample read a dense Choi")

        monkeypatch.setattr(SuperMap, "choi", property(fail, SuperMap.choi.__set__))
        argv = ["sample", "--n", "1000", "--format", "json", "--out", str(tmp_path / "out.json")]
        assert main(argv + args) == 0


class TestEnvironment:
    def test_unwritable_out(self):
        assert main(["dump", "--object", "B", "--dim", "2", "--out", "/nonexistent/x.json"]) == 2


class TestBlasThreads:
    """The CLI process runs BLAS on one thread unless the caller chose a count."""

    @pytest.mark.parametrize("preset, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
    def test_thread_count(self, preset, want):
        code = "import os, vbcast.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        env = _child_env(**preset)
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == want + "\n"

    def test_report_does_not_depend_on_the_default(self, tmp_path):
        # threaded BLAS sums in a core-count-dependent order; the default must be the one-thread report.
        # The classical broadcaster's Choi file is not covariant, so diamond runs the Jordan eigh of its
        # 216 x 216 Choi.
        choi = tmp_path / "choi.json"
        write_supermap(choi, classical_bcl(6))
        texts = []
        for preset in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"diamond{len(texts)}.json"
            argv = [sys.executable, "-m", "vbcast.cli", "diamond", "--dim", "6", "--target", f"file:{choi}"]
            argv += ["--out", str(out)]
            assert subprocess.run(argv, env=_child_env(**preset), timeout=120).returncode == 0
            texts.append([line for line in out.read_text().splitlines() if '"timestamp":' not in line])
        assert texts[0] == texts[1]

    def test_package_import_loads_no_numpy(self):
        # the package init stays lean, so vbcast.cli sets the thread count before numpy loads BLAS
        code = "import sys, vbcast; sys.exit('numpy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=_child_env(), timeout=60).returncode == 0


def _run_child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120)


def _main_in_child(argv: list[str]) -> list[str]:
    """The standard-error lines of ``main(argv)`` in a fresh interpreter.

    The last line reports 'exit <code>, numpy loaded: <whether numpy._core is>, fractions loaded: <whether
    fractions or decimal is>'.
    """
    code = (
        "import sys\n"
        "from vbcast.cli import main\n"
        f"rc = main({argv!r})\n"
        "numpy = 'numpy._core' in sys.modules\n"
        "fractions = 'fractions' in sys.modules or 'decimal' in sys.modules\n"
        "sys.exit(f'exit {rc}, numpy loaded: {numpy}, fractions loaded: {fractions}')\n"
    )
    return _run_child(code).stderr.splitlines()


class TestLazyNumpy:
    """numpy's import runs only for ``sample --object M`` and dense ``file:`` targets.

    ``verify`` and ``dump`` of every named object (B, B+, B-, B_cl, D, M,
    Mprime, B_lambda), ``diamond`` on B, on B-minus-Bplus and on a
    ``file:`` target that holds a covariant map's Choi, and ``sample
    --object B`` never execute it, at any d; any other ``file:`` target
    and ``sample --object M`` do.  The exact arithmetic is on ints, so those
    commands import neither ``fractions`` nor ``decimal``.
    """

    def test_cli_import_runs_no_numpy(self):
        res = _run_child("import sys, vbcast.cli; sys.exit('numpy._core' in sys.modules)")
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["verify", "--dim", "2", "--target", "B"], 0),
            (["verify", "--dim", "6", "--target", "B"], 0),
            (["verify", "--dim", "2", "--target", "B_lambda:0.3"], 1),
            (["verify", "--dim", "2", "--target", "B+"], 1),
            (["verify", "--dim", "2", "--target", "B-"], 1),
            (["verify", "--dim", "2", "--target", "B_cl"], 1),
            (["verify", "--dim", "6", "--target", "B_cl"], 1),
            (["verify", "--dim", "2", "--target", "M"], 1),
            (["verify", "--dim", "2", "--target", "Mprime"], 1),
        ],
    )
    def test_covariant_verify_runs_no_numpy(self, argv, want, tmp_path):
        # every named broadcaster, the classical one's pattern form included
        last = _main_in_child(argv + ["--out", str(tmp_path / "out.json")])[-1]
        assert last == f"exit {want}, numpy loaded: False, fractions loaded: False"
        assert json.loads((tmp_path / "out.json").read_text())["pass"] is (want == 0)

    def test_axiom_check_of_the_classical_broadcaster_runs_no_numpy(self):
        # B_cl's axioms are read off its one pattern: no Choi is filled and numpy's import never runs
        code = (
            "import sys\n"
            "from vbcast.broadcast import check_axioms, classical_bcl\n"
            "m = classical_bcl(6)\n"
            "check_axioms(m)\n"
            "sys.exit(m.choi is not None or 'numpy._core' in sys.modules)\n"
        )
        res = _run_child(code)
        assert res.returncode == 0, res.stderr

    def test_pattern_scaling_and_trace_preservation_run_no_numpy(self):
        # a pattern map's scalar multiple is one numerator per pattern, and its Tr_out is read by pattern
        code = (
            "import sys\n"
            "from vbcast.broadcast import classical_bcl, decoherence\n"
            "m = classical_bcl(6) * 2\n"
            "ok = m.exact == (1, {(0,) * 6: 2}, {(0,) * 6: 0}) and decoherence(6).is_tp() and not m.is_tp()\n"
            "sys.exit(not ok or m.choi is not None or 'numpy._core' in sys.modules)\n"
        )
        res = _run_child(code)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["diamond", "--dim", "2", "--target", "B"], 0),
            (["diamond", "--dim", "6", "--target", "B"], 0),
            (["diamond", "--dim", "3", "--target", "B-minus-Bplus"], 0),
            (["diamond", "--dim", "2", "--target", "file:{b_lambda}", "--tol", "sdp=1e-20"], 2),
            (["diamond", "--dim", "4", "--target", "file:{b_lambda}"], 0),
            (["diamond", "--dim", "2", "--tol", "sdp=1e-20"], 0),
            (["diamond", "--dim", "2", "--target", "file:{b_lambda}"], 0),
        ],
    )
    def test_covariant_diamond_runs_no_numpy(self, argv, want, tmp_path):
        # the benchmark's file target: the supermap part of a B_lambda:0.3 dump, written back with json.dump;
        # at d = 2 its coefficients are solved for on the span, at d >= 3 read off single entries
        dump, b_lambda = tmp_path / "dump.json", tmp_path / "b_lambda.json"
        assert main(["dump", "--dim", argv[2], "--object", "B_lambda:0.3", "--out", str(dump)]) == 0
        b_lambda.write_text(json.dumps(json.loads(dump.read_text())["supermap"]))
        argv = [a.format(b_lambda=b_lambda) for a in argv]
        out = tmp_path / "out.json"
        *lines, last = _main_in_child(argv + ["--out", str(out)])
        assert last == f"exit {want}, numpy loaded: False, fractions loaded: False"
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMAS["diamond"])
        assert doc["converged"] is (want == 0)
        if want == 2:
            assert "is below the bracket's rounding floor" in lines[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--dim", "2", "--object", "B", "--obs", "zz", "--n", "2000000", "--format", "csv"],
            ["sample", "--dim", "6", "--object", "B", "--obs", "random", "--n", "2000000", "--format", "json"],
        ],
    )
    def test_quasi_sample_runs_no_numpy(self, argv, tmp_path):
        # the components' values come from six trace invariants, and the counts from Random.random alone
        out = tmp_path / "out.txt"
        assert _main_in_child(argv + ["--out", str(out)])[-1] == "exit 0, numpy loaded: False, fractions loaded: False"
        text = out.read_text()
        n = int(text.strip().split("\n")[-1].split(",")[0]) if argv[-1] == "csv" else json.loads(text)["n"]
        assert n == 2000000

    @pytest.mark.parametrize("d", (2, 6))
    @pytest.mark.parametrize("name", ("B", "M", "B_lambda:0.3", "B+", "B-", "B_cl", "D", "Mprime"))
    def test_covariant_dump_runs_no_numpy(self, name, d, tmp_path):
        # every named object, the pattern maps B_cl and D included
        out = tmp_path / "out.json"
        argv = ["dump", "--dim", str(d), "--object", name, "--out", str(out)]
        assert _main_in_child(argv)[-1] == "exit 0, numpy loaded: False, fractions loaded: False"
        doc = json.loads(out.read_text())
        assert doc["object"] == name and doc["jamiolkowski"]["rows"] == (d**2 if name == "D" else d**3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["diamond", "--dim", "2", "--target", "file:{b_cl}"],
            ["diamond", "--dim", "2", "--target", "file:{channel}"],
            ["sample", "--dim", "2", "--object", "M", "--n", "1000", "--format", "json"],
            ["diamond", "--dim", "3", "--target", "file:{decoherence}"],
            ["diamond", "--dim", "3", "--target", "file:{nudged}"],
        ],
    )
    def test_dense_commands_load_numpy(self, argv, tmp_path):
        # a channel's Choi file, the dumps of the pattern maps B_cl and D, and a covariant Choi with one entry
        # moved by one ulp are dense maps, so their diamond brackets take the Jordan path
        channel, nudged = tmp_path / "channel.json", tmp_path / "nudged.json"
        b_cl, decoherence = tmp_path / "b_cl.json", tmp_path / "decoherence.json"
        write_supermap(channel, random_channel(2, 2, Rng(7)))
        write_supermap(b_cl, classical_bcl(2))
        write_supermap(decoherence, broadcast.decoherence(3))
        doc = json.loads(_dumps(cli._supermap_doc(family_b_lambda(3, 0.3))))
        doc["choi"]["re"][0][0] = math.nextafter(doc["choi"]["re"][0][0], math.inf)
        nudged.write_text(json.dumps(doc))
        argv = [a.format(channel=channel, nudged=nudged, b_cl=b_cl, decoherence=decoherence) for a in argv]
        last = _main_in_child(argv + ["--out", str(tmp_path / "out.json")])[-1]
        assert last.startswith("exit 0, numpy loaded: True,")
        assert json.loads((tmp_path / "out.json").read_text())["command"] == argv[0]

    @pytest.mark.parametrize("numpy_first", [True, False])
    def test_one_numpy_module(self, numpy_first):
        imports = ["import numpy", "import vbcast.cli"]
        code = "\n".join(
            [
                "import sys, types",
                *(imports if numpy_first else imports[::-1]),
                "assert numpy.ones(2).sum() == 2.0",
                "mods = [sys.modules[name] for name in list(sys.modules) if name.startswith('vbcast.')]",
                "ids = {id(m.np) for m in mods if hasattr(m, 'np')} | {id(numpy), id(sys.modules['numpy'])}",
                "assert len(ids) == 1, ids",
                "assert type(numpy) is types.ModuleType",
                "assert numpy.linalg.eigvalsh(numpy.eye(2)).tolist() == [1.0, 1.0]",
            ]
        )
        res = _run_child(code)
        assert res.returncode == 0, res.stderr

    def test_missing_numpy_raises_module_not_found(self):
        # None in sys.modules hides an installed numpy from find_spec and from the import system alike.
        # The import goes through, and the error arrives on numpy's first use, from a placeholder kept out of
        # sys.modules
        code = "\n".join(
            [
                "import sys",
                "sys.modules['numpy'] = None",
                "import vbcast.cli",
                "try:",
                "    vbcast.cli.np.ndarray",
                "except ModuleNotFoundError as exc:",
                "    sys.exit(exc.name != 'numpy' or sys.modules['numpy'] is not None)",
                "sys.exit(2)",
            ]
        )
        res = _run_child(code)
        assert res.returncode == 0, res.stderr
