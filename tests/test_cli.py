import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import vbcast
from vbcast import cli, densemat, sot, supermap
from vbcast.broadcast import canonical_b, cloner
from vbcast.cli import DEFAULT_TOLERANCES, REPORT_SCHEMAS, CliError, _dumps, main
from vbcast.densemat import Operator, Rng
from vbcast.diamond import float_slack
from vbcast.supermap import SuperMap

from random_fixtures import random_channel


def _reject_constant(token):
    raise ValueError(f"report holds {token}, which is not JSON")


def strict_loads(text):
    """json.loads that fails on the NaN / Infinity tokens Python's encoder writes for non-finite floats."""
    return json.loads(text, parse_constant=_reject_constant)


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    doc = strict_loads(out.read_text()) if out.exists() and name.endswith(".json") else None
    return code, doc, out


class TestVerify:
    def test_passes_at_dim_2(self, tmp_path):
        code, doc, _ = run(["verify", "--dim", "2", "--seed", "42"], tmp_path)
        assert code == 0
        assert doc["pass"] is True
        assert doc["schema"] == 5
        assert doc["dim"] == 2 and doc["seed"] == 42
        assert doc["tolerances"] == DEFAULT_TOLERANCES
        names = [c["name"] for c in doc["checks"]]
        assert names == [
            "broadcast_axioms",
            "uniqueness",
            "spectral_decomposition",
            "theorem3",
            "sot_axioms",
        ]
        uniq = doc["checks"][1]
        assert uniq["skipped"] is None
        assert uniq["values"]["nullity"] == 0

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

    def test_tiny_deformation_fails_both_axiom_checks(self, tmp_path):
        # sot_axioms reports broadcast_axioms' own residuals, so the one axioms gate judges both
        code, doc, _ = run(["verify", "--dim", "2", "--target", "B_lambda:1e-9"], tmp_path)
        assert code == 1
        checks = {c["name"]: c for c in doc["checks"]}
        axioms, sot_axioms = checks["broadcast_axioms"], checks["sot_axioms"]
        assert not axioms["pass"] and not sot_axioms["pass"]
        assert sot_axioms["values"]["permutation"] == axioms["values"]["permutation"] > DEFAULT_TOLERANCES["axioms"]

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
        # a finite lambda this large overflows the residuals to inf and NaN; a NaN has no JSON form
        with pytest.warns(RuntimeWarning):
            code, _, out = run(["verify", "--dim", "2", "--target", "B_lambda:1e308"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
        assert not out.exists()

    def test_one_hermiticity_gate_for_the_spectrum(self, tmp_path, monkeypatch):
        # a Choi 5e-9 away from Hermitian passes the 1e-8 gate and is then diagonalised under that gate too
        def skewed(d):
            choi = canonical_b(d).choi.mat.copy()
            choi[0, 1] += 5e-9
            return SuperMap(d, d * d, Operator(choi))

        monkeypatch.setattr(cli, "canonical_b", skewed)
        code, doc, _ = run(["dump", "--object", "B", "--dim", "2"], tmp_path)
        assert code == 0
        np.testing.assert_allclose(doc["eigenvalues"], [1.5, 1.5, 0, 0, 0, 0, -0.5, -0.5], atol=1e-8)
        code, doc, _ = run(["verify", "--dim", "2"], tmp_path)
        spectral = doc["checks"][2]
        assert code == 1 and spectral["name"] == "spectral_decomposition" and not spectral["pass"]
        assert spectral["values"]["eigenvalue_residual"] < 1e-8

    def test_dim_6_certifies_uniqueness(self, tmp_path):
        code, doc, _ = run(["verify", "--dim", "6", "--seed", "0"], tmp_path)
        assert code == 0
        uniq = [c for c in doc["checks"] if c["name"] == "uniqueness"][0]
        assert uniq["skipped"] is None
        assert uniq["pass"] is True
        assert uniq["values"]["nullity"] == 0
        assert uniq["values"]["candidate_residual"] < 1e-8
        assert uniq["values"]["singular_value_gap"] >= 1e6

    def test_tolerance_override_reaches_gates(self, tmp_path):
        code, doc, _ = run(["verify", "--dim", "2", "--tol", "axioms=1e-30"], tmp_path)
        assert code == 1
        assert doc["tolerances"]["axioms"] == 1e-30

    def test_unknown_tolerance_name(self, tmp_path, capsys):
        # sot_axioms shares the axioms gate, so "sot" names no tolerance
        for pair in ("nope=1", "sot=1e-8"):
            code = main(["verify", "--dim", "2", "--tol", pair])
            assert code == 2
            assert "known: " in capsys.readouterr().err

    def test_bad_dim(self):
        assert main(["verify", "--dim", "7"]) == 2
        assert main(["verify", "--dim", "1"]) == 2

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

        for module in (densemat, supermap, sot, cli):
            for name in ("random_channel", "random_density", "random_hermitian"):
                monkeypatch.setattr(module, name, fail, raising=False)
        monkeypatch.setattr(cli, "Rng", fail)
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

    def test_distance_target(self, tmp_path):
        code, doc, _ = run(["diamond", "--dim", "2", "--target", "B-minus-Bplus"], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-4)

    def test_file_target_channel(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(random_channel(2, 2, Rng(7)).to_json()))
        code, doc, _ = run(["diamond", "--dim", "2", "--target", str(path)], tmp_path)
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-4)
        # a channel's Choi is PSD, so the Jordan bound is ||Tr_out J||_inf = 1
        assert 1.0 <= doc["upper_bound"] <= 1.0 + 2 * float_slack(4, 1.0)

    def test_open_gap_file_target_certified(self, tmp_path):
        # the bracket of a channel difference stays open until ADMM certifies it
        path = tmp_path / "diff.json"
        path.write_text(json.dumps((random_channel(2, 2, Rng(1)) - random_channel(2, 2, Rng(2))).to_json()))
        docs = []
        for seed in ("0", "5"):
            args = ["diamond", "--dim", "2", "--target", f"file:{path}", "--seed", seed]
            code, doc, _ = run(args, tmp_path, f"{seed}.json")
            assert code == 0
            assert doc["iterations"] > 0
            assert doc["gap"] <= DEFAULT_TOLERANCES["sdp"]
            assert doc["lower_bound"] <= doc["value"] <= doc["upper_bound"]
            docs.append({k: v for k, v in doc.items() if k not in ("seed", "timestamp")})
        # diamond draws no random numbers, so the seed does not reach the report
        assert docs[0] == docs[1]

    def test_file_target_must_match_dim(self, tmp_path, capsys):
        path = tmp_path / "cloner_d3.json"
        path.write_text(json.dumps(cloner(3).to_json()))
        code, _, out = run(["diamond", "--dim", "2", "--target", f"file:{path}"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "input dimension 3" in err and "--dim is 2" in err
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
        path.write_text(json.dumps(bad.to_json()))
        assert main(["diamond", "--dim", "2", "--target", f"file:{path}"]) == 2
        assert "Hermitian-preserving" in capsys.readouterr().err


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
        # both draws hit one component, so the stderr is 0 and the z-score infinite; JSON has no Infinity
        code, doc, _ = run(["sample", "--dim", "2", "--n", "2", "--seed", "1", "--format", "json"], tmp_path)
        assert code == 0
        assert doc["result"]["stderr"] == 0.0
        assert doc["result"]["zscore"] == 1e300

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
            ("2", "zz", (1.0058666666666667, 0.00580726916064488, 1.0)),
            ("3", "random", (1.190159663000144, 0.005201333625918038, 1.1934256346082397)),
        ],
    )
    def test_seeded_stream_pinned(self, dim, obs, want, tmp_path):
        args = ["sample", "--dim", dim, "--obs", obs, "--n", "10000", "--seed", "1", "--format", "json"]
        code, doc, _ = run(args, tmp_path)
        assert code == 0
        got = doc["result"]
        for key, value in zip(("mean", "stderr", "exact"), want):
            assert abs(got[key] - value) <= 1e-12, (key, got[key], value)

    def test_seeded_csv_stream_pinned(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["sample", "--dim", "2", "--n", "10000", "--seed", "1", "--out", str(out)]) == 0
        n, mean, stderr = out.read_text().strip().split("\n")[-1].split(",")
        assert int(n) == 10000
        assert abs(float(mean) - 1.0058666666666667) <= 1e-12
        assert abs(float(stderr) - 0.00580726916064488) <= 1e-12

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
        channel.write_text(json.dumps(random_channel(2, 2, Rng(7)).to_json()))
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
        src = os.path.dirname(os.path.dirname(os.path.abspath(vbcast.__file__)))
        code = "import sys, vbcast.cli; sys.exit('jsonschema' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestReportWriter:
    """The report writer lays reports out exactly as json.dumps(doc, sort_keys=True, indent=2)."""

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--dim", "2", "--target", "B"],
            ["verify", "--dim", "2", "--target", "B_lambda:0.3"],
            ["diamond", "--dim", "3"],
            ["sample", "--dim", "2", "--object", "B", "--n", "1000", "--format", "json"],
            ["sample", "--dim", "2", "--object", "M", "--n", "1000", "--format", "json"],
            ["dump", "--dim", "3", "--object", "B"],
            ["dump", "--dim", "2", "--object", "M"],
        ],
    )
    def test_reports_byte_identical(self, args, tmp_path, monkeypatch):
        docs = []
        emit = cli._emit_json
        monkeypatch.setattr(cli, "_emit_json", lambda cfg, doc: (docs.append(doc), emit(cfg, doc)))
        _, _, out = run(args, tmp_path)
        assert len(docs) == 1
        assert out.read_text() == json.dumps(docs[0], sort_keys=True, indent=2) + "\n"

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


class TestEnvironment:
    def test_unwritable_out(self):
        assert main(["dump", "--object", "B", "--dim", "2", "--out", "/nonexistent/x.json"]) == 2
