"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ariththeta import binforms, checks
from ariththeta.cli import main
from ariththeta.errors import PreconditionViolation
from ariththeta.lattice import model_coordinates_float
from ariththeta.starprod import PairConfig, lambda_star


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "ariththeta.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_theta_deg_table(capsys):
    assert main(["theta-deg", "--max-t", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    values = [line.split()[-1] for line in out]
    assert values == ["-1/12", "1/2", "1", "4/3"]


def test_theta_deg_constant_term_only(capsys):
    assert main(["theta-deg", "--max-t", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].split()[-1] == "-1/12"


def test_theta_deg_json_schema(capsys):
    assert main(["--out", "json", "theta-deg", "--max-t", "2"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"op", "input", "value", "err"}
        assert rec["op"] == "theta_deg"


def test_hurwitz_cli(capsys):
    assert main(["hurwitz", "--n", "23"]) == 0
    assert capsys.readouterr().out.split()[-1] == "3"
    assert main(["hurwitz", "--n", "3"]) == 0
    assert capsys.readouterr().out.split()[-1] == "1/3"


def test_green_json(capsys):
    assert main(["--out", "json", "green", "--t", "-1", "--z", "0,1"]) == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["op"] == "green"
    assert float(rec["value"]) > 0
    assert float(rec["err"]) < 1e-6


def test_green_numeric_failure_exit_code(capsys):
    # z on the divisor of a Q = 1 vector: SingularEvaluation, exit 1.
    assert main(["green", "--t", "1", "--z", "0,1"]) == 1


def test_lambda_cli(capsys):
    code = main(["lambda", "--x1", "0,1,1", "--x2", "1,0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "err <=" in out


def test_lambda_cli_weight_beyond_float_range_is_a_typed_error(capsys):
    # v = 1e200 I moves the pair to norms of about 1e200, whose gram's
    # determinant is beyond float range.
    assert main(["lambda", "--x1", "1,0,0", "--x2", "0,1,-1", "--v", "1e200,0,1e200"]) == 1
    assert "PreconditionViolation" in capsys.readouterr().err


def test_lambda_cli_with_weight(capsys, lat_d1):
    # --v moves the pair to [x1 x2] a for the square root a of v; scipy's
    # sqrtm gives the same root, so the same height to the printed digits.
    # The pair is a geodesic through the CM point i and that point's vector,
    # so the height stands far above its error bar, and scipy's polar
    # quadrature about the CM point confirms it to within that bar.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    from test_star_product import polar_reference

    assert main(["--out", "json", "lambda", "--x1", "1,0,0", "--x2", "0,1,-1", "--v", "0.6,0.2,0.8"]) == 0
    rec = json.loads(capsys.readouterr().out)
    value, err = float(rec["value"]), float(rec["err"])
    coords = model_coordinates_float(lat_d1)
    x = np.column_stack([coords @ np.array([1, 0, 0]), coords @ np.array([0, 1, -1])])
    y = x @ scipy_linalg.sqrtm(np.array([[0.6, 0.2], [0.2, 0.8]]))
    ref = lambda_star(PairConfig.from_vectors(y[:, 0], y[:, 1]))
    assert math.isclose(value, ref.value, rel_tol=1e-9)
    assert err == float(f"{ref.err:.3g}")
    assert value > 1000 * err
    assert abs(value - polar_reference(tuple(y[:, 0]), tuple(y[:, 1]))) <= err


def test_classify_cli(capsys):
    assert main(["classify", "--T", "1,0,1", "--D", "6"]) == 0
    out = capsys.readouterr().out
    assert "fundamental_prime=3" in out and "regular=True" in out


def test_missing_order_file_names_path():
    proc = run_cli(["--order", "/no/such/order.json", "theta-deg", "--max-t", "1"])
    assert proc.returncode == 2
    assert "/no/such/order.json" in proc.stderr


HURWITZ = '[["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["1/2", "1/2", "1/2", "1/2"]]'
SPLIT = '[["1/2", "1/2", "0", "0"], ["1/2", "-1/2", "0", "0"], ["0", "0", "1/2", "1/2"], ["0", "0", "1/2", "-1/2"]]'


@pytest.mark.parametrize(
    "content,code,message",
    [
        (None, 2, "order file not found"),
        ("{not json", 1, "OrderDataError"),
        ('["a", "b"]', 1, "OrderDataError"),
        ('{"a": "-1", "b": "-1", "discriminant": 1, "basis": 5}', 1, "OrderDataError"),
        ('{"a": "1/0", "b": "-1", "discriminant": 2, "basis": %s}' % HURWITZ, 1, "OrderDataError"),
        ('{"a": Infinity, "b": "-1", "discriminant": 2, "basis": %s}' % HURWITZ, 1, "OrderDataError"),
        ('{"a": "-1", "b": "-1", "discriminant": 2, "basis": ["1000", "0100", "0010", "0001"]}', 1, "OrderDataError"),
        ('{"a": "-1", "b": "-1", "discriminant": 2, "basis": %s}' % HURWITZ.replace(', "0"]', "]", 1), 1, "OrderDataError"),
        ('{"a": "-1", "b": "-1", "discriminant": 2.9, "basis": %s}' % HURWITZ, 1, "OrderDataError"),
        ('{"a": "1", "b": "1", "discriminant": true, "basis": %s}' % SPLIT, 1, "OrderDataError"),
        ('{"a": -1.0, "b": "-1", "discriminant": 2, "basis": %s}' % HURWITZ, 1, "OrderDataError"),
        ('{"a": "-1", "b": "-1", "discriminant": 2, "basis": %s}' % HURWITZ.replace('"1/2"', "0.5"), 1, "OrderDataError"),
        ('{"a": "-1", "b": "-1", "discriminant": 2, "basis": %s}' % HURWITZ.replace("1/2", "0"), 1, "linearly dependent"),
    ],
    ids=[
        "directory",
        "not-json",
        "not-an-object",
        "basis-not-a-list",
        "zero-denominator",
        "infinity",
        "rows-as-strings",
        "row-of-three",
        "discriminant-float",
        "discriminant-bool",
        "a-float",
        "basis-float",
        "dependent-basis",
    ],
)
def test_bad_order_file_is_a_typed_error(content, code, message, tmp_path, capsys):
    # None names a directory; the others are files that hold no valid order.
    path = tmp_path
    if content is not None:
        path = tmp_path / "order.json"
        path.write_text(content)
    assert main(["--order", str(path), "theta-deg", "--max-t", "1"]) == code
    assert message in capsys.readouterr().err


def test_usage_error_exit_2():
    proc = run_cli(["theta-deg"])  # missing required --max-t
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--T", "1,0", "--D", "1"],
        ["green", "--t", "-1", "--z", "0"],
        ["green", "--t", "-1", "--z", "a,b"],
        ["green", "--t", "-1", "--z", "0,1,-1"],
        ["lambda", "--x1", "0,1", "--x2", "1,0,0"],
        ["hurwitz", "--n", "-3"],
        ["classify", "--T", "1,2,1", "--D", "6"],
        ["lambda", "--x1", "0,1,1", "--x2", "1,0,0", "--v", "1,2,1"],
        ["lambda", "--x1", "1,0,0", "--x2", "0,1,-1", "--v", "inf,0,1"],
        ["lambda", "--x1", "1,0,0", "--x2", "0,1,-1", "--v", "1,0,inf"],
        ["theta-deg", "--max-t", "-3"],
        ["theta-deg", "--max-t", "2", "--v", "1"],
        ["green", "--t", "-1", "--v", "-1", "--z", "0,1"],
        ["green", "--t", "0", "--z", "0,1"],
        ["green", "--t", "-1", "--v", "nan", "--z", "0,1"],
        ["green", "--t", "1", "--z", "nan,1"],
        ["green", "--t", "1", "--z", "inf,1"],
        ["classify", "--T", "1,0,1", "--D", "0"],
        ["classify", "--T", "1,0,1", "--D", "-6"],
        ["classify", "--T", "1,0,1", "--D", "4"],
    ],
)
def test_malformed_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_classify_cli_large_fundamental_prime(capsys):
    assert main(["classify", "--T", "2,0,1013", "--D", "1"]) == 0
    out = capsys.readouterr().out
    assert "fundamental_prime=1013 regular=True" in out


def test_check_zagier_passes(capsys):
    assert main(["check", "zagier", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS zagier:t=") == 50
    assert "FAIL" not in out


def test_check_zagier_fails_on_a_lost_class(monkeypatch, capsys):
    # Drop the class (2, 2, 4) of discriminant -28 from the degrees' pass: the
    # degree at t = 7 loses it, the box route of H(28) does not, so the suite
    # fails on its own.
    whole = binforms.reduced_form_runs

    def lossy(n):
        for a, b, cs in whole(n):
            if (a, b) == (2, 2):
                assert 4 in cs
                yield a, b, range(cs.start, 4)
                yield a, b, range(5, cs.stop)
            else:
                yield a, b, cs

    monkeypatch.setattr(binforms, "reduced_form_runs", lossy)
    assert main(["check", "zagier", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL zagier:t=") == 1
    assert "FAIL zagier:t=7  degree 1 vs H(28) = 2" in out


def test_check_beta1_deterministic_bytes():
    a = run_cli(["check", "beta1", "--seed", "5"])
    b = run_cli(["check", "beta1", "--seed", "5"])
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "order": "d10"}))
    assert main(["--config", str(cfg), "check", "beta1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("(seed 4)")
    assert main(["--config", str(cfg), "theta-deg", "--max-t", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-1] == "-1/3"


def test_config_quadrature_section(tmp_path):
    from ariththeta.config import load_config

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"quadrature": {"abs_tol": 1e-9, "max_cells": 9000}, "seed": 9})
    )
    rc = load_config(str(cfg))
    assert rc.quadrature.abs_tol == 1e-9
    assert rc.quadrature.max_cells == 9000
    assert rc.seed == 9


def test_config_env_var(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": "d6"}))
    monkeypatch.setenv("ARITHTHETA_CONFIG", str(cfg))
    assert main(["theta-deg", "--max-t", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-1] == "-1/6"


@pytest.mark.parametrize(
    "order,expected",
    [
        ("d6", "-1/6 1 0 2/3 1 0 2 0 0 1 4 0 2/3"),
        ("d10", "-1/3 0 2 4/3 0 2 0 0 2 0 2 0 4/3"),
    ],
)
def test_theta_deg_without_config(order, expected, capsys, monkeypatch):
    monkeypatch.delenv("ARITHTHETA_CONFIG", raising=False)
    assert main(["--order", order, "theta-deg", "--max-t", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in out] == expected.split()


@pytest.mark.parametrize(
    "data",
    [
        {"identities": {"hodge_degree": "1/6"}},
        {"hodge_degree": "1/12"},
        {"quadrature": {"abs_tl": 1e-9}},
        {"quadrature": {"max_depth": 34}},
        {"quadrature": {"enumeration_cap": 2_000_000}},
        ["order", "d6"],
    ],
)
def test_unknown_config_key_is_a_usage_error(data, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["--config", str(cfg), "theta-deg", "--max-t", "1"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err
    if isinstance(data, dict):
        key = next(iter(data.get("quadrature", data)))
        assert repr(key) in err


@pytest.mark.parametrize(
    "data",
    [
        {"quadrature": {"abs_tol": -1.0}},
        {"quadrature": {"rel_tol": "x"}},
        {"seed": [1]},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "12"},
        {"quadrature": {"max_cells": 1.5}},
        {"quadrature": {"max_cells": True}},
        {"quadrature": {"abs_tol": math.inf}},
        {"order": 5},
        {"order": ["d1"]},
        {"quadrature": {"rel_tol": True}},
        {"quadrature": {"abs_tol": None}},
    ],
)
def test_bad_config_value_is_a_usage_error(data, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["--config", str(cfg), "theta-deg", "--max-t", "1"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err
    assert next(iter(data.get("quadrature", data))) in err


def test_check_zagier_refuses_d6(capsys):
    assert main(["--order", "d6", "check", "zagier"]) == 1
    assert "UnsupportedDiscriminant" in capsys.readouterr().err


def test_unknown_suite_is_a_precondition_violation(lat_d1, spec):
    with pytest.raises(PreconditionViolation, match="unknown suite 'nope'"):
        checks.run_suite("nope", lat_d1, 1, spec)
