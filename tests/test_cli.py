import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from chainwishart.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_NO_CONVERSION,
    EXIT_NO_PIVOT,
    EXIT_NOT_MONOTONE,
    main,
)
from chainwishart._formats import CSV_BLOCK_VALUES, parse_missing_csv
from chainwishart.matrix_spaces import (
    IncompleteSym,
    TridiagSym,
    dense_from_csv,
    inverse_image,
)
from chainwishart.power_functions import ShapeParams
from chainwishart.verification import stream_rng
from chainwishart.wishart_q import missing_statistic
from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq

from _gen import random_pd_tridiag, random_q_elem, random_shape_p, random_shape_q


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def q_params(tmp_path, M=2, s=(1.0, 1.0), y=None, name="params.json"):
    y = y or {"n": 2, "diag": [1.0, 1.0], "off": [0.0]}
    return _write(tmp_path / name, {"M": M, "s": list(s), "y": y})


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_exponential_column(tmp_path, capsys):
    params = _write(tmp_path / "p.json", {"M": 1, "s": [1.0], "y": {"n": 1, "diag": [1.0], "off": []}})
    out = tmp_path / "draws.csv"
    rc = main(["sample", "--family", "q", "--params", params, "--n", "4000", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    draws = np.array([float(r) for r in rows])
    assert draws.shape == (4000,)
    assert abs(draws.mean() - 1.0) < 4.0 * draws.std(ddof=1) / np.sqrt(4000)


def test_sample_deterministic_under_seed(tmp_path):
    params = q_params(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--family", "q", "--params", params, "--n", "50", "--seed", "11", "--out", str(out1)]) == 0
    assert main(["sample", "--family", "q", "--params", params, "--n", "50", "--seed", "11", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_sample_sigma_routes_to_quadratic(tmp_path):
    params = _write(
        tmp_path / "p.json",
        {"M": 2, "s": [2.0, 1.0, 1.5], "y": {"n": 3, "diag": [1.0, 1.0, 1.0], "off": [0.2, -0.1]}},
    )
    out = tmp_path / "quad.csv"
    rc = main(
        ["sample", "--family", "q", "--params", params, "--n", "100", "--seed", "5",
         "--out", str(out), "--sigma", "2,2,1"]
    )
    assert rc == 0
    assert "q-quadratic" in out.read_text()


def test_sample_domain_violation_exits_2(tmp_path):
    params = q_params(tmp_path, s=(0.4, 1.0))
    rc = main(["sample", "--family", "q", "--params", params, "--n", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_DOMAIN


@pytest.mark.parametrize("family", ["q", "p"])
def test_sample_negative_draw_count_exits_2(tmp_path, capsys, family):
    if family == "q":
        params = q_params(tmp_path)
    else:
        params = _write(
            tmp_path / "pp.json",
            {"M": 1, "s": [0.0, 0.5], "x": {"n": 2, "diag": [1.0, 1.0], "off": [0.2]}},
        )
    out = tmp_path / "neg.csv"
    rc = main(["sample", "--family", family, "--params", params, "--n", "-1", "--out", str(out)])
    assert rc == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# sha256 of the 20,000-draw CSVs at --seed 7, recorded before the samplers'
# inner loops were rewritten for speed; any change to a seeded draw fails them
CSV_Y = {"n": 4, "diag": [2.0, 2.5, 1.8, 2.2], "off": [0.3, -0.4, 0.5]}
CSV_X = {"n": 4, "diag": [1.0, 1.5, 0.8, 1.2], "off": [0.2, -0.3, 0.4]}
CSV_RUNS = {
    "q": ({"M": 2, "s": [1.2, 0.9, 1.6, 1.1], "y": CSV_Y}, ["--family", "q"],
          "17030280bf4f4f2adb3e0f98303cf0b8f3dfde19830bf6ccac4fed9916183fda"),
    "p": ({"M": 3, "s": [0.3, -0.2, 0.8, 0.1], "x": CSV_X}, ["--family", "p"],
          "bd417e98b86c96e452418d6b2929c7f1268c419e8c06376ab3d693240b38469a"),
    "sigma": ({"M": 2, "s": [1.2, 0.9, 1.6, 1.1], "y": CSV_Y}, ["--family", "q", "--sigma", "2,2,1,1"],
              "99b748a8ce140cf7155dd624d75e81c47fc41c0f8e1d57953f67f4e62f7b956e"),
}


@pytest.mark.parametrize("run", list(CSV_RUNS))
def test_sample_csv_bytes_are_pinned(tmp_path, run):
    params, flags, digest = CSV_RUNS[run]
    out = tmp_path / "draws.csv"
    argv = [sys.executable, "-m", "chainwishart.cli", "sample", *flags,
            "--params", _write(tmp_path / "params.json", params),
            "--n", "20000", "--seed", "7", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the n = 40 variance CSVs of `eval --what variance --out`, recorded
# before the writer was vectorized: the Q form is mostly exponent notation
# (the per-value fallback), the P form mostly exact zeros
VAR_N = 40
VAR_RUNS = {
    "q": ({"M": 20, "s": [round(0.9 + 0.04 * i, 2) for i in range(VAR_N)],
           "y": {"n": VAR_N, "diag": [round(2.0 + 0.1 * (i % 7), 2) for i in range(VAR_N)],
                 "off": [round(0.3 * (-1) ** i, 2) for i in range(VAR_N - 1)]}},
          "4a6638b01c1bb23ed92f4d20ef5b421ac67677de618894747dae3883d000b292"),
    "p": ({"M": 20, "s": [round(-0.5 + 0.05 * i, 2) for i in range(VAR_N)],
           "x": {"n": VAR_N, "diag": [round(1.0 + 0.1 * (i % 5), 2) for i in range(VAR_N)],
                 "off": [round(0.2 * (-1) ** i, 2) for i in range(VAR_N - 1)]}},
          "bc09ab58b5a2dcb06171f00b1c7686203d2633aeaf73f7d78b867516f2a4a26a"),
}


@pytest.mark.parametrize("family", list(VAR_RUNS))
def test_variance_csv_bytes_are_pinned(tmp_path, capsys, family):
    params, digest = VAR_RUNS[family]
    out = tmp_path / "variance.csv"
    argv = ["eval", "--what", "variance", "--family", family,
            "--params", _write(tmp_path / "params.json", params), "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("module", ["chainwishart", "chainwishart.cli"])
def test_import_loads_no_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# each closed form that reads a normalizer or a log-gamma term, by itself in a fresh process
NO_SCIPY_CALLS = {
    "log_density": "wq.log_density(wq.WishartQ(p, y), x)",
    "log_density_p": "wp.log_density(wp.WishartP(pp, x), y)",
    "log_norm_constant": "wq.log_norm_constant(p)",
    "log_norm_constant_p": "wp.log_norm_constant(pp)",
    "canonical_measure_check": "wp.canonical_measure_check(x)",
}


@pytest.mark.parametrize("call", list(NO_SCIPY_CALLS))
def test_densities_and_normalizers_load_no_scipy(call):
    code = (
        "import sys\n"
        "from chainwishart import wishart_p as wp, wishart_q as wq\n"
        "from chainwishart.matrix_spaces import IncompleteSym, TridiagSym\n"
        "from chainwishart.power_functions import ShapeParams\n"
        "p, pp = ShapeParams(2, [1.2, 0.8, 1.5]), ShapeParams(2, [0.2, -0.3, 0.5])\n"
        "y, x = TridiagSym(3, [2.0, 2.0, 2.0], [0.3, 0.2]), IncompleteSym(3, [1.0, 1.5, 1.2], [0.2, -0.3])\n"
        f"print(repr({NO_SCIPY_CALLS[call]}))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_eval_density_loads_no_scipy(tmp_path):
    params = _write(tmp_path / "q.json", Q2)
    point = _write(tmp_path / "x.json", {"n": 2, "diag": [1.0, 2.0], "off": [0.3]})
    code = (
        "import sys; from chainwishart.cli import main; "
        f"rc = main(['eval', '--what', 'density', '--family', 'q', '--params', {params!r}, '--point', {point!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_verify_all_passes_without_scipy(tmp_path):
    report = tmp_path / "verify.json"
    code = (
        "import sys; from chainwishart.cli import main; "
        f"rc = main(['verify', '--suite', 'all', '--seed', '20260810', '--json', {str(report)!r}]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines(keepends=True)
    assert lines[-2] == "31 checks, 0 failed\n"
    assert lines[-1] == "[]\n"
    # the report, text and JSON, is pinned bit for bit: every check keeps its draws and its detail.
    # The JSON digest was re-recorded when the jet log became the inverse of the exp recurrence:
    # the statistic of moment_q_order3_mc moved by 1.7e-14 relative
    text = "".join(lines[:-1]).encode()
    assert hashlib.sha256(text).hexdigest() == "ac98f4f3222c038792d5bdc2edf3f0321f533855a19dca6676d7107e7a152725"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "7cb36e8275a37c2c2c717f52ae8133d7ac98c1148cd51dd5373f9a6a9ef08c6c"
    )


@pytest.mark.parametrize("family", ["q", "p"])
def test_sample_csv_parses_back_to_the_draws(tmp_path, family):
    rng = np.random.default_rng(21)
    n, M = 3, 2
    if family == "q":
        params = {**random_shape_q(rng, n, M).to_json_dict(), "y": random_pd_tridiag(rng, n).to_json_dict()}
    else:
        params = {**random_shape_p(rng, n, M).to_json_dict(), "x": random_q_elem(rng, n).to_json_dict()}
    draws = 2 * (CSV_BLOCK_VALUES // (2 * n - 1)) + 7  # two full write blocks and a partial one
    out = tmp_path / "s.csv"
    argv = ["sample", "--family", family, "--params", _write(tmp_path / "f.json", params),
            "--n", str(draws), "--seed", "19", "--out", str(out)]
    assert main(argv) == 0
    if family == "q":
        w = wq.WishartQ(ShapeParams.from_json_dict(params), TridiagSym.from_json_dict(params["y"]))
        expect = wq.sample_many(w, stream_rng(19), draws)
    else:
        w = wp.WishartP(ShapeParams.from_json_dict(params), IncompleteSym.from_json_dict(params["x"]))
        expect = wp.sample_many(w, stream_rng(19), draws)
    got = dense_from_csv(str(out))
    assert got.shape == (draws, 2 * n - 1)
    assert np.array_equal(got, expect)


def test_sample_p_family(tmp_path):
    params = _write(
        tmp_path / "pp.json",
        {"M": 1, "s": [0.0, 0.5], "x": {"n": 2, "diag": [1.0, 1.0], "off": [0.2]}},
    )
    out = tmp_path / "p.csv"
    assert main(["sample", "--family", "p", "--params", params, "--n", "20", "--seed", "1", "--out", str(out)]) == 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_mean_unit_shape_is_projected_inverse(tmp_path, capsys):
    rng = np.random.default_rng(7)
    y = random_pd_tridiag(rng, 3)
    params = _write(tmp_path / "p.json", {"M": 2, "s": [1.0, 1.0, 1.0], "y": y.to_json_dict()})
    assert main(["eval", "--what", "mean", "--family", "q", "--params", params]) == 0
    got = json.loads(capsys.readouterr().out)["mean"]
    expect = inverse_image(y)
    assert np.allclose(got["diag"], expect.diag, rtol=1e-10)
    assert np.allclose(got["off"], expect.off, rtol=1e-10)


def test_eval_inverse_mean_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(8)
    y = random_pd_tridiag(rng, 3)
    p = ShapeParams(2, [1.3, 0.9, 2.0])
    m = wq.mean(wq.WishartQ(p, y))
    params = _write(tmp_path / "p.json", {"M": 2, "s": p.s.tolist(), "y": y.to_json_dict()})
    point = _write(tmp_path / "m.json", m.to_json_dict())
    assert main(["eval", "--what", "inverse-mean", "--family", "q", "--params", params, "--point", point]) == 0
    got = json.loads(capsys.readouterr().out)["inverse_mean"]
    assert np.allclose(got["diag"], y.diag, rtol=1e-8)
    assert np.allclose(got["off"], y.off, rtol=1e-8)


def test_eval_density_cone_violation_names_minor(tmp_path, capsys):
    params = q_params(tmp_path)
    bad = _write(tmp_path / "x.json", {"n": 2, "diag": [1.0, 2.0], "off": [5.0]})
    rc = main(["eval", "--what", "density", "--family", "q", "--params", params, "--point", bad])
    # density itself is -inf outside the cone, but laplace must diagnose:
    rc2 = main(["eval", "--what", "laplace", "--family", "q", "--params", params,
                "--point", _write(tmp_path / "z.json", {"n": 2, "diag": [-3.0, 0.0], "off": [0.0]})])
    assert rc2 == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "minor" in err


def _strict_json(text):
    """``json.loads`` that rejects the non-standard ``NaN``/``Infinity`` tokens, as ``jq`` does."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("family", ["q", "p"])
def test_eval_density_is_strict_json_inside_and_outside_the_support(tmp_path, capsys, family):
    eye = {"n": 3, "diag": [1.0, 1.0, 1.0], "off": [0.0, 0.0]}
    params = _write(tmp_path / "p.json", {"M": 2, "s": [1.0, 1.0, 1.0], "yx"[family == "p"]: eye})
    outside = _write(tmp_path / "out.json", {"n": 3, "diag": [1.0, 1.0, 1.0], "off": [2.0, 0.1]})
    inside = _write(tmp_path / "in.json", {"n": 3, "diag": [1.0, 1.0, 1.0], "off": [0.2, 0.1]})
    argv = ["eval", "--what", "density", "--family", family, "--params", params, "--point"]
    assert main(argv + [outside]) == 0
    assert _strict_json(capsys.readouterr().out) == {"log_density": None}
    assert main(argv + [inside]) == 0
    val = _strict_json(capsys.readouterr().out)["log_density"]
    assert isinstance(val, float) and np.isfinite(val)


def test_non_finite_json_output_is_a_domain_error_with_nothing_written(capsys):
    from chainwishart.cli import CliError, _print_json

    for bad in (float("nan"), float("inf"), [1.0, float("-inf")]):
        with pytest.raises(CliError) as err:
            _print_json({"value": bad})
        assert err.value.code == EXIT_DOMAIN
    assert capsys.readouterr().out == ""


def test_eval_moment_and_variance(tmp_path, capsys):
    rng = np.random.default_rng(9)
    y = random_pd_tridiag(rng, 2)
    params = _write(tmp_path / "p.json", {"M": 2, "s": [1.2, 0.8], "y": y.to_json_dict()})
    z = TridiagSym(2, [0.5, -0.2], [0.1])
    point = _write(tmp_path / "z.json", {"z_list": [z.to_json_dict()]})
    assert main(["eval", "--what", "moment", "--family", "q", "--params", params, "--point", point]) == 0
    got = json.loads(capsys.readouterr().out)["moment"]
    w = wq.WishartQ(ShapeParams(2, [1.2, 0.8]), y)
    from chainwishart.matrix_spaces import pairing

    assert got == pytest.approx(pairing(z, wq.mean(w)))
    assert main(["eval", "--what", "variance", "--family", "q", "--params", params]) == 0
    mat = np.array(json.loads(capsys.readouterr().out)["variance_matrix"])
    assert mat.shape == (3, 3)


# ---------------------------------------------------------------------------
# orders / lm-convert
# ---------------------------------------------------------------------------


def test_orders_counts(capsys):
    assert main(["orders", "--n", "3"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert len(got["eliminating_orders"]) == 4
    assert len(got["perfect_clique_orders"]) == 2
    assert main(["orders", "--n", "1"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert len(got["eliminating_orders"]) == 1
    assert got["perfect_clique_orders"] == []


def test_orders_output_bytes_are_pinned(capsys):
    # sha256 of the stdout of `chainwishart orders --n 5`, recorded before the
    # eliminating orders were built by prefix doubling
    assert main(["orders", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "f758b62251c330899eb0e6fed49ecdf79f028ce1a312304c4fb4ac0ca87fd8de"


def test_orders_counts_match_powers_of_two(capsys):
    for n in (2, 5, 8):
        assert main(["orders", "--n", str(n)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert len(got["eliminating_orders"]) == 2 ** (n - 1)
        assert len(got["perfect_clique_orders"]) == 2 ** (n - 2)


def test_lm_convert_round_trip(tmp_path, capsys):
    lm_file = _write(tmp_path / "lm.json", {"alpha": [1.0, 2.0], "beta": [0.5]})
    assert main(["lm-convert", "--direction", "lm-to-s", "--file", lm_file]) == 0
    sm = json.loads(capsys.readouterr().out)
    assert sm["M"] == 2
    s_file = _write(tmp_path / "s.json", sm)
    assert main(["lm-convert", "--direction", "s-to-lm", "--file", s_file]) == 0
    back = json.loads(capsys.readouterr().out)
    assert np.allclose(back["alpha"], [1.0, 2.0])
    assert np.allclose(back["beta"], [0.5])


def test_lm_convert_none_exits_4(tmp_path, capsys):
    lm_file = _write(tmp_path / "lm.json", {"alpha": [1.0, 2.0, 3.0], "beta": [5.0, 4.0]})
    assert main(["lm-convert", "--direction", "lm-to-s", "--file", lm_file]) == EXIT_NO_CONVERSION


def test_lm_convert_endpoint_rejected(tmp_path, capsys):
    s_file = _write(tmp_path / "s.json", {"M": 1, "s": [1.0, 2.0, 1.0]})
    rc = main(["lm-convert", "--direction", "s-to-lm", "--file", s_file])
    assert rc == EXIT_NO_CONVERSION
    assert "diagonal exponents" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# missing-stat
# ---------------------------------------------------------------------------


def test_parse_missing_and_statistic_mixed_suffixes():
    ds = parse_missing_csv("1.0,2.0,3.0\n,1.0,2.0\n")
    t, sigma, m = missing_statistic(ds)
    # suffix starting at 2 forces the pivot to vertex 1; full rows join its slot
    assert m == 1
    assert sigma.tolist() == [1, 1, 0]
    assert t.diag == pytest.approx([1.0, 4.0 + 1.0, 9.0 + 4.0])
    assert t.off == pytest.approx([2.0, 6.0 + 2.0])


def test_missing_statistic_full_rows_only():
    ds = parse_missing_csv("1.0,2.0\n-1.0,0.5\n")
    t, sigma, m = missing_statistic(ds)
    assert m == 2
    assert sigma.tolist() == [0, 2]
    assert t.diag == pytest.approx([1.0 + 1.0, 4.0 + 0.25])
    assert t.off == pytest.approx([2.0 - 0.5])


def test_missing_statistic_prefixes_and_full():
    ds = parse_missing_csv("1.0,,\n1.0,1.0,\n1.0,1.0,1.0\n")
    t, sigma, m = missing_statistic(ds)
    assert m == 3
    assert sigma.tolist() == [1, 1, 1]
    assert t.diag == pytest.approx([3.0, 2.0, 1.0])
    assert t.off == pytest.approx([2.0, 1.0])


def test_missing_statistic_suffix_inference():
    ds = parse_missing_csv(",1.0,1.0\n,,2.0\n")
    t, sigma, m = missing_statistic(ds)
    # no prefixes: pivot sits just below the smallest suffix start
    assert m == 1
    assert sigma.tolist() == [0, 1, 1]


def test_missing_non_monotone_exits_5(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1.0,,1.0\n")  # non-contiguous
    assert main(["missing-stat", "--file", str(f)]) == EXIT_NOT_MONOTONE
    f.write_text(",1.0,\n")  # interior interval
    assert main(["missing-stat", "--file", str(f)]) == EXIT_NOT_MONOTONE


def test_missing_no_pivot_exits_6(tmp_path):
    # prefix of length 2 forces M >= 3; suffix starting at 3 forces M <= 2
    f = tmp_path / "bad.csv"
    f.write_text("1.0,1.0,\n,,1.0\n")
    assert main(["missing-stat", "--file", str(f)]) == EXIT_NO_PIVOT


def test_missing_statistic_matches_quadratic_law():
    # rows drawn with the tilted-piece convention v_I ~ N(0, (2 y_I)^{-1}):
    # the statistic is then an exact draw of the quadratic construction, so
    # its average over datasets matches the family mean
    rng = np.random.default_rng(10)
    y = random_pd_tridiag(rng, 3)
    yd = y.to_dense()
    sigma, m = np.array([1, 1, 1]), 3  # rows observing {1}, {1,2}, full
    p = wq.sigma_to_shape(sigma, m)
    w = wq.WishartQ(p, y)
    th = wq.mean(w).coords()
    reps = 400
    acc = np.zeros((reps, 5))
    gen = stream_rng(11)
    for r in range(reps):
        rows = []
        v1 = gen.normal(0, np.sqrt(1.0 / (2.0 * yd[0, 0])))
        rows.append(f"{v1},,")
        chol = np.linalg.cholesky(np.linalg.inv(2.0 * yd[:2, :2]))
        v2 = chol @ gen.standard_normal(2)
        rows.append(f"{v2[0]},{v2[1]},")
        chol3 = np.linalg.cholesky(np.linalg.inv(2.0 * yd))
        v3 = chol3 @ gen.standard_normal(3)
        rows.append(",".join(str(t) for t in v3))
        ds = parse_missing_csv("\n".join(rows))
        t, sig, mm = missing_statistic(ds)
        assert sig.tolist() == [1, 1, 1] and mm == 3
        acc[r] = t.coords()
    se = acc.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.max(np.abs(acc.mean(axis=0) - th) / se) < 4.0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "samplers", "--seed", "20260810", "--json", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert all(entry["passed"] for entry in payload)


def test_verify_mutation_flips_exit(capsys):
    rc = main(["verify", "--suite", "mean", "--seed", "20260810", "--inject-bug", "mean-sign"])
    assert rc == 1


def test_sample_io_failure_exits_3(tmp_path):
    params = q_params(tmp_path)
    rc = main(["sample", "--family", "q", "--params", params, "--n", "5",
               "--out", str(tmp_path / "nosuchdir" / "x.csv")])
    assert rc == 3


def test_eval_variance_csv_out(tmp_path, capsys):
    params = q_params(tmp_path)
    out = tmp_path / "var.csv"
    rc = main(["eval", "--what", "variance", "--family", "q", "--params", params,
               "--out", str(out)])
    assert rc == 0
    mat_json = np.array(json.loads(capsys.readouterr().out)["variance_matrix"])
    mat_csv = dense_from_csv(str(out))
    assert np.array_equal(mat_json, mat_csv)


def test_eval_variance_at_point_matches_column_by_column_operator(tmp_path, capsys):
    rng = np.random.default_rng(23)
    n, M = 6, 4
    p = random_shape_q(rng, n, M)
    params = _write(tmp_path / "p.json", {**p.to_json_dict(), "y": random_pd_tridiag(rng, n).to_json_dict()})
    m = random_q_elem(rng, n)
    point = _write(tmp_path / "m.json", m.to_json_dict())
    rc = main(["eval", "--what", "variance", "--family", "q", "--params", params, "--point", point])
    assert rc == 0
    got = np.array(json.loads(capsys.readouterr().out)["variance_matrix"])
    expect = wq.operator_matrix(lambda u: wq.variance_apply_nice(p, m, u), n)
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("seed", range(10))
def test_eval_variance_p_at_point_is_the_covariance_at_its_newton_inverse_mean(tmp_path, capsys, seed):
    rng = np.random.default_rng([29, seed])
    n = int(rng.integers(1, 9))
    M = int(rng.integers(1, n + 1))
    p = random_shape_p(rng, n, M)
    params = _write(tmp_path / "p.json", {**p.to_json_dict(), "x": random_q_elem(rng, n).to_json_dict()})
    w2 = wp.WishartP(p, random_q_elem(rng, n))
    point = _write(tmp_path / "m.json", wp.mean(w2).to_json_dict())
    rc = main(["eval", "--what", "variance", "--family", "p", "--params", params, "--point", point])
    assert rc == 0
    got = np.array(json.loads(capsys.readouterr().out)["variance_matrix"])
    expect = wp.covariance_matrix(w2)
    assert np.max(np.abs(got - expect)) <= 1e-9 * np.max(np.abs(expect))


def test_eval_inverse_mean_p_newton(tmp_path, capsys):
    from chainwishart.power_functions import ShapeParams as SP

    x = {"n": 2, "diag": [1.0, 1.3], "off": [-0.2]}
    params = _write(tmp_path / "p.json", {"M": 1, "s": [0.2, -0.3], "x": x})
    from chainwishart.matrix_spaces import IncompleteSym as IS

    target = wp.mean(wp.WishartP(SP(1, [0.2, -0.3]), IS.from_json_dict(x)))
    point = _write(tmp_path / "t.json", target.to_json_dict())
    rc = main(["eval", "--what", "inverse-mean", "--family", "p", "--params", params, "--point", point])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)
    assert got["method"] == "newton"
    assert np.allclose(got["inverse_mean"]["diag"], x["diag"], rtol=1e-6)
    assert np.allclose(got["inverse_mean"]["off"], x["off"], rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------

Q2 = {"M": 2, "s": [1.2, 0.8], "y": {"n": 2, "diag": [1.0, 1.0], "off": [0.2]}}
P2 = {"M": 1, "s": [0.2, -0.3], "x": {"n": 2, "diag": [1.0, 1.3], "off": [-0.2]}}
Z2 = {"n": 2, "diag": [0.5, -0.2], "off": [0.1]}
# the same parameters scaled by 1e160: squares of their entries overflow a double
Q2_BIG = {**Q2, "y": {"n": 2, "diag": [1e160, 1e160], "off": [2e159]}}
P2_BIG = {**P2, "x": {"n": 2, "diag": [1e160, 1.3e160], "off": [-2e159]}}
# Q2 scaled by 1e-200: its covariance (degree -2) is past the largest double
Q2_TINY = {**Q2, "y": {"n": 2, "diag": [1e-200, 1e-200], "off": [2e-201]}}
# a point of Q at 1e-310: its inverse mean (degree -1) is past the largest double
Q3 = {"M": 2, "s": [1.0, 1.0, 1.0], "y": {"n": 3, "diag": [2.0, 2.0, 2.0], "off": [0.3, 0.2]}}
M3_TINY = {"n": 3, "diag": [1e-310, 2e-310, 1e-310], "off": [3e-311, 2e-311]}
# P2 scaled by 1e-200: its covariance (degree -2) is past the largest double
P2_TINY = {**P2, "x": {"n": 2, "diag": [1e-200, 1.3e-200], "off": [-2e-201]}}
# the mean of P2 at c x is its mean at x over c, so Newton must return c x
P2_MEAN = wp.mean(wp.WishartP(ShapeParams.from_json_dict(P2), IncompleteSym.from_json_dict(P2["x"])))
BIG_DIRECTION = {"n": 2, "diag": [1e200, 1e200], "off": [1e199]}
NEWTON_SCALES = {"newton-target-at-1e-12": 1e-12, "newton-target-at-1e12": 1e12}
NOT_UTF8 = b"\xff\xfe\x00bad"

# (case id, files to write, argv with {file} and {dir} placeholders, exit code)
CONTRACT = [
    ("moment-above-cap", {"q.json": Q2, "z.json": {"z_list": [Z2] * 7}},
     ["eval", "--what", "moment", "--family", "q", "--params", "{q.json}", "--point", "{z.json}"],
     EXIT_DOMAIN),
    ("moment-p-no-directions", {"p.json": P2, "x.json": {"x_list": []}},
     ["eval", "--what", "moment", "--family", "p", "--params", "{p.json}", "--point", "{x.json}"],
     EXIT_DOMAIN),
    ("newton-non-pd-target", {"p.json": P2, "t.json": {"n": 2, "diag": [1.0, -1.0], "off": [0.0]}},
     ["eval", "--what", "inverse-mean", "--family", "p", "--params", "{p.json}", "--point", "{t.json}"],
     EXIT_DOMAIN),
    *[
        (case, {"p.json": P2, "t.json": ((1.0 / c) * P2_MEAN).to_json_dict()},
         ["eval", "--what", "inverse-mean", "--family", "p", "--params", "{p.json}", "--point", "{t.json}"], 0)
        for case, c in NEWTON_SCALES.items()
    ],
    ("eval-mean", {"q.json": Q2}, ["eval", "--what", "mean", "--family", "q", "--params", "{q.json}"], 0),
    ("eval-mean-at-1e160", {"q.json": Q2_BIG},
     ["eval", "--what", "mean", "--family", "q", "--params", "{q.json}"], 0),
    ("sample-p-at-1e160", {"p.json": P2_BIG},
     ["sample", "--family", "p", "--params", "{p.json}", "--n", "5", "--out", "{dir}/x.csv"], 0),
    ("eval-variance-at-1e-200", {"q.json": Q2_TINY},
     ["eval", "--what", "variance", "--family", "q", "--params", "{q.json}"], EXIT_DOMAIN),
    ("eval-variance-p-past-the-double-range", {"p.json": P2_TINY},
     ["eval", "--what", "variance", "--family", "p", "--params", "{p.json}"], EXIT_DOMAIN),
    ("eval-inverse-mean-past-the-double-range", {"q.json": Q3, "m.json": M3_TINY},
     ["eval", "--what", "inverse-mean", "--family", "q", "--params", "{q.json}", "--point", "{m.json}"],
     EXIT_DOMAIN),
    # moments (degree -3) and the Newton inverse mean (degree -1) past the double range
    ("eval-moment-at-1e-200", {"q.json": Q2_TINY, "z.json": {"z_list": [Z2] * 3}},
     ["eval", "--what", "moment", "--family", "q", "--params", "{q.json}", "--point", "{z.json}"], EXIT_DOMAIN),
    ("eval-moment-p-at-1e-200", {"p.json": P2_TINY, "x.json": {"x_list": [P2["x"]] * 3}},
     ["eval", "--what", "moment", "--family", "p", "--params", "{p.json}", "--point", "{x.json}"], EXIT_DOMAIN),
    # unit-size parameters, directions near 1e200: the moment (degree 3 in them) is past the largest double
    ("eval-moment-at-directions-1e200", {"q.json": Q2, "z.json": {"z_list": [BIG_DIRECTION] * 3}},
     ["eval", "--what", "moment", "--family", "q", "--params", "{q.json}", "--point", "{z.json}"], EXIT_DOMAIN),
    ("eval-moment-p-at-directions-1e200", {"p.json": P2, "x.json": {"x_list": [BIG_DIRECTION] * 3}},
     ["eval", "--what", "moment", "--family", "p", "--params", "{p.json}", "--point", "{x.json}"], EXIT_DOMAIN),
    ("newton-target-at-1e-310", {"p.json": P2, "t.json": (1e-310 * P2_MEAN).to_json_dict()},
     ["eval", "--what", "inverse-mean", "--family", "p", "--params", "{p.json}", "--point", "{t.json}"],
     EXIT_DOMAIN),
    ("eval-variance-at-point", {"q.json": Q2, "m.json": {"n": 2, "diag": [1.0, 2.0], "off": [0.3]}},
     ["eval", "--what", "variance", "--family", "q", "--params", "{q.json}", "--point", "{m.json}"], 0),
    # on P the variance at a point goes through the Newton inverse mean, and fails as it does
    ("eval-variance-p-at-point-outside-P", {"p.json": P2, "m.json": {"n": 2, "diag": [1.0, -1.0], "off": [0.0]}},
     ["eval", "--what", "variance", "--family", "p", "--params", "{p.json}", "--point", "{m.json}"], EXIT_DOMAIN),
    ("eval-variance-p-at-point-at-1e-310", {"p.json": P2, "m.json": (1e-310 * P2_MEAN).to_json_dict()},
     ["eval", "--what", "variance", "--family", "p", "--params", "{p.json}", "--point", "{m.json}"], EXIT_DOMAIN),
    ("eval-density-needs-point", {"q.json": Q2},
     ["eval", "--what", "density", "--family", "q", "--params", "{q.json}"], 3),
    ("eval-inverse-mean-outside-q", {"q.json": Q2, "m.json": {"n": 2, "diag": [1.0, 1.0], "off": [2.0]}},
     ["eval", "--what", "inverse-mean", "--family", "q", "--params", "{q.json}", "--point", "{m.json}"],
     EXIT_DOMAIN),
    ("sample-bad-shape", {"q.json": {**Q2, "s": [0.4, 1.0]}},
     ["sample", "--family", "q", "--params", "{q.json}", "--n", "5", "--out", "{dir}/x.csv"], EXIT_DOMAIN),
    ("sample-missing-params", {},
     ["sample", "--family", "p", "--params", "{dir}/none.json", "--out", "{dir}/x.csv"], 3),
    ("orders", {}, ["orders", "--n", "3"], 0),
    ("orders-no-vertex", {}, ["orders", "--n", "0"], EXIT_DOMAIN),
    ("orders-negative-size", {}, ["orders", "--n", "-2"], EXIT_DOMAIN),
    # refused before anything is allocated: 2^39 and 2^63 orders
    ("orders-40-vertices", {}, ["orders", "--n", "40"], EXIT_DOMAIN),
    ("orders-64-vertices", {}, ["orders", "--n", "64"], EXIT_DOMAIN),
    ("lm-convert-none", {"lm.json": {"alpha": [1.0, 2.0, 3.0], "beta": [5.0, 4.0]}},
     ["lm-convert", "--direction", "lm-to-s", "--file", "{lm.json}"], EXIT_NO_CONVERSION),
    ("missing-stat-no-pivot", {"m.csv": "1.0,1.0,\n,,1.0\n"},
     ["missing-stat", "--file", "{m.csv}"], EXIT_NO_PIVOT),
    # the squares of the data, and so the statistic, pass the largest double
    ("missing-stat-past-the-double-range", {"m.csv": "1e200,1e200\n"},
     ["missing-stat", "--file", "{m.csv}"], EXIT_DOMAIN),
    # malformed input files
    *[
        (f"{what}-{family}-point-without-diag", {"f.json": fam, "pt.json": {"n": 2, "off": [0.1]}},
         ["eval", "--what", what, "--family", family, "--params", "{f.json}", "--point", "{pt.json}"], EXIT_IO)
        for what in ("density", "inverse-mean")
        for family, fam in (("q", Q2), ("p", P2))
    ],
    ("moment-without-z-list", {"q.json": Q2, "z.json": {"x_list": [Z2]}},
     ["eval", "--what", "moment", "--family", "q", "--params", "{q.json}", "--point", "{z.json}"], EXIT_IO),
    ("eval-params-is-a-list", {"q.json": [Q2]},
     ["eval", "--what", "mean", "--family", "q", "--params", "{q.json}"], EXIT_IO),
    ("eval-point-is-a-list", {"q.json": Q2, "pt.json": [Z2]},
     ["eval", "--what", "laplace", "--family", "q", "--params", "{q.json}", "--point", "{pt.json}"], EXIT_IO),
    ("sample-params-is-a-list", {"q.json": [Q2]},
     ["sample", "--family", "q", "--params", "{q.json}", "--n", "5", "--out", "{dir}/x.csv"], EXIT_IO),
    ("sample-sigma-without-y", {"q.json": {"M": 2, "s": [1.2, 0.8]}},
     ["sample", "--family", "q", "--params", "{q.json}", "--n", "5", "--out", "{dir}/x.csv", "--sigma", "1,1"], EXIT_IO),
    ("lm-convert-without-alpha", {"lm.json": {"beta": []}},
     ["lm-convert", "--direction", "lm-to-s", "--file", "{lm.json}"], EXIT_IO),
    ("lm-convert-without-M", {"s.json": {"s": [1.0, 1.0]}},
     ["lm-convert", "--direction", "s-to-lm", "--file", "{s.json}"], EXIT_IO),
    ("missing-stat-non-numeric-cell", {"m.csv": "1.0,x\n1.0,2.0\n"},
     ["missing-stat", "--file", "{m.csv}"], EXIT_IO),
    ("missing-stat-nan-cell", {"m.csv": "1.0,nan\n1.0,2.0\n"},
     ["missing-stat", "--file", "{m.csv}"], EXIT_IO),
    # a file that is not UTF-8, at each place the CLI reads one
    ("eval-params-not-utf8", {"bad.bin": NOT_UTF8},
     ["eval", "--what", "mean", "--family", "q", "--params", "{bad.bin}"], EXIT_IO),
    ("eval-point-not-utf8", {"q.json": Q2, "bad.bin": NOT_UTF8},
     ["eval", "--what", "density", "--family", "q", "--params", "{q.json}", "--point", "{bad.bin}"], EXIT_IO),
    ("sample-params-not-utf8", {"bad.bin": NOT_UTF8},
     ["sample", "--family", "q", "--params", "{bad.bin}", "--n", "5", "--out", "{dir}/x.csv"], EXIT_IO),
    ("lm-convert-not-utf8", {"bad.bin": NOT_UTF8},
     ["lm-convert", "--direction", "lm-to-s", "--file", "{bad.bin}"], EXIT_IO),
    ("missing-stat-not-utf8", {"bad.bin": NOT_UTF8}, ["missing-stat", "--file", "{bad.bin}"], EXIT_IO),
    # integer fields take integral numbers only (2 or 2.0): nothing is truncated
    *[
        (f"eval-pivot-{label}", {"q.json": {**Q2, "M": pivot}},
         ["eval", "--what", "mean", "--family", "q", "--params", "{q.json}"], EXIT_IO)
        for label, pivot in (("2.7", 2.7), ("true", True), ("string", "2"))
    ],
    *[
        (f"eval-size-{label}", {"q.json": {**Q2, "y": {**Q2["y"], "n": size}}},
         ["eval", "--what", "mean", "--family", "q", "--params", "{q.json}"], EXIT_IO)
        for label, size in (("2.9", 2.9), ("true", True))
    ],
    ("sample-sigma-pivot-2.5", {"q.json": {**Q2, "M": 2.5}},
     ["sample", "--family", "q", "--params", "{q.json}", "--n", "5", "--out", "{dir}/x.csv", "--sigma", "1,1"],
     EXIT_IO),
    ("lm-convert-pivot-1.5", {"s.json": {"M": 1.5, "s": [1.0, 1.0, 1.0]}},
     ["lm-convert", "--direction", "s-to-lm", "--file", "{s.json}"], EXIT_IO),
    # a pivot outside 1..n, and a Newton target of another size than the shape or outside P
    *[
        (f"sample-sigma-pivot-{pivot}", {"q.json": {**Q2, "M": pivot}},
         ["sample", "--family", "q", "--params", "{q.json}", "--n", "5", "--out", "{dir}/x.csv", "--sigma", "1,1"],
         EXIT_DOMAIN)
        for pivot in (0, 3)
    ],
    ("newton-target-of-another-size", {"p.json": P2, "t.json": Q3["y"]},
     ["eval", "--what", "inverse-mean", "--family", "p", "--params", "{p.json}", "--point", "{t.json}"],
     EXIT_DOMAIN),
    ("newton-target-outside-P", {"p.json": P2, "t.json": {"n": 2, "diag": [1.0, -1.0], "off": [0.0]}},
     ["eval", "--what", "inverse-mean", "--family", "p", "--params", "{p.json}", "--point", "{t.json}"],
     EXIT_DOMAIN),
]
#: The error line of a contract case, where the case pins it.
CONTRACT_ERRORS = {
    "sample-sigma-pivot-0": "error: pivot M=0 out of range 1..2\n",
    "sample-sigma-pivot-3": "error: pivot M=3 out of range 1..2\n",
    "newton-target-of-another-size": "error: size mismatch\n",
    "orders-40-vertices": "error: a chain of 40 vertices has 2^39 eliminating orders; "
                          "at most 16 vertices (2^15 orders) are enumerated\n",
    "eval-variance-p-at-point-outside-P":
        "error: target is not positive definite: leading principal minor 2 (pivot -1) is not positive\n",
    "newton-target-outside-P": "error: target is not positive definite: leading principal minor 2 (pivot -1) is not positive\n",
}


@pytest.mark.parametrize("case, files, argv, code", CONTRACT, ids=[c[0] for c in CONTRACT])
def test_cli_exit_code_contract(tmp_path, capsys, case, files, argv, code):
    names = {"dir": str(tmp_path)}
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        names[name] = str(path)
    for key, value in names.items():
        argv = [a.replace("{" + key + "}", value) for a in argv]
    rc = main(argv)  # an exception escaping here is the traceback the contract forbids
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert rc in {0, 2, 3, 4, 5, 6}
    assert rc == code
    if code:
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()
    if case in CONTRACT_ERRORS:
        assert err == CONTRACT_ERRORS[case]
    if case in NEWTON_SCALES:
        got = IncompleteSym.from_json_dict(json.loads(out)["inverse_mean"])
        want = NEWTON_SCALES[case] * IncompleteSym.from_json_dict(P2["x"])
        np.testing.assert_allclose(got.coords(), want.coords(), rtol=1e-8)


def test_newton_past_the_double_range_prints_one_line(tmp_path):
    # in a fresh process, so that no warning filter hides a numpy RuntimeWarning line
    argv = [sys.executable, "-m", "chainwishart.cli", "eval", "--what", "inverse-mean", "--family", "p",
            "--params", _write(tmp_path / "p.json", P2),
            "--point", _write(tmp_path / "t.json", (1e-310 * P2_MEAN).to_json_dict())]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == EXIT_DOMAIN
    assert done.stderr.splitlines() == [
        "error: the inverse mean is outside the double range: it has degree -1 in y"
    ]


@pytest.mark.parametrize("sigma", ["1.5,1", "2,x", ""])
def test_a_non_integer_sigma_is_a_malformed_argument(tmp_path, capsys, sigma):
    params = q_params(tmp_path)
    with pytest.raises(SystemExit) as done:
        main(["sample", "--family", "q", "--params", params, "--out", str(tmp_path / "x.csv"), "--sigma", sigma])
    assert done.value.code == 2
    assert "argument --sigma" in capsys.readouterr().err
