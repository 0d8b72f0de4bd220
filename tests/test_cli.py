import json
import subprocess
import sys

import numpy as np
import pytest

from chainwishart.cli import (
    EXIT_DOMAIN,
    EXIT_NO_CONVERSION,
    EXIT_NO_PIVOT,
    EXIT_NOT_MONOTONE,
    main,
    missing_statistic,
    parse_missing_csv,
)
from chainwishart.matrix_spaces import (
    CSV_BLOCK_VALUES,
    IncompleteSym,
    TridiagSym,
    dense_from_csv,
    inverse_image,
)
from chainwishart.power_functions import ShapeParams
from chainwishart.verification import stream_rng
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


@pytest.mark.parametrize("module", ["chainwishart", "chainwishart.cli"])
def test_import_loads_no_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_all_passes_without_scipy():
    code = (
        "import sys; from chainwishart.cli import main; "
        "rc = main(['verify', '--suite', 'all', '--seed', '20260810']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(rc)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[-2] == "31 checks, 0 failed"
    assert lines[-1] == "[]"


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
        expect = wp.sample_p_many(w, stream_rng(19), draws)
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


def test_eval_inverse_mean_p_newton(tmp_path, capsys):
    from chainwishart.power_functions import ShapeParams as SP

    x = {"n": 2, "diag": [1.0, 1.3], "off": [-0.2]}
    params = _write(tmp_path / "p.json", {"M": 1, "s": [0.2, -0.3], "x": x})
    from chainwishart.matrix_spaces import IncompleteSym as IS

    target = wp.mean_p(wp.WishartP(SP(1, [0.2, -0.3]), IS.from_json_dict(x)))
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
# the mean of P2 at c x is its mean at x over c, so Newton must return c x
P2_MEAN = wp.mean_p(wp.WishartP(ShapeParams.from_json_dict(P2), IncompleteSym.from_json_dict(P2["x"])))
NEWTON_SCALES = {"newton-target-at-1e-12": 1e-12, "newton-target-at-1e12": 1e12}

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
    ("eval-variance-at-point", {"q.json": Q2, "m.json": {"n": 2, "diag": [1.0, 2.0], "off": [0.3]}},
     ["eval", "--what", "variance", "--family", "q", "--params", "{q.json}", "--point", "{m.json}"], 0),
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
    ("lm-convert-none", {"lm.json": {"alpha": [1.0, 2.0, 3.0], "beta": [5.0, 4.0]}},
     ["lm-convert", "--direction", "lm-to-s", "--file", "{lm.json}"], EXIT_NO_CONVERSION),
    ("missing-stat-no-pivot", {"m.csv": "1.0,1.0,\n,,1.0\n"},
     ["missing-stat", "--file", "{m.csv}"], EXIT_NO_PIVOT),
]


@pytest.mark.parametrize("case, files, argv, code", CONTRACT, ids=[c[0] for c in CONTRACT])
def test_cli_exit_code_contract(tmp_path, capsys, case, files, argv, code):
    names = {"dir": str(tmp_path)}
    for name, content in files.items():
        path = tmp_path / name
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
        assert len(err.strip().splitlines()) == 1
    if case in NEWTON_SCALES:
        got = IncompleteSym.from_json_dict(json.loads(out)["inverse_mean"])
        want = NEWTON_SCALES[case] * IncompleteSym.from_json_dict(P2["x"])
        np.testing.assert_allclose(got.coords(), want.coords(), rtol=1e-8)
