import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwishart import _formats
from chainwishart._formats import CSV_BLOCK_VALUES
from chainwishart.lum_triangular import decompose
from chainwishart.matrix_spaces import (
    ConeError,
    IncompleteSym,
    TridiagSym,
    assert_in_P,
    assert_in_Q,
    hat_completion,
    inverse_image,
    is_in_P,
    is_in_Q,
    lauritzen_map,
    leading_log_minors,
    pairing,
    project_pi,
)

from _gen import random_pd_tridiag, random_q_elem


def leading_minors(y):
    """Plain-scale leading minors by the continuant recurrence (test oracle)."""
    out = np.empty(y.n)
    prev2, prev1 = 1.0, y.diag[0]
    out[0] = prev1
    for i in range(1, y.n):
        prev2, prev1 = prev1, y.diag[i] * prev1 - y.off[i - 1] ** 2 * prev2
        out[i] = prev1
    return out


def trailing_minors(y):
    return leading_minors(TridiagSym(y.n, y.diag[::-1], y.off[::-1]))[::-1]


@st.composite
def pd_tridiag(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    d = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    sub = draw(st.lists(st.floats(-0.8, 0.8), min_size=n - 1, max_size=n - 1))
    diag = np.array(d) ** 2
    diag[1:] += np.array(sub) ** 2
    return TridiagSym(n, diag, np.array(sub) * np.array(d[:-1]))


def test_project_pi_examples():
    assert project_pi(np.eye(3)).allclose(IncompleteSym(3, [1, 1, 1], [0, 0]))
    x = project_pi(np.ones((3, 3)))
    assert x.allclose(IncompleteSym(3, [1, 1, 1], [1, 1]))
    y = TridiagSym(4, [1, 2, 3, 4], [0.1, 0.2, 0.3])
    assert project_pi(y.to_dense()).coords() == pytest.approx(y.coords())


def test_is_in_P_examples():
    assert is_in_P(TridiagSym(2, [1, 1], [0]))
    assert is_in_P(TridiagSym(2, [2, 1], [1]))
    assert not is_in_P(TridiagSym(2, [1, 1], [2]))
    with pytest.raises(ConeError, match="minor 2"):
        assert_in_P(TridiagSym(2, [1, 1], [2]))


# (off-diagonal of a unit-diagonal y with an exact zero pivot, pivot M, the minor named)
ZERO_PIVOTS = [
    ([1, 0], 3, "leading principal minor 2"),
    ([1, 0], 2, "the determinant"),
    ([1, 0], 1, "the determinant"),
    ([0, 1], 3, "leading principal minor 3"),
    ([0, 1], 2, "the determinant"),
    ([0, 1], 1, "trailing principal minor 2..3"),
    ([1, 0, 0], 3, "leading principal minor 2"),
    ([0, 0, 1], 2, "trailing principal minor 3..4"),
]


@pytest.mark.parametrize("off, M, minor", ZERO_PIVOTS)
def test_a_zero_pivot_is_a_cone_error_naming_its_minor(off, M, minor):
    y = TridiagSym(len(off) + 1, np.ones(len(off) + 1), off)
    assert not is_in_P(y)
    with pytest.raises(ConeError, match=re.escape(f"y is not positive definite: {minor} (pivot 0)")):
        decompose(y, M)


@st.composite
def members_and_clear_non_members(draw):
    """``(y, member)`` with ``y`` scaled by up to 10^+-300.

    Members are diagonally dominant by at least 0.01 (diagonal at most 4).  A
    non-member has a negative diagonal entry or a clique block with
    determinant ``-1.25`` times its diagonal product; every pivot order meets
    either with a pivot far below zero.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    off = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1)))
    slack = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
    diag = slack + np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0])
    kinds = ["member", "negative diagonal entry"] + (["indefinite clique block"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    if kind == "negative diagonal entry":
        diag[k] = -slack[k]
    elif kind == "indefinite clique block":
        k = min(k, n - 2)
        off[k] = 1.5 * math.sqrt(diag[k] * diag[k + 1])
    c = 10.0 ** draw(st.floats(-300.0, 300.0))
    return c * TridiagSym(n, diag, off), kind == "member"


@settings(deadline=None, max_examples=150)
@given(members_and_clear_non_members())
def test_every_pivot_order_decides_membership_alike(case):
    y, member = case
    assert is_in_P(y) == member
    for M in range(1, y.n + 1):
        if member:
            decompose(y, M)
        else:
            with pytest.raises(ConeError):
                decompose(y, M)


def test_is_in_Q_examples():
    assert is_in_Q(IncompleteSym(3, [1, 1, 1], [0, 0]))
    assert not is_in_Q(IncompleteSym(3, [1, 2, 1], [-1, 1.5]))
    assert is_in_Q(IncompleteSym(2, [1, 2], [-1]))
    assert not is_in_Q(IncompleteSym(1, [-1], []))
    with pytest.raises(ConeError, match=r"\(2,3\)"):
        assert_in_Q(IncompleteSym(3, [1, 2, 1], [-1, 1.5]))


def test_pairing_examples():
    y = TridiagSym(3, [1, 1, 1], [0, 0])
    x = IncompleteSym(3, [1, 1, 1], [0, 0])
    assert pairing(y, x) == 3.0
    y2 = TridiagSym(2, [2, 1], [1])
    x2 = IncompleteSym(2, [1, 2], [-1])
    assert pairing(y2, x2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        pairing(y, x2)


def test_pairing_trace_identity():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        y = random_pd_tridiag(rng, n)
        assert pairing(y, inverse_image(y)) == pytest.approx(n, rel=1e-12)


def test_inverse_image_examples():
    y = TridiagSym(2, [2, 1], [1])
    x = inverse_image(y)
    assert x.allclose(IncompleteSym(2, [1, 2], [-1]), rtol=1e-12)
    assert is_in_Q(x)
    with pytest.raises(ConeError):
        inverse_image(TridiagSym(2, [1, 1], [2]))


def test_lauritzen_examples():
    x = IncompleteSym(3, [1, 1, 1], [0, 0])
    assert lauritzen_map(x).allclose(TridiagSym(3, [1, 1, 1], [0, 0]))
    x2 = IncompleteSym(2, [1, 2], [-1])
    assert lauritzen_map(x2).allclose(TridiagSym(2, [2, 1], [1]), rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(pd_tridiag())
def test_bijection_round_trips(y):
    x = inverse_image(y)
    back = lauritzen_map(x)
    assert np.allclose(back.coords(), y.coords(), rtol=1e-9, atol=1e-9)
    # and the other composition, starting on the dual side
    x2 = inverse_image(back)
    assert np.allclose(x2.coords(), x.coords(), rtol=1e-9, atol=1e-9)


def test_hat_completion_examples():
    x = IncompleteSym(3, [1, 1, 1], [0, 0])
    assert np.allclose(hat_completion(x), np.eye(3))
    x2 = IncompleteSym(3, [1, 1, 1], [0.5, 0.5])
    h = hat_completion(x2)
    # completed corner from the between-vertex regression, m12 * m22^{-1} * m23
    assert h[0, 2] == pytest.approx(0.25, rel=1e-12)


def test_hat_completion_properties():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = random_q_elem(rng, n)
        h = hat_completion(x)
        assert np.allclose(np.diag(h), x.diag, rtol=1e-9, atol=1e-10)
        assert np.allclose(np.diag(h, 1), x.off, rtol=1e-9, atol=1e-10)
        evals = np.linalg.eigvalsh(h)
        assert np.min(evals) > 0
        k = np.linalg.inv(h)
        if n >= 3:
            assert np.max(np.abs(np.triu(k, 2))) < 1e-10 * np.max(np.abs(k))


def test_leading_minors_examples():
    assert leading_minors(TridiagSym(3, [1, 1, 1], [0, 0])) == pytest.approx([1, 1, 1])
    assert leading_minors(TridiagSym(2, [2, 1], [1])) == pytest.approx([2, 1])
    assert trailing_minors(TridiagSym(2, [2, 1], [1])) == pytest.approx([1, 1])


def test_minors_match_dense_determinants():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        y = random_pd_tridiag(rng, n)
        yd = y.to_dense()
        lead = leading_minors(y)
        trail = trailing_minors(y)
        for i in range(1, n + 1):
            assert lead[i - 1] == pytest.approx(np.linalg.det(yd[:i, :i]), rel=1e-12)
            assert trail[i - 1] == pytest.approx(np.linalg.det(yd[i - 1 :, i - 1 :]), rel=1e-12)
        assert np.allclose(np.exp(leading_log_minors(y)), lead, rtol=1e-10)


def test_log_minors_reject_non_pd():
    with pytest.raises(ConeError):
        leading_log_minors(TridiagSym(2, [1, 1], [2]))


def test_disconnected_minor_factorizes():
    # |y_{{i:j} u {k:m}}| = |y_{i:j}| |y_{k:m}| whenever the intervals are separated
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(5, 10))
        y = random_pd_tridiag(rng, n)
        yd = y.to_dense()
        i = int(rng.integers(1, n - 3))
        j = int(rng.integers(i, n - 3))
        k = int(rng.integers(j + 2, n))
        m = int(rng.integers(k, n + 1))
        idx = list(range(i, j + 1)) + list(range(k, m + 1))
        sub = yd[np.ix_([t - 1 for t in idx], [t - 1 for t in idx])]
        lhs = np.linalg.det(sub)
        rhs = np.linalg.det(yd[i - 1 : j, i - 1 : j]) * np.linalg.det(yd[k - 1 : m, k - 1 : m])
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_clique_cofactor_identity():
    # with x = pi(y^{-1}):  |x_{i,i+1}| = |y_{V \ {i,i+1}}| / |y|
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        y = random_pd_tridiag(rng, n)
        yd = y.to_dense()
        x = inverse_image(y)
        dets = x.clique_dets()
        full = np.linalg.det(yd)
        for i in range(1, n):
            rest = [t for t in range(1, n + 1) if t not in (i, i + 1)]
            num = np.linalg.det(yd[np.ix_([t - 1 for t in rest], [t - 1 for t in rest])]) if rest else 1.0
            assert dets[i - 1] == pytest.approx(num / full, rel=1e-9)


def test_json_round_trip_bitwise():
    rng = np.random.default_rng(5)
    y = random_pd_tridiag(rng, 6)
    d = json.loads(json.dumps(y.to_json_dict()))
    back = TridiagSym.from_json_dict(d)
    assert np.array_equal(back.diag, y.diag)
    assert np.array_equal(back.off, y.off)
    x = random_q_elem(rng, 6)
    back_x = IncompleteSym.from_json_dict(json.loads(json.dumps(x.to_json_dict())))
    assert np.array_equal(back_x.coords(), x.coords())


@pytest.mark.parametrize("cls", [TridiagSym, IncompleteSym])
def test_json_size_must_be_an_integral_number(cls):
    d = {"n": 2, "diag": [1.0, 1.0], "off": [0.1]}
    assert cls.from_json_dict({**d, "n": 2.0}).n == 2
    for bad in (2.9, True, "2"):
        with pytest.raises(TypeError):
            cls.from_json_dict({**d, "n": bad})


@pytest.mark.parametrize("cls", [TridiagSym, IncompleteSym])
def test_size_is_checked_as_an_integral_number_at_construction(cls):
    two = cls(2.0, [1.0, 1.0], [0.0])
    assert type(two.n) is int and two.to_json_dict()["n"] == 2
    for bad in (2.5, True, "2"):
        with pytest.raises(TypeError, match="n must be an integral number"):
            cls(bad, [1.0] * 2, [0.0])


def test_coords_round_trip_and_arithmetic():
    y = TridiagSym(3, [1, 2, 3], [0.5, -0.5])
    assert TridiagSym.from_coords(y.coords()).allclose(y)
    z = y + y
    assert z.allclose(2.0 * y)
    assert (-y).allclose(-1.0 * y)
    with pytest.raises(ValueError):
        TridiagSym(3, [1, 2], [0.5, -0.5])


def test_dense_csv_round_trip(tmp_path):
    from chainwishart.matrix_spaces import dense_from_csv, dense_to_csv

    rng = np.random.default_rng(6)
    a = rng.uniform(-2, 2, (4, 4))
    a = (a + a.T) / 2.0
    path = tmp_path / "m.csv"
    dense_to_csv(str(path), a)
    back = dense_from_csv(str(path))
    assert np.array_equal(back, a)


@pytest.mark.parametrize("block_values", [4, 1 << 16])
def test_csv_writer_round_trips_edge_values_exactly(tmp_path, monkeypatch, block_values):
    from chainwishart import _formats
    from chainwishart.matrix_spaces import dense_from_csv, dense_to_csv

    monkeypatch.setattr(_formats, "CSV_BLOCK_VALUES", block_values)
    edge = [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308, -2.2250738585072014e-308]
    a = np.array([edge, [0.1, -1.0 / 3.0, np.pi, 2.0**-1074, -1e300, 123456789.0]] * 3)
    path = tmp_path / "edge.csv"
    dense_to_csv(str(path), a)
    back = dense_from_csv(str(path))
    assert np.array_equal(back, a)
    assert np.array_equal(np.signbit(back), np.signbit(a))


def _percent_g_csv(a):
    """The writer's specification: each value as ``%.17g``, "," between, "\\n" after each row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in a.tolist())


def _csv_text(a, block_values):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_formats, "CSV_BLOCK_VALUES", block_values)
        f = io.StringIO()
        _formats._write_csv_rows(f, a)
    return f.getvalue()


def _ulps_around(x, count):
    """``x`` and the ``count`` doubles on each side of it."""
    out = [x]
    lo = hi = x
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def _csv_grid():
    rng = np.random.default_rng(20261019)
    pows = np.array([float(f"1e{e}") for e in range(-6, 19)])
    near = np.concatenate([pows, np.nextafter(pows, 0), np.nextafter(pows, np.inf)])
    # the fast set is [1e-4, 1e16): its edges, from both sides
    edges = _ulps_around(1e-4, 40) + _ulps_around(1e16, 40) + [9.9999999999999995e-05, 9999999999999998.0]
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False).view(np.float64)
    lo, hi = np.array([1e-4, 1e16]).view(np.int64)
    fast = rng.integers(lo, hi, 10**5).view(np.float64) * rng.choice([-1.0, 1.0], 10**5)
    signed = lambda v: np.concatenate([np.asarray(v, dtype=float), -np.asarray(v, dtype=float)])
    return {
        "powers-of-ten": signed(near).reshape(-1, 6),
        "fast-set-edges": signed(edges).reshape(-1, 2),
        "integers-near-1e16": (1e16 + np.arange(-5000.0, 5001.0)).reshape(-1, 1),
        "special": np.array([special, special[::-1]]),
        "random-bits": bits.reshape(-1, 50),
        "random-fast-set": fast.reshape(-1, 50),
        "zero-rows": np.zeros((0, 3)),
        "one-column": signed(near).reshape(-1, 1),
    }


CSV_GRID = _csv_grid()


@pytest.mark.parametrize("block_values", [4, CSV_BLOCK_VALUES])
@pytest.mark.parametrize("case", list(CSV_GRID))
def test_csv_writer_is_byte_identical_to_percent_g_on_a_grid(case, block_values):
    # the random cases span several default blocks, and at 4 values a block every row straddles blocks
    a = CSV_GRID[case]
    assert _csv_text(a, block_values) == _percent_g_csv(a)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 60).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=cols, max_size=cols),
            min_size=1, max_size=8,
        )
    ),
    st.sampled_from([4, CSV_BLOCK_VALUES]),
)
def test_csv_writer_is_byte_identical_to_percent_g_on_any_doubles(rows, block_values):
    a = np.array(rows, dtype=float)
    assert _csv_text(a, block_values) == _percent_g_csv(a)


def test_tridiag_submatrix():
    y = TridiagSym(4, [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3])
    sub = y.submatrix(2, 4)
    assert sub.diag == pytest.approx([2.0, 3.0, 4.0])
    assert sub.off == pytest.approx([0.2, 0.3])
    assert np.allclose(sub.to_dense(), y.to_dense()[1:, 1:])
    with pytest.raises(ValueError):
        y.submatrix(3, 2)
