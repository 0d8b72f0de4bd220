"""The benchmark's workloads: fixed call lists built from a seed.

Each workload is a list of :class:`Call` objects, run in order by one client
in one process (the ``cli`` workload starts one child process at a time).
Every call carries a check that runs outside the timed region; a call fails
when it raises or when its result fails the check.  Calls marked ``known``
are scale probes for defects documented in ROADMAP.md: they fail on the seed
with the named exception type, which is counted but expected.

Sizes are fixed by the workload; the seed draws the values (natural
parameters, shapes, test points) and the samplers' random streams.  Pivots
are fixed at ``M = (n + 1) // 2`` so that the cost of a call does not depend
on the seed.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

from chainwishart import (
    chain_graph,
    letac_massam,
    lum_triangular,
    matrix_spaces,
    power_functions,
    wishart_p,
    wishart_q,
)
from chainwishart.matrix_spaces import ConeError, IncompleteSym, TridiagSym, pairing
from chainwishart.power_functions import ShapeParams

#: Relative tolerance of every identity checked here (the repo's identity policy).
REL = 1e-9

#: Seed of ``chainwishart verify`` in the ``cli`` workload.  The suites are
#: Monte-Carlo tests with 4-standard-error envelopes, so a few benchmark seeds
#: would trip them by chance; their run time does not depend on the seed.
VERIFY_SEED = 20260810

WORKLOADS = ("draw", "closed-form", "cli")

Check = Callable[[Any], Optional[str]]


@dataclass
class Call:
    """One timed call into a layer.

    ``size`` is ``"small"`` for n <= 10, ``"large"`` for n >= 100 and the scale
    probes, and ``"mid"`` otherwise.
    """

    op: str
    n: int
    size: str
    run: Callable[[], Any]
    check: Check
    known: tuple = ()
    draws: int = 0
    group: str = ""
    inproc: Optional[Callable[[], Any]] = None

    @property
    def label(self) -> str:
        kind = "probe " if self.known else ""
        return f"{kind}{self.op}[n={self.n}]"


@dataclass
class Workload:
    name: str
    calls: list[Call]
    warmup: list[Call]
    outputs: list[Path] = field(default_factory=list)


#: One finished call: (index into ``calls``, seconds, failure reason or None,
#: whether the failure is the documented defect of a probe).
Outcome = tuple[int, float, Optional[str], bool]


def run_pass(calls: list[Call], inproc: bool = False, tracer=None) -> list[Outcome]:
    """Run every call once; time the call alone and check its result afterwards."""
    out: list[Outcome] = []
    for i, c in enumerate(calls):
        fn = c.inproc if inproc and c.inproc is not None else c.run
        span = tracer.begin("bench.call", tag=i) if tracer is not None else None
        result = None
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as e:  # a failed call is an outcome, not a crash
            dt = perf_counter() - t0
            # keep no reference to ``e``: its traceback holds every frame of the call
            reason = f"{type(e).__name__}: {str(e)[:160]}"
            known = bool(c.known) and isinstance(e, c.known)
        else:
            dt = perf_counter() - t0
            reason, known = None, False
        if tracer is not None:
            tracer.end(span, failed=reason is not None)
        if reason is None:
            try:
                reason = c.check(result)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
        out.append((i, dt, reason, known))
        del result
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _pd(gen: np.random.Generator, n: int) -> TridiagSym:
    # T T' with a positive bidiagonal factor: always in P, modestly conditioned
    d = gen.uniform(0.7, 1.5, size=n)
    sub = gen.uniform(-0.6, 0.6, size=n - 1)
    diag = d**2
    diag[1:] += sub**2
    return TridiagSym(n, diag, sub * d[:-1])


def _q(gen: np.random.Generator, n: int) -> IncompleteSym:
    d = gen.uniform(0.5, 2.0, size=n)
    rho = gen.uniform(-0.7, 0.7, size=n - 1)
    return IncompleteSym(n, d, rho * np.sqrt(d[:-1] * d[1:]))


def _pivot(n: int) -> int:
    return (n + 1) // 2


@dataclass
class _Family:
    """Both families at one chain length, plus test points drawn beside them."""

    n: int
    M: int
    y: TridiagSym
    wq: wishart_q.WishartQ
    x: IncompleteSym
    wp: wishart_p.WishartP

    @classmethod
    def make(cls, gen: np.random.Generator, n: int) -> "_Family":
        M = _pivot(n)
        y, x = _pd(gen, n), _q(gen, n)
        pq = ShapeParams(M, gen.uniform(0.8, 2.5, size=n))
        pp = ShapeParams(M, gen.uniform(0.0, 1.5, size=n))
        return cls(n, M, y, wishart_q.WishartQ(pq, y), x, wishart_p.WishartP(pp, x))

    @property
    def deg_q(self) -> float:
        return power_functions.homogeneity_degree(self.wq.params)

    @property
    def deg_p(self) -> float:
        """``<mean_p, x>``: minus the degree of the P-side Laplace transform."""
        cliq, diag = wishart_p.riesz_p_exponents(self.wp.params.s, self.M)
        return -float(2.0 * cliq.sum() + diag.sum())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _close(got: float, want: float, what: str) -> Optional[str]:
    err = _rel_err(got, want)
    return None if err <= REL else f"{what}: {got!r} vs {want!r} (rel err {err:.2e})"


def _close_vec(got: np.ndarray, want: np.ndarray, what: str) -> Optional[str]:
    err = float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)
    return None if err <= REL else f"{what}: rel err {err:.2e}"


#: A clique determinant counts as positive down to the rounding of its terms.
#: The Q sampler draws the pivot coordinate from a gamma law with shape
#: s_i - 1/2, which can fall below the rounding of x_ii (about once in 10^5
#: draws here); the stored 2x2 block then sits on the boundary within a few
#: ulps, and a plain ``> 0`` test would report a correct draw as outside Q.
ROUND = 8 * np.finfo(float).eps


def _rows_in_q(rows: np.ndarray, n: int) -> np.ndarray:
    d, o = rows[:, :n], rows[:, n:]
    prod = d[:, :-1] * d[:, 1:]
    return np.all(d > 0, axis=1) & np.all(prod - o**2 > -ROUND * prod, axis=1)


def _rows_in_p(rows: np.ndarray, n: int) -> np.ndarray:
    d, o = rows[:, :n], rows[:, n:]
    piv = d[:, 0].copy()
    ok = piv > 0
    for i in range(1, n):
        piv = d[:, i] - o[:, i - 1] ** 2 / np.where(ok, piv, 1.0)
        ok &= piv > 0
    return ok


def _draws_check(cone: str, n: int, size: int) -> Check:
    in_cone = _rows_in_q if cone == "Q" else _rows_in_p

    def check(rows: np.ndarray) -> Optional[str]:
        if rows.shape != (size, 2 * n - 1):
            return f"shape {rows.shape}, want {(size, 2 * n - 1)}"
        if not np.all(np.isfinite(rows)):
            return "non-finite draw"
        bad = int(np.count_nonzero(~in_cone(rows, n)))
        return None if bad == 0 else f"{bad} of {size} draws outside {cone}"

    return check


def _in_p(v: TridiagSym) -> Optional[str]:
    return None if matrix_spaces.is_in_P(v) else "result outside P"


def _in_q(v: IncompleteSym) -> Optional[str]:
    return None if matrix_spaces.is_in_Q(v) else "result outside Q"


def _finite(v: float) -> Optional[str]:
    return None if np.isfinite(v) else f"non-finite value {v!r}"


def _laplace_check(v: float) -> Optional[str]:
    # E exp(-<z, X>) <= 1 whenever <z, X> > 0, i.e. z in the cone dual to X's
    return _finite(v) or (None if v <= 0.0 else f"log Laplace {v!r} > 0")


def _moment3(k: float) -> float:
    # <X, y> ~ Gamma(k) when the Laplace transform scales as (1 + t)^-k
    return k * (k + 1.0) * (k + 2.0)


def _symmetric_form(v: np.ndarray, n: int) -> Optional[str]:
    form = np.concatenate([np.ones(n), 2.0 * np.ones(n - 1)])[:, None] * v
    err = float(np.max(np.abs(form - form.T))) / float(np.max(np.abs(form)))
    return None if err <= REL else f"covariance form asymmetric (rel {err:.2e})"


def _pi_equals(target: IncompleteSym) -> Check:
    def check(dense: np.ndarray) -> Optional[str]:
        band = matrix_spaces.project_pi(dense).coords()
        return _close_vec(band, target.coords(), "pi(result) vs m")

    return check


def _first(*reasons: Optional[str]) -> Optional[str]:
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# draw: library sampling
# ---------------------------------------------------------------------------


def _sampler_calls(fam: _Family, gen_seed: list[int], size: int, klass: str) -> list[Call]:
    n, M, y = fam.n, fam.M, fam.y
    rq, rp, rg = (np.random.default_rng([*gen_seed, k]) for k in range(3))
    sigma = np.zeros(n, dtype=int)
    sigma[[0, M - 1, n - 1]] = (1, 2, 1)
    ydense = y.to_dense()
    scale = float(np.max(np.abs(ydense)))

    def factor_check(t: lum_triangular.LUMMatrix) -> Optional[str]:
        td = t.to_dense()
        err = float(np.max(np.abs(td @ td.T - ydense))) / scale
        return None if err <= REL else f"T T' differs from y (rel {err:.2e})"

    return [
        Call("wishart_q.sample_many", n, klass, lambda: wishart_q.sample_many(fam.wq, rq, size),
             _draws_check("Q", n, size), draws=size),
        Call("wishart_p.sample_p_many", n, klass, lambda: wishart_p.sample_p_many(fam.wp, rp, size),
             _draws_check("P", n, size), draws=size),
        Call("wishart_q.sample_quadratic_many", n, klass,
             lambda: wishart_q.sample_quadratic_many(sigma, M, y, rg, size),
             _draws_check("Q", n, size), draws=size),
        Call("lum_triangular.decompose", n, klass, lambda: lum_triangular.decompose(y, M),
             factor_check),
    ]


def _sampler_probes(fam: _Family, gen_seed: list[int], size: int) -> list[Call]:
    # Known defect: the recursive samplers recurse once per vertex, past
    # Python's recursion limit at n = 1500.
    n = fam.n
    rq, rp = (np.random.default_rng([*gen_seed, k]) for k in range(2))
    return [
        Call("wishart_q.sample_many", n, "large", lambda: wishart_q.sample_many(fam.wq, rq, size),
             _draws_check("Q", n, size), known=(RecursionError,), draws=size),
        Call("wishart_p.sample_p_many", n, "large",
             lambda: wishart_p.sample_p_many(fam.wp, rp, size),
             _draws_check("P", n, size), known=(RecursionError,), draws=size),
    ]


def build_draw(seed: int, tiny: bool = False) -> Workload:
    gen = np.random.default_rng([seed, 0])
    reps, small_draws = (2, 16) if tiny else (200, 16)
    # 500 draws at n = 300: the recursive samplers allocate every level's
    # (size, k) arrays at once, which keeps 1.4 GB resident at 2000 draws
    mid_draws, large_draws, probe_draws = (50, 20, 16) if tiny else (2000, 500, 16)
    fams = {n: _Family.make(gen, n) for n in (3, 10, 30, 300, 1500)}
    small = {n: _sampler_calls(fams[n], [seed, 1, n], small_draws, "small") for n in (3, 10)}
    calls = [c for _ in range(reps) for n in (3, 10) for c in small[n]]
    calls += _sampler_calls(fams[30], [seed, 1, 30], mid_draws, "mid")
    calls += _sampler_calls(fams[300], [seed, 1, 300], large_draws, "large")
    calls += _sampler_probes(fams[1500], [seed, 1, 1500], probe_draws)
    return Workload("draw", calls, calls)


# ---------------------------------------------------------------------------
# closed-form: evaluation
# ---------------------------------------------------------------------------


def _small_eval_calls(fam: _Family, gen: np.random.Generator) -> list[Call]:
    n, w, wp_, y, x = fam.n, fam.wq, fam.wp, fam.y, fam.x
    p = w.params
    m = wishart_q.mean(w)
    x_pt, z_pt = _q(gen, n), _pd(gen, n)  # density point in Q, Laplace point in P
    y_pt, th_pt = _pd(gen, n), _q(gen, n)
    lm = letac_massam.sM_to_lm(p)
    deg_q, deg_p = fam.deg_q, fam.deg_p
    spec = wishart_q.MomentSpec([y, y, y])

    def same_shape(q: Optional[ShapeParams]) -> Optional[str]:
        if q is None or q.M != p.M:
            return "pivot form not recovered"
        return _close_vec(q.s, p.s, "recovered shape")

    return [
        Call("wishart_q.log_density", n, "small", lambda: wishart_q.log_density(w, x_pt), _finite),
        Call("wishart_q.log_laplace", n, "small", lambda: wishart_q.log_laplace(w, z_pt),
             _laplace_check),
        Call("wishart_q.mean", n, "small", lambda: wishart_q.mean(w),
             lambda r: _first(_in_q(r), _close(pairing(y, r), deg_q, "<y, mean>"))),
        Call("wishart_q.inverse_mean", n, "small", lambda: wishart_q.inverse_mean(p, m),
             lambda r: _close_vec(r.coords(), y.coords(), "inverse_mean(mean(y)) vs y")),
        Call("wishart_q.moment", n, "small", lambda: wishart_q.moment(w, spec),
             lambda r: _close(r, _moment3(deg_q), "E<X, y>^3")),
        Call("wishart_p.log_density_p", n, "small", lambda: wishart_p.log_density_p(wp_, y_pt),
             _finite),
        Call("wishart_p.log_laplace_p", n, "small", lambda: wishart_p.log_laplace_p(wp_, th_pt),
             _laplace_check),
        Call("wishart_p.mean_p", n, "small", lambda: wishart_p.mean_p(wp_),
             lambda r: _first(_in_p(r), _close(pairing(r, x), deg_p, "<mean_p, x>"))),
        Call("wishart_p.moment_p", n, "small", lambda: wishart_p.moment_p(wp_, [x, x, x]),
             lambda r: _close(r, _moment3(deg_p), "E<Y, x>^3")),
        Call("letac_massam.sM_to_lm", n, "small", lambda: letac_massam.sM_to_lm(p),
             lambda r: same_shape(letac_massam.lm_to_sM(r))),
        Call("letac_massam.lm_to_sM", n, "small", lambda: letac_massam.lm_to_sM(lm), same_shape),
    ]


def _dense_calls(fam: _Family, gen: np.random.Generator, klass: str) -> list[Call]:
    n, w, y = fam.n, fam.wq, fam.y
    p = w.params
    m = wishart_q.mean(w)
    u = _pd(gen, n)
    um = pairing(u, m)  # <y, V u> = <u, V y> = <u, m>: V is symmetric and V y = m(y)
    deg = fam.deg_q

    def covariance_check(r: IncompleteSym) -> Optional[str]:
        return _close(pairing(y, r), um, "<y, V u> vs <u, m>")

    return [
        Call("wishart_q.mean", n, klass, lambda: wishart_q.mean(w),
             lambda r: _first(_in_q(r), _close(pairing(y, r), deg, "<y, mean>"))),
        Call("wishart_q.covariance_apply", n, klass, lambda: wishart_q.covariance_apply(w, u),
             covariance_check),
        Call("wishart_q.variance_apply_nice", n, klass,
             lambda: wishart_q.variance_apply_nice(p, m, u), covariance_check),
        Call("wishart_q.variance_apply_expanded", n, klass,
             lambda: wishart_q.variance_apply_expanded(p, m, u), covariance_check),
        Call("matrix_spaces.hat_completion", n, klass, lambda: matrix_spaces.hat_completion(m),
             _pi_equals(m)),
        Call("lum_triangular.hat_via_T", n, klass, lambda: lum_triangular.hat_via_T(p, m),
             _pi_equals(m)),
        Call("matrix_spaces.inverse_image", n, klass, lambda: matrix_spaces.inverse_image(y),
             lambda r: _first(_in_q(r), _close(pairing(y, r), float(n), "<y, pi(y^-1)>"))),
    ]


def _linear_calls(fam: _Family, gen: np.random.Generator) -> list[Call]:
    # Closed forms that are O(n) on the seed, at a size where dense ones cannot run.
    n, w, wp_, y, x = fam.n, fam.wq, fam.wp, fam.y, fam.x
    p = w.params
    x_pt, z_pt, m_pt = _q(gen, n), _pd(gen, n), _q(gen, n)
    y_pt, th_pt, u_pt = _pd(gen, n), _q(gen, n), _q(gen, n)
    mean_p = wishart_p.mean_p(wp_)
    u_mean = pairing(mean_p, u_pt)  # <V u, x> = <mean_p, u> on the P side
    deg_q, deg_p = fam.deg_q, fam.deg_p
    return [
        Call("wishart_q.log_density", n, "large", lambda: wishart_q.log_density(w, x_pt), _finite),
        Call("wishart_q.log_laplace", n, "large", lambda: wishart_q.log_laplace(w, z_pt),
             _laplace_check),
        # Euler's identity: <inverse_mean(m), m> is the homogeneity degree for any m in Q
        Call("wishart_q.inverse_mean", n, "large", lambda: wishart_q.inverse_mean(p, m_pt),
             lambda r: _first(_in_p(r), _close(pairing(r, m_pt), deg_q, "<inverse_mean(m), m>"))),
        Call("matrix_spaces.lauritzen_map", n, "large", lambda: matrix_spaces.lauritzen_map(m_pt),
             lambda r: _first(_in_p(r), _close(pairing(r, m_pt), float(n), "<lauritzen(m), m>"))),
        Call("wishart_p.mean_p", n, "large", lambda: wishart_p.mean_p(wp_),
             lambda r: _first(_in_p(r), _close(pairing(r, x), deg_p, "<mean_p, x>"))),
        Call("wishart_p.covariance_p_apply", n, "large",
             lambda: wishart_p.covariance_p_apply(wp_, u_pt),
             lambda r: _close(pairing(r, x), u_mean, "<V u, x> vs <mean_p, u>")),
        Call("wishart_p.log_density_p", n, "large", lambda: wishart_p.log_density_p(wp_, y_pt),
             _finite),
        Call("wishart_p.log_laplace_p", n, "large", lambda: wishart_p.log_laplace_p(wp_, th_pt),
             _laplace_check),
    ]


def _round_trip_probes(fam: _Family) -> list[Call]:
    # Known defect: the cone tests floor their tolerance scale at 1, so
    # membership changes under positive scaling.
    p = fam.wq.params
    out = []
    for c in (1e-12, 1e12):
        yc = c * fam.y
        out.append(Call(
            "wishart_q.inverse_mean", fam.n, "large",
            lambda yc=yc: wishart_q.inverse_mean(p, wishart_q.mean(wishart_q.WishartQ(p, yc))),
            lambda r, yc=yc: _close_vec(r.coords(), yc.coords(), "round trip vs c*y"),
            known=(ConeError,),
        ))
    return out


def build_closed_form(seed: int, tiny: bool = False) -> Workload:
    gen = np.random.default_rng([seed, 0])
    reps = 2 if tiny else 100
    n_orders, n_cov = (6, 5) if tiny else (14, 40)
    n_dense = (6, 12) if tiny else (60, 200)
    n_linear = 200 if tiny else 10_000
    small = {n: _small_eval_calls(_Family.make(gen, n), gen) for n in (3, 10)}
    calls = [c for _ in range(reps) for n in (3, 10) for c in small[n]]

    g = chain_graph.build_chain(n_orders)
    n_ord = 2 ** (n_orders - 1)
    calls.append(Call(
        "chain_graph.enumerate_eliminating_orders", n_orders, "mid",
        lambda: chain_graph.enumerate_eliminating_orders(g),
        lambda r: (None if len({o.sequence for o in r}) == n_ord == len(r)
                   else f"{len(r)} orders, want {n_ord}"),
    ))
    for n in n_dense:
        calls += _dense_calls(_Family.make(gen, n), gen, "large" if n >= 100 else "mid")
    fam = _Family.make(gen, n_cov)

    def symmetric(r: np.ndarray) -> Optional[str]:
        return _symmetric_form(r, n_cov)

    calls.append(Call("wishart_q.covariance_matrix", n_cov, "mid",
                      lambda: wishart_q.covariance_matrix(fam.wq), symmetric))
    calls.append(Call("wishart_p.covariance_p_matrix", n_cov, "mid",
                      lambda: wishart_p.covariance_p_matrix(fam.wp), symmetric))
    calls += _linear_calls(_Family.make(gen, n_linear), gen)
    calls += _round_trip_probes(_Family.make(gen, 10 if tiny else 100))
    return Workload("closed-form", calls, calls)


# ---------------------------------------------------------------------------
# cli: whole processes
# ---------------------------------------------------------------------------


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _csv_check(path: Path, n: int, draws: int, cone: str) -> Check:
    in_cone = _rows_in_q if cone == "Q" else _rows_in_p

    def check(result: tuple[int, str]) -> Optional[str]:
        code, _ = result
        if code != 0:
            return f"exit code {code}"
        rows = [ln for ln in path.read_bytes().splitlines() if ln and not ln.startswith(b"#")]
        if len(rows) != draws:
            return f"{len(rows)} CSV rows, want {draws}"
        ends = np.array([[float(v) for v in rows[k].split(b",")] for k in (0, -1)])
        if ends.shape[1] != 2 * n - 1 or not np.all(np.isfinite(ends)):
            return f"bad CSV row width {ends.shape[1]}"
        return None if np.all(in_cone(ends, n)) else f"CSV row outside {cone}"

    return check


def build_cli(seed: int, workdir: Path, src: Path, tiny: bool = False) -> Workload:
    from chainwishart import cli  # the in-process twin used by the traced run

    gen = np.random.default_rng([seed, 0])
    q_draws, p_draws, n_eval = (200, 20, 6) if tiny else (200_000, 5_000, 40)
    suite = "mean" if tiny else "all"
    workdir.mkdir(parents=True, exist_ok=True)

    def dump(name: str, obj: dict) -> str:
        path = workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    f3, f30, fe = _Family.make(gen, 3), _Family.make(gen, 30), _Family.make(gen, n_eval)
    q3 = dump("q3.json", {**f3.wq.params.to_json_dict(), "y": f3.y.to_json_dict()})
    p30 = dump("p30.json", {**f30.wp.params.to_json_dict(), "x": f30.x.to_json_dict()})
    qe = dump("qe.json", {**fe.wq.params.to_json_dict(), "y": fe.y.to_json_dict()})
    me = dump("me.json", wishart_q.mean(fe.wq).to_json_dict())
    sq, sp, var = workdir / "sample_q.csv", workdir / "sample_p.csv", workdir / "variance.csv"
    env = child_env(src)

    def process(argv: list[str]) -> Callable[[], tuple[int, str]]:
        def run() -> tuple[int, str]:
            r = subprocess.run(
                [sys.executable, "-m", "chainwishart.cli", *argv],
                cwd=src.parent, env=env, capture_output=True, text=True, timeout=170,
            )
            return r.returncode, r.stdout

        return run

    def in_process(argv: list[str]) -> Callable[[], tuple[int, str]]:
        def run() -> tuple[int, str]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return run

    def variance_check(result: tuple[int, str]) -> Optional[str]:
        if result[0] != 0:
            return f"exit code {result[0]}"
        mat = matrix_spaces.dense_from_csv(str(var))
        k = 2 * n_eval - 1
        if mat.shape != (k, k):
            return f"variance CSV shape {mat.shape}"
        return _symmetric_form(mat, n_eval)

    def inverse_mean_check(result: tuple[int, str]) -> Optional[str]:
        if result[0] != 0:
            return f"exit code {result[0]}"
        got = TridiagSym.from_json_dict(json.loads(result[1])["inverse_mean"])
        return _close_vec(got.coords(), fe.y.coords(), "inverse-mean vs y")

    def verify_check(result: tuple[int, str]) -> Optional[str]:
        if result[0] == 0:
            return None
        return f"exit code {result[0]}: {result[1].strip().splitlines()[-1:]}"

    def mean_check(result: tuple[int, str]) -> Optional[str]:
        if result[0] != 0:
            return f"exit code {result[0]}"
        got = IncompleteSym.from_json_dict(json.loads(result[1])["mean"])
        return _close(pairing(f3.y, got), f3.deg_q, "<y, mean>")

    def call(group: str, op: str, n: int, argv: list[str], check: Check, draws: int = 0) -> Call:
        return Call(op, n, "mid", process(argv), check,
                    draws=draws, group=group, inproc=in_process(argv))

    s = str(seed)
    calls = [
        call("sample", "cli.sample", 3,
             ["sample", "--family", "q", "--params", q3, "--n", str(q_draws), "--seed", s,
              "--out", str(sq)],
             _csv_check(sq, 3, q_draws, "Q"), q_draws),
        call("sample", "cli.sample", 30,
             ["sample", "--family", "p", "--params", p30, "--n", str(p_draws), "--seed", s,
              "--out", str(sp)],
             _csv_check(sp, 30, p_draws, "P"), p_draws),
        call("eval", "cli.eval", n_eval,
             ["eval", "--what", "variance", "--family", "q", "--params", qe, "--out", str(var)],
             variance_check),
        call("eval", "cli.eval", n_eval,
             ["eval", "--what", "inverse-mean", "--family", "q", "--params", qe, "--point", me],
             inverse_mean_check),
        call("verify", "cli.verify", 0,
             ["verify", "--suite", suite, "--seed", str(VERIFY_SEED)], verify_check),
    ]
    # Warm-up: one process that imports everything the CLI imports.
    warmup = [call("eval", "cli.eval", 3,
                   ["eval", "--what", "mean", "--family", "q", "--params", q3], mean_check)]
    return Workload("cli", calls, warmup, outputs=[sq, sp, var])


def build(name: str, seed: int, workdir: Path, src: Path, tiny: bool = False) -> Workload:
    if name == "draw":
        return build_draw(seed, tiny)
    if name == "closed-form":
        return build_closed_form(seed, tiny)
    if name == "cli":
        return build_cli(seed, workdir, src, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
