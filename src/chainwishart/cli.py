"""Command-line front end: argument parsing, the subcommands and their exit codes.

Subcommands: ``sample``, ``eval``, ``orders``, ``lm-convert``,
``missing-stat``, ``verify``.  Banded matrices travel as JSON objects
``{"n": int, "diag": [...], "off": [...]}``; family parameters as
``{"M": int, "s": [...], "y": {...}}`` (dual-cone family) or with ``"x"``
(concentration-cone family); samples as CSV rows of ``2n - 1`` coordinates,
diagonal columns first, with ``#`` metadata lines recording seed and
parameters.  The formats live in :mod:`chainwishart._formats`, the
missing-data statistic in :mod:`chainwishart.wishart_q`; :func:`main` maps
their errors to exit codes.

Exit codes: 0 success; 1 verification failure; 2 parameter-domain or cone
violation (the diagnostic names the failed minor), a pivot outside ``1..n``,
a moment order above its cap of 6, a Newton inversion that cannot reach its
target, an ``orders`` chain above 16 vertices, or a result past the double
range; 3 I/O failure or a malformed input file (not UTF-8, a missing or
mistyped field, a fraction where an integer belongs, a non-finite cell); 4
inconvertible clique/separator parameters; 5 non-monotone missing-data
pattern; 6 no consistent pivot for a missing-data pattern.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import ModuleType
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from . import verification, wishart_p, wishart_q
from ._formats import (
    FormatError,
    PatternError,
    _write_csv,
    dense_to_csv,
    parse_missing_csv,
    read_json_object,
)
from .chain_graph import (
    build_chain,
    enumerate_eliminating_orders,
    enumerate_perfect_clique_orders,
    first_separator,
)
from .letac_massam import LMParams, lm_to_sM, sM_to_lm
from .matrix_spaces import TridiagSym, _pivot
from .power_functions import ShapeParams
from .wishart_q import PivotError, missing_statistic

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_IO = 3
EXIT_NO_CONVERSION = 4
EXIT_NOT_MONOTONE = 5
EXIT_NO_PIVOT = 6

DEFAULT_SEED = 20260810

T = TypeVar("T")


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


#: The exit codes of the library errors printed as they are, most specific first.
_LIBRARY_EXITS = ((PatternError, EXIT_NOT_MONOTONE), (FormatError, EXIT_IO), (PivotError, EXIT_NO_PIVOT))


class _Cone(NamedTuple):
    """What ``--family`` selects: the module, its family, its JSON field names and its inverse mean's tag."""

    module: ModuleType
    family: type
    parameter_field: str
    directions_field: str
    inverse_mean_tag: dict


#: ``--family`` to its cone; each closed form and sampler is called through ``module``.
_CONES = {
    "q": _Cone(wishart_q, wishart_q.WishartQ, "y", "z_list", {}),
    "p": _Cone(wishart_p, wishart_p.WishartP, "x", "x_list", {"method": "newton"}),
}


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------


def _decode(decode: Callable[[dict], T], data: dict, path: str) -> T:
    """``decode(data)`` of the object read from ``path``: a bad field exits 3 (a bad value 2, in :func:`main`)."""
    try:
        return decode(data)
    except KeyError as e:
        raise CliError(EXIT_IO, f"{path}: missing field {e}") from e
    except TypeError as e:
        raise CliError(EXIT_IO, f"{path}: mistyped field: {e}") from e


def _load_family(params: dict, path: str, cone: _Cone):
    def build(d: dict):
        p = ShapeParams.from_json_dict(d)
        return cone.family(p, cone.module.Parameter.from_json_dict(d[cone.parameter_field]))

    return _decode(build, params, path)


def _print_json(obj) -> None:
    """Write ``obj`` as strict JSON; a non-finite number is a domain error and nothing is written."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as e:
        raise CliError(EXIT_DOMAIN, f"result is not a finite number: {e}") from e
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    params = read_json_object(args.params)
    rng = verification.stream_rng(args.seed)
    if args.sigma is not None:
        if args.family != "q":
            raise CliError(EXIT_DOMAIN, "--sigma applies to the dual-cone family only")
        y = _decode(lambda d: TridiagSym.from_json_dict(d["y"]), params, args.params)
        m_pivot = _decode(lambda d: _pivot(d["M"], y.n), params, args.params)
        coords = wishart_q.sample_quadratic_many(args.sigma, m_pivot, y, rng, args.n)
        meta = {"family": "q-quadratic", "sigma": args.sigma.tolist(), "M": m_pivot}
        n = y.n
    else:
        cone = _CONES[args.family]
        w = _load_family(params, args.params, cone)
        n = w.n
        coords = cone.module.sample_many(w, rng, args.n)
        meta = {"family": args.family}
    header = [
        "# chainwishart sample",
        f"# seed: {args.seed}",
        f"# meta: {json.dumps(meta)}",
        f"# params: {json.dumps(params)}",
        "# columns: " + ",".join([f"d{i}" for i in range(1, n + 1)] + [f"o{i}" for i in range(1, n)]),
    ]
    try:
        _write_csv(args.out, coords, header)
    except OSError as e:
        raise CliError(EXIT_IO, f"cannot write {args.out}: {e}") from e
    print(f"wrote {args.n} draws to {args.out}")
    return EXIT_OK


def _eval_point(args: argparse.Namespace, decode: Callable[[dict], T]) -> T:
    if args.point is None:
        raise CliError(EXIT_IO, f"--what {args.what} needs --point")
    return _decode(decode, read_json_object(args.point), args.point)


def _cmd_eval(args: argparse.Namespace) -> int:
    params = read_json_object(args.params)
    cone = _CONES[args.family]
    mod, what = cone.module, args.what
    if what == "inverse-mean":
        p = _decode(ShapeParams.from_json_dict, params, args.params)
        parameter = mod.inverse_mean(p, _eval_point(args, mod.Point.from_json_dict))
        _print_json({"inverse_mean": parameter.to_json_dict(), **cone.inverse_mean_tag})
        return EXIT_OK
    w = _load_family(params, args.params, cone)
    if what == "density":
        val = mod.log_density(w, _eval_point(args, mod.Point.from_json_dict))
        # outside the support the log density is -inf, which JSON cannot hold
        _print_json({"log_density": None if val == float("-inf") else val})
    elif what == "laplace":
        _print_json({"log_laplace": mod.log_laplace(w, _eval_point(args, mod.Parameter.from_json_dict))})
    elif what == "mean":
        _print_json({"mean": mod.mean(w).to_json_dict()})
    elif what == "variance":
        if args.point is not None:
            # the variance function at m is the covariance at its inverse mean
            m = _eval_point(args, mod.Point.from_json_dict)
            w = cone.family(w.params, mod.inverse_mean(w.params, m))
        mat = mod.covariance_matrix(w)
        if args.out is not None:
            try:
                dense_to_csv(args.out, mat)
            except OSError as e:
                raise CliError(EXIT_IO, f"cannot write {args.out}: {e}") from e
        _print_json({"variance_matrix": mat.tolist()})
    elif what == "moment":
        read = mod.Parameter.from_json_dict
        dirs = _eval_point(args, lambda d: [read(u) for u in d[cone.directions_field]])
        _print_json({"moment": mod.moment(w, dirs)})
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(EXIT_IO, f"unknown eval target {what}")
    return EXIT_OK


def _cmd_orders(args: argparse.Namespace) -> int:
    g = build_chain(args.n)
    elim = [
        {"sequence": list(o.sequence), "max_vertex": o.max_vertex}
        for o in enumerate_eliminating_orders(g)
    ]
    perfect = []
    if g.n >= 2:
        for order in enumerate_perfect_clique_orders(g):
            entry = {"cliques": [list(c) for c in order.cliques()]}
            entry["first_separator"] = (
                first_separator(order) if len(order.sequence) >= 2 else None
            )
            perfect.append(entry)
    _print_json(
        {"n": g.n, "eliminating_orders": elim, "perfect_clique_orders": perfect}
    )
    return EXIT_OK


def _cmd_lm_convert(args: argparse.Namespace) -> int:
    data = read_json_object(args.file)
    if args.direction == "lm-to-s":
        lm = _decode(LMParams.from_json_dict, data, args.file)
        p = lm_to_sM(lm)
        if p is None:
            raise CliError(
                EXIT_NO_CONVERSION,
                "no pivot form exists: the clique/separator exponents match no "
                "interior-pivot compatibility pattern",
            )
        _print_json(p.to_json_dict())
    else:
        p = _decode(ShapeParams.from_json_dict, data, args.file)
        try:
            lm = sM_to_lm(p)
        except ValueError as e:
            raise CliError(EXIT_NO_CONVERSION, str(e)) from e
        _print_json(lm.to_json_dict())
    return EXIT_OK


def _cmd_missing_stat(args: argparse.Namespace) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(EXIT_IO, f"cannot read {args.file}: {e}") from e
    ds = parse_missing_csv(text)
    t, sigma, m = missing_statistic(ds)
    _print_json(
        {
            "T": t.to_json_dict(),
            "sigma": sigma.tolist(),
            "M": m,
            "n_rows": len(ds.rows),
        }
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    mutations = frozenset(args.inject_bug or [])
    results, ok = verification.run_suites(args.suite, args.seed, mutations)
    print(verification.format_report(results))
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as f:
                f.write(verification.report_json(results))
        except OSError as e:
            raise CliError(EXIT_IO, f"cannot write {args.json}: {e}") from e
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _sigma_list(text: str) -> np.ndarray:
    """The integer multiplicities of ``--sigma``; argparse rejects any other entry, as it does ``--n 1.5``."""
    try:
        return np.asarray([int(t) for t in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainwishart",
        description="Wishart families on the cones of chain graphical models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw exact samples to CSV")
    p.add_argument("--family", choices=list(_CONES), required=True)
    p.add_argument("--params", required=True, help="JSON parameter file")
    p.add_argument("--n", type=int, default=1000, help="number of draws")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--sigma",
        type=_sigma_list,
        default=None,
        help="comma-separated multiplicities; routes to the quadratic sampler",
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("eval", help="evaluate family quantities (log scale)")
    p.add_argument(
        "--what",
        choices=["density", "laplace", "mean", "inverse-mean", "variance", "moment"],
        required=True,
    )
    p.add_argument("--family", choices=list(_CONES), default="q")
    p.add_argument("--params", required=True)
    p.add_argument("--point", default=None, help="JSON point file where needed")
    p.add_argument("--out", default=None, help="also write matrix results as row-major CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("orders", help="enumerate eliminating and perfect clique orders")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_orders)

    p = sub.add_parser("lm-convert", help="convert clique/separator and pivot parameters")
    p.add_argument("--direction", choices=["lm-to-s", "s-to-lm"], required=True)
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_lm_convert)

    p = sub.add_parser("missing-stat", help="sufficient statistic of a monotone-missing CSV")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_missing_stat)

    p = sub.add_parser("verify", help="run the Monte-Carlo/brute-force check suites")
    p.add_argument("--suite", choices=["all", *verification.SUITES], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.add_argument(
        "--inject-bug",
        action="append",
        choices=["mean-sign"],
        help="deliberately corrupt a formula (harness self-test; must flip exit to 1)",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FormatError, PivotError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code if isinstance(e, CliError) else next(c for kind, c in _LIBRARY_EXITS if isinstance(e, kind))
    except (ValueError, RuntimeError) as e:
        # cone, shape, moment-order and double-range violations, and a Newton inversion that fails
        print("error:", " ".join(str(e).split()), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
