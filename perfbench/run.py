#!/usr/bin/env python3
"""Benchmark of the chainwishart reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload draw --seed 1 --seconds 30 --trace 0

Workloads are ``draw``, ``closed-form`` and ``cli`` (see README.md beside
this file).  The program is built from ``src/`` of the checkout; nothing is
installed.  Standard output ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The line before it is ``{"bench": ...}``, holding the
environment and every failed call; compare.py reads both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Set for this process and every process it starts.  One client, no extra
#: threads: BLAS runs on one thread.  glibc's mmap and trim thresholds start
#: at the ceiling its dynamic rule climbs to (32 and 64 MiB) instead of moving
#: while a run goes on: as they moved, the recursive samplers' arrays switched
#: between fresh mappings and reused heap, and the same pass varied in time
#: and in resident memory (0.15 to 2.5 GB on ``draw``).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20),
}

# Span names whose self time is reported (``<name>.self_s``).
SELF_TIMED = (
    "wishart_q.sample_many", "wishart_p.sample_p_many", "wishart_q.sample_quadratic_many",
    "wishart_q.mean", "wishart_q.mean_formula", "wishart_q.covariance_apply",
    "wishart_q.covariance_matrix", "wishart_q.variance_apply_nice",
    "wishart_q.variance_apply_expanded", "wishart_q.moment", "wishart_p.covariance_p_matrix",
    "wishart_p.covariance_p_apply", "lum_triangular.hat_via_T", "matrix_spaces.hat_completion",
    "matrix_spaces.inverse_image",
    "matrix_spaces.assert_in_P", "matrix_spaces.assert_in_Q", "matrix_spaces.is_in_P",
    "matrix_spaces.is_in_Q", "matrix_spaces.leading_log_minors",
    "matrix_spaces.trailing_log_minors", "matrix_spaces.lauritzen_map",
    "power_functions.log_Delta_M", "power_functions.log_delta_M", "power_functions.log_phi",
    "wishart_q.inverse_mean", "wishart_q.log_density", "wishart_q.log_laplace",
    "wishart_p.mean_p", "wishart_p.log_density_p",
    "cli.sample", "cli.eval", "verification.run_suites",
)
FAILED_COUNTED = ("matrix_spaces", "lum_triangular", "wishart_q", "wishart_p", "cli")
RECURSIVE_SAMPLERS = ("wishart_q.sample_many", "wishart_p.sample_p_many")
PEELS = ("peeling.phi_inv", "peeling.phi_tilde_inv", "peeling.psi_inv", "peeling.psi_tilde_inv")
CONE_CHECKS = ("matrix_spaces.assert_in_P", "matrix_spaces.assert_in_Q",
               "matrix_spaces.is_in_P", "matrix_spaces.is_in_Q")
# (metric, op, small n, large n, per draw): log-log slope of time per draw or call.
SLOPES = (
    ("wishart_q.sample_many.n_slope", "wishart_q.sample_many", 30, 300, True),
    ("wishart_p.sample_p_many.n_slope", "wishart_p.sample_p_many", 30, 300, True),
    ("lum_triangular.decompose.n_slope", "lum_triangular.decompose", 30, 300, False),
    ("wishart_q.mean.n_slope", "wishart_q.mean", 60, 200, False),
    ("wishart_q.covariance_apply.n_slope", "wishart_q.covariance_apply", 60, 200, False),
    ("wishart_q.inverse_mean.n_slope", "wishart_q.inverse_mean", 10, 10_000, False),
)
PEAK_N = {"wishart_q.sample_many": 300, "wishart_p.sample_p_many": 300, "wishart_q.mean": 200}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def environment() -> dict:
    """Where a result was measured: versions, CPUs and BLAS threads."""
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
        sha = r.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "pinned_env": PINNED_ENV,
    }


def blas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {ln.split()[-1] for ln in f if "openblas" in ln and ln.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def timed_passes(run: Callable[[], list], seconds: float) -> list[list]:
    """Whole passes until ``seconds`` of wall time are used; at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run())
    return passes


def pass_seconds(passes: list[list]) -> list[float]:
    return [sum(o[1] for o in p) for p in passes]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spawn_setup(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only",
           "--scale", args.scale]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise RuntimeError(f"set-up process failed ({r.returncode}): {r.stderr.strip()[-500:]}")
    return float(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(args, wl, setup_s: float, passes: list[list]) -> dict[str, float]:
    # the measuring process itself, or for ``cli`` its largest child
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    setups = [setup_s] + [spawn_setup(args) for _ in range(SETUP_REPEATS - 1)]
    return {
        "setup_s": statistics.median(setups),
        "elapsed_s": statistics.median(pass_seconds(passes)),
        "peak_rss_mb": peak_mb,
    }


def call_metrics(wl, passes: list[list]) -> dict[str, float]:
    """The untraced call-level figures of one workload (zero where it has no such calls)."""
    import numpy as np

    calls = wl.calls
    small = [o[1] for p in passes for o in p
             if calls[o[0]].size == "small" and not calls[o[0]].group]
    large = [o[1] for p in passes for o in p if calls[o[0]].size == "large"]
    sampled = [o for p in passes for o in p if calls[o[0]].draws and not calls[o[0]].group]
    coords = sum(calls[o[0]].draws * (2 * calls[o[0]].n - 1) for o in sampled if o[2] is None)
    sampler_s = sum(o[1] for o in sampled)

    def group_s(group: str) -> float:
        return median_or_zero([sum(o[1] for o in p if calls[o[0]].group == group) for p in passes
                               if any(calls[o[0]].group == group for o in p)])

    return {
        "small_call_us_p50": 1e6 * median_or_zero(small),
        "small_call_us_p99": 1e6 * float(np.percentile(small, 99)) if small else 0.0,
        "large_call_ms_p50": 1e3 * median_or_zero(large),
        "coords_per_s": coords / sampler_s if sampler_s else 0.0,
        "cli_sample_s": group_s("sample"),
        "cli_eval_s": group_s("eval"),
        "cli_verify_s": group_s("verify"),
    }


def _median_time(wl, passes: list[list], op: str, n: int, per_draw: bool) -> Optional[float]:
    ts = [o[1] / (wl.calls[o[0]].draws if per_draw else 1) for p in passes for o in p
          if wl.calls[o[0]].op == op and wl.calls[o[0]].n == n and not wl.calls[o[0]].known]
    return statistics.median(ts) if ts else None


def peak_allocations(wl) -> dict[str, float]:
    """tracemalloc peak of one call per probed function, outside any timing."""
    import tracemalloc

    out: dict[str, float] = {}
    for op, n in PEAK_N.items():
        call = next((c for c in wl.calls if c.op == op and c.n == n and not c.known), None)
        if call is None:
            continue
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call.run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        if call.draws:
            out[f"{op}.peak_over_output"] = peak / (call.draws * (2 * n - 1) * 8)
        else:
            out[f"{op}.peak_alloc_mb"] = peak / 2**20
        del result
    return out


def per_layer(wl, untraced: list[list], baseline: list[list], traced: list[list],
              tracer) -> dict[str, float]:
    import spans as tr

    spans = tracer.spans
    bench = tracer.roots(lambda s: s[tr.NAME] == "bench.call")
    inside = [i for i, r in enumerate(bench) if r >= 0 and r != i]
    self_t = tracer.self_times()
    per_pass = 1.0 / len(traced)
    out: dict[str, float] = {}

    def add(name: str, calls: float, secs: float, failed: float) -> None:
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + secs
        out[f"{name}.failed"] = out.get(f"{name}.failed", 0) + failed

    for m in tr.MODULES:
        add(m, 0, 0.0, 0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = 0.0
    for i in inside:
        s = spans[i]
        add(s[tr.NAME].split(".")[0], 1, self_t[i], int(s[tr.FAILED]))
        if s[tr.NAME] in SELF_TIMED:
            out[f"{s[tr.NAME]}.self_s"] += self_t[i]
    for key in list(out):
        if key.endswith(".self_s") or key.endswith(".calls") or key.endswith(".failed"):
            out[key] *= per_pass
    for m in tr.MODULES:
        if m not in FAILED_COUNTED:
            del out[f"{m}.failed"]

    # exact work counts inside the recursive samplers at n = 300
    roots = [i for i, s in enumerate(spans) if s[tr.NAME] == "bench.call"
             and wl.calls[s[tr.TAG]].op in RECURSIVE_SAMPLERS and wl.calls[s[tr.TAG]].n == 300]
    root_set = set(roots)
    peels = sum(1 for i in inside if bench[i] in root_set and spans[i][tr.NAME] in PEELS)
    checks = sum(1 for i in inside if bench[i] in root_set and spans[i][tr.NAME] in CONE_CHECKS)
    out["peeling.peels_per_sampler_call"] = peels / len(roots) if roots else 0.0
    out["matrix_spaces.cone_checks_per_sampler_call"] = checks / len(roots) if roots else 0.0

    out["wishart_q.sample_many.peak_over_output"] = 0.0
    out["wishart_p.sample_p_many.peak_over_output"] = 0.0
    out["wishart_q.mean.peak_alloc_mb"] = 0.0
    out.update(peak_allocations(wl))

    for name, op, lo, hi, per_draw in SLOPES:
        t_lo, t_hi = (_median_time(wl, untraced, op, n, per_draw) for n in (lo, hi))
        out[name] = math.log(t_hi / t_lo) / math.log(hi / lo) if t_lo and t_hi else 0.0

    # CLI output: bytes written per pass, and the share of cli.main spent in the
    # CLI's own code (parsing, CSV/JSON writing) on the sample commands
    out["cli.bytes_written"] = float(sum(p.stat().st_size for p in wl.outputs if p.exists()))
    main_spans = [i for i in inside if spans[i][tr.NAME] == "cli.main"
                  and wl.calls[spans[bench[i]][tr.TAG]].op == "cli.sample"]
    main_set = set(main_spans)
    under_main = tracer.roots(lambda s: s[tr.NAME] == "cli.main")
    own = sum(self_t[i] for i in inside
              if under_main[i] in main_set and spans[i][tr.NAME].startswith("cli."))
    total = sum(spans[i][tr.END] - spans[i][tr.START] for i in main_spans)
    out["cli.sample.write_share"] = own / total if total else 0.0

    out.update(call_metrics(wl, untraced))
    out["tracing_overhead_s"] = statistics.median(
        t - b for t, b in zip(pass_seconds(traced), pass_seconds(baseline)))
    return out


def measure(args: argparse.Namespace, workdir: Path) -> int:
    t0 = perf_counter()
    import workloads  # imports chainwishart: the import part of set-up

    import chainwishart

    if Path(chainwishart.__file__).resolve().parent != (SRC / "chainwishart").resolve():
        print(f"error: imported chainwishart from {chainwishart.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tiny = args.scale == "tiny"
    wl = workloads.build(args.workload, args.seed, workdir, SRC, tiny)
    workloads.run_pass(wl.warmup)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not args.trace:
        counted = timed_passes(lambda: workloads.run_pass(wl.calls), args.seconds)
        metrics = end_to_end(args, wl, setup_s, counted)
        extra = call_metrics(wl, counted)
    else:
        import spans as tr

        tracer = tr.Tracer()
        budget = args.seconds
        processes = []
        if wl.name == "cli":  # process times first; the traced run calls cli.main in-process
            processes = timed_passes(lambda: workloads.run_pass(wl.calls), args.seconds / 3)
            budget -= args.seconds / 3
        # Untraced and traced passes alternate, so that drift in the machine's
        # speed reaches both sides of the overhead alike.
        baseline, traced = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < budget:
            baseline.append(workloads.run_pass(wl.calls, inproc=True))
            with tr.instrumented(tracer):
                traced.append(workloads.run_pass(wl.calls, True, tracer))
        metrics = per_layer(wl, processes or baseline, baseline, traced, tracer)
        counted = processes + baseline + traced
        metrics["error_rate"] = tally(wl, counted)[1] / sum(len(p) for p in counted)
        extra = {}
    report(args, wl, metrics, extra, counted)
    return 0


def tally(wl, passes: list[list]) -> tuple[dict, int, int]:
    """Failed calls by (label, reason), all failures, and those that are no documented defect."""
    failures: dict[tuple[str, str], int] = {}
    for i, _, reason, known in (o for p in passes for o in p):
        if reason is not None:
            key = (wl.calls[i].label + (" (known defect)" if known else ""), reason)
            failures[key] = failures.get(key, 0) + 1
    unexpected = sum(v for (label, _), v in failures.items()
                     if not label.endswith("(known defect)"))
    return failures, sum(failures.values()), unexpected


def report(args, wl, metrics: dict, extra: dict, passes: list[list]) -> None:
    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    names = {m["name"] for m in spec[kind]}
    if names != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(names ^ set(metrics))}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures, failed, unexpected = tally(wl, passes)
    outcomes = [o for p in passes for o in p]

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"calls/pass={len(wl.calls)}")
    for name, value in {**metrics, **extra}.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(f"  failed calls: {failed} of {len(outcomes)}")
    for (label, reason), count in failures.items():
        print(f"  FAILED x{count} {label}: {reason}")
    if args.trace:
        print("  waiting time: not applicable (one client, nothing queues)")
    header = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "passes": len(passes), "env": environment(),
              "failures": [{"call": k[0], "reason": k[1], "count": v} for k, v in failures.items()]}
    print(json.dumps({"bench": header}))
    print(json.dumps({"correct": unexpected == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["draw", "closed-form", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # "tiny" shrinks every workload for the self-tests
    ap.add_argument("--scale", choices=["full", "tiny"], default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    sources = SRC / "chainwishart" / "__init__.py"
    if not sources.is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no chainwishart sources under {SRC} (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)  # glibc reads its variable only at start-up
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
