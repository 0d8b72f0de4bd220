"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chainwishart import matrix_spaces, peeling, wishart_q  # noqa: E402
from chainwishart.matrix_spaces import IncompleteSym  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PROBE_ERRORS = {"draw": "RecursionError", "closed-form": "ConeError", "cli": None}


def _run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["bench"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_prints_a_complete_result(workload, trace):
    header, result = _run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(header["env"]) >= {"git_sha", "python", "numpy", "scipy", "nproc", "blas_threads"}
    # every failure is a scale probe failing with its documented error
    assert result["failed"] == sum(f["count"] for f in header["failures"])
    for f in header["failures"]:
        assert f["call"].startswith("probe ") and f["call"].endswith("(known defect)")
        assert f["reason"].startswith(PROBE_ERRORS[workload])
    assert (result["failed"] > 0) == (PROBE_ERRORS[workload] is not None)


def test_sign_flipped_mean_is_a_failed_call(monkeypatch):
    wl = workloads.build_closed_form(5, tiny=True)
    real_mean = wishart_q.mean

    def flipped(w):
        m = real_mean(w)
        return IncompleteSym(m.n, m.diag, -m.off)

    monkeypatch.setattr(wishart_q, "mean", flipped)
    passes = [workloads.run_pass(wl.calls)]
    failures, failed, unexpected = run.tally(wl, passes)
    flagged = {label for (label, _) in failures}
    assert {"wishart_q.mean[n=3]", "wishart_q.mean[n=10]"} <= flagged
    assert unexpected > 0 and failed > unexpected


def test_self_time_on_a_synthetic_nested_trace():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    a = t.begin("a")
    b = t.begin("b")
    t.end(b)
    c = t.begin("c")
    d = t.begin("d")
    t.end(d)
    t.end(c)
    t.end(a)
    # a: 10 - (2 + 4); c: 4 - 1
    assert t.self_times() == [4.0, 2.0, 3.0, 1.0]
    assert [s[spans.PARENT] for s in t.spans] == [-1, 0, 0, 2]
    assert t.roots(lambda s: s[spans.NAME] == "c") == [-1, -1, 2, 2]


def test_span_left_open_is_closed_by_its_parent():
    ticks = iter([0.0, 1.0, 5.0])
    t = spans.Tracer(clock=lambda: next(ticks))
    a = t.begin("a")
    t.begin("b")  # never ended, as when a RecursionError strikes inside the wrapper
    t.end(a)
    assert t.spans[1][spans.END] == 5.0 and t.spans[1][spans.FAILED]
    assert t.self_times() == [1.0, 4.0]


def test_instrumentation_links_nested_calls_and_restores_them():
    gen = np.random.default_rng(0)
    fam = workloads._Family.make(gen, 4)
    original = peeling.phi_inv
    t = spans.Tracer()
    with spans.instrumented(t):
        assert peeling.phi_inv is not original
        # the alias imported into peeling is rebound to the same wrapper
        assert peeling.assert_in_P is matrix_spaces.assert_in_P
        root = t.begin("bench.call")
        wishart_q.sample_many(fam.wq, gen, 3)
        t.end(root)
    assert peeling.phi_inv is original
    names = [s[spans.NAME] for s in t.spans]
    sampler = names.index("wishart_q.sample_many")
    peel = names.index("peeling.phi_inv")
    check = names.index("matrix_spaces.assert_in_P", peel)
    assert t.spans[peel][spans.PARENT] == sampler
    assert t.spans[check][spans.PARENT] == peel
    assert sum(n in ("peeling.phi_inv", "peeling.phi_tilde_inv") for n in names) == 3  # n - 1 peels


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01]
    faster = [0.8 + 0.001 * i for i in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "better"
    assert compare.verdict(parent, [1.3] * 10, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, [1.3] * 10, "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, list(reversed(parent)), "lower", 0.1)[0] == "same"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0]
    assert compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0] == "unresolved"
    # 9 of 10 pairs are needed; 8 are not enough unless every run is better
    eight = [p - 0.05 for p in parent[:8]] + [p + 0.05 for p in parent[8:]]
    assert compare.verdict(parent, eight, "lower", None)[1] == 0.8
    assert compare.verdict(parent, eight, "lower", None)[0] == "same"


def test_compare_reads_captured_runs(tmp_path):
    def capture(path: Path, values: list[float]) -> None:
        with path.open("w") as f:
            for v in values:
                f.write("human-readable summary line\n")
                header = {"workload": "draw", "trace": 0, "env": {"git_sha": "x"}}
                f.write(json.dumps({"bench": header}) + "\n")
                f.write(json.dumps({"correct": True, "attempted": 10, "failed": 1, "metrics": {
                    "elapsed_s": {"value": v, "unit": "s"}}}) + "\n")

    capture(tmp_path / "a.txt", [2.0, 2.1, 2.05])
    capture(tmp_path / "b.txt", [1.0, 1.1, 1.05])
    text = "\n".join(compare.compare(tmp_path / "a.txt", tmp_path / "b.txt", SPEC))
    assert re.search(r"elapsed_s\s+s\s+2\.05 \[.*\]\s+1\.05 \[.*\]\s+0\.512\s+100%\s+better", text)
    assert "failed calls: 3 of 30" in text


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert all(name_re.fullmatch(n) for n in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "spans.py"):
        (bench / f).write_bytes((BENCH / f).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "draw", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert r.returncode != 0 and r.stdout == ""
