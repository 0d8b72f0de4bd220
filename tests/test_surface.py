"""The public surface shared by the two cones, and the library names perfbench reads.

``wishart_q`` and ``wishart_p`` export the same ten functions with the same
parameters, and each names its sample space ``Point`` and its natural
parameter space ``Parameter``, so a caller picks the cone once, by module.

The benchmark harness under ``perfbench/`` calls the library by name.  Each
``from chainwishart.<m> import X`` and each ``<m>.X``, with ``<m>`` a module
imported from ``chainwishart``, must resolve; the files are only parsed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from chainwishart import wishart_p as wp
from chainwishart import wishart_q as wq
from chainwishart.matrix_spaces import IncompleteSym, TridiagSym
from chainwishart.power_functions import ShapeParams

SHARED = ("log_norm_constant", "log_density", "log_laplace", "mean", "mean_formula", "inverse_mean",
          "covariance_apply", "covariance_matrix", "sample_many", "moment")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", SHARED)
def test_both_cones_export_the_shared_function_with_one_signature(name):
    assert name in wq.__all__ and name in wp.__all__
    q, p = (inspect.signature(getattr(mod, name)).parameters.values() for mod in (wq, wp))
    assert [(a.name, a.kind) for a in q] == [(a.name, a.kind) for a in p]


def test_each_cone_names_its_point_and_parameter_types():
    assert (wq.Point, wq.Parameter) == (IncompleteSym, TridiagSym)
    assert (wp.Point, wp.Parameter) == (TridiagSym, IncompleteSym)
    assert {"Point", "Parameter"} <= set(wq.__all__) & set(wp.__all__)
    w_q = wq.WishartQ(ShapeParams(1, [1.5, 1.2]), TridiagSym(2, [2.0, 1.0], [0.3]))
    w_p = wp.WishartP(ShapeParams(1, [0.2, -0.3]), IncompleteSym(2, [1.0, 1.3], [-0.2]))
    for mod, w in ((wq, w_q), (wp, w_p)):
        m = mod.mean(w)
        assert type(m) is mod.Point
        assert type(mod.inverse_mean(w.params, m)) is mod.Parameter


def _perfbench_references() -> set[tuple[str, str]]:
    """``(module, name)`` for every library name that a file under ``perfbench/`` reads."""
    refs = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> short module name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "chainwishart":
                modules |= {a.asname or a.name: a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("chainwishart."):
                refs |= {(node.module.split(".")[1], a.name) for a in node.names}
            elif isinstance(node, ast.Import):
                modules |= {a.asname: a.name.split(".")[1] for a in node.names
                            if a.asname and a.name.startswith("chainwishart.")}
        refs |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules}
    return refs


def test_perfbench_library_names_resolve():
    refs = _perfbench_references()
    assert {m for m, _ in refs} >= {"wishart_q", "wishart_p"}
    missing = [f"{m}.{name}" for m, name in sorted(refs)
               if not hasattr(importlib.import_module(f"chainwishart.{m}"), name)]
    assert not missing
