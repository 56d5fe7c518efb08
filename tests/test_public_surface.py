"""The package's public surface, pinned so that any change to it is deliberate.

The benchmark's tracer (``bench/tracer.py``) wraps attributes by name on
their defining class or module; every one of them must exist there, or each
traced benchmark run breaks.  Checking the names here makes a removal fail
in the test suite instead.  The element classes inherit ``weight``,
``eps``, ``phi``, ``e`` and ``f`` from ``CrystalElement``; the traced ones
reach each class's own namespace through the base class's
``__init_subclass__`` hook, which can be deleted once the tracer wraps the
resolved method on each class (ROADMAP item 1(b)).
"""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import kmcrystals
from kmcrystals.cli import main

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [  # sorted
    "BkElement", "BudgetExceeded", "CrystalElement", "CrystalGraph", "DecompositionTable",
    "ModelElement", "NEG_INF", "RootDatum", "S0Element", "TElement", "TensorElement",
    "WProfile", "Weight", "binary_e", "binary_eps", "binary_f", "binary_phi",
    "build_root_datum", "character", "check_axioms", "check_normal", "check_strict_morphism",
    "closed_family_instance", "decompose", "decompose_tensor", "embed_psi",
    "embedding_mismatches", "finite_type_check", "flatten", "freudenthal_multiplicities",
    "generate", "generate_highest_weight_crystal", "graph_to_dot", "graph_to_json",
    "highest_weight_elements", "is_isomorphic", "load_root_datum", "model_element",
    "model_highest_weight", "positive_roots", "rank_complex", "tensor_product_graph", "weyl_dim",
    "wprofile",
]


def test_all_is_pinned():
    assert sorted(kmcrystals.__all__) == PUBLIC
    for name in kmcrystals.__all__:
        assert hasattr(kmcrystals, name), name


def test_tensor_is_the_submodule():
    assert isinstance(kmcrystals.tensor, types.ModuleType)
    assert kmcrystals.tensor.__name__ == "kmcrystals.tensor"


def _public_methods(cls) -> list[str]:
    """The public methods and properties defined on cls itself."""
    return sorted(name for name, value in vars(cls).items() if not name.startswith("_")
                  and (callable(value) or isinstance(value, property)))


def test_element_and_graph_methods_are_pinned():
    # whole vectors and other statistics are read from stats_record, not
    # from accessors on the element or the graph
    assert _public_methods(kmcrystals.CrystalElement) == ["e", "eps", "f", "key", "phi", "weight"]
    assert _public_methods(kmcrystals.CrystalGraph) == ["edges", "frontier_count", "node_count"]


def test_tracer_targets_exist_on_their_owners():
    # load the tracer by path; it is not installed, so nothing gets wrapped
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    for layer, owner, name, _ in targets:
        assert name in vars(owner), f"{layer}: {owner.__name__} has no {name}"


# Installs the tracer in a fresh interpreter (installing patches the package
# for the rest of the process), runs a verify suite and a closed-family
# instance traced, and prints what the assertions below need.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
trace = tracer.Tracer()
trace.install()
from kmcrystals import build_root_datum, cli, explorer
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", "embedding", "--preset", "A2", "--weight", "1,1"])
iso = explorer.closed_family_instance(build_root_datum("A2"), (1, 0), (0, 1))[0]
report = trace.report()
metrics = tracer.per_layer_metrics(report, 1.0, 0.5)
print(json.dumps({"code": code, "stdout": out.getvalue(), "iso": iso,
                  "calls": report["calls"], "metrics": sorted(metrics),
                  "units": sorted(tracer.PER_LAYER_UNITS)}))
"""


def test_traced_run_matches_untraced(capsys):
    assert main(["verify", "embedding", "--preset", "A2", "--weight", "1,1"]) == 0
    untraced = capsys.readouterr().out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "bench" / "tracer.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["iso"] is True
    assert result["stdout"] == untraced
    for layer in ("tensor.ops", "quiver_model.ops", "elementary.ops"):
        assert result["calls"].get(layer, 0) > 0, layer
    assert result["metrics"] == result["units"]
