import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmcrystals import build_root_datum, cli, closed_family_instance, crystal_core, oracles
from kmcrystals.cli import main
from kmcrystals.oracles import infinite_vertices
from kmcrystals.root_datum import MAX_PRESET_RANK

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_DOT = """digraph crystal {
  rankdir=TB;
  node [shape=box, fontname="Helvetica"];
  n0 [label="(0,-1)"];
  n1 [label="(-1,1)"];
  n2 [label="(1,0)"];
  n1 -> n0 [label="2", color="#377eb8"];
  n2 -> n1 [label="1", color="#e41a1c"];
}
"""

GOLDEN_TSV = """# complete: true
lambda\troot\tmultiplicity
1,1\t0,0\t1
1,1\t1,1\t1
"""


GOLDEN_TENSOR_JSON = """{
  "entries": [
    {
      "weight": {
        "lambda": [
          1,
          1
        ],
        "root": [
          0,
          0
        ]
      },
      "multiplicity": 1
    },
    {
      "weight": {
        "lambda": [
          1,
          1
        ],
        "root": [
          1,
          1
        ]
      },
      "multiplicity": 1
    }
  ],
  "complete": true,
  "depth": null,
  "flagged": []
}
"""

# affineA1 B(1,0) (x) B(0,1) truncated at depth 3: both highest-weight
# components are infinite, so they are flagged and the table stays empty.
GOLDEN_AFFINE_TSV = """# complete: false
lambda\troot\tmultiplicity
"""

GOLDEN_AFFINE_JSON = """{
  "entries": [],
  "complete": false,
  "depth": 3,
  "flagged": [
    "{\\"Tensor\\":[{\\"Model\\":{\\"w\\":{\\"0\\":[1,0]},\\"v\\":{}}},\
{\\"Model\\":{\\"w\\":{\\"0\\":[0,1]},\\"v\\":{\\"1,1\\":1,\\"2,1\\":1}}}]}",
    "{\\"Tensor\\":[{\\"Model\\":{\\"w\\":{\\"0\\":[1,0]},\\"v\\":{}}},\
{\\"Model\\":{\\"w\\":{\\"0\\":[0,1]},\\"v\\":{}}}]}"
  ]
}
"""


# Exact stdout of commands that write there.  Everything a verify suite
# prints is pinned, not only its verdict; "graph" with both outputs on
# stdout writes the DOT before the JSON.
GOLDEN_STDOUT = {
    "verify axioms --preset A2 --weight 1,1":
        "axioms: 0 violations on 8 nodes\nPASS\n",
    "verify normal --preset A2 --weight 1,1":
        "normal: 0 violations, 16 checked, 0 skipped\nPASS\n",
    "verify embedding --preset A2 --weight 1,1":
        "embedding: 0 mismatches on 8 elements\nPASS\n",
    "verify oracle --preset A3 --weight 0,1,0":
        "oracle: #B = 6, weyl_dim = 6\n"
        "oracle: character matches multiplicity recursion\nPASS\n",
    "verify oracle --preset E6 --weight 1,0,0,0,0,1":
        "oracle: #B = 650, weyl_dim = 650\n"
        "oracle: character matches multiplicity recursion\nPASS\n",
    "verify oracle --preset E6 --weight 1,0,0,0,0,1 --depth 3":
        "oracle: #B = 10, weyl_dim = 650\n"
        "oracle: character matches multiplicity recursion\nPASS\n",
    "verify closed --preset A2 --pairs 3 --seed 7":
        "closed: (1, 0) x (1, 2) -> ok\n"
        "closed: (0, 0) x (2, 0) -> ok\n"
        "closed: (1, 2) x (0, 2) -> ok\nPASS\n",
    "graph --preset A2 --weight 1,0 --dot - --json -":
        (GOLDEN / "graph_A2_10_dot_json.txt").read_text(),
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_stdout_golden_bytes(command, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.out == GOLDEN_STDOUT[command]
    assert captured.err == ""


def test_dot_and_json_sort_once(capsys, monkeypatch):
    # each writer asks for the order; the second gets the first's, unsorted
    orders = []
    original = crystal_core._export_order

    def recording(g):
        orders.append(original(g))
        return orders[-1]

    monkeypatch.setattr(crystal_core, "_export_order", recording)
    assert main("graph --preset A2 --weight 1,0 --dot - --json -".split()) == 0
    assert len(orders) == 2 and orders[0] is orders[1]
    assert capsys.readouterr().out == (GOLDEN / "graph_A2_10_dot_json.txt").read_text()


def test_graph_golden_bytes(tmp_path):
    paths = [tmp_path / "a.dot", tmp_path / "b.dot"]
    for path in paths:
        code = main(["graph", "--preset", "A2", "--weight", "1,0", "--depth", "10",
                     "--dot", str(path)])
        assert code == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0].decode() == GOLDEN_DOT


def test_tensor_golden_bytes(tmp_path):
    paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for path in paths:
        code = main(["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1",
                     "--tsv", str(path)])
        assert code == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0].decode() == GOLDEN_TSV


def test_tensor_json_golden_bytes(tmp_path):
    path = tmp_path / "t.json"
    assert main(["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1",
                 "--json", str(path)]) == 0
    assert path.read_text() == GOLDEN_TENSOR_JSON


def test_tensor_depth_golden_bytes(tmp_path):
    tsv, js = tmp_path / "aff.tsv", tmp_path / "aff.json"
    assert main(["tensor", "--preset", "affineA1", "--weight", "1,0", "--weight", "0,1",
                 "--depth", "3", "--tsv", str(tsv), "--json", str(js)]) == 0
    assert tsv.read_text() == GOLDEN_AFFINE_TSV
    assert js.read_text() == GOLDEN_AFFINE_JSON


def test_graph_json_golden_bytes(tmp_path):
    # all 8 node ids of B(1,1) on A2, which pin the element keys
    path = tmp_path / "g.json"
    assert main(["graph", "--preset", "A2", "--weight", "1,1", "--json", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "graph_A2_11.json").read_bytes()


def test_graph_json_frontier_golden_bytes(tmp_path):
    path = tmp_path / "aff.json"
    assert main(["graph", "--preset", "affineA1", "--weight", "1,0", "--depth", "2",
                 "--json", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "graph_affineA1_10_depth2.json").read_bytes()


def test_closed_family_witness_golden():
    iso, mapping, reason = closed_family_instance(build_root_datum("A2"), (1, 0), (0, 1))
    assert iso and reason == ""
    text = json.dumps(sorted(mapping.items()), indent=1) + "\n"
    assert text == (GOLDEN / "closed_A2_10_01_witness.json").read_text()


def test_graph_json_output(tmp_path):
    path = tmp_path / "g.json"
    assert main(["graph", "--preset", "A2", "--weight", "1,0", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert len(data["nodes"]) == 3
    assert len(data["edges"]) == 2
    assert all(nd["kind"] == "Model" for nd in data["nodes"])


def test_graph_stdout_default(capsys):
    assert main(["graph", "--preset", "A1", "--weight", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 3


def test_affine_truncation_dashed(tmp_path):
    path = tmp_path / "aff.dot"
    assert main(["graph", "--preset", "affineA1", "--weight", "1,0", "--depth", "4",
                 "--dot", str(path)]) == 0
    assert "style=dashed" in path.read_text()


def test_non_dominant_weight_exits_2(tmp_path):
    code = main(["graph", "--preset", "A2", "--weight=-1,0", "--dot", str(tmp_path / "x.dot")])
    assert code == 2


def test_malformed_weight_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rd.json").write_text("[1, 2]")
    (tmp_path / "lost.json").symlink_to("/nonexistent/d/x.json")
    for argv in (
        ["graph", "--preset", "A2", "--weight", "a,b"],
        ["graph", "--preset", "A2", "--weight", "1"],
        ["verify", "axioms", "--preset", "A2", "--weight", "1"],
        ["verify", "oracle", "--preset", "A2", "--weight", "1,x"],
        ["verify", "closed", "--preset", "A2", "--max-entry", "-1"],
        ["verify", "closed", "--preset", "A2", "--pairs", "-1"],
        ["verify", "oracle", "--preset", "affineA1", "--weight", "1,0"],
        ["verify", "closed", "--preset", "affineA1"],
        ["graph", "--preset", "affineA1", "--weight", "1,0"],
        ["tensor", "--preset", "affineA1", "--weight", "0,0", "--weight", "0,1"],
        ["verify", "axioms", "--preset", "affineA1", "--weight", "0,1"],
        ["verify", "normal", "--preset", "affineA1", "--weight", "1,1"],
        ["verify", "embedding", "--preset", "affineA1", "--weight", "1,0"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", "/nonexistent/x.dot"],
        ["tensor", "--preset", "A2", "--weight", "1,0", "--tsv", "/nonexistent/t.tsv"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", "ok",
         "--json", "/nonexistent/y.json"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--json", "."],
        ["graph", "--root-datum", "rd.json", "--weight", "1,0"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", "ok", "--json", ""],
        ["graph", "--preset", "A2", "--weight", "1,0", "--json", ""],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", ""],
        ["tensor", "--preset", "A2", "--weight", "1,0", "--tsv", ""],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", "ok", "--json", "lost.json"],
        # an integer is ASCII digits with an optional leading -, which int() alone is not
        ["graph", "--preset", "A2", "--weight", "1_0,0"],
        ["graph", "--preset", "A2", "--weight", " 1,0"],
        ["graph", "--preset", "A2", "--weight", "+1,0"],
        ["graph", "--preset", "A2", "--weight", "1, 0"],
        ["graph", "--preset", "A2", "--weight", "\u0661,0"],  # ARABIC-INDIC DIGIT ONE
        ["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1_0"],
        ["verify", "oracle", "--preset", "A2", "--weight", "1,+1"],
        # a preset's rank has no leading zero and ASCII digits only
        ["graph", "--preset", "A02", "--weight", "1,0"],
        ["graph", "--preset", "A\u0662", "--weight", "1,0"],  # ARABIC-INDIC DIGIT TWO
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "ok").exists()


@pytest.mark.parametrize("text", ["1_0", "+1", " 1", "1 ", "\u0661"])
@pytest.mark.parametrize("command, flag", [
    (["graph", "--preset", "A2", "--weight", "1,0"], "--depth"),
    (["verify", "closed", "--preset", "A2", "--pairs", "1"], "--max-entry"),
    (["verify", "closed", "--preset", "A2"], "--pairs"),
    (["verify", "closed", "--preset", "A2", "--pairs", "1"], "--seed"),
])
def test_integer_flags_take_ascii_digits_only(command, flag, text, capsys):
    # the same usage error as any other text that is not an integer, such as x
    assert main(command + [flag, text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: argument {flag}: invalid int value: {text!r}\n"


def test_preset_rank_is_bounded(capsys):
    for family in "AD":
        name = f"{family}{MAX_PRESET_RANK + 1}"
        assert main(["graph", "--preset", name, "--weight", "1"]) == 2
        assert capsys.readouterr() == (
            "", f"error: preset rank must be at most {MAX_PRESET_RANK}: {name!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["graph", "--preset", "A2", "--root-datum", "rd.json", "--weight", "1,0"],
     "give either --preset or --root-datum, not both"),
    # B(0) is finite on any datum, so only the suite's own rule rejects this
    (["verify", "oracle", "--preset", "affineA1", "--weight", "0,0"],
     "oracle suite needs a finite-type root datum"),
    (["verify", "oracle", "--preset", "affineA1", "--weight", "1,0", "--depth", "2"],
     "oracle suite needs a finite-type root datum"),
])
def test_usage_error_names_its_rule(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rd.json").write_text('{"preset": "A2"}')
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_finite_type_is_decided_once_per_command(monkeypatch, capsys):
    calls = []

    def counting(rd):
        calls.append(rd.n)
        return infinite_vertices(rd)

    monkeypatch.setattr(cli, "infinite_vertices", counting)
    for argv, count in (
        (["verify", "oracle", "--preset", "A3", "--weight", "0,1,0"], 1),
        (["verify", "oracle", "--preset", "A3", "--weight", "0,1,0", "--depth", "2"], 1),
        (["verify", "oracle", "--preset", "affineA1", "--weight", "0,0"], 1),
        (["graph", "--preset", "A2", "--weight", "1,0"], 1),
        (["graph", "--preset", "A2", "--weight", "1,0", "--depth", "2"], 0),
        (["tensor", "--preset", "affineA1", "--weight", "0,0", "--weight", "0,1"], 1),
        (["verify", "closed", "--preset", "A2", "--pairs", "1"], 1),
    ):
        calls.clear()
        main(argv)
        assert len(calls) == count, argv
    capsys.readouterr()


def test_finite_type_takes_one_elimination_per_command(monkeypatch, capsys):
    # the decision is kept on the datum: the CLI's rule, decompose_tensor,
    # positive_roots, weyl_dim and the multiplicity recursion share it
    calls = []
    original = oracles._positive_definite

    def counting(cartan):
        calls.append(len(cartan))
        return original(cartan)

    monkeypatch.setattr(oracles, "_positive_definite", counting)
    for argv, n in (
        (["tensor", "--preset", "D4", "--weight", "1,0,0,0", "--weight", "0,1,0,0"], 4),
        (["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1", "--weight", "1,1"], 2),
        (["verify", "oracle", "--preset", "A3", "--weight", "0,1,0"], 3),
        (["verify", "oracle", "--preset", "E6", "--weight", "1,0,0,0,0,0", "--depth", "3"], 6),
    ):
        calls.clear()
        assert main(argv) == 0, argv
        assert calls == [n], argv
    capsys.readouterr()


def test_positive_roots_take_one_enumeration_per_command(monkeypatch, capsys):
    # the roots are kept on the datum: weyl_dim and the multiplicity
    # recursion of one oracle command share one enumeration (it made two)
    calls = []
    original = oracles._root_closure

    def counting(rd):
        calls.append(rd.n)
        return original(rd)

    monkeypatch.setattr(oracles, "_root_closure", counting)
    for argv in (["verify", "oracle", "--preset", "E6", "--weight", "1,0,0,0,0,1"],
                 ["verify", "oracle", "--preset", "E6", "--weight", "0,1,0,0,0,0", "--depth", "3"]):
        calls.clear()
        assert main(argv) == 0, argv
        assert calls == [6], argv
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["tensor", "--preset", "A2", "--weight", "1,1", "--weight", "1,0"],
     "node budget 2 exceeded at depth 1 with 0 nodes queued"),
    (["tensor", "--preset", "D4", "--weight", "1,0,0,0", "--weight", "0,1,0,0"],
     "node budget 2 exceeded at depth 1 with 0 nodes queued"),
    (["verify", "oracle", "--preset", "A3", "--weight", "1,1,1"],
     "node budget 2 exceeded at depth 1 with 1 nodes queued"),
    (["verify", "oracle", "--preset", "A3", "--weight", "1,1,1", "--depth", "2"],
     "node budget 2 exceeded at depth 1 with 1 nodes queued"),
])
def test_walked_factor_over_budget_exits_3(argv, message, monkeypatch, capsys):
    # tensor walks every factor but the largest, and verify oracle walks
    # B(lambda): the budget bounds the elements walked, and an overrun
    # reports what generating the same crystal would
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "2")
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unwritable_output_exits_2_after_the_work(capsys, tmp_path, monkeypatch):
    # a file name too long for the file system passes validation and fails at open
    monkeypatch.chdir(tmp_path)
    long = "x" * 300 + ".json"
    argv = ["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1"]
    assert main(argv + ["--tsv", "t.tsv", "--json", long]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert (tmp_path / "t.tsv").read_text().startswith("# complete: true")
    assert main(["graph", "--preset", "A2", "--weight", "1,0", "--dot", long]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_one_file_for_two_outputs_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept").write_text("old\n")
    (tmp_path / "link").symlink_to(tmp_path / "kept")
    for argv, message in (
        (["graph", "--preset", "A2", "--weight", "1,0", "--dot", "f", "--json", "f"],
         "output path f is given to both --dot and --json"),
        (["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1",
          "--tsv", "f", "--json", "./f"], "output path ./f is given to both --tsv and --json"),
        (["graph", "--preset", "A2", "--weight", "1,0", "--dot", "kept",
          "--json", str(tmp_path / "link")], "is given to both --dot and --json"),
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (argv, err)
        assert err.startswith("error: ") and message in err, (argv, err)
    assert not (tmp_path / "f").exists()
    assert (tmp_path / "kept").read_text() == "old\n"
    # stdout may take both outputs
    assert main(["graph", "--preset", "A2", "--weight", "1,0", "--dot", "-", "--json", "-"]) == 0
    assert capsys.readouterr().out.startswith("digraph crystal")


def run_fresh(argv, **env):
    """Run ``python -m kmcrystals.cli argv`` in a new interpreter."""
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "kmcrystals.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_usage_error_without_traceback():
    proc = run_fresh(["verify", "axioms", "--preset", "A2", "--weight", "1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["graph", "--preset", "A2", "--weight", "1,0"]) == 0
    assert main(["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1"]) == 0
    assert main(["verify", "axioms", "--preset", "A2", "--weight", "1,0"]) == 0
    assert built == []


def test_calls_in_one_interpreter_share_no_state(monkeypatch, capsys):
    # each output equals the same call's output in a new interpreter: the
    # append action starts empty, and an exit by argparse leaves nothing
    # behind; COLUMNS fixes the help text's width on both sides
    monkeypatch.setenv("COLUMNS", "80")
    tensor = ["tensor", "--preset", "A2"]
    sequence = [
        tensor + ["--weight", "1,0", "--weight", "0,1", "--weight", "1,1"],
        tensor + ["--weight", "1,0", "--weight", "0,1"],
        tensor + ["--tsv", "-"],  # no --weight: a usage error
        tensor + ["--weight", "2,0"],
        ["tensor", "--help"],
        tensor + ["--weight", "1,1", "--weight", "1,0"],
    ]
    codes = []
    for argv in sequence:
        rc = main(argv)
        captured = capsys.readouterr()
        fresh = run_fresh(argv, COLUMNS="80")
        assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout,
                                                    fresh.stderr), argv
        codes.append(rc)
    assert codes == [0, 0, 2, 0, 0, 0]


def test_missing_root_datum_exits_2():
    assert main(["graph", "--weight", "1,0"]) == 2
    assert main(["graph", "--root-datum", "/nonexistent/rd.json", "--weight", "1,0"]) == 2


def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "nonsense", "--preset", "A2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # the choices' quoting differs between Python versions; the line does not
    assert err.startswith("error: argument suite: invalid choice: 'nonsense' (choose from ")
    assert err.count("\n") == 1 and err.endswith(")\n")


@pytest.mark.parametrize("argv, message", [
    (["graph", "--preset", "A2"], "the following arguments are required: --weight"),
    ([], "the following arguments are required: command"),
    (["graph", "--preset", "A2", "--weight", "1,0", "--svg", "-"],
     "unrecognized arguments: --svg -"),
])
def test_argparse_usage_error_is_one_line(argv, message, capsys):
    # the parser's own errors read like every other usage error: no usage lines
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_help_still_prints_to_stdout(capsys):
    assert main(["graph", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: kmcrystals graph") and err == ""


def test_budget_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "2")
    code = main(["graph", "--preset", "A2", "--weight", "1,0", "--dot", str(tmp_path / "x.dot")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: node budget 2 exceeded at depth 1 with 0 nodes queued\n"
    for value in ("abc", "-5"):  # a malformed budget is a usage error, found before any work
        capsys.readouterr()
        monkeypatch.setenv("CRYSTAL_NODE_BUDGET", value)
        assert main(["graph", "--preset", "A2", "--weight", "1,0"]) == 2, value
        out, err = capsys.readouterr()
        assert out == "", value
        assert err.startswith("error: ") and err.count("\n") == 1, (value, err)


def test_tensor_budget_bounds_factors_only(tmp_path, monkeypatch):
    # 8-node factors, 64-node product: only the factors count against the budget
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "10")
    path = tmp_path / "t.tsv"
    assert main(["tensor", "--preset", "A2", "--weight", "1,1", "--weight", "1,1",
                 "--tsv", str(path)]) == 0
    monkeypatch.delenv("CRYSTAL_NODE_BUDGET")
    unbudgeted = tmp_path / "u.tsv"
    assert main(["tensor", "--preset", "A2", "--weight", "1,1", "--weight", "1,1",
                 "--tsv", str(unbudgeted)]) == 0
    assert path.read_text() == unbudgeted.read_text()


def test_tensor_budget_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "2")
    path = tmp_path / "t.tsv"
    assert main(["tensor", "--preset", "A2", "--weight", "1,0", "--weight", "0,1",
                 "--tsv", str(path)]) == 3
    assert "budget" in capsys.readouterr().err
    # an infinite factor without --depth is a usage error, found before any work
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "50")
    assert main(["tensor", "--preset", "affineA1", "--weight", "0,0", "--weight", "1,0",
                 "--tsv", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: weight 1,0 is nonzero on a component")
    # the library decomposes an infinite first factor exactly, but the CLI
    # applies the one per-weight rule to every --weight
    assert main(["tensor", "--preset", "affineA1", "--weight", "1,0", "--weight", "0,0",
                 "--tsv", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: weight 1,0 is nonzero on a component")


def test_finiteness_decided_per_component(tmp_path, capsys):
    # vertex 1 alone (A1) beside vertices 2-3 joined by a double edge (affine A1)
    path = tmp_path / "rd.json"
    path.write_text('{"adjacency": [[0, 0, 0], [0, 0, 2], [0, 2, 0]]}')
    assert main(["graph", "--root-datum", str(path), "--weight", "1,0,0", "--json", "-"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == 2
    assert main(["verify", "closed", "--root-datum", str(path), "--max-entry", "0",
                 "--pairs", "1"]) == 0
    capsys.readouterr()
    for argv in (
        ["graph", "--root-datum", str(path), "--weight", "1,0,1"],
        ["verify", "closed", "--root-datum", str(path), "--pairs", "1"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "give --depth" in err
    assert main(["graph", "--root-datum", str(path), "--weight", "1,0,1", "--depth", "2",
                 "--json", "-"]) == 0
    capsys.readouterr()
    # B(0) is one node on any datum
    assert main(["graph", "--preset", "affineA1", "--weight", "0,0", "--json", "-"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == 1


def test_root_datum_file(tmp_path, capsys):
    path = tmp_path / "rd.json"
    path.write_text('{"adjacency": [[0, 1], [1, 0]]}')
    assert main(["graph", "--root-datum", str(path), "--weight", "1,0"]) == 0
    capsys.readouterr()


def test_verify_suites_pass(capsys):
    assert main(["verify", "axioms", "--preset", "A2", "--weight", "1,1"]) == 0
    assert main(["verify", "normal", "--preset", "A2", "--weight", "1,1"]) == 0
    assert main(["verify", "embedding", "--preset", "A2", "--weight", "2,1"]) == 0
    assert main(["verify", "oracle", "--preset", "A3", "--weight", "0,1,0"]) == 0
    assert main(["verify", "closed", "--preset", "A2", "--max-entry", "2",
                 "--pairs", "4", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "#B = 6" in out


@pytest.mark.parametrize("depth, count", [(0, 1), (1, 3), (4, 8)])
def test_oracle_with_depth_compares_the_height_cut(depth, count, capsys):
    # a depth-d generation holds the elements of height <= d; only the
    # uncut depth 4 holds all of weyl_dim(1,1) = 8
    assert main(["verify", "oracle", "--preset", "A2", "--weight", "1,1",
                 "--depth", str(depth)]) == 0
    assert capsys.readouterr().out == (
        f"oracle: #B = {count}, weyl_dim = 8\n"
        "oracle: character matches multiplicity recursion\nPASS\n")


def test_verify_seed_determinism(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "closed", "--preset", "A2", "--pairs", "3", "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_needs_weight(capsys):
    assert main(["verify", "axioms", "--preset", "A2"]) == 2
    capsys.readouterr()


def test_negative_depth_exits_2(capsys):
    assert main(["graph", "--preset", "A2", "--weight", "1,0", "--depth", "-3"]) == 2
    capsys.readouterr()


def test_tensor_output_ignores_factor_order(capsys):
    capsys.readouterr()
    for flag in ("--tsv", "--json"):
        outs = []
        for weights in (["0,0,0,1", "0,1,0,1"], ["0,1,0,1", "0,0,0,1"]):
            assert main(["tensor", "--preset", "D4", "--weight", weights[0],
                         "--weight", weights[1], flag, "-"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], flag


def test_tensor_single_weight(tmp_path):
    path = tmp_path / "single.tsv"
    assert main(["tensor", "--preset", "A2", "--weight", "2,1", "--tsv", str(path)]) == 0
    assert path.read_text() == (
        "# complete: true\nlambda\troot\tmultiplicity\n2,1\t0,0\t1\n"
    )


def test_tensor_triple_sl2(tmp_path):
    path = tmp_path / "triple.tsv"
    assert main(["tensor", "--preset", "A1", "--weight", "1", "--weight", "1",
                 "--weight", "1", "--tsv", str(path)]) == 0
    assert path.read_text() == (
        "# complete: true\nlambda\troot\tmultiplicity\n3\t0\t1\n3\t1\t2\n"
    )
