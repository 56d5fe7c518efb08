import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmcrystals import build_root_datum, closed_family_instance
from kmcrystals.cli import main

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
    for argv in (
        ["graph", "--preset", "A2", "--weight", "a,b"],
        ["graph", "--preset", "A2", "--weight", "1"],
        ["verify", "axioms", "--preset", "A2", "--weight", "1"],
        ["verify", "oracle", "--preset", "A2", "--weight", "1,x"],
        ["verify", "closed", "--preset", "A2", "--max-entry", "-1"],
        ["verify", "closed", "--preset", "A2", "--pairs", "-1"],
        ["verify", "oracle", "--preset", "affineA1", "--weight", "1,0"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", "/nonexistent/x.dot"],
        ["tensor", "--preset", "A2", "--weight", "1,0", "--tsv", "/nonexistent/t.tsv"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--dot", "ok",
         "--json", "/nonexistent/y.json"],
        ["graph", "--preset", "A2", "--weight", "1,0", "--json", "."],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert not (tmp_path / "ok").exists()


def test_usage_error_without_traceback():
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "kmcrystals.cli", "verify", "axioms", "--preset", "A2",
         "--weight", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_missing_root_datum_exits_2():
    assert main(["graph", "--weight", "1,0"]) == 2
    assert main(["graph", "--root-datum", "/nonexistent/rd.json", "--weight", "1,0"]) == 2


def test_unknown_suite_exits_2(capsys):
    assert main(["verify", "nonsense", "--preset", "A2"]) == 2
    capsys.readouterr()


def test_budget_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "2")
    code = main(["graph", "--preset", "A2", "--weight", "1,0", "--dot", str(tmp_path / "x.dot")])
    assert code == 3


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
    # an infinite factor without --depth
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "50")
    assert main(["tensor", "--preset", "affineA1", "--weight", "0,0", "--weight", "1,0",
                 "--tsv", str(path)]) == 3
    assert "budget" in capsys.readouterr().err


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
