"""End-to-end command line behavior: outputs, reports, exit codes."""

import json
import subprocess
import sys

import pytest

from weilgraph import InputDocument, Report
from weilgraph.cli import (
    MAX_EDGES,
    MAX_FORM_DIMENSION,
    MAX_SUBDIVIDED_EDGES,
    MAX_VERIFY_EDGES,
    MAX_VERTICES,
    main,
)

THETA = '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]}'
THETA_MODEL = (
    '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]],'
    ' "genera": [0, 0], "stabilizers": [2, 3, 2]}'
)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(THETA)
    return str(path)


@pytest.fixture
def theta_model_file(tmp_path):
    path = tmp_path / "theta_model.json"
    path.write_text(THETA_MODEL)
    return str(path)


def test_homology_human(theta_file, capsys):
    assert main(["homology", "--graph", theta_file]) == 0
    out = capsys.readouterr().out
    assert "genus 2" in out
    assert "c0: edges [0, 1]" in out
    assert "pairing is perfect: yes" in out


def test_homology_json(theta_file, capsys):
    assert main(["homology", "--graph", theta_file, "--json"]) == 0
    report = Report.from_json(capsys.readouterr().out.strip())
    assert report.command == "homology"
    assert report.input_digest == InputDocument.parse(THETA).digest()
    assert report.payload["genus"] == 2
    assert report.payload["cycles"] == [[0, 1], [0, 2]]
    assert report.payload["gram"] == [[1, 0], [0, 1]]
    assert report.payload["perfect"] is True


def test_cover_lift_and_agreement(theta_file, capsys):
    code = main(
        ["cover", "--graph", theta_file, "--gamma", "1", "--alpha", "0,1", "--json"]
    )
    assert code == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["connected"] is True
    assert payload["lift_count"] == 1
    assert payload["lift_sizes"] == [4]
    assert payload["pairing_cover"] == 1
    assert payload["pairing_algebraic"] == 1
    assert payload["agree"] is True


def test_cover_split_lift(theta_file, capsys):
    code = main(["cover", "--graph", theta_file, "--gamma", "1", "--alpha", "0,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "a cycle of length 2 and a cycle of length 2" in out
    assert "agreement: yes" in out


def test_cover_empty_gamma_disconnects(theta_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", ""]) == 0
    assert "cover is connected: no" in capsys.readouterr().out


def test_cover_dot_file(theta_file, tmp_path, capsys):
    dot_path = tmp_path / "cover.dot"
    code = main(
        ["cover", "--graph", theta_file, "--gamma", "1", "--dot", str(dot_path)]
    )
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("graph cover {")
    assert "style=dashed" in text
    assert f"wrote {dot_path}" in capsys.readouterr().out


def test_cover_dot_stdout(theta_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", "1", "--dot", "-"]) == 0
    assert "v0_a -- v1_b" in capsys.readouterr().out


def test_torsion(theta_model_file, capsys):
    assert main(["torsion", "--graph", theta_model_file, "--json"]) == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["two_torsion_order"] == 8
    assert payload["block_dimensions"] == [2, 0, 1]
    assert payload["nondegenerate"] is False
    assert payload["alternating"] is True
    assert payload["invertible"] is False


def test_torsion_human(theta_model_file, capsys):
    assert main(["torsion", "--graph", theta_model_file]) == 0
    out = capsys.readouterr().out
    assert "two-torsion order: 8" in out
    assert "weil form dimension: 3 = 2 + 0 + 1" in out


def test_tropical(theta_file, capsys):
    assert main(["tropical", "--graph", theta_file, "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "critical group of subdivision: Z/2 x Z/6" in out
    assert "r-torsion count: 4, expected 4" in out
    assert "verdict: PASS" in out


def test_tropical_json_nonsep(theta_file, capsys):
    code = main(
        ["tropical", "--graph", theta_file, "--r", "3", "--mode", "nonsep", "--json"]
    )
    assert code == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["torsion_count"] == 9 == payload["expected"]
    assert payload["verdict"] is True


def test_verify_passes(capsys):
    assert main(["verify", "--max-edges", "3"]) == 0
    out = capsys.readouterr().out
    assert "all sweeps passed" in out


def test_verify_json(capsys):
    assert main(["verify", "--max-edges", "2", "--r", "2", "--json"]) == 0
    report = Report.from_json(capsys.readouterr().out.strip())
    assert report.command == "verify"
    assert report.payload["ok"] is True
    assert len(report.payload["sweeps"]) == 4
    assert all(s["failures"] == 0 for s in report.payload["sweeps"])


def test_verify_inject_fault(capsys):
    assert main(["verify", "--max-edges", "2", "--inject-fault"]) == 4
    out = capsys.readouterr().out
    assert "FAILURES FOUND" in out
    assert "counterexample" in out


def test_bad_document_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 2}')
    assert main(["homology", "--graph", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit(tmp_path, capsys):
    assert main(["homology", "--graph", str(tmp_path / "absent.json")]) == 2


def test_gamma_not_an_integer(theta_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", "x"]) == 2


def test_gamma_out_of_range(theta_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", "7"]) == 3


def test_alpha_not_simple(theta_file, capsys):
    # a single theta edge is not a cycle
    assert main(["cover", "--graph", theta_file, "--alpha", "0"]) == 3


def test_tropical_bad_r(theta_file, capsys):
    assert main(["tropical", "--graph", theta_file, "--r", "0"]) == 2
    assert "--r" in capsys.readouterr().err


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_stdin_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "weilgraph.cli", "homology", "--graph", "-", "--json"],
        input=THETA,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["payload"]
    assert payload["genus"] == 2


def test_verify_bad_r_factor(capsys):
    assert main(["verify", "--max-edges", "1", "--r", "2,x"]) == 2
    err = capsys.readouterr().err
    assert "--r: 'x'" in err
    assert "invalid literal" not in err


def test_tropical_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": 0, "edges": []}')
    assert main(["tropical", "--graph", str(path)]) == 3
    err = capsys.readouterr().err
    assert "empty graph" in err
    assert "base vertex" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-edges", "-1"],
        ["verify", "--max-edges", str(MAX_VERIFY_EDGES + 1)],
        ["verify", "--max-edges", "1000000"],
        ["verify", "--max-edges", "1", "--r", "0"],
        ["verify", "--max-edges", "1", "--r", "2,-3"],
        ["verify", "--max-edges", "4", "--r", str(MAX_SUBDIVIDED_EDGES // 4 + 1)],
    ],
)
def test_verify_usage_errors(argv, capsys):
    # bad or oversized options are usage errors, rejected before any sweep
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --")


def test_tropical_subdivision_ceiling(theta_file, capsys):
    # theta has 3 edges: r x 3 may reach the ceiling but not pass it
    top = MAX_SUBDIVIDED_EDGES // 3
    assert main(["tropical", "--graph", theta_file, "--r", str(top + 1)]) == 2
    assert "r x edges" in capsys.readouterr().err
    assert main(["tropical", "--graph", theta_file, "--r", str(10**100)]) == 2
    assert main(["tropical", "--graph", theta_file, "--r", str(top), "--json"]) == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["torsion_count"] == top**2 == payload["expected"]


def test_torsion_form_dimension_ceiling(tmp_path, capsys):
    # 2 x genus + 2 x sum of genera may reach the ceiling but not pass it
    top = MAX_FORM_DIMENSION // 2
    path = tmp_path / "model.json"
    for doc in (
        {"vertices": 1, "edges": [], "genera": [top + 1]},
        {"vertices": 1, "edges": [[0, 0]] * (top + 1)},
        {"vertices": 1, "edges": [], "genera": [10**5]},
    ):
        path.write_text(json.dumps(doc))
        assert main(["torsion", "--graph", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"over {MAX_FORM_DIMENSION}" in captured.err
    path.write_text(
        json.dumps({"vertices": 1, "edges": [[0, 0]], "genera": [top - 1], "stabilizers": [2]})
    )
    assert main(["torsion", "--graph", str(path), "--json"]) == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["form_dimension"] == MAX_FORM_DIMENSION
    assert payload["invertible"] is True


@pytest.mark.parametrize("command", ["homology", "cover", "torsion", "tropical"])
def test_vertex_ceiling(command, tmp_path, capsys):
    # a huge vertex count fails before any per-vertex state is built
    path = tmp_path / "doc.json"
    for n in (MAX_VERTICES + 1, 10**8):
        path.write_text(json.dumps({"vertices": n, "edges": []}))
        assert main([command, "--graph", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"vertices: {n} is over {MAX_VERTICES}" in captured.err
    # a path on MAX_VERTICES vertices passes; its edges are past tropical's
    # own subdivision ceiling
    edges = [[v, v + 1] for v in range(MAX_VERTICES - 1)]
    path.write_text(json.dumps({"vertices": MAX_VERTICES, "edges": edges}))
    code = main([command, "--graph", str(path), "--json"])
    captured = capsys.readouterr()
    if command == "tropical":
        assert code == 2
        assert "r x edges" in captured.err
    else:
        assert code == 0
        assert captured.err == ""


@pytest.mark.parametrize("command", ["homology", "cover", "torsion", "tropical"])
def test_edge_ceiling(command, tmp_path, capsys):
    # parallel edges on two vertices: past the ceiling no command builds a
    # graph; at it, cover runs and the others stop at their own ceilings
    path = tmp_path / "doc.json"
    argv = [command, "--graph", str(path), "--json"]
    if command == "cover":
        argv += ["--gamma", "0"]
    for m in (MAX_EDGES + 1, 100_000):
        path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]] * m}))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"edges: {m} is over {MAX_EDGES}" in captured.err
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]] * MAX_EDGES}))
    code = main(argv)
    captured = capsys.readouterr()
    if command == "cover":
        assert code == 0
        assert captured.err == ""
    else:
        assert code == 2
        assert f"over {MAX_EDGES}" not in captured.err


def test_homology_genus_ceiling(tmp_path, capsys):
    # the genus x genus Gram may reach the form ceiling but not pass it
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]] * (MAX_FORM_DIMENSION + 1)}))
    assert main(["homology", "--graph", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"genus {MAX_FORM_DIMENSION + 1} is over {MAX_FORM_DIMENSION}" in captured.err
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]] * MAX_FORM_DIMENSION}))
    assert main(["homology", "--graph", str(path), "--json"]) == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["genus"] == len(payload["gram"]) == MAX_FORM_DIMENSION
