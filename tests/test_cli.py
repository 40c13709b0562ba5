"""End-to-end command line behavior: outputs, reports, exit codes."""

import hashlib
import io
import json
import random
import subprocess
import sys

import pytest

from weilgraph import (
    Divisor,
    InputDocument,
    Report,
    TwistedCurveModel,
    cli,
    dhar_reduce,
    verify_torsion_on_subdivision,
)
from weilgraph.cli import (
    MAX_EDGES,
    MAX_FORM_DIMENSION,
    MAX_SUBDIVIDED_EDGES,
    MAX_VERIFY_EDGES,
    MAX_VERIFY_FACTORS,
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


@pytest.mark.parametrize("target", ["missing/cover.dot", ""], ids=["no-dir", "a-dir"])
def test_cover_dot_unwritable(theta_file, tmp_path, capsys, target):
    dot_path = tmp_path / target
    code = main(["cover", "--graph", theta_file, "--gamma", "1", "--dot", str(dot_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {dot_path}: ")


def test_cover_dot_stdout(theta_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", "1", "--dot", "-"]) == 0
    assert "v0_a -- v1_b" in capsys.readouterr().out


def test_cover_dot_stdout_with_json(theta_file, tmp_path, capsys):
    # DOT text on stdout would make the report unreadable as JSON
    argv = ["cover", "--graph", theta_file, "--gamma", "1", "--json", "--dot"]
    assert main([*argv, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --dot - and --json")
    dot_path = tmp_path / "cover.dot"
    assert main([*argv, str(dot_path)]) == 0
    assert Report.from_json(capsys.readouterr().out.strip()).payload["connected"] is True
    assert dot_path.read_text().startswith("graph cover {")


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


def test_cover_and_torsion_pass_their_checks(theta_file, theta_model_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", "0", "--alpha", "0,1"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["torsion", "--graph", theta_model_file]) == 0
    assert capsys.readouterr().err == ""


def test_cover_wrong_pairing_exits_4(theta_file, capsys, monkeypatch):
    graph_pairing = cli.graph_pairing
    monkeypatch.setattr(
        cli, "graph_pairing", lambda gamma, alpha: 1 - graph_pairing(gamma, alpha)
    )
    argv = ["cover", "--graph", theta_file, "--gamma", "1", "--alpha", "0,1", "--json"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == "counterexample: pairing\n"
    payload = Report.from_json(captured.out.strip()).payload
    assert (payload["pairing_cover"], payload["pairing_algebraic"]) == (1, 0)
    assert payload["agree"] is False


def test_cover_wrong_lift_shape_exits_4(theta_file, capsys, monkeypatch):
    # the lift of the 2-cycle as one component, one edge short of its 4
    lift_cycle = cli.lift_cycle
    monkeypatch.setattr(
        cli,
        "lift_cycle",
        lambda cover, alpha: (frozenset(sorted(lift_cycle(cover, alpha)[0])[1:]),),
    )
    argv = ["cover", "--graph", theta_file, "--gamma", "1", "--alpha", "0,1"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == "counterexample: lift-shape\n"
    assert "lift: one cycle of length 3" in captured.out
    assert "agreement: yes" in captured.out


def test_torsion_wrong_order_exits_4(theta_model_file, capsys, monkeypatch):
    # 16 is not 2 to the form's dimension 3, and it is 2 to twice the
    # genus 2 of a model with an odd non-separating edge
    two_torsion_order = TwistedCurveModel.two_torsion_order
    monkeypatch.setattr(
        TwistedCurveModel, "two_torsion_order", lambda model: 2 * two_torsion_order(model)
    )
    assert main(["torsion", "--graph", theta_model_file, "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "counterexample: order-vs-dimension,full-size-criterion\n"
    assert Report.from_json(captured.out.strip()).payload["two_torsion_order"] == 16


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


@pytest.mark.parametrize(
    ("argv", "code", "digest"),
    [
        (
            ["verify", "--max-edges", "4", "--json"],
            0,
            "859f1eaaf5be43cc49f4bbd5f95771cab9c895a65afa00fea1d25b2ccba6abe5",
        ),
        (
            ["verify", "--max-edges", "3", "--inject-fault", "--json"],
            4,
            "4a0577985ce6e38e2176fb9d6b15e127a8bd411286bb6c045571d5fcc014fea7",
        ),
    ],
    ids=["max-edges-4", "inject-fault"],
)
def test_verify_json_pinned(argv, code, digest, capsys):
    # the whole report, byte for byte: any change to an answer shows here
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _corpus_document(rng, split):
    # a random tree on each part, then loops, parallel copies and chords,
    # in shuffled edge order; genera and stabilizers decorate every vertex
    # and edge
    m = rng.randint(8, 40)
    n = rng.randint(2 if split else 1, m)
    cut = rng.randint(1, n - 1) if split else n
    edges = [[rng.randrange(cut if v >= cut else 0, v), v] for v in range(1, n) if v != cut]
    while len(edges) < m:
        kind = rng.random()
        if kind < 0.2:
            v = rng.randrange(n)
            edges.append([v, v])
        elif kind < 0.45 and edges:
            edges.append(list(rng.choice(edges)))
        else:
            u = rng.randrange(n)
            lo, hi = (0, cut) if u < cut else (cut, n)
            edges.append([u, rng.randrange(lo, hi)])
    rng.shuffle(edges)
    return {
        "vertices": n,
        "edges": edges,
        "genera": [rng.choice((0, 0, 1, 2)) for _ in range(n)],
        "stabilizers": [rng.choice((1, 2, 3, 4)) for _ in edges],
    }


def test_seeded_report_corpus_pinned(tmp_path, capsys):
    # every report the cycle bases feed, on seeded 8-40-edge documents with
    # loops, parallel edges, genera, stabilizers and some split graphs
    rng = random.Random(2023)
    path = tmp_path / "doc.json"
    digest = hashlib.sha256()
    codes = []

    def run(*argv):
        code = main([*argv, "--graph", str(path), "--json"])
        out = capsys.readouterr().out
        digest.update(f"{code}\n{out}".encode())
        codes.append(code)
        return out

    for i in range(60):
        doc = _corpus_document(rng, split=i % 6 == 5)
        path.write_text(json.dumps(doc))
        m = len(doc["edges"])
        cycles = json.loads(run("homology"))["payload"]["cycles"]
        run("torsion")
        for mode in ("all", "nonsep"):
            run("tropical", "--r", str(rng.randint(2, 400 // m)), "--mode", mode)
        if cycles:
            gamma, alpha = rng.choice(cycles), rng.choice(cycles)
            run("cover", "--gamma", ",".join(map(str, gamma)), "--alpha", ",".join(map(str, alpha)))
        else:
            run("cover", "--gamma", "")
    # split graphs: homology and torsion report, tropical and cover exit 3
    assert (len(codes), codes.count(3)) == (300, 30), codes
    assert digest.hexdigest() == (
        "e5d110a146af1c2de780a49be607d7084ab56f176b2c700f74fe48267de941b7"
    )


def test_bad_document_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": 2}')
    assert main(["homology", "--graph", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_document_exit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main(["homology", "--graph", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_missing_file_exit(tmp_path, capsys):
    assert main(["homology", "--graph", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_non_utf8_file_exit(stdin, tmp_path, capsys, monkeypatch):
    raw = THETA.encode() + b"\xff"
    if stdin:
        path = "-"
        wrapper = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", wrapper)
    else:
        path = tmp_path / "theta.json"
        path.write_bytes(raw)
    assert main(["homology", "--graph", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_gamma_not_an_integer(theta_file, capsys):
    assert main(["cover", "--graph", theta_file, "--gamma", "x"]) == 2


def test_gamma_out_of_range(theta_file, capsys):
    for option in ("--gamma", "--alpha"):
        assert main(["cover", "--graph", theta_file, option, "7"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"{option}: edge index 7 out of range" in err


def test_alpha_not_simple(theta_file, capsys):
    # a single theta edge is not a cycle
    assert main(["cover", "--graph", theta_file, "--alpha", "0"]) == 3


def test_tropical_bad_r(theta_file, capsys):
    assert main(["tropical", "--graph", theta_file, "--r", "0"]) == 2
    assert "--r" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    # argparse's usage errors return the usage exit with one error line
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0


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


@pytest.mark.parametrize("command", ["tropical", "cover"])
def test_tropical_empty_graph(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": 0, "edges": []}')
    assert main([command, "--graph", str(path)]) == 3
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
        ["verify", "--max-edges", "2", "--r", "2,2,2"],
        ["verify", "--max-edges", "1", "--r", "3,2,3"],
        ["verify", "--max-edges", "0", "--r", ",".join(map(str, range(MAX_VERIFY_FACTORS + 1)))],
        ["verify", "--max-edges", "0", "--r", ",".join(["1"] * 1000)],
    ],
)
def test_verify_usage_errors(argv, capsys):
    # bad or oversized options are usage errors, rejected before any sweep
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --")


def test_verify_factor_ceiling(capsys):
    # as many distinct factors as the ceiling allows pass, and each runs
    # the torsion sweep once
    def torsion_instances(rs):
        assert main(["verify", "--max-edges", "1", "--json", "--r", rs]) == 0
        sweeps = Report.from_json(capsys.readouterr().out).payload["sweeps"]
        return next(s["instances"] for s in sweeps if s["name"] == "subdivision-r-torsion")

    factors = ",".join(str(r) for r in range(2, MAX_VERIFY_FACTORS + 2))
    assert torsion_instances(factors) == MAX_VERIFY_FACTORS * torsion_instances("2")


def test_tropical_subdivision_ceiling(theta_file, capsys):
    # theta has 3 edges: r x 3 may reach the ceiling but not pass it
    top = MAX_SUBDIVIDED_EDGES // 3
    assert main(["tropical", "--graph", theta_file, "--r", str(top + 1)]) == 2
    assert "r x edges" in capsys.readouterr().err
    assert main(["tropical", "--graph", theta_file, "--r", str(10**100)]) == 2
    assert main(["tropical", "--graph", theta_file, "--r", str(top), "--json"]) == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    assert payload["torsion_count"] == top**2 == payload["expected"]


def test_tropical_generators_at_the_ceiling(tmp_path, capsys):
    # 200 edges on 20 vertices at r = 2 meet the r x edges ceiling: genus
    # 181, far past the sweeps, and each generator has order exactly r
    rng = random.Random(61)
    edges = [rng.sample(range(20), 2) for _ in range(200)]
    assert 2 * len(edges) == MAX_SUBDIVIDED_EDGES
    path = tmp_path / "ceiling.json"
    path.write_text(json.dumps({"vertices": 20, "edges": edges}))
    assert main(["tropical", "--graph", str(path), "--r", "2", "--json"]) == 0
    payload = Report.from_json(capsys.readouterr().out.strip()).payload
    genus = payload["graph_genus"]
    assert genus == 181
    assert payload["torsion_count"] == payload["expected"] == 2**genus
    assert payload["generator_count"] == genus
    rep = verify_torsion_on_subdivision(InputDocument.parse(path.read_text()).graph(), 2)
    child = rep.subdivision
    zero = Divisor.zero(child)
    for gen in rng.sample(rep.generators, 5):
        assert dhar_reduce(child, gen) != zero
        assert dhar_reduce(child, gen.scale(2)) == zero


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
