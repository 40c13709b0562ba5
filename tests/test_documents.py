"""Input documents: strict parsing, canonical serialization, digests."""

import hashlib
import json

import pytest

from weilgraph import DocumentError, InputDocument, Report, documents, theta_graph

THETA_JSON = '{"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]}'
THETA_CANONICAL = '{"edges":[[0,1],[0,1],[0,1]],"vertices":2}'


def test_parse_and_canonical():
    doc = InputDocument.parse(THETA_JSON)
    assert doc.vertices == 2
    assert doc.edges == ((0, 1), (0, 1), (0, 1))
    assert doc.genera is None and doc.stabilizers is None
    assert doc.canonical_json() == THETA_CANONICAL
    # key order and whitespace in the input never reach the canonical form
    shuffled = InputDocument.parse(
        '{"edges": [[0,1],[0,1],[0,1]],  "vertices": 2}'
    )
    assert shuffled.canonical_json() == THETA_CANONICAL


def test_digest_is_sha256_of_canonical():
    doc = InputDocument.parse(THETA_JSON)
    expected = hashlib.sha256(THETA_CANONICAL.encode("utf-8")).hexdigest()
    assert doc.digest() == expected


def test_graph_and_model_defaults():
    doc = InputDocument.parse(THETA_JSON)
    assert doc.graph() == theta_graph()
    model = doc.model()
    assert model.vertex_genus == (0, 0)
    assert model.edge_order == (1, 1, 1)


def test_decorations_round_trip():
    raw = '{"vertices": 2, "edges": [[0, 1]], "genera": [1, 0], "stabilizers": [3]}'
    doc = InputDocument.parse(raw)
    assert doc.genera == (1, 0)
    assert doc.stabilizers == (3,)
    assert doc.canonical_json() == (
        '{"edges":[[0,1]],"genera":[1,0],"stabilizers":[3],"vertices":2}'
    )
    again = InputDocument.parse(doc.canonical_json())
    assert again == doc
    assert doc.model().edge_order == (3,)
    assert json.loads(doc.canonical_json()) == doc.to_mapping()


@pytest.mark.parametrize(
    "raw",
    [
        "not json",
        "[1, 2]",
        '{"edges": [[0, 1]]}',
        '{"vertices": 2}',
        '{"vertices": 2, "edges": [[0, 1]], "extra": 1}',
        '{"vertices": true, "edges": []}',
        '{"vertices": 2.0, "edges": []}',
        '{"vertices": -1, "edges": []}',
        '{"vertices": 2, "edges": [[0, 1, 2]]}',
        '{"vertices": 2, "edges": [[0, 2]]}',
        '{"vertices": 2, "edges": [[0, -1]]}',
        '{"vertices": 2, "edges": [0]}',
        '{"vertices": 2, "edges": {}}',
        '{"vertices": 2, "edges": [[0, true]]}',
        '{"vertices": 2, "edges": [], "genera": [0]}',
        '{"vertices": 2, "edges": [], "genera": [0, -1]}',
        '{"vertices": 2, "edges": [[0, 1]], "stabilizers": []}',
        '{"vertices": 2, "edges": [[0, 1]], "stabilizers": [0]}',
        '{"vertices": 2, "edges": [[0, 1]], "stabilizers": [1.5]}',
        # json alone keeps each key's last value: one edge on two vertices
        pytest.param(
            '{"vertices": 1, "edges": [[0, 0]], "vertices": 2, "edges": [[0, 1]]}',
            id="repeated-key",
        ),
        pytest.param('{"vertices": 1%s, "edges": []}' % ("0" * 5000), id="5001-digit-int"),
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
    ],
)
def test_rejects_malformed(raw):
    with pytest.raises(DocumentError):
        InputDocument.parse(raw)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": 1001, "edges": [[0, 1]] * 5}, "vertices: 1001 is over 1000"),
        ({"vertices": 2, "edges": [[0, 1]] * 2001}, "edges: 2001 is over 2000"),
    ],
    ids=["vertices", "edges"],
)
def test_counts_are_refused_before_any_edge_is_read(doc, message, monkeypatch):
    # the vertex count is the one integer read before a count is refused
    reads = []
    expect_int = documents._expect_int

    def counted(value, what):
        reads.append(what)
        return expect_int(value, what)

    monkeypatch.setattr(documents, "_expect_int", counted)
    with pytest.raises(DocumentError, match=f"^{message}$"):
        InputDocument.parse(json.dumps(doc))
    assert len(reads) <= 1


def test_too_many_commas_are_refused_before_parsing(monkeypatch):
    # 2,000,000 edges are under the length ceiling but far past any
    # document the counts admit; json.loads never sees them
    def refused(text):
        raise AssertionError("json.loads was called")

    monkeypatch.setattr(documents.json, "loads", refused)
    text = json.dumps({"vertices": 2, "edges": [[0, 1]] * 2_000_000})
    with pytest.raises(DocumentError, match="^commas: 4000000 is over 7000$"):
        InputDocument.parse(text)


def test_the_largest_document_the_ceilings_admit_parses():
    # every count at its ceiling: exactly MAX_COMMAS commas
    vertices, m = documents.MAX_VERTICES, documents.MAX_EDGES
    edges = [[e % vertices, (e + 1) % vertices] for e in range(m)]
    doc = {
        "vertices": vertices,
        "edges": edges,
        "genera": [0] * vertices,
        "stabilizers": [2] * m,
    }
    text = json.dumps(doc)
    assert text.count(",") == documents.MAX_COMMAS == 7000
    parsed = InputDocument.parse(text)
    assert parsed.to_mapping() == doc


def test_document_error_is_value_error():
    assert issubclass(DocumentError, ValueError)


def test_report_round_trip():
    doc = InputDocument.parse(THETA_JSON)
    rep = Report(
        command="torsion", input_digest=doc.digest(), payload={"b": 1, "a": [2, 3]}
    )
    encoded = rep.to_json()
    assert encoded == (
        '{"command":"torsion","input_digest":"%s",'
        '"payload":{"a":[2,3],"b":1},"schema_version":1}' % doc.digest()
    )
    assert Report.from_json(encoded) == rep
    assert Report.from_json(encoded).to_json() == encoded


def test_report_schema_version_is_not_settable():
    # the one version from_json accepts is the one every report writes
    with pytest.raises(TypeError):
        Report("t", "x", {}, schema_version=2)
    rep = Report("t", "x", {})
    with pytest.raises(AttributeError):
        rep.schema_version = 2
    assert Report.from_json(rep.to_json()).schema_version == 1


@pytest.mark.parametrize(
    "raw",
    [
        "nope",
        "[]",
        '{"command": "torsion"}',
        '{"command": 1, "input_digest": "x", "payload": {}, "schema_version": 1}',
        '{"command": "t", "input_digest": "x", "payload": {}, "schema_version": 2}',
        '{"command": "t", "input_digest": "x", "payload": {}, "schema_version": 1, "y": 0}',
        '{"command": "t", "input_digest": "x", "payload": {}, "schema_version": true}',
        '{"command": "t", "input_digest": "x", "payload": {}, "schema_version": 1.0}',
        pytest.param(
            '{"command": "t", "command": "t", "input_digest": "x", "payload": {},'
            ' "schema_version": 1}',
            id="repeated-key",
        ),
        pytest.param(
            '{"command": "t", "input_digest": "x", "payload": {}, "schema_version": 1%s}'
            % ("0" * 5000),
            id="5001-digit-int",
        ),
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
    ],
)
def test_report_rejects_malformed(raw):
    with pytest.raises(DocumentError):
        Report.from_json(raw)
