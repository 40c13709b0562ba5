"""Input documents: strict parsing, canonical serialization, digests."""

import hashlib
import json

import pytest

from weilgraph import DocumentError, InputDocument, Report, theta_graph

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
        pytest.param('{"vertices": 1%s, "edges": []}' % ("0" * 5000), id="5001-digit-int"),
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
    ],
)
def test_rejects_malformed(raw):
    with pytest.raises(DocumentError):
        InputDocument.parse(raw)


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
