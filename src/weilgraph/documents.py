"""Input documents and reports for the command line front end.

An input document is one JSON object with a ``vertices`` count and an
``edges`` list of ``[u, v]`` pairs (0-indexed, loops and parallels fine),
plus optional ``genera`` (one per vertex, default zero) and
``stabilizers`` (one per edge, default one).  Parsing is strict: unknown
keys, wrong lengths and out-of-range indices are all document errors, and
so are more than ``MAX_VERTICES`` vertices or ``MAX_EDGES`` edges, refused
before any edge is read, and more than ``MAX_COMMAS`` commas, refused
before the text is parsed.

Reports serialize canonically: sorted keys, compact separators, no
timestamps, and the input digest is the SHA-256 of the document's own
canonical form.  Identical inputs therefore produce byte-identical
reports, and a report survives a parse and re-serialize round trip
unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import ClassVar

from .curvemodel import TwistedCurveModel
from .graphs import MultiGraph

__all__ = [
    "DocumentError",
    "InputDocument",
    "Report",
]


# Every command that reads a document builds per-vertex and per-edge
# state, so the vertex and edge counts are bounded before any pair is
# built.  The edge ceiling rejects nothing the command ceilings let
# through: genus and vertices of at most 1000 each allow at most 1999 edges.
MAX_VERTICES = 1000
MAX_EDGES = 2000
# The most commas a document within those ceilings holds, so a longer list
# is refused before ``json.loads`` builds it: 2E - 1 in the edge list, E - 1
# in the stabilizers, V - 1 in the genera and 3 between the four keys.
MAX_COMMAS = 3 * MAX_EDGES + MAX_VERTICES


class DocumentError(ValueError):
    """An input document failed to parse or validate."""


def _canonical_json(obj) -> str:
    """The canonical form: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    """SHA-256 of the canonical form, in hex."""
    return hashlib.sha256(_canonical_json(obj).encode()).hexdigest()


def _expect_int(value, what: str) -> int:
    # bool is an int subclass and must not sneak through
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class InputDocument:
    """A validated input document."""

    vertices: int
    edges: tuple[tuple[int, int], ...]
    genera: tuple[int, ...] | None = None
    stabilizers: tuple[int, ...] | None = None

    @classmethod
    def parse(cls, text: str) -> "InputDocument":
        commas = text.count(",")
        if commas > MAX_COMMAS:
            raise DocumentError(f"commas: {commas} is over {MAX_COMMAS}")
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as err:  # bad JSON, a huge int, deep nesting
            raise DocumentError(f"not valid JSON: {err}") from err
        if not isinstance(obj, dict):
            raise DocumentError("document must be a JSON object")
        unknown = set(obj) - {"vertices", "edges", "genera", "stabilizers"}
        if unknown:
            raise DocumentError(f"unknown document keys: {sorted(unknown)}")
        if "vertices" not in obj or "edges" not in obj:
            raise DocumentError("document needs 'vertices' and 'edges'")

        vertices = _expect_int(obj["vertices"], "vertices")
        if vertices < 0:
            raise DocumentError("vertices must be non-negative")
        if vertices > MAX_VERTICES:
            raise DocumentError(f"vertices: {vertices} is over {MAX_VERTICES}")

        raw_edges = obj["edges"]
        if not isinstance(raw_edges, list):
            raise DocumentError("edges must be a list of [u, v] pairs")
        if len(raw_edges) > MAX_EDGES:
            raise DocumentError(f"edges: {len(raw_edges)} is over {MAX_EDGES}")
        edges = []
        for i, pair in enumerate(raw_edges):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DocumentError(f"edge {i} must be a [u, v] pair")
            u = _expect_int(pair[0], f"edge {i} endpoint")
            v = _expect_int(pair[1], f"edge {i} endpoint")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise DocumentError(f"edge {i} endpoints ({u}, {v}) out of range")
            edges.append((u, v))

        genera = None
        if "genera" in obj:
            raw = obj["genera"]
            if not isinstance(raw, list) or len(raw) != vertices:
                raise DocumentError("genera must list one value per vertex")
            genera = tuple(_expect_int(x, "genus") for x in raw)
            if any(x < 0 for x in genera):
                raise DocumentError("genera must be non-negative")

        stabilizers = None
        if "stabilizers" in obj:
            raw = obj["stabilizers"]
            if not isinstance(raw, list) or len(raw) != len(edges):
                raise DocumentError("stabilizers must list one value per edge")
            stabilizers = tuple(_expect_int(x, "stabilizer order") for x in raw)
            if any(x < 1 for x in stabilizers):
                raise DocumentError("stabilizer orders must be at least 1")

        return cls(vertices, tuple(edges), genera, stabilizers)

    def to_mapping(self) -> dict:
        out = {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}
        if self.genera is not None:
            out["genera"] = list(self.genera)
        if self.stabilizers is not None:
            out["stabilizers"] = list(self.stabilizers)
        return out

    def canonical_json(self) -> str:
        return _canonical_json(self.to_mapping())

    def digest(self) -> str:
        return _digest(self.to_mapping())

    def graph(self) -> MultiGraph:
        return MultiGraph(self.vertices, self.edges)

    def model(self) -> TwistedCurveModel:
        """The decorated model; absent decorations default to genus zero
        vertices and order-one (ordinary node) edges."""
        genera = self.genera if self.genera is not None else (0,) * self.vertices
        stabilizers = (
            self.stabilizers if self.stabilizers is not None else (1,) * len(self.edges)
        )
        return TwistedCurveModel(self.graph(), genera, stabilizers)


@dataclass(frozen=True)
class Report:
    """A command's machine-readable outcome.  Every report has the one
    ``schema_version`` that ``from_json`` reads back."""

    command: str
    input_digest: str
    payload: dict
    schema_version: ClassVar[int] = 1

    def to_json(self) -> str:
        return _canonical_json(
            {
                "command": self.command,
                "input_digest": self.input_digest,
                "payload": self.payload,
                "schema_version": self.schema_version,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as err:  # bad JSON, a huge int, deep nesting
            raise DocumentError(f"not a valid report: {err}") from err
        if not isinstance(obj, dict):
            raise DocumentError("report must be a JSON object")
        expected = {"command", "input_digest", "payload", "schema_version"}
        if set(obj) != expected:
            raise DocumentError(f"report keys must be exactly {sorted(expected)}")
        if not isinstance(obj["command"], str) or not isinstance(
            obj["input_digest"], str
        ):
            raise DocumentError("command and input_digest must be strings")
        if not isinstance(obj["payload"], dict):
            raise DocumentError("payload must be an object")
        if _expect_int(obj["schema_version"], "schema_version") != cls.schema_version:
            raise DocumentError("unsupported report schema version")
        return cls(
            command=obj["command"], input_digest=obj["input_digest"], payload=obj["payload"]
        )
