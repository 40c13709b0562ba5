"""A seeded property over hostile command lines for every subcommand.

Options are drawn from negatives, 10**100, empty and repeated lists, and
values at and one past each ceiling; documents are a small theta graph
(decorated or not) with one field corrupted.  A ceiling is drawn at its
value only where a run there is cheap: ``verify`` runs at ``--max-edges``
2 or less, and the form-dimension ceilings are drawn one past.  Every
draw must end in a documented exit code with no exception; a JSON report
must read back, and a refusal must say why on stderr.  Each draw runs with
its options written ``--name=value`` and ``--name value``, and both
spellings must end alike: same exit code, same stdout, same stderr.
"""

import contextlib
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from weilgraph import Report  # noqa: E402
from weilgraph.cli import (  # noqa: E402
    MAX_FORM_DIMENSION,
    MAX_SUBDIVIDED_EDGES,
    MAX_VERIFY_EDGES,
    MAX_VERIFY_FACTORS,
    main,
)
from weilgraph.documents import MAX_EDGES, MAX_VERTICES  # noqa: E402

HUGE = 10**100
HOSTILE = (-HUGE, -1, 0, 1, 2, 3, HUGE)
THETA_EDGES = [[0, 1], [0, 1], [0, 1]]


def _hostile_ints(*ceilings):
    """The hostile integers, plus each ceiling and the value one past it."""
    return st.sampled_from(sorted({*HOSTILE, *ceilings, *(c + 1 for c in ceilings)}))


def _comma_list(values):
    return st.lists(values, max_size=MAX_VERIFY_FACTORS + 1).map(
        lambda xs: ",".join(map(str, xs))
    )


EDGE_LISTS = _comma_list(st.sampled_from((-1, 0, 1, 2, 3, HUGE)))


@st.composite
def hostile_documents(draw):
    """Theta's document, its model fields present or not, with at most one
    field corrupted; the text itself may be cut short."""
    doc = {"vertices": 2, "edges": list(THETA_EDGES)}
    if draw(st.booleans()):
        doc.update(genera=[0, 1], stabilizers=[2, 3, 2])
    field = draw(st.sampled_from(("none", "extra", "missing", "text", *doc)))
    junk = st.sampled_from((-1, HUGE, True, None, "0", 1.5, []))
    if field == "vertices":
        doc["vertices"] = draw(st.one_of(junk, _hostile_ints(MAX_VERTICES)))
    elif field == "edges":
        doc["edges"] = draw(
            st.sampled_from(
                (
                    "x",
                    [],
                    [[0, 1]] * MAX_EDGES,
                    [[0, 1]] * (MAX_EDGES + 1),
                    [[0, 0]] * (MAX_FORM_DIMENSION + 1),
                    [[0, 1], [0], [0, 1]],
                    [[0, 1], [0, 2], [0, 1]],
                    [[0, 1], [-1, 0], [0, 1]],
                    [[0, 1], [0, HUGE], [0, 1]],
                    [[0, 1], [0, True], [0, 1]],
                )
            )
        )
    elif field in ("genera", "stabilizers"):
        values = doc[field]
        if draw(st.booleans()):
            values[draw(st.integers(0, len(values) - 1))] = draw(
                st.one_of(junk, st.just(MAX_FORM_DIMENSION // 2))
            )
        else:
            del values[0]
    elif field == "extra":
        doc["extra"] = 1
    elif field == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc)
    return text[:-1] if field == "text" else text


@st.composite
def hostile_argv(draw):
    """A command line with hostile values, as words: a word is a bare
    argument or a ``(name, value)`` option for ``_spell`` to write out."""

    def option(name, value):
        return [(name, str(value))]

    command = draw(st.sampled_from(("homology", "cover", "torsion", "tropical", "verify")))
    argv = [command]
    if command == "verify":
        edges = draw(st.sampled_from((-HUGE, -1, 0, 1, 2, MAX_VERIFY_EDGES + 1, HUGE)))
        argv += option("--max-edges", edges)
        if draw(st.booleans()):
            # r x max-edges at its ceiling and one past, at 1 and 2 edges
            factors = _hostile_ints(MAX_SUBDIVIDED_EDGES, MAX_SUBDIVIDED_EDGES // 2)
            argv += option("--r", draw(_comma_list(factors)))
        if draw(st.booleans()):
            argv.append("--inject-fault")
    else:
        argv += option("--graph", "-")
    if command == "cover":
        argv += option("--gamma", draw(EDGE_LISTS))
        if draw(st.booleans()):
            argv += option("--alpha", draw(EDGE_LISTS))
        if draw(st.booleans()):
            argv += option("--dot", "-")
    if command == "tropical":
        argv += option("--r", draw(_hostile_ints(MAX_SUBDIVIDED_EDGES // len(THETA_EDGES))))
        argv += option("--mode", draw(st.sampled_from(("all", "nonsep"))))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _spell(words, spaced):
    """The argument list of ``words``, options written ``--name value`` when
    ``spaced`` and ``--name=value`` otherwise."""
    argv = []
    for word in words:
        if isinstance(word, str):
            argv.append(word)
        elif spaced:
            argv += word
        else:
            argv.append("=".join(word))
    return argv


def _run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(hostile_argv(), hostile_documents())
def test_hostile_argv_ends_in_a_documented_exit(words, document):
    code, out, err = _run(_spell(words, spaced=False), document)
    assert type(code) is int and code in (0, 2, 3, 4)
    if "--json" in words and code in (0, 4):
        assert Report.from_json(out).command == words[0]
    if code in (2, 3):
        assert any(line.startswith("error:") for line in err.splitlines()), err
    assert _run(_spell(words, spaced=True), document) == (code, out, err)
