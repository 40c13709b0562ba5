"""Command line front end.

Subcommands:

* ``homology``  cycle/cocycle bases and the intersection Gram matrix
* ``cover``     build a double cover, optionally lift a cycle through it
* ``torsion``   two-torsion order and Weil form of a decorated model
* ``tropical``  r-torsion of the critical group on an r-subdivision
* ``verify``    exhaustive consistency sweeps over small graphs

Input graphs and models are JSON documents (see ``documents``).  Exit
codes: 0 success, 2 malformed document or usage, 3 violated
precondition (e.g. a chain that is not a simple cycle), 4 a
verification check found a counterexample.  Besides ``verify`` and
``tropical``, ``cover --alpha`` and ``torsion`` run the checks of the
sweeps on their one instance (``sweeps._pairing_problems`` and
``sweeps._model_problems``); when any fails they still print their report,
write the failed kinds to stderr on one line, ``counterexample: <kinds>``,
and exit 4.
"""

from __future__ import annotations

import argparse
import re
import sys

from .cover import build_double_cover, cover_to_dot, lift_cycle
from .documents import DocumentError, InputDocument, Report, _digest
from .graphs import MultiGraph
from .homology import Chain1, Cochain1, graph_pairing, homology_basis, is_perfect_pairing
from .sandpile import verify_torsion_on_subdivision
from .sweeps import (
    _model_problems,
    _pairing_problems,
    model_sweep,
    pairing_equivalence_sweep,
    perfect_pairing_sweep,
    torsion_sweep,
)

EXIT_OK = 0
EXIT_DOCUMENT = 2
EXIT_PRECONDITION = 3
EXIT_COUNTEREXAMPLE = 4

# model_sweep enumerates all (parity, genus) decorations per graph, so its
# instance count grows much faster than the other sweeps; cap its edge
# budget independently of --max-edges.
_MODEL_SWEEP_CAP = 5

# Input ceilings, checked before any work starts; larger values are usage
# errors.  The enumerator yields about 5.7 times more graphs per extra
# edge (15629 with 7 edges): verify at 7 edges, the largest size measured,
# took 201.4 s on 2 cores, and 8 would take several times longer.  Each
# factor of verify --r reruns the torsion sweep, so the factors are
# distinct and few.  A subdivision factor r on m edges gives a Smith form
# of size about r * m.
# The Weil form of a model of arithmetic genus g has dimension at most
# 2 g, and its report holds the whole Gram; the homology report holds the
# genus x genus Gram under the same ceiling.
# The vertex, edge and comma ceilings are the document's own (``documents``).
# A document is read no further than its length ceiling, so neither a huge
# file nor an endless stdin is ever held whole: the largest compact
# document the other ceilings admit, 3000 genera and stabilizers at
# Python's 4300-digit integer limit, is about 12.9 MB.
MAX_VERIFY_EDGES = 7
MAX_VERIFY_FACTORS = 4
MAX_SUBDIVIDED_EDGES = 400
MAX_FORM_DIMENSION = 1000
MAX_DOCUMENT_CHARS = 16 * 2**20


def _read_document(path: str) -> InputDocument:
    try:
        if path == "-":
            text = sys.stdin.read(MAX_DOCUMENT_CHARS + 1)
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read(MAX_DOCUMENT_CHARS + 1)
    except (OSError, UnicodeDecodeError) as err:
        raise DocumentError(f"cannot read {path}: {err}") from err
    if len(text) > MAX_DOCUMENT_CHARS:
        raise DocumentError(f"{path}: longer than {MAX_DOCUMENT_CHARS} characters")
    return InputDocument.parse(text)


def _parse_ints(text: str, what: str, noun: str) -> list[int]:
    """Comma-separated integers; a part that is not one is a usage error."""
    out = []
    for part in text.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise DocumentError(f"{what}: {part!r} is not {noun}") from None
    return out


def _parse_edge_list(text: str, graph: MultiGraph, what: str) -> frozenset[int]:
    """Comma-separated edge indices; the empty string is the zero chain."""
    if text.strip() == "":
        return frozenset()
    indices = _parse_ints(text, what, "an edge index")
    try:
        return graph._edge_subset(indices)
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def _emit(report: Report, human_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(report.to_json())
    else:
        for line in human_lines:
            print(line)


def _verdict(problems: list[str]) -> int:
    """Exit 0 when no check failed; otherwise write the failed kinds to
    stderr on one line and exit 4."""
    if not problems:
        return EXIT_OK
    print(f"counterexample: {','.join(problems)}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE


def cmd_homology(args) -> int:
    doc = _read_document(args.graph)
    graph = doc.graph()
    genus = graph.genus()
    if genus > MAX_FORM_DIMENSION:
        raise DocumentError(f"genus {genus} is over {MAX_FORM_DIMENSION}")
    basis = homology_basis(graph)
    perfect, gram = is_perfect_pairing(graph)

    payload = {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "components": graph.component_count,
        "genus": basis.genus,
        "cycles": [sorted(c.edges) for c in basis.cycles],
        "cocycles": [sorted(z.edges) for z in basis.cocycles],
        "gram": gram.tolist(),
        "perfect": perfect,
    }
    lines = [
        f"graph: {graph.vertex_count} vertices, {graph.edge_count} edges,"
        f" genus {basis.genus}",
        "cycle basis:",
        *(f"  c{i}: edges {sorted(c.edges)}" for i, c in enumerate(basis.cycles)),
        "cocycle basis:",
        *(f"  z{i}: edges {sorted(z.edges)}" for i, z in enumerate(basis.cocycles)),
        "gram matrix:",
        *("  " + "".join(str(x) for x in row) for row in payload["gram"]),
        f"pairing is perfect: {'yes' if perfect else 'no'}",
    ]
    _emit(Report("homology", doc.digest(), payload), lines, args.json)
    return EXIT_OK


def cmd_cover(args) -> int:
    if args.dot == "-" and args.json:
        raise DocumentError("--dot - and --json both write stdout; give --dot a file")
    doc = _read_document(args.graph)
    graph = doc.graph()
    gamma = Cochain1._of(graph, _parse_edge_list(args.gamma, graph, "--gamma"))
    cover = build_double_cover(gamma)

    payload = {
        "gamma": sorted(gamma.edges),
        "total_vertices": cover.total.vertex_count,
        "total_edges": cover.total.edge_count,
        "connected": cover.is_connected(),
    }
    lines = [
        f"gamma: edges {sorted(gamma.edges)}",
        f"cover: {cover.total.vertex_count} vertices,"
        f" {cover.total.edge_count} edges",
        f"cover is connected: {'yes' if payload['connected'] else 'no'}",
    ]

    problems = []
    if args.alpha is not None:
        alpha = Chain1._of(graph, _parse_edge_list(args.alpha, graph, "--alpha"))
        components = lift_cycle(cover, alpha)
        bit_cover = 1 if len(components) == 1 else 0
        bit_algebraic = graph_pairing(gamma, alpha)
        problems = _pairing_problems(bit_cover, bit_algebraic, components, len(alpha.edges))
        agree = "pairing" not in problems
        payload.update(
            {
                "alpha": sorted(alpha.edges),
                "lift_count": len(components),
                "lift_sizes": [len(c) for c in components],
                "pairing_cover": bit_cover,
                "pairing_algebraic": bit_algebraic,
                "agree": agree,
            }
        )
        shape = (
            f"one cycle of length {len(components[0])}"
            if bit_cover
            else " and ".join(f"a cycle of length {len(c)}" for c in components)
        )
        lines += [
            f"alpha: edges {sorted(alpha.edges)}",
            f"lift: {shape}",
            f"pairing via cover: {bit_cover}",
            f"pairing via intersection: {bit_algebraic}",
            f"agreement: {'yes' if agree else 'NO'}",
        ]

    if args.dot is not None:
        dot = cover_to_dot(cover)
        if args.dot == "-":
            print(dot, end="")
        else:
            try:
                with open(args.dot, "w", encoding="utf-8") as fh:
                    fh.write(dot)
            except OSError as err:
                raise DocumentError(f"cannot write {args.dot}: {err}") from err
            lines.append(f"wrote {args.dot}")

    _emit(Report("cover", doc.digest(), payload), lines, args.json)
    return _verdict(problems)


def cmd_torsion(args) -> int:
    doc = _read_document(args.graph)
    model = doc.model()
    genus = model.arithmetic_genus()
    if 2 * genus > MAX_FORM_DIMENSION:
        raise DocumentError(
            f"2 x genus + 2 x sum of genera is {2 * genus}, over {MAX_FORM_DIMENSION}"
        )
    form = model.weil_form()
    order = model.two_torsion_order()
    nondegenerate = model.is_nondegenerate()
    # the invertibility check fails exactly when invertible != nondegenerate
    problems = _model_problems(genus, form, order, nondegenerate)

    payload = {
        "arithmetic_genus": genus,
        "graph_genus": model.graph_genus(),
        "reduced_genus": model.reduced_genus(),
        "two_torsion_order": order,
        "nondegenerate": nondegenerate,
        "form_dimension": form.total_dim,
        "block_dimensions": [form.h_dim, form.component_dim, form.q_dim],
        "gram": form.gram.tolist(),
        "alternating": "alternating" not in problems,
        "invertible": nondegenerate != ("invertibility-criterion" in problems),
    }
    lines = [
        f"arithmetic genus: {payload['arithmetic_genus']}"
        f" (graph contributes {payload['graph_genus']})",
        f"reduced graph genus: {payload['reduced_genus']}",
        f"two-torsion order: {payload['two_torsion_order']}",
        f"full-size two-torsion: {'yes' if payload['nondegenerate'] else 'no'}",
        f"weil form dimension: {form.total_dim}"
        f" = {form.h_dim} + {form.component_dim} + {form.q_dim}",
        "gram matrix:",
        *("  " + "".join(str(x) for x in row) for row in payload["gram"]),
        f"alternating: {'yes' if payload['alternating'] else 'no'}",
        f"invertible: {'yes' if payload['invertible'] else 'no'}",
    ]
    _emit(Report("torsion", doc.digest(), payload), lines, args.json)
    return _verdict(problems)


def _check_subdivision(r: int, edges: int) -> None:
    if r < 1:
        raise DocumentError(f"--r: subdivision factor {r} is not at least 1")
    if r * edges > MAX_SUBDIVIDED_EDGES:
        raise DocumentError(
            f"--r {r} on {edges} edges: r x edges is over {MAX_SUBDIVIDED_EDGES}"
        )


def cmd_tropical(args) -> int:
    doc = _read_document(args.graph)
    graph = doc.graph()
    _check_subdivision(args.r, graph.edge_count)
    report = verify_torsion_on_subdivision(graph, args.r, mode=args.mode)

    payload = {
        "r": args.r,
        "mode": args.mode,
        "graph_genus": graph.genus(),
        "subdivision_vertices": report.subdivision.vertex_count,
        "subdivision_edges": report.subdivision.edge_count,
        "invariant_factors": list(report.invariant_factors),
        "torsion_count": report.torsion_count,
        "expected": report.expected,
        "generator_count": len(report.generators),
        "verdict": report.verdict,
    }
    group = (
        " x ".join(f"Z/{d}" for d in report.invariant_factors)
        if report.invariant_factors
        else "trivial"
    )
    lines = [
        f"graph genus: {graph.genus()}",
        f"subdivision: {args.mode} edges, r = {args.r}"
        f" ({payload['subdivision_vertices']} vertices,"
        f" {payload['subdivision_edges']} edges)",
        f"critical group of subdivision: {group}",
        f"r-torsion count: {report.torsion_count}, expected {report.expected}",
        f"verdict: {'PASS' if report.verdict else 'FAIL'}",
    ]
    _emit(Report("tropical", doc.digest(), payload), lines, args.json)
    return EXIT_OK if report.verdict else EXIT_COUNTEREXAMPLE


def cmd_verify(args) -> int:
    if not 0 <= args.max_edges <= MAX_VERIFY_EDGES:
        raise DocumentError(
            f"--max-edges: {args.max_edges} is not between 0 and {MAX_VERIFY_EDGES}"
        )
    rs = tuple(_parse_ints(args.r, "--r", "an integer subdivision factor"))
    if len(rs) > MAX_VERIFY_FACTORS:
        raise DocumentError(f"--r: {len(rs)} factors is over {MAX_VERIFY_FACTORS}")
    for r in rs:
        _check_subdivision(r, args.max_edges)
    if len(set(rs)) < len(rs):
        repeated = next(r for r in rs if rs.count(r) > 1)
        raise DocumentError(f"--r: factor {repeated} is repeated")
    params = {
        "max_edges": args.max_edges,
        "rs": list(rs),
        "inject_fault": args.inject_fault,
    }
    digest = _digest(params)

    results = [
        perfect_pairing_sweep(args.max_edges),
        pairing_equivalence_sweep(args.max_edges, inject_fault=args.inject_fault),
        model_sweep(
            min(args.max_edges, _MODEL_SWEEP_CAP), inject_fault=args.inject_fault
        ),
        torsion_sweep(args.max_edges, rs=rs, inject_fault=args.inject_fault),
    ]

    payload = {
        "parameters": params,
        "sweeps": [
            {
                "name": res.name,
                "instances": res.instances,
                "failures": res.failure_count,
                "examples": res.failures,
            }
            for res in results
        ],
        "ok": all(res.ok for res in results),
    }
    lines = [res.summary() for res in results]
    for res in results:
        for failure in res.failures:
            lines.append(f"  counterexample in {res.name}: {failure}")
    lines.append("all sweeps passed" if payload["ok"] else "FAILURES FOUND")
    _emit(Report("verify", digest, payload), lines, args.json)
    return EXIT_OK if payload["ok"] else EXIT_COUNTEREXAMPLE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, its subcommands' included,
    raise ``DocumentError`` for ``main`` to report with exit 2, where
    argparse would print a usage block and exit.  ``--help`` still exits.
    A word that starts with a minus and a digit is a value, so ``--gamma
    -1,2`` reads as ``--gamma=-1,2`` does (argparse's private matcher)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise DocumentError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weilgraph",
        description="Pairings, double covers and chip-firing on dual graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument(
            "--graph",
            required=True,
            metavar="FILE",
            help="input JSON document ('-' reads stdin)",
        )
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser(
        "homology",
        help=f"cycle/cocycle bases and Gram matrix (genus at most {MAX_FORM_DIMENSION})",
    )
    add_graph(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("cover", help="double cover from a classifying cochain")
    add_graph(p)
    p.add_argument(
        "--gamma",
        default="",
        metavar="EDGES",
        help="classifying cochain as comma-separated edge indices (default empty)",
    )
    p.add_argument(
        "--alpha",
        default=None,
        metavar="EDGES",
        help="simple cycle to lift, as comma-separated edge indices",
    )
    p.add_argument(
        "--dot",
        default=None,
        metavar="FILE",
        help="write the cover in DOT format ('-' prints it, not with --json)",
    )
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser(
        "torsion",
        help="two-torsion order and Weil form"
        f" (2 x genus + 2 x sum of genera at most {MAX_FORM_DIMENSION})",
    )
    add_graph(p)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("tropical", help="r-torsion on an r-subdivision")
    add_graph(p)
    p.add_argument(
        "--r",
        type=int,
        default=2,
        help=f"subdivision factor (default 2); r x edges at most {MAX_SUBDIVIDED_EDGES}",
    )
    p.add_argument(
        "--mode",
        choices=("all", "nonsep"),
        default="all",
        help="subdivide all edges or only non-separating ones",
    )
    p.set_defaults(func=cmd_tropical)

    p = sub.add_parser("verify", help="consistency sweeps over small graphs")
    p.add_argument(
        "--max-edges",
        type=int,
        default=4,
        help=f"largest edge count to enumerate (default 4, at most {MAX_VERIFY_EDGES},"
        " which took about 200 s on 2 cores)",
    )
    p.add_argument(
        "--r",
        default="2,3",
        metavar="LIST",
        help="distinct subdivision factors for the torsion sweep (default 2,3),"
        f" at most {MAX_VERIFY_FACTORS} of them; r x max-edges at most {MAX_SUBDIVIDED_EDGES}",
    )
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately corrupt the sweeps to demonstrate failure detection",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DocumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOCUMENT
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
