"""Command-line interface: generate, search, verify, chain and export.

File formats
------------
Graph files:  a header line ``cubic <n> <m>`` followed by one line
``<edge_id> <u> <v>`` per edge; ``#`` starts a comment.  Certificate files:
``certificate <kind>`` with kind fr-triple, covering or ffamily, followed
by ``matching <ids>`` lines (three or six), or for ffamily by one ``m``,
four ``member`` and one ``n`` line.  Both formats round-trip bit-exactly.

Exit codes: 0 success/found, 1 verified-absent or invalid certificate,
2 usage or parse error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .budget import Budget, BudgetExhausted, DEFAULT_BUDGET_ENV, node_count
from .ffamily import (
    DotStep,
    FFamily,
    StepOptionError,
    enumerate_ffamilies,
    find_ffamily,
    iterate_dot_sequence,
    verify_ffamily,
)
from .fulkerson import (
    AUTO,
    FRTriple,
    FulkersonCovering,
    enumerate_fr_triples,
    enumerate_fulkerson_coverings,
    find_fr_triple,
    find_fulkerson_covering,
    verify_covering,
    _STRATEGIES,
)
from .generators import (
    cube_q3,
    doubled_matching_cycle,
    flower_snark,
    goldberg,
    k4,
    k33,
    petersen,
    ten_vertex_c5_example,
    theta,
)
from .graph_core import CubicGraph, GraphError, Matching, MultiGraph
from .matchcolor import PerfectMatching


class ParseError(ValueError):
    """A graph or certificate file failed to parse."""


class UsageError(ValueError):
    """A command was run with a setting it cannot use."""


EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _content_lines(text: str) -> list[str]:
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in stripped if line]


def write_graph_file(g: MultiGraph) -> str:
    out = [f"cubic {g.num_vertices} {g.num_edges}"]
    for eid, u, v in g.edges:
        out.append(f"{eid} {u} {v}")
    return "\n".join(out) + "\n"


def parse_graph_file(text: str) -> CubicGraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "cubic":
        raise ParseError(f"bad header {lines[0]!r}; expected 'cubic <n> <m>'")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError as exc:
        raise ParseError(f"bad header numbers in {lines[0]!r}") from exc
    if 3 * n != 2 * m:
        raise ParseError(f"bad header {lines[0]!r}: a cubic graph has 3n = 2m")
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    slots: list[tuple[int, int] | None] = [None] * m
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"bad edge line {line!r}")
        try:
            eid, u, v = (int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"bad edge line {line!r}") from exc
        if not 0 <= eid < m or slots[eid] is not None:
            raise ParseError(f"edge id {eid} missing, repeated or out of range")
        slots[eid] = (u, v)
    try:
        return CubicGraph(n, [s for s in slots if s is not None])
    except GraphError as exc:
        raise ParseError(f"not a cubic graph: {exc}") from exc


@dataclass(frozen=True)
class Certificate:
    """Parsed certificate: plain edge-id lists, not yet bound to a graph."""

    kind: str
    matchings: tuple[tuple[int, ...], ...]
    m: tuple[int, ...] | None = None
    n: tuple[int, ...] | None = None


def write_certificate(cert: Certificate) -> str:
    out = [f"certificate {cert.kind}"]
    if cert.kind == "ffamily":
        out.append("m " + " ".join(str(e) for e in cert.m))
        for mem in cert.matchings:
            out.append(("member " + " ".join(str(e) for e in mem)).rstrip())
        out.append(("n " + " ".join(str(e) for e in cert.n)).rstrip())
    else:
        for mem in cert.matchings:
            out.append(("matching " + " ".join(str(e) for e in mem)).rstrip())
    return "\n".join(out) + "\n"


def certificate_of_triple(t: FRTriple) -> Certificate:
    return Certificate("fr-triple", tuple(tuple(sorted(m.members)) for m in t.matchings))


def certificate_of_covering(c: FulkersonCovering) -> Certificate:
    return Certificate("covering", tuple(tuple(sorted(m.members)) for m in c.matchings))


def certificate_of_family(f: FFamily) -> Certificate:
    return Certificate("ffamily",
                       tuple(tuple(sorted(m.members)) for m in f.members),
                       m=tuple(sorted(f.m.members)),
                       n=tuple(sorted(f.n_edges.members)))


# The line keywords each certificate kind allows.
_KEYWORDS = {"fr-triple": ("matching",), "covering": ("matching",),
             "ffamily": ("m", "member", "n")}


def parse_certificate(text: str) -> Certificate:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty certificate file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "certificate":
        raise ParseError(f"bad header {lines[0]!r}")
    kind = header[1]
    if kind not in _KEYWORDS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    rows: dict[str, list[tuple[int, ...]]] = {word: [] for word in _KEYWORDS[kind]}
    for line in lines[1:]:
        word, *parts = line.split()
        if word not in rows:
            raise ParseError(f"unexpected line {line!r}")
        if word in ("m", "n") and rows[word]:
            raise ParseError(f"duplicate {word} line")
        try:
            ids = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ParseError(f"bad edge ids in {' '.join(parts)!r}") from exc
        if len(set(ids)) != len(ids):
            raise ParseError(f"repeated edge id in {line!r}")
        rows[word].append(ids)
    if kind == "ffamily":
        if len(rows["m"]) != 1 or len(rows["n"]) != 1 or len(rows["member"]) != 4:
            raise ParseError("ffamily certificate needs m, four members and n")
        return Certificate(kind, tuple(rows["member"]), m=rows["m"][0], n=rows["n"][0])
    want = 3 if kind == "fr-triple" else 6
    if len(rows["matching"]) != want:
        raise ParseError(f"{kind} needs {want} matchings, found {len(rows['matching'])}")
    return Certificate(kind, tuple(rows["matching"]))


def _generators() -> dict[str, tuple[Callable[..., CubicGraph], int]]:
    """family -> (generator, number of integer parameters).

    Built on every call, so it holds whatever this module's names are bound
    to at the time (a tracer may have replaced them).
    """
    return {"petersen": (petersen, 0), "flower": (flower_snark, 1),
            "goldberg": (goldberg, 1), "theta": (theta, 0), "k4": (k4, 0), "k33": (k33, 0),
            "cube": (cube_q3, 0), "doubled-cycle": (doubled_matching_cycle, 1),
            "ten-c5": (ten_vertex_c5_example, 0)}


GEN_FAMILIES = tuple(_generators())


def _generate(family: str, params: Sequence[int]) -> CubicGraph:
    if family not in GEN_FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    make, arity = _generators()[family]
    if len(params) != arity:
        raise GraphError(f"{family} takes no parameter" if arity == 0
                         else f"{family} takes exactly one integer parameter")
    return make(*params)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        g = _generate(args.family, args.params)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(write_graph_file(g))
    return EXIT_FOUND


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _bind(g: CubicGraph, cert: Certificate) -> FRTriple | FulkersonCovering | FFamily:
    """The library object a certificate names on g; GraphError if it names none."""
    if cert.kind == "ffamily":
        return FFamily(PerfectMatching(g, cert.m),
                       *(Matching(g, mem) for mem in cert.matchings),
                       Matching(g, cert.n))
    pms = tuple(PerfectMatching(g, mem) for mem in cert.matchings)
    return FRTriple(*pms) if cert.kind == "fr-triple" else FulkersonCovering(pms)


def cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph_file(_read(args.graph))
    cert = parse_certificate(_read(args.certificate))
    try:
        bound = _bind(g, cert)
    except GraphError as exc:
        print(f"invalid certificate: {exc}")
        return EXIT_NONE
    if cert.kind == "fr-triple":
        print("fr-triple: valid (empty common intersection)")
        return EXIT_FOUND
    if cert.kind == "covering":
        report = verify_covering(g, bound)
        valid = "covering: valid (every edge covered exactly twice)"
        problems = [f"edge {e}: covered {report.coverage[e]} times" for e in report.violations()]
    else:
        report = verify_ffamily(g, bound)
        valid, problems = "ffamily: valid", report.diagnostics
    print("\n".join(problems) if problems else valid)
    return EXIT_FOUND if report.ok else EXIT_NONE


def cmd_search(args: argparse.Namespace) -> int:
    if args.strategy is not None and (args.target != "covering" or args.all):
        raise UsageError("--strategy applies only to a covering search without --all")
    g = parse_graph_file(_read(args.graph))
    try:
        budget = Budget(limit=args.budget)
    except ValueError as exc:  # a malformed $FULKERSON_LAB_BUDGET
        raise UsageError(str(exc)) from exc
    # target -> (first search, exhaustive search, certificate maker); built on
    # every call so that it holds whatever this module's names are bound to.
    first, every, certify = {
        "fr-triple": (find_fr_triple, enumerate_fr_triples, certificate_of_triple),
        "covering": (functools.partial(find_fulkerson_covering, strategy=args.strategy or AUTO),
                     enumerate_fulkerson_coverings, certificate_of_covering),
        "ffamily": (find_ffamily, enumerate_ffamilies, certificate_of_family),
    }[args.target]
    if args.all:
        res = every(g, budget=budget)
        found = res.value
    else:
        res = first(g, budget=budget)
        found = [res.value] if res.found else []
    sys.stdout.write("\n".join(write_certificate(certify(x)) for x in found))
    if found:
        return EXIT_FOUND
    return EXIT_NONE if res.complete else EXIT_BUDGET


def _parse_recipe(text: str) -> tuple[CubicGraph, list[DotStep]]:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty recipe")
    base: CubicGraph | None = None
    steps: list[DotStep] = []
    for line in lines:
        parts = line.split()
        fixed = {}
        words = []
        for p in parts:
            if "=" in p:
                key, _, val = p.partition("=")
                if key not in ("e1", "e2", "e3"):
                    raise ParseError(f"unknown step option {key!r}")
                try:
                    fixed[key] = int(val)
                except ValueError as exc:
                    raise ParseError(f"bad value in {p!r}") from exc
            else:
                words.append(p)
        if not words:
            raise ParseError(f"recipe line {line!r} names no step")
        if words[0] == "base":
            if base is not None:
                raise ParseError("duplicate base line")
            if fixed:
                raise ParseError(f"bad base line {line!r}: step options belong on dot lines")
            if len(words) < 2:
                raise ParseError(f"bad base line {line!r}: names no family")
            try:
                base = _generate(words[1], [int(w) for w in words[2:]])
            except (GraphError, ValueError) as exc:
                raise ParseError(f"bad base line {line!r}: {exc}") from exc
        elif words[0] == "dot":
            if len(words) < 3 or words[1] not in ("type1", "type2"):
                raise ParseError(f"bad dot line {line!r}")
            try:
                factor = _generate(words[2], [int(w) for w in words[3:]])
            except (GraphError, ValueError) as exc:
                raise ParseError(f"bad dot factor in {line!r}: {exc}") from exc
            steps.append(DotStep(words[1], factor, **fixed))
        else:
            raise ParseError(f"unknown recipe line {line!r}")
    if base is None:
        raise ParseError("recipe has no base line")
    return base, steps


def cmd_pipeline(args: argparse.Namespace) -> int:
    base, steps = _parse_recipe(_read(args.recipe))
    try:
        result = iterate_dot_sequence(base, steps)
    except StepOptionError as exc:
        raise UsageError(str(exc)) from exc
    except (GraphError, BudgetExhausted) as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExhausted) else EXIT_NONE
    except ValueError as exc:  # a malformed $FULKERSON_LAB_BUDGET
        raise UsageError(str(exc)) from exc
    if args.emit_intermediate:
        try:
            os.makedirs(args.emit_intermediate, exist_ok=True)
            for i, (graph, _fam) in enumerate(result.stages):
                path = os.path.join(args.emit_intermediate, f"stage{i}.graph")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(write_graph_file(graph))
        except OSError as exc:
            raise UsageError(f"cannot write {args.emit_intermediate}: {exc}") from exc
    sys.stdout.write("\n".join([write_graph_file(result.graph),
                                write_certificate(certificate_of_family(result.family)),
                                write_certificate(certificate_of_covering(result.covering))]))
    return EXIT_FOUND


def _edge_annotations(cert: Certificate) -> dict[int, str]:
    notes: dict[int, str] = {}
    if cert.kind in ("fr-triple", "covering"):
        for idx, mem in enumerate(cert.matchings):
            for e in mem:
                notes[e] = notes.get(e, "") + (f",{idx}" if e in notes else f"{idx}")
    else:
        for e in cert.m:
            notes[e] = "m"
        for idx, mem in enumerate(cert.matchings):
            for e in mem:
                notes[e] = "ABCD"[idx]
        for e in cert.n:
            notes[e] = "n"
    return notes


def cmd_export(args: argparse.Namespace) -> int:
    g = parse_graph_file(_read(args.graph))
    cert = parse_certificate(_read(args.certificate)) if args.certificate else None
    notes: dict[int, str] = {}
    if cert is not None:
        try:
            _bind(g, cert)
        except GraphError as exc:
            print(f"invalid certificate: {exc}", file=sys.stderr)
            return EXIT_NONE
        notes = _edge_annotations(cert)
    if args.format == "dot":
        lines = ["graph cubic {"]
        for v in g.vertices():
            lines.append(f"  {v};")
        for eid, u, v in g.edges:
            label = str(eid) if eid not in notes else f"{eid}:{notes[eid]}"
            lines.append(f'  {u} -- {v} [label="{label}"];')
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_FOUND
    import json

    payload: dict = {
        "n": g.num_vertices,
        "m": g.num_edges,
        "edges": [[eid, u, v] for eid, u, v in g.edges],
    }
    if notes:
        payload["annotations"] = {str(e): notes[e] for e in sorted(notes)}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_FOUND


def _node_budget(text: str) -> int:
    try:
        return node_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fulkerson-lab",
        description="Constructions, searches and verifications around perfect-matching "
                    "coverings of bridgeless cubic graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named graph family member")
    p_gen.add_argument("family", choices=GEN_FAMILIES)
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="check a certificate against a graph")
    p_verify.add_argument("graph")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="search for a certificate")
    p_search.add_argument("graph")
    p_search.add_argument("target", choices=("fr-triple", "covering", "ffamily"))
    p_search.add_argument("--strategy", choices=_STRATEGIES,
                          help=f"covering strategy (default {AUTO})")
    p_search.add_argument("--budget", type=_node_budget, default=None,
                          help=f"search node budget (default from ${DEFAULT_BUDGET_ENV})")
    p_search.add_argument("--all", action="store_true",
                          help="emit every certificate found, not just the first")
    p_search.set_defaults(func=cmd_search)

    p_pipe = sub.add_parser("pipeline", help="run a dot-product recipe")
    p_pipe.add_argument("recipe")
    p_pipe.add_argument("--emit-intermediate", metavar="DIR",
                        help="write every intermediate graph into DIR")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_export = sub.add_parser("export", help="render a graph as DOT or JSON")
    p_export.add_argument("graph")
    p_export.add_argument("--format", choices=("dot", "json"), required=True)
    p_export.add_argument("--certificate", help="annotate edges from a certificate")
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
