"""Command-line surface.

Subcommands: group, stabilize, identity, recurrents, add, representative,
check-hom, product, hypercube, snf.  Exit codes: 0 success, 1 input or
validation error, 2 verification FAIL.  Output is deterministic JSON by
default (sorted keys, big integers as decimal strings); --output text gives a
human-readable fallback.  The format is set by --output alone.

Each subcommand imports only the layers it runs: stabilize, identity,
representative and add load errors, graphs, dynamics and jsonio; intlinalg
loads with the first factorization (group, recurrents, snf) or injection
proof, morphisms with check-hom, products with product, and cubes with
hypercube.  Of the hypercube reports, decomposition and if-count load none
of intlinalg, morphisms and products, and structure loads intlinalg only.
"""

from __future__ import annotations

import argparse
import sys

from .dynamics import DEFAULT_ORBIT_GUARD, RecurrentConfig, sandpile_group, stabilize
from .errors import (
    ClauseViolation,
    FormatError,
    InfiniteCokernel,
    NotSurjective,
    SandpileError,
)
from .graphs import Multigraph, SinkedGraph
from .jsonio import (
    config_to_list,
    dumps,
    load_config,
    load_graph,
    load_hom,
    load_matrix,
    matrix_to_dict,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
# cubes.MAX_D, written out so that building the parser does not import cubes.
_MAX_D = 12


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(dumps(payload))
        return
    for key in sorted(payload):
        print(f"{key}: {payload[key]}")


def _sinked(graph, sink_flag: str | None) -> SinkedGraph:
    if sink_flag is not None:
        base = graph.graph if isinstance(graph, SinkedGraph) else graph
        return SinkedGraph(base, sink_flag)
    if isinstance(graph, SinkedGraph):
        return graph
    raise FormatError("graph file has no sink; pass --sink LABEL")


def cmd_group(args, fmt: str) -> int:
    graph = _sinked(load_graph(args.graph), args.sink)
    structure = sandpile_group(graph).structure
    _emit(structure.to_dict(), fmt)
    return EXIT_OK


def cmd_stabilize(args, fmt: str) -> int:
    graph = _sinked(load_graph(args.graph), args.sink)
    values = load_config(args.config)
    if min(values, default=0) < 0 and not args.allow_negative:
        raise FormatError("negative entries need --allow-negative")
    stable, firings = stabilize(graph, values)
    _emit({"stable": config_to_list(stable), "firings": config_to_list(firings)}, fmt)
    return EXIT_OK


def cmd_identity(args, fmt: str) -> int:
    graph = _sinked(load_graph(args.graph), args.sink)
    rc = sandpile_group(graph).identity
    _emit({"identity": config_to_list(rc.values), "certificate": rc.certificate}, fmt)
    return EXIT_OK


def cmd_recurrents(args, fmt: str) -> int:
    graph = _sinked(load_graph(args.graph), args.sink)
    group = sandpile_group(graph, args.max_orbit)
    recs = sorted(group.recurrents())
    _emit(
        {"count": len(recs), "recurrents": [config_to_list(c) for c in recs]},
        fmt,
    )
    return EXIT_OK


def cmd_add(args, fmt: str) -> int:
    graph = _sinked(load_graph(args.graph), args.sink)
    group = sandpile_group(graph)
    c1, c2 = load_config(args.config1), load_config(args.config2)
    for c in (c1, c2):
        if min(c, default=0) < 0 or not group.is_recurrent(c):
            raise FormatError(f"{list(c)} is not a recurrent configuration")
    result = group.add(
        RecurrentConfig(graph, c1, "input"), RecurrentConfig(graph, c2, "input")
    )
    _emit({"sum": config_to_list(result.values)}, fmt)
    return EXIT_OK


def cmd_representative(args, fmt: str) -> int:
    graph = _sinked(load_graph(args.graph), args.sink)
    rc = sandpile_group(graph).representative(load_config(args.config))
    _emit(
        {"representative": config_to_list(rc.values), "certificate": rc.certificate},
        fmt,
    )
    return EXIT_OK


def cmd_check_hom(args, fmt: str) -> int:
    from .morphisms import verify_group_injection

    source = load_graph(args.source)
    target = load_graph(args.target)
    try:
        hom = load_hom(args.hom, source, target)
    except (ClauseViolation, NotSurjective) as exc:
        payload = {"valid": False, "error": type(exc).__name__, "detail": str(exc)}
        if isinstance(exc, ClauseViolation):
            payload["clause"] = exc.clause
            payload["witness"] = list(exc.witness)
        _emit(payload, fmt)
        return EXIT_FAIL
    payload = {
        "valid": True,
        "kind": hom.kind,
        "degree": hom.degree,
        "surjective": hom.surjective,
    }
    code = EXIT_OK
    if args.verify_injection:
        report = verify_group_injection(hom)
        payload["injection"] = report.to_dict()
        if not report.passed:
            code = EXIT_FAIL
    _emit(payload, fmt)
    return code


def cmd_product(args, fmt: str) -> int:
    from .products import BoxContext

    g = load_graph(args.graph_g)
    h = load_graph(args.graph_h)
    for name, graph in (("first", g), ("second", h)):
        if not isinstance(graph, Multigraph):
            raise FormatError(f"{name} graph must be an undirected multigraph without a sink")
    ctx = BoxContext(g, h, args.n)
    a = load_config(args.config_a)
    b = load_config(args.config_b)
    vec = ctx.box(a, b)
    payload = {"box": config_to_list(vec), "vertices": list(ctx.product.vertices)}
    if args.certify:
        payload["recurrent"] = (
            min(vec, default=0) >= 0 and sandpile_group(ctx.cone_product).is_recurrent(vec)
        )
    _emit(payload, fmt)
    return EXIT_OK


def cmd_hypercube(args, fmt: str) -> int:
    from . import cubes

    checks = {
        "structure": lambda: cubes.verify_structure(args.d, args.k),
        "decomposition": lambda: cubes.verify_decomposition(args.d),
        "even-counterexample": cubes.verify_even_cone_counterexample,
        "if-count": lambda: cubes.verify_invariant_factor_count(args.d),
    }
    reports = [run() for mode, run in checks.items() if args.verify in (mode, "all")]
    passed = all(r.passed for r in reports)
    _emit({"reports": [r.to_dict() for r in reports], "passed": passed}, fmt)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_snf(args, fmt: str) -> int:
    """Without --transforms, the diagonal of a square nonsingular matrix is
    the invariant-factor chain of its cokernel padded with leading ones,
    read from its LU; a singular or non-square matrix, or --transforms,
    runs the full Smith elimination."""
    from .intlinalg import invariant_factors, smith_normal_form

    a = load_matrix(args.matrix)
    if not args.transforms and a.is_square():
        try:
            factors = invariant_factors(a).invariant_factors
        except InfiniteCokernel:
            pass
        else:
            _emit({"diagonal": [1] * (a.rows - len(factors)) + list(factors)}, fmt)
            return EXIT_OK
    dec = smith_normal_form(a)
    payload = {"diagonal": [int(x) for x in dec.diagonal()]}
    if args.transforms:
        payload["u"] = matrix_to_dict(dec.u)
        payload["d"] = matrix_to_dict(dec.d)
        payload["v"] = matrix_to_dict(dec.v)
    _emit(payload, fmt)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description="Sandpile groups of multigraphs and digraphs: exact group "
        "structure, chip-firing dynamics, homomorphism checking, and cube-cone "
        "verification reports.",
    )
    parser.add_argument(
        "--output",
        choices=("json", "text"),
        default="json",
        help="output format (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--sink", default=None, help="override/declare the sink label")

    p = sub.add_parser("group", help="invariant factors, elementary divisors, order")
    p.add_argument("graph")
    common(p)
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("stabilize", help="topple a configuration to its stabilization")
    p.add_argument("graph")
    p.add_argument("config")
    p.add_argument("--allow-negative", action="store_true",
                   help="accept chip vectors with negative entries")
    common(p)
    p.set_defaults(fn=cmd_stabilize)

    p = sub.add_parser("identity", help="the group identity configuration")
    p.add_argument("graph")
    common(p)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("recurrents", help="enumerate the recurrent set")
    p.add_argument("graph")
    common(p)
    p.add_argument("--max-orbit", type=int, default=DEFAULT_ORBIT_GUARD,
                   help="guard on enumerated recurrent sets")
    p.set_defaults(fn=cmd_recurrents)

    p = sub.add_parser("add", help="group law: stabilized sum of two recurrents")
    p.add_argument("graph")
    p.add_argument("config1")
    p.add_argument("config2")
    common(p)
    p.set_defaults(fn=cmd_add)

    p = sub.add_parser("representative",
                       help="the recurrent representative of a chip vector's class")
    p.add_argument("graph")
    p.add_argument("config")
    common(p)
    p.set_defaults(fn=cmd_representative)

    p = sub.add_parser("check-hom", help="validate a homomorphism file")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("hom")
    p.add_argument("--verify-injection", action="store_true",
                   help="also prove the induced group injection")
    p.set_defaults(fn=cmd_check_hom)

    p = sub.add_parser("product", help="box product of two cone configurations")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("--n", type=int, default=1, help="cone multiplicity")
    p.add_argument("--certify", action="store_true",
                   help="attach a recurrence verdict for the box configuration")
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("hypercube", help="cube-cone verification reports")
    p.add_argument("--d", type=int, default=2, help=f"cube dimension, 1..{_MAX_D}")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--verify", required=True,
                   choices=("structure", "decomposition", "even-counterexample",
                            "if-count", "all"))
    p.set_defaults(fn=cmd_hypercube)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix file")
    p.add_argument("matrix")
    p.add_argument("--transforms", action="store_true",
                   help="include the unimodular transforms")
    p.set_defaults(fn=cmd_snf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, args.output)
    except (SandpileError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
