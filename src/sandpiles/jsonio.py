"""File formats: graphs, configurations, homomorphisms, and matrices.

Graph files carry the version tag "sandpile-graph-v1"; vertex order in the
file is authoritative.  Parsers reject loops and unknown labels, and take
multiplicities, configuration entries and JSON matrix entries and
dimensions only as JSON integers: a fraction or a boolean is refused, never
rounded or read as 0 and 1.  Plain-text matrix entries are ASCII decimal
integers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence

from .errors import FormatError
from .graphs import Digraph, Multigraph, SinkedGraph, build_digraph, build_multigraph
from .intlinalg import IntMatrix
from .morphisms import HOM_KINDS, UniformHom, VertexMap, validate_hom

GRAPH_FORMAT = "sandpile-graph-v1"
# A plain-text matrix entry: ASCII digits only, so neither an underscore nor
# a non-ASCII digit, both of which int() accepts, reads as a number.
_TEXT_INT = re.compile(r"[+-]?[0-9]+")


def _json_int(x, what: str) -> int:
    """x if it is a JSON integer, else FormatError.  JSON true and false load
    as bools, which Python counts as ints, so they are refused by name."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise FormatError(f"{what} must be a JSON integer, not {json.dumps(x)}")
    return x


def graph_to_dict(g: Multigraph | Digraph | SinkedGraph) -> dict:
    sink = None
    if isinstance(g, SinkedGraph):
        sink = g.sink
        g = g.graph
    directed = isinstance(g, Digraph)
    edges = g.arcs() if directed else g.edges()
    return {
        "format": GRAPH_FORMAT,
        "directed": directed,
        "vertices": list(g.vertices),
        "edges": [[u, v, m] for u, v, m in edges],
        "sink": sink,
    }


def graph_from_dict(data: dict) -> Multigraph | Digraph | SinkedGraph:
    if not isinstance(data, dict):
        raise FormatError("graph file must hold a JSON object")
    if data.get("format") != GRAPH_FORMAT:
        raise FormatError(f'graph file must carry "format": "{GRAPH_FORMAT}"')
    try:
        directed = data["directed"]
        vertices = [str(v) for v in data["vertices"]]
        edges = [(str(u), str(v), _json_int(m, "edge multiplicity")) for u, v, m in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed graph file: {exc}") from exc
    if not isinstance(directed, bool):
        raise FormatError(f'"directed" must be true or false, not {json.dumps(directed)}')
    graph = build_digraph(vertices, edges) if directed else build_multigraph(vertices, edges)
    sink = data.get("sink")
    if sink is None:
        return graph
    return SinkedGraph(graph, str(sink))


def load_graph(path: str | Path) -> Multigraph | Digraph | SinkedGraph:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return graph_from_dict(data)


def save_graph(g, path: str | Path) -> None:
    Path(path).write_text(dumps(graph_to_dict(g)) + "\n")


def config_to_list(values: Sequence[int]) -> list[int]:
    return [int(x) for x in values]


def load_config(path: str | Path) -> tuple[int, ...]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(data, list):
        raise FormatError("configuration file must hold a JSON integer array")
    return tuple(_json_int(x, "configuration entry") for x in data)


def load_hom(path: str | Path, source, target) -> UniformHom:
    """Parse and validate a homomorphism file against already-loaded graphs."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("hom file must hold a JSON object")
    try:
        mapping = {str(k): str(v) for k, v in data["map"].items()}
        subset = [str(x) for x in data["subset_V"]]
        kind = str(data["kind"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"malformed hom file: {exc}") from exc
    if kind not in HOM_KINDS:
        raise FormatError(f'"kind" must be one of {", ".join(HOM_KINDS)}, not {kind!r}')
    return validate_hom(VertexMap(source, target, mapping), subset, kind)


def matrix_to_dict(a: IntMatrix) -> dict:
    return {"rows": a.rows, "cols": a.cols, "entries": [list(r) for r in a.entries]}


def load_matrix(path: str | Path) -> IntMatrix:
    """JSON {"rows","cols","entries"} or plain text rows of integers."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
            entries = [[_json_int(x, "matrix entry") for x in row] for row in data["entries"]]
            a = IntMatrix.from_rows(entries)
            if (a.rows != _json_int(data["rows"], '"rows"')
                    or a.cols != _json_int(data["cols"], '"cols"')):
                raise FormatError("matrix dimensions disagree with entries")
            return a
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise FormatError(f"malformed matrix file: {exc}") from exc
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        if not all(_TEXT_INT.fullmatch(tok) for tok in tokens):
            raise FormatError(f"malformed matrix row {line!r}")
        rows.append([int(tok) for tok in tokens])
    if not rows:
        raise FormatError("empty matrix file")
    if len({len(r) for r in rows}) != 1:
        raise FormatError("ragged matrix rows")
    return IntMatrix.from_rows(rows)


def dumps(payload) -> str:
    """Deterministic JSON: sorted keys, no floats anywhere by construction."""
    return json.dumps(payload, sort_keys=True, indent=2)
