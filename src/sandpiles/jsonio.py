"""File formats: graphs, configurations, homomorphisms, and matrices.

Graph files carry the version tag "sandpile-graph-v1"; vertex order in the
file is authoritative.  Parsers reject loops and unknown labels, and take
multiplicities, configuration entries and JSON matrix entries and
dimensions only as JSON integers: a fraction or a boolean is refused, never
rounded or read as 0 and 1.  Lists are JSON arrays, labels JSON strings.
Plain-text matrix entries are ASCII decimal integers.  Files are UTF-8.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import FormatError
from .graphs import Digraph, Multigraph, SinkedGraph, build_digraph, build_multigraph

# morphisms and intlinalg load in the readers that need them.
if TYPE_CHECKING:
    from .intlinalg import IntMatrix
    from .morphisms import UniformHom

GRAPH_FORMAT = "sandpile-graph-v1"
# A plain-text matrix entry: ASCII digits only, so neither an underscore nor
# a non-ASCII digit, both of which int() accepts, reads as a number.
_TEXT_INT = re.compile(r"[+-]?[0-9]+")


def _json(x, kind: type, what: str):
    """x if it is a JSON bool, int, str or list as kind says, else FormatError;
    Python counts bools as ints, so only kind bool takes true and false."""
    if isinstance(x, bool) != (kind is bool) or not isinstance(x, kind):
        name = {bool: "boolean", int: "integer", str: "string", list: "array"}[kind]
        raise FormatError(f"{what} must be a JSON {name}, not {json.dumps(x)}")
    return x


def _labels(xs, what: str) -> list[str]:
    return [_json(x, str, "vertex label") for x in _json(xs, list, what)]


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _load_json(path: str | Path):
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


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
        directed = _json(data["directed"], bool, '"directed"')
        vertices = _labels(data["vertices"], '"vertices"')
        edges = [(*_labels([u, v], "edge"), _json(m, int, "edge multiplicity"))
                 for u, v, m in _json(data["edges"], list, '"edges"')]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed graph file: {exc}") from exc
    graph = build_digraph(vertices, edges) if directed else build_multigraph(vertices, edges)
    sink = data.get("sink")
    if sink is None:
        return graph
    return SinkedGraph(graph, _json(sink, str, '"sink"'))


def load_graph(path: str | Path) -> Multigraph | Digraph | SinkedGraph:
    return graph_from_dict(_load_json(path))


def save_graph(g, path: str | Path) -> None:
    Path(path).write_text(dumps(graph_to_dict(g)) + "\n")


def load_config(path: str | Path) -> tuple[int, ...]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise FormatError("configuration file must hold a JSON integer array")
    return tuple(_json(x, int, "configuration entry") for x in data)


def load_hom(path: str | Path, source, target) -> UniformHom:
    """Parse and validate a homomorphism file against already-loaded graphs."""
    from .morphisms import HOM_KINDS, VertexMap, validate_hom

    data = _load_json(path)
    if not isinstance(data, dict):
        raise FormatError("hom file must hold a JSON object")
    try:
        mapping = {k: _json(v, str, "vertex label") for k, v in data["map"].items()}
        subset = _labels(data["subset_V"], '"subset_V"')
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
    from .intlinalg import IntMatrix

    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
            entries = [[_json(x, int, "matrix entry") for x in row] for row in data["entries"]]
            a = IntMatrix.from_rows(entries)
            if (a.rows != _json(data["rows"], int, '"rows"')
                    or a.cols != _json(data["cols"], int, '"cols"')):
                raise FormatError("matrix dimensions disagree with entries")
            return a
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise FormatError(f"malformed matrix file: {exc}") from exc
    rows = []
    for line in filter(str.strip, text.splitlines()):
        tokens = line.split()
        if not all(_TEXT_INT.fullmatch(tok) for tok in tokens):
            raise FormatError(f"malformed matrix row {line.strip()!r}")
        rows.append([int(tok) for tok in tokens])
    if not rows:
        raise FormatError("empty matrix file")
    if len({len(r) for r in rows}) != 1:
        raise FormatError("ragged matrix rows")
    return IntMatrix.from_rows(rows)


def dumps(payload) -> str:
    """Deterministic JSON: sorted keys, no floats anywhere by construction."""
    return json.dumps(payload, sort_keys=True, indent=2)
