from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from math import comb, prod
from pathlib import Path

import pytest

import sandpiles
from conftest import contracted_square, grid_cone, thick_triangle_target
from sandpiles import cubes, morphisms
from sandpiles.cli import main
from sandpiles.errors import FormatError
from sandpiles.graphs import (
    build_digraph,
    build_multigraph,
    cartesian_product,
    cone,
    cycle_graph,
    hypercube,
    k2,
    thick_k2_cone,
)
from sandpiles.intlinalg import IntMatrix, reduced_laplacian
from sandpiles.jsonio import (
    dumps,
    graph_from_dict,
    graph_to_dict,
    load_config,
    load_graph,
    load_matrix,
    save_graph,
)


@pytest.fixture
def square_cone(tmp_path):
    path = tmp_path / "square.json"
    save_graph(cone(hypercube(2)), path)
    return path


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else dumps(payload))
    return path


def c5_onto_c3_with_unequal_fibers(tmp_path):
    """check-hom arguments for a map C5 -> C3 whose fibers over the subset
    have sizes 1, 2, 2: the fiber-size clause fails."""
    src = tmp_path / "c5.json"
    tgt = tmp_path / "c3.json"
    save_graph(cycle_graph(5), src)
    save_graph(cycle_graph(3), tgt)
    hom = write(
        tmp_path,
        "hom.json",
        {
            "map": {"v1": "v1", "v2": "v2", "v4": "v2", "v3": "v3", "v5": "v3"},
            "subset_V": ["v1", "v2", "v3"],
            "kind": "uniform",
        },
    )
    return [str(src), str(tgt), str(hom)]


class TestGraphFiles:
    def test_round_trip_undirected(self, tmp_path):
        g = cone(cycle_graph(4))
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_round_trip_digraph(self, tmp_path):
        g = thick_k2_cone(2, 3)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_round_trip_bare_multigraph(self, tmp_path):
        g = cycle_graph(5)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_vertex_order_is_authoritative(self):
        data = graph_to_dict(k2())
        data["vertices"] = ["v2", "v1"]
        assert graph_from_dict(data).vertices == ("v2", "v1")

    def test_rejects_missing_format(self):
        with pytest.raises(FormatError):
            graph_from_dict({"directed": False, "vertices": [], "edges": [], "sink": None})

    def test_rejects_loops(self):
        from sandpiles.errors import LoopEdge

        data = {
            "format": "sandpile-graph-v1",
            "directed": False,
            "vertices": ["a"],
            "edges": [["a", "a", 1]],
            "sink": None,
        }
        with pytest.raises(LoopEdge):
            graph_from_dict(data)

    def test_rejects_non_integer_multiplicities(self):
        for m in (2.7, 2.0, True, "2", None):
            data = graph_to_dict(cone(k2()))
            data["edges"][0][2] = m
            with pytest.raises(FormatError):
                graph_from_dict(data)

    def test_rejects_non_boolean_directed(self):
        for directed in ("false", 0, 1, None):
            data = graph_to_dict(cone(k2()))
            data["directed"] = directed
            with pytest.raises(FormatError):
                graph_from_dict(data)

    def test_cli_refuses_fractional_multiplicity(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", {
            "format": "sandpile-graph-v1", "directed": False, "vertices": ["a", "b", "s"],
            "edges": [["a", "b", 2.7], ["a", "s", True], ["b", "s", 1]], "sink": "s"})
        assert main(["group", str(path)]) == 1
        assert "error: FormatError: edge multiplicity must be a JSON integer, not 2.7" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("field, value", [
        ("vertices", "v1v2s"),
        ("vertices", ["v1", "v2", 0]),
        ("edges", "v1"),
        ("edges", [["v1", "v2", 1], ["v1", ["s"], 1], ["v2", "s", 1]]),
        ("edges", [["v1", "v2", 1], [1, "s", 1], ["v2", "s", 1]]),
        ("sink", 0),
        ("sink", ["s"]),
    ])
    def test_rejects_labels_that_are_not_json_strings(self, field, value):
        data = graph_to_dict(cone(k2()))
        data[field] = value
        with pytest.raises(FormatError):
            graph_from_dict(data)

    def test_cli_refuses_a_string_of_vertices(self, tmp_path, capsys):
        # Iterated, "abs" would be the three vertices a, b and s.
        path = write(tmp_path, "g.json", {
            "format": "sandpile-graph-v1", "directed": False, "vertices": "abs",
            "edges": [["a", "b", 1], ["a", "s", 1], ["b", "s", 1]], "sink": "s"})
        assert main(["group", str(path)]) == 1
        assert capsys.readouterr().err == (
            'error: FormatError: "vertices" must be a JSON array, not "abs"\n')

    def test_rejects_unknown_labels(self):
        from sandpiles.errors import UnknownVertex

        data = {
            "format": "sandpile-graph-v1",
            "directed": False,
            "vertices": ["a"],
            "edges": [["a", "b", 1]],
            "sink": None,
        }
        with pytest.raises(UnknownVertex):
            graph_from_dict(data)


class TestConfigAndMatrixFiles:
    def test_config(self, tmp_path):
        path = write(tmp_path, "c.json", "[3, 2, 1]")
        assert load_config(path) == (3, 2, 1)

    def test_config_rejects_non_integers(self, tmp_path):
        for text in ('[1, "x"]', "[true, 0]", "[2.9, 1]", "[1, 2.0]", "[[1], 2]"):
            path = write(tmp_path, "c.json", text)
            with pytest.raises(FormatError):
                load_config(path)

    def test_matrix_text(self, tmp_path):
        path = write(tmp_path, "m.txt", "2 -1\n-1 2\n")
        assert load_matrix(path) == IntMatrix.from_rows([[2, -1], [-1, 2]])

    def test_matrix_json(self, tmp_path):
        path = write(tmp_path, "m.json", {"rows": 1, "cols": 2, "entries": [[3, 4]]})
        assert load_matrix(path) == IntMatrix.from_rows([[3, 4]])

    def test_matrix_json_rejects_non_integers(self, tmp_path):
        for data in ({"rows": 1, "cols": 2, "entries": [[3, 2.9]]},
                     {"rows": 1, "cols": 2, "entries": [[True, 0]]},
                     {"rows": 1.0, "cols": 2, "entries": [[3, 4]]},
                     {"rows": 1, "cols": True, "entries": [[3]]},
                     {"rows": 1, "cols": 2, "entries": [[3, "4"]]}):
            path = write(tmp_path, "m.json", data)
            with pytest.raises(FormatError):
                load_matrix(path)

    def test_matrix_text_takes_only_ascii_integers(self, tmp_path):
        path = write(tmp_path, "m.txt", "+3 -0\n007 -12\n")
        assert load_matrix(path) == IntMatrix.from_rows([[3, 0], [7, -12]])
        # int() reads the first three as 10, 3 and 3.
        for text in ("1_0 0\n0 3\n", "1 0\n0 \uff13\n", "1 0\n0 \u0663\n", "1 +-2\n",
                     "1 2.0\n", "1 0x2\n"):
            path = write(tmp_path, "m.txt", text)
            with pytest.raises(FormatError):
                load_matrix(path)

    def test_snf_refuses_underscore_and_full_width_digits(self, tmp_path, capsys):
        path = write(tmp_path, "m.txt", "1_0 0\n0 \uff13\n")
        assert main(["snf", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: FormatError: ")

    def test_matrix_ragged_rejected(self, tmp_path):
        path = write(tmp_path, "m.txt", "1 2\n3\n")
        with pytest.raises(FormatError):
            load_matrix(path)


def _read_as(kind: str, bad: Path, good: Path) -> list[str]:
    """CLI arguments that read `bad` as a file of the given kind."""
    return {"graph": ["group", str(bad)],
            "config": ["stabilize", str(good), str(bad)],
            "hom": ["check-hom", str(good), str(good), str(bad)],
            "matrix": ["snf", str(bad)]}[kind]


class TestUnreadableFiles:
    """Bytes that are not UTF-8, JSON nested too deep to parse and JSON of
    the wrong shape are malformed files like any other: exit 1 with one
    FormatError line."""

    DEEP = b"[" * 100_000 + b"]" * 100_000

    @pytest.mark.parametrize("kind", ["graph", "config", "hom", "matrix"])
    @pytest.mark.parametrize("payload", [b"\xff\xfe{}", DEEP], ids=["non-utf8", "deep"])
    def test_every_file_kind(self, tmp_path, capsys, square_cone, kind, payload):
        bad = tmp_path / "bad.json"
        if kind == "matrix" and payload == self.DEEP:
            payload = b'{"entries": ' + payload + b"}"
        bad.write_bytes(payload)
        assert main(_read_as(kind, bad, square_cone)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FormatError: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind, payload, message", [
        ("graph", [], "graph file must hold a JSON object"),
        ("graph", {"format": "sandpile-graph-v1", "directed": False, "vertices": ["a", "s"],
                   "edges": [["a", "s"]], "sink": "s"}, "malformed graph file: "),
        ("config", {}, "configuration file must hold a JSON integer array"),
        ("hom", [], "hom file must hold a JSON object"),
        ("matrix", {"rows": 2, "cols": 2, "entries": [[1, 2]]},
         "matrix dimensions disagree with entries"),
        ("matrix", " \n\n", "empty matrix file"),
    ], ids=["graph-not-object", "edge-of-two", "config-not-array", "hom-not-object",
            "matrix-shape", "matrix-empty"])
    def test_wrong_shape(self, tmp_path, capsys, square_cone, kind, payload, message):
        bad = write(tmp_path, "bad.json", payload)
        assert main(_read_as(kind, bad, square_cone)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: FormatError: {message}")
        assert captured.err.count("\n") == 1

    def test_console_prints_no_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        src_dir = str(Path(sandpiles.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-m", "sandpiles", "group", str(bad)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src_dir))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: FormatError: ")
        assert "Traceback" not in proc.stderr


@pytest.fixture
def digit_limit() -> int:
    """CPython's int-to-str digit limit; skips where there is none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    return limit


class TestIntegersPastTheDigitLimit:
    """CPython 3.10.7+ refuses int-to-str conversion past a digit limit
    (4300 by default).  Output prints every integer in full; an input token
    past the limit is a malformed file, refused with one FormatError line."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_snf_prints_a_diagonal_in_full(self, tmp_path, capsys, digit_limit, fmt):
        a, b = 10**3000 + 1, 10**3000 + 3
        m = write(tmp_path, "m.txt", f"{a} 0\n0 {b}\n")
        assert main(["--output", fmt, "snf", str(m)]) == 0
        out = capsys.readouterr().out
        assert sys.get_int_max_str_digits() == digit_limit
        expected = str(Decimal(a * b))
        assert len(expected) == 6001
        if fmt == "json":
            assert out.split() == ["{", '"diagonal":', "[", "1,", expected, "]", "}"]
        else:
            assert out == f"diagonal: [1, {expected}]\n"

    @pytest.mark.parametrize("kind", ["graph", "config", "hom", "matrix", "text-matrix"])
    def test_a_longer_input_token_is_refused(self, tmp_path, capsys, square_cone,
                                             digit_limit, kind):
        token = "1" + "0" * digit_limit
        payload = {
            "graph": '{"format": "sandpile-graph-v1", "directed": false, "vertices": '
                     f'["a", "s"], "edges": [["a", "s", {token}]], "sink": "s"}}',
            "config": f"[{token}, 0, 0, 0]",
            "hom": f'{{"map": {{}}, "subset_V": [], "kind": "uniform", "x": {token}}}',
            "matrix": f'{{"rows": 1, "cols": 1, "entries": [[{token}]]}}',
            "text-matrix": f"{token} 0\n0 1\n",
        }[kind]
        bad = write(tmp_path, "bad.txt", payload)
        assert main(_read_as(kind.removeprefix("text-"), bad, square_cone)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FormatError: ") and captured.err.count("\n") == 1
        # The advice is one a CLI user can follow: the environment variable,
        # not a call into the interpreter.
        assert f"value has {digit_limit + 1} digits" in captured.err
        assert "PYTHONINTMAXSTRDIGITS=0" in captured.err
        assert "set_int_max_str_digits" not in captured.err


class TestCliCommands:
    def test_group(self, tmp_path, capsys):
        path = tmp_path / "c5.json"
        save_graph(cone(cycle_graph(5)), path)
        assert main(["group", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == [11, 11]
        assert payload["order"] == "121"

    def test_group_order_past_the_int_string_limit(self, tmp_path, capsys):
        # |K(cone(Q_12))| = prod_w (2w + 1)^C(12, w) has 4492 digits, more
        # than str(int) converts by default since CPython 3.10.7.
        path = tmp_path / "cube12.json"
        save_graph(cubes.cube_cone(12, 1), path)
        assert main(["group", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["invariant_factors"]) == 1365
        order = prod((2 * w + 1) ** comb(12, w) for w in range(13))
        assert len(payload["order"]) == 4492
        assert Decimal(payload["order"]) == Decimal(order)

    def test_group_with_sink_flag(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        save_graph(cycle_graph(3), path)
        assert main(["group", str(path), "--sink", "v1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant_factors"] == [3]

    def test_graph_without_a_sink_needs_the_flag(self, tmp_path, capsys):
        path = tmp_path / "c3.json"
        save_graph(cycle_graph(3), path)
        assert main(["group", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: FormatError: graph file has no sink; pass --sink LABEL\n")

    def test_group_disconnected_exits_one(self, tmp_path, capsys):
        g = build_multigraph(["a", "b", "c"], [("a", "b", 1)])
        path = tmp_path / "bad.json"
        save_graph(g, path)
        assert main(["group", str(path), "--sink", "a"]) == 1
        assert "SingularReducedLaplacian" in capsys.readouterr().err

    def test_stabilize(self, square_cone, tmp_path, capsys):
        conf = write(tmp_path, "c.json", "[3, 2, 3, 2]")
        assert main(["stabilize", str(square_cone), str(conf)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"stable": [2, 1, 2, 1], "firings": [1, 1, 1, 1]}

    def test_stabilize_stable_input(self, square_cone, tmp_path, capsys):
        conf = write(tmp_path, "c.json", "[1, 0, 1, 0]")
        main(["stabilize", str(square_cone), str(conf)])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"stable": [1, 0, 1, 0], "firings": [0, 0, 0, 0]}

    def test_stabilize_negative_needs_flag(self, square_cone, tmp_path, capsys):
        conf = write(tmp_path, "c.json", "[-1, 0, 0, 0]")
        assert main(["stabilize", str(square_cone), str(conf)]) == 1
        capsys.readouterr()
        assert main(["stabilize", str(square_cone), str(conf), "--allow-negative"]) == 0

    def test_identity(self, square_cone, capsys):
        assert main(["identity", str(square_cone)]) == 0
        assert json.loads(capsys.readouterr().out)["identity"] == [2, 2, 2, 2]

    def test_recurrents(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_graph(cone(k2()), path)
        assert main(["recurrents", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 3
        assert payload["recurrents"] == [[0, 1], [1, 0], [1, 1]]

    def test_recurrents_refuses_the_hundred_grid_cone(self, tmp_path, capsys):
        path = tmp_path / "grid100.json"
        save_graph(grid_cone(100), path)
        assert main(["recurrents", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: OrbitTooLarge: ") and err.count("\n") == 1

    def test_add(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_graph(cone(k2()), path)
        c1 = write(tmp_path, "c1.json", "[1, 0]")
        assert main(["add", str(path), str(c1), str(c1)]) == 0
        assert json.loads(capsys.readouterr().out)["sum"] == [0, 1]

    def test_add_rejects_non_recurrent(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_graph(cone(k2()), path)
        c1 = write(tmp_path, "c1.json", "[0, 0]")
        assert main(["add", str(path), str(c1), str(c1)]) == 1

    def test_add_rejects_negative(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_graph(cone(k2()), path)
        neg = write(tmp_path, "neg.json", "[-1, 1]")
        ok = write(tmp_path, "ok.json", "[1, 0]")
        assert main(["add", str(path), str(neg), str(ok)]) == 1
        err = capsys.readouterr().err
        assert "FormatError" in err and "not a recurrent configuration" in err

    def test_representative(self, square_cone, tmp_path, capsys):
        conf = write(tmp_path, "c.json", "[0, 0, 0, 0]")
        assert main(["representative", str(square_cone), str(conf)]) == 0
        assert json.loads(capsys.readouterr().out)["representative"] == [2, 2, 2, 2]

    @pytest.mark.parametrize(
        "source, target, mapping, kind, degree, image_order",
        [
            (contracted_square(), thick_triangle_target(),
             {"sG": "sH", "u2": "v2", "u3": "v3", "u4": "v2", "u5": "v3"}, "uniform", 2, 8),
            # The projection of cone(C3 x K2) onto cone(C3), K = Z4 + Z4.
            (cone(cartesian_product(cycle_graph(3), k2())), cone(cycle_graph(3)),
             {"s": "s", **{f"({u},{v})": u for u in ("v1", "v2", "v3") for v in ("v1", "v2")}},
             "weak", 2, 16),
            # The collapse of the cone of the 3-leaf star onto thick_k2_cone(3, 1), K = Z5.
            (cone(build_multigraph(["c", "l1", "l2", "l3"],
                                   [("c", "l1", 1), ("c", "l2", 1), ("c", "l3", 1)])),
             thick_k2_cone(3, 1), {"s": "s", "c": "v1", "l1": "v2", "l2": "v2", "l3": "v2"},
             "directed", None, 5),
        ],
        ids=["uniform", "weak", "directed"],
    )
    def test_check_hom_pass(self, tmp_path, capsys, source, target, mapping, kind, degree,
                            image_order):
        src = tmp_path / "src.json"
        tgt = tmp_path / "tgt.json"
        save_graph(source, src)
        save_graph(target, tgt)
        subset = [x for x in target.graph.vertices if x != target.sink]
        hom = write(tmp_path, "hom.json", {"map": mapping, "subset_V": subset, "kind": kind})
        assert main(["check-hom", str(src), str(tgt), str(hom), "--verify-injection"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["kind"] == kind and payload["degree"] == degree
        injection = payload["injection"]
        assert injection["passed"] and injection["image_order"] == image_order
        assert injection["mode"] == "lattice" and "checked_pairs" not in injection

    def test_check_hom_failed_injection_exits_two(self, tmp_path, capsys, monkeypatch):
        # Doubled, the pullback of the weak projection onto cone(C3), with
        # K = Z4 + Z4, has an image of order 4: the map is valid, the proof fails.
        real = morphisms.pullback
        monkeypatch.setattr(morphisms, "pullback", lambda h, x: tuple(2 * v for v in real(h, x)))
        src = tmp_path / "src.json"
        tgt = tmp_path / "tgt.json"
        save_graph(cone(cartesian_product(cycle_graph(3), k2())), src)
        save_graph(cone(cycle_graph(3)), tgt)
        mapping = {"s": "s", **{f"({u},{v})": u for u in ("v1", "v2", "v3") for v in ("v1", "v2")}}
        hom = write(tmp_path, "hom.json",
                    {"map": mapping, "subset_V": ["v1", "v2", "v3"], "kind": "weak"})
        assert main(["check-hom", str(src), str(tgt), str(hom), "--verify-injection"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["injection"]["passed"] is False
        assert payload["injection"]["image_order"] == 4

    def test_check_hom_fail_exits_two(self, tmp_path, capsys):
        assert main(["check-hom", *c5_onto_c3_with_unequal_fibers(tmp_path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert not payload["valid"]
        assert payload["clause"]

    def test_check_hom_unknown_kind_exits_one(self, tmp_path, capsys):
        src, tgt, hom = c5_onto_c3_with_unequal_fibers(tmp_path)
        data = json.loads(Path(hom).read_text())
        data["kind"] = "strong"
        write(tmp_path, "hom.json", data)
        assert main(["check-hom", src, tgt, hom]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [
        ("subset_V", "ab"),
        ("subset_V", ["a", 2]),
        ("map", {"a": "a", "b": ["b"], "s": "s"}),
        ("map", ["a", "b", "s"]),
    ])
    def test_check_hom_refuses_labels_that_are_not_json_strings(
            self, tmp_path, capsys, field, value):
        # Iterated, "ab" would be the subset ["a", "b"] of a valid identity map.
        path = tmp_path / "g.json"
        save_graph(cone(build_multigraph(["a", "b"], [("a", "b", 1)])), path)
        data = {"map": {"a": "a", "b": "b", "s": "s"}, "subset_V": ["a", "b"],
                "kind": "uniform"}
        assert main(["check-hom", str(path), str(path), str(write(tmp_path, "h.json", data))]) == 0
        capsys.readouterr()
        data[field] = value
        assert main(["check-hom", str(path), str(path), str(write(tmp_path, "h.json", data))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FormatError: ") and captured.err.count("\n") == 1

    def test_check_hom_witness_ignores_hash_seed(self, tmp_path):
        # String hashing changes with PYTHONHASHSEED; the witness must not.
        argv = [sys.executable, "-m", "sandpiles", "check-hom",
                *c5_onto_c3_with_unequal_fibers(tmp_path)]
        src_dir = str(Path(sandpiles.__file__).resolve().parent.parent)
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src_dir)
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert proc.returncode == 2, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["witness"] == ["v1", 1, "v2", 2]

    def test_check_hom_identity_passes(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        g = cone(k2())
        save_graph(g, path)
        hom = write(
            tmp_path,
            "hom.json",
            {
                "map": {v: v for v in g.graph.vertices},
                "subset_V": list(g.nonsink_order),
                "kind": "uniform",
            },
        )
        assert main(["check-hom", str(path), str(path), str(hom)]) == 0

    def test_product(self, tmp_path, capsys):
        g = tmp_path / "c5.json"
        h = tmp_path / "k2.json"
        save_graph(cycle_graph(5), g)
        save_graph(k2(), h)
        a = write(tmp_path, "a.json", "[2, 1, 5, 4, 3]")
        b = write(tmp_path, "b.json", "[1, 2]")
        assert main(["product", str(g), str(h), str(a), str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["box"] == [3, 2, 6, 5, 4, 4, 3, 7, 6, 5]

    def test_product_certify(self, tmp_path, capsys):
        g = tmp_path / "k2a.json"
        h = tmp_path / "k2b.json"
        save_graph(k2(), g)
        save_graph(k2(), h)
        a = write(tmp_path, "a.json", "[1, 0]")
        b = write(tmp_path, "b.json", "[1, 1]")
        assert main(["product", str(g), str(h), str(a), str(b), "--certify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["box"] == [2, 1, 2, 1]
        assert payload["recurrent"] is True

    def test_product_certify_negative(self, tmp_path, capsys):
        g = tmp_path / "c4.json"
        h = tmp_path / "k2.json"
        save_graph(cycle_graph(4), g)
        save_graph(k2(), h)
        a = write(tmp_path, "a.json", "[-3, 1, 1, 1]")
        b = write(tmp_path, "b.json", "[1, 1]")
        assert main(["product", str(g), str(h), str(a), str(b), "--certify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert min(payload["box"]) < 0
        assert payload["recurrent"] is False

    @pytest.mark.parametrize("graph", [lambda: cone(k2()),
                                       lambda: build_digraph(["a", "b"], [("a", "b", 1)])],
                             ids=["sinked", "digraph"])
    @pytest.mark.parametrize("position", ["first", "second"])
    def test_product_refuses_a_sinked_graph_or_a_digraph(self, tmp_path, capsys, graph,
                                                          position):
        good = tmp_path / "k2.json"
        bad = tmp_path / "bad.json"
        save_graph(k2(), good)
        save_graph(graph(), bad)
        pair = [str(bad), str(good)] if position == "first" else [str(good), str(bad)]
        a = write(tmp_path, "a.json", "[1, 1]")
        assert main(["product", *pair, str(a), str(a)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: FormatError: {position} graph must be an undirected "
                                "multigraph without a sink\n")

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("certify", [[], ["--certify"]])
    def test_product_refuses_a_nonpositive_multiplicity(self, tmp_path, capsys, n, certify):
        g = tmp_path / "c4.json"
        h = tmp_path / "c3.json"
        save_graph(cycle_graph(4), g)
        save_graph(cycle_graph(3), h)
        a = write(tmp_path, "a.json", "[1, 1, 1, 1]")
        b = write(tmp_path, "b.json", "[1, 1, 1]")
        assert main(["product", str(g), str(h), str(a), str(b), "--n", n, *certify]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: NonPositiveMultiplicity: ")
        assert captured.err.count("\n") == 1

    def test_hypercube_structure(self, capsys):
        assert main(["hypercube", "--d", "2", "--k", "1", "--verify", "structure"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        assert payload["reports"][0]["computed_elementary_divisors"] == [3, 5, 5, 7]

    def test_hypercube_all(self, capsys):
        assert main(["hypercube", "--d", "3", "--verify", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] and len(payload["reports"]) == 4

    def test_hypercube_all_at_max_d(self, capsys):
        assert main(["hypercube", "--d", "12", "--verify", "all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]
        decomposition = next(r for r in payload["reports"] if r["check"] == "decomposition")
        assert decomposition["stripe_orders"] == list(range(3, 26, 2))

    def test_hypercube_all_runs_one_certificate(self, capsys, monkeypatch):
        # structure, decomposition and if-count all read the proof on
        # cube_cone(12, 1): one Walsh-Hadamard spectrum of that cone, once.
        from sandpiles import intlinalg

        read = []
        real_spectrum = intlinalg.cayley_spectrum
        monkeypatch.setattr(intlinalg, "cayley_spectrum",
                            lambda g: read.append(g.n_nonsink) or real_spectrum(g))
        cubes._cube.cache_clear()
        assert main(["hypercube", "--d", "12", "--verify", "all"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert read.count(4096) == 1

    def test_hypercube_all_builds_each_cone_once(self, capsys, monkeypatch):
        # cone(Q_12, 1) serves the certificate and the stripe burning checks;
        # the even counterexample builds cone(Q_2, 2).
        built = []
        real_cone = cubes.cone
        monkeypatch.setattr(cubes, "cone",
                            lambda g, n: built.append((len(g.vertices), n)) or real_cone(g, n))
        cubes._cube.cache_clear()
        assert main(["hypercube", "--d", "12", "--verify", "all"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"]
        assert built == [(4096, 1), (4, 2)]

    def test_hypercube_guard(self, capsys):
        assert main(["hypercube", "--d", "13", "--verify", "structure"]) == 1
        assert main(["hypercube", "--d", "0", "--verify", "decomposition"]) == 1

    def test_hypercube_if_count_guard(self, capsys):
        assert main(["hypercube", "--d", "13", "--verify", "if-count"]) == 1
        assert capsys.readouterr().err.startswith("error: OutOfRange: ")

    def test_snf(self, tmp_path, capsys):
        m = write(tmp_path, "m.txt", "2 -1\n-1 2\n")
        assert main(["snf", str(m), "--transforms"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagonal"] == [1, 3]
        assert payload["u"]["entries"] and payload["v"]["entries"]

    def test_hypercube_help_states_the_guard(self, capsys):
        with pytest.raises(SystemExit):
            main(["hypercube", "--help"])
        assert f"cube dimension, 1..{cubes.MAX_D}" in capsys.readouterr().out

    def test_snf_diagonal_equals_the_transforms_path(self, tmp_path, capsys):
        # Plain snf reads a square nonsingular diagonal from the invariant
        # factors; it must print what the full elimination prints.
        rng = random.Random(31)
        matrices = [[[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [[2, -1], [-1, 2]],
                    [list(r) for r in reduced_laplacian(cubes.cube_cone(3)).entries],
                    [[0]], [[1]], [[-6]], [[1, 2, 3], [4, 5, 6]], [[1, 2], [2, 4]]]
        for _ in range(200):
            n = rng.randint(1, 6)
            rows = [[rng.choice((0, 0, 1, -1, rng.randint(-20, 20))) for _ in range(n)]
                    for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            matrices.append(rows)
        singular = 0
        for i, rows in enumerate([[]] + matrices):
            m = write(tmp_path, f"m{i}.json", {"rows": len(rows), "cols": len(rows[0]) if rows
                                               else 0, "entries": rows})
            assert main(["snf", str(m), "--transforms"]) == 0
            full = json.loads(capsys.readouterr().out)["diagonal"]
            assert main(["snf", str(m)]) == 0
            assert json.loads(capsys.readouterr().out) == {"diagonal": full}
            singular += 0 in full
        assert singular > 20

    def test_text_output(self, square_cone, capsys):
        assert main(["--output", "text", "identity", str(square_cone)]) == 0
        out = capsys.readouterr().out
        assert "identity:" in out

    def test_output_is_set_by_the_flag_alone(self, square_cone, capsys, monkeypatch):
        monkeypatch.setenv("SANDPILES_OUTPUT", "text")
        assert main(["identity", str(square_cone)]) == 0
        assert "identity" in json.loads(capsys.readouterr().out)

    def test_output_determinism(self, tmp_path, capsys):
        path = tmp_path / "c5.json"
        save_graph(cone(cycle_graph(5)), path)
        main(["group", str(path)])
        first = capsys.readouterr().out
        main(["group", str(path)])
        second = capsys.readouterr().out
        assert first == second

    def test_emitted_graph_reparses_equal(self, tmp_path):
        g = cone(cycle_graph(4))
        path = tmp_path / "g.json"
        save_graph(g, path)
        save_graph(load_graph(path), tmp_path / "g2.json")
        assert (tmp_path / "g.json").read_text() == (tmp_path / "g2.json").read_text()
