"""What each entry point imports, each in a fresh interpreter.

`import sandpiles` loads no submodule, and the light subcommands (stabilize,
identity, representative, add) never load intlinalg, cubes, morphisms or
products; the other subcommands load what they run on demand.  The package
never imports `dataclasses`, whose import pulls in `inspect`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sandpiles
from sandpiles.graphs import cone, cycle_graph, hypercube
from sandpiles.jsonio import dumps, save_graph

SRC = str(Path(sandpiles.__file__).resolve().parent.parent)
HEAVY = {"sandpiles.intlinalg", "sandpiles.cubes", "sandpiles.morphisms", "sandpiles.products"}
LIGHT = {"sandpiles", "sandpiles._record", "sandpiles.cli", "sandpiles.dynamics",
         "sandpiles.errors", "sandpiles.graphs", "sandpiles.jsonio"}
# The package's exports before they loaded on demand, submodules included.
ALL = {
    "Digraph", "GroupStructure", "IntMatrix", "Multigraph", "RecurrentConfig",
    "SandpileGroup", "SinkedGraph", "SmithDecomposition", "add_recurrent", "build_digraph",
    "build_multigraph", "cartesian_product", "cone", "congruent", "contract", "cycle_graph",
    "determinant", "dynamics", "element_order", "errors", "graphs", "hypercube", "identity",
    "intlinalg", "invariant_factors", "is_recurrent_burning", "k2", "laplacian",
    "recurrent_orbit", "recurrent_representative", "reduced_laplacian", "sandpile_group",
    "smith_normal_form", "stabilize", "subcube", "thick_k2_cone", "thick_pair",
    "to_sink_digraph",
}


def fresh(code: str) -> tuple[int, set[str]]:
    """Run code in a new interpreter; its exit status (the value of `status`
    when code sets one) and the sandpiles modules it left loaded."""
    probe = (f"import json, sys\nstatus = 0\n{code}\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sandpiles'))))\n"
             "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


def run_main(argv: list[str]) -> tuple[int, set[str]]:
    return fresh(f"from sandpiles.cli import main\nstatus = main({argv!r})")


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else dumps(payload))
        return str(path)

    square = tmp_path / "square.json"
    save_graph(cone(hypercube(2)), square)
    save_graph(cycle_graph(4), tmp_path / "c4.json")
    save_graph(cycle_graph(3), tmp_path / "c3.json")
    return {
        "square": str(square),
        "c4": str(tmp_path / "c4.json"),
        "c3": str(tmp_path / "c3.json"),
        "config": write("config.json", [3, 2, 3, 2]),
        "zero": write("zero.json", [0, 0, 0, 0]),
        "top": write("top.json", [2, 2, 2, 2]),
        "a4": write("a4.json", [1, 1, 1, 1]),
        "b3": write("b3.json", [1, 1, 1]),
        "hom": write("hom.json", {"map": {v: v for v in ("v00", "v01", "v10", "v11", "s")},
                                  "subset_V": ["v00", "v01", "v10", "v11"], "kind": "uniform"}),
        "matrix": write("m.txt", "2 4 4\n-6 6 12\n10 -4 -16\n"),
    }


def test_import_sandpiles_loads_no_submodule():
    assert fresh("import sandpiles") == (0, {"sandpiles"})


def test_import_cli_loads_only_the_light_layers():
    status, loaded = fresh("import sandpiles.cli")
    assert status == 0
    assert loaded.isdisjoint(HEAVY) and loaded == LIGHT


@pytest.mark.parametrize("argv", [
    ["stabilize", "square", "config"],
    ["identity", "square"],
    ["representative", "square", "zero"],
    ["add", "square", "top", "top"],
])
def test_light_subcommands_load_only_the_light_layers(files, argv):
    status, loaded = run_main([files.get(a, a) for a in argv])
    assert status == 0
    assert loaded.isdisjoint(HEAVY) and loaded == LIGHT


@pytest.mark.parametrize("argv, needs", [
    (["group", "square"], "intlinalg"),
    (["recurrents", "square"], "intlinalg"),
    (["check-hom", "square", "square", "hom", "--verify-injection"], "morphisms"),
    (["product", "c4", "c3", "a4", "b3", "--certify"], "products"),
    (["hypercube", "--d", "3", "--verify", "all"], "cubes"),
    (["snf", "matrix"], "intlinalg"),
    (["snf", "matrix", "--transforms"], "intlinalg"),
])
def test_other_subcommands_load_what_they_run(files, argv, needs):
    status, loaded = run_main([files.get(a, a) for a in argv])
    assert status == 0
    assert f"sandpiles.{needs}" in loaded


def test_check_hom_loads_no_lattice_layer_without_the_proof(files):
    # Validating a homomorphism reads index rows only; intlinalg loads with
    # --verify-injection.
    status, loaded = run_main(["check-hom", files["square"], files["square"], files["hom"]])
    assert status == 0
    assert loaded == LIGHT | {"sandpiles.morphisms"}


@pytest.mark.parametrize("verify", ["decomposition", "if-count", "structure"])
def test_character_proof_reports_load_no_morphisms_or_products(verify):
    # The reports read the character proof, the spectrum that
    # intlinalg.cayley_spectrum gives, and nothing more.
    status, loaded = run_main(["hypercube", "--d", "3", "--verify", verify])
    assert status == 0
    assert loaded == LIGHT | {"sandpiles.cubes", "sandpiles.intlinalg"}


def test_cli_loads_neither_dataclasses_nor_inspect():
    code = """
before = set(sys.modules)
import sandpiles.cli
status = len({"dataclasses", "inspect"} & (set(sys.modules) - before))
"""
    assert fresh(code) == (0, LIGHT)


def test_every_export_resolves():
    # Each name loads its module on first read and is then bound in the
    # package, so later reads are plain attribute lookups.
    code = """
import sandpiles
for name in sandpiles.__all__:
    getattr(sandpiles, name)
    if name not in vars(sandpiles):
        status = 1
if hasattr(sandpiles, "no_such_name") or not set(sandpiles.__all__) <= set(dir(sandpiles)):
    status = 2
"""
    assert fresh(code)[0] == 0
    assert sandpiles.__all__ == sorted(ALL)


def test_star_import():
    code = """
from sandpiles import *
import sandpiles
if any(globals()[name] is not getattr(sandpiles, name) for name in sandpiles.__all__):
    status = 1
if stabilize is not sandpiles.dynamics.stabilize or IntMatrix is not intlinalg.IntMatrix:
    status = 2
"""
    assert fresh(code)[0] == 0
