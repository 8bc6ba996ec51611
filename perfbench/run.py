"""Benchmark of the `sandpiles` library and CLI, as its users run it.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 10 --trace 0

One client in one process runs a seeded list of public calls in a closed loop:
each op finishes before the next starts, and every op is cold, because the
module-global group cache is emptied before it (a CLI user pays that cost on
every call).  The list is run in whole passes, at least three, until the ops
have taken --seconds.  Each op has a time budget enforced with SIGALRM; an op
over budget is recorded as a timeout, never dropped.  Times are scaled to a
reference machine speed measured during the run (speed.py).  Every output is
checked against oracles.py after the timed loop, and the workload's CLI slice
runs `python -m sandpiles` as a subprocess and compares its output with the
in-process answer.

With --trace 0 the last line of stdout is the JSON result with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(tracer.py).  --reach 1 adds the reach ops, which go over budget at desk
scale, and reports fail_frac.  --out FILE writes every op's record with its
input descriptors.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import ops as opkinds  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("structure", "group_law", "grid_dynamics", "orbit")
# Per-op budget in seconds: about ten times the slowest ordinary op.
BUDGET = {"structure": 8.0, "group_law": 3.0, "grid_dynamics": 15.0, "orbit": 8.0}
REACH_BUDGET = 3.0
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have been spent; the median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# Every op runs at least MIN_PASSES times; its latency is the median of its runs.
MIN_PASSES = 3
CLI_SAMPLES = 24
CLI_TIMEOUT = 60.0


class Timeout(Exception):
    pass


class Alarm:
    """SIGALRM budget for one op; the handler raises only while armed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise Timeout()

    def run(self, call, budget: float):
        """(status, output, seconds); a timeout counts its full budget."""
        status, out = "ok", None
        start = time.perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                out = call()
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:
            status = "timeout"
        except Exception as exc:  # a failed op is recorded, and the run goes on
            status, out = "error", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return status, out, (budget if status == "timeout" else elapsed)


# -- the library, imported and its graphs built as a user would ----------------------


def import_library():
    """Import sandpiles afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "sandpiles" or m.startswith("sandpiles.")]:
        del sys.modules[name]
    import sandpiles
    from sandpiles import cubes, dynamics, graphs, intlinalg, jsonio, morphisms, products

    if Path(sandpiles.__file__).resolve().parent != (SRC / "sandpiles").resolve():
        raise SystemExit(f"sandpiles imported from {sandpiles.__file__}, not from {SRC}")
    return SimpleNamespace(sp=sandpiles, cubes=cubes, dynamics=dynamics, graphs=graphs,
                           intlinalg=intlinalg, jsonio=jsonio, morphisms=morphisms,
                           products=products)


def setup(graph_entries: dict, tracer: Tracer | None = None):
    """Import the library and build every graph; with a tracer, the builds are traced."""
    start = time.perf_counter()
    lib = import_library()
    if tracer is not None:
        tracer.install(lib)
    try:
        built = {gid: opkinds.build_graph(lib, entry) for gid, entry in graph_entries.items()}
    finally:
        if tracer is not None:
            tracer.uninstall()
    return lib, built, time.perf_counter() - start


# -- the CLI slice ---------------------------------------------------------------


def _write_graph(path: Path, spec: dict) -> str:
    path.write_text(json.dumps({"format": "sandpile-graph-v1", "directed": spec["directed"],
                                "vertices": spec["vertices"], "edges": spec["edges"],
                                "sink": spec["sink"]}))
    return str(path)


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _first_op(ops: list[dict], kind: str, gid: str) -> dict:
    return next(op for op in ops if op["op"] == kind and op["g"] == gid)


def cli_slice(workload: str, inputs: dict, workdir: Path) -> list[dict]:
    """The workload's CLI calls: argv, an op whose in-process answer the CLI
    output must equal, and how to read the CLI's JSON into that answer."""
    g = inputs["graphs"]
    ops = inputs["ops"]

    def graph_file(gid):
        return _write_graph(workdir / f"{gid}.json", g[gid]["spec"])

    calls = []
    # The CLI slices use the fixed graphs only, so their cost does not depend on the seed.
    if workload == "structure":
        for gid in ("cube4n3", "cube5n1"):
            calls.append({"argv": ["group", graph_file(gid)], "op": _first_op(ops, "structure", gid),
                          "read": lambda d: (tuple(d["invariant_factors"]),
                                             tuple(d["elementary_divisors"]), int(d["order"]))})
        calls.append({"argv": ["hypercube", "--d", "3", "--verify", "structure"],
                      "op": _first_op(ops, "verify_structure", "cube3n1"),
                      "read": lambda d: (d["passed"],
                                         tuple(d["reports"][0]["computed_elementary_divisors"]),
                                         tuple(d["reports"][0]["expected_elementary_divisors"]))})
        calls.append({"argv": ["hypercube", "--d", "4", "--verify", "if-count"],
                      "op": _first_op(ops, "verify_invariant_factor_count", "cube4n1"),
                      "read": lambda d: (d["passed"], d["reports"][0]["closed_form"],
                                         d["reports"][0]["computed"])})
    elif workload == "group_law":
        path = graph_file("cube4n1")
        calls.append({"argv": ["identity", path], "op": _first_op(ops, "identity", "cube4n1"),
                      "read": lambda d: tuple(d["identity"])})
        rep = _first_op(ops, "representative", "cube4n1")
        calls.append({"argv": ["representative", path,
                               _write(workdir / "x.json", rep["args"]["x"])], "op": rep,
                      "read": lambda d: tuple(d["representative"])})
        add = _first_op(ops, "add", "cube4n1")
        calls.append({"argv": ["add", path, _write(workdir / "c1.json", add["args"]["c1"]),
                               _write(workdir / "c2.json", add["args"]["c2"])], "op": add,
                      "read": lambda d: tuple(d["sum"])})
    elif workload == "grid_dynamics":
        gid = next(gid for gid in g if gid.startswith("gridcone"))
        op = next(op for op in ops if op["g"] == gid and op["args"].get("pile", [0, 0])[1] == 2**11)
        n = len(g[gid]["spec"]["vertices"]) - 1
        calls.append({"argv": ["stabilize", graph_file(gid),
                               _write(workdir / "c.json", opkinds._vector(op, n))],
                      "op": op, "read": lambda d: (tuple(d["stable"]), tuple(d["firings"]))})
    else:
        calls.append({"argv": ["recurrents", graph_file("cycle6")],
                      "op": _first_op(ops, "recurrents", "cycle6"),
                      "read": lambda d: frozenset(tuple(c) for c in d["recurrents"])})
        inj = next(op for op in ops if op["op"] == "verify_injection_parity"
                   and op["args"]["d"] == 2 and sum(op["args"]["mask"]) == 2)
        src, tgt = inj["args"]["src"], inj["args"]["tgt"]
        mapping = {v: ("v1" if v.count("1") % 2 == 0 else "v2") for v in g[src]["spec"]["vertices"]}
        mapping["s"] = "s"
        hom = _write(workdir / "hom.json", {"map": mapping, "subset_V": ["v1", "v2"],
                                            "kind": "uniform"})
        calls.append({"argv": ["check-hom", graph_file(src), graph_file(tgt), hom,
                               "--verify-injection"], "op": inj,
                      "read": lambda d: (d["injection"]["passed"], d["injection"]["mode"],
                                         d["injection"]["image_order"])})
        emb = next(op for op in ops if op["op"] == "embed_factor" and op["args"]["g"] == "c4"
                   and op["args"]["factor"] == "g")
        calls.append({"argv": ["product", graph_file("c4"), graph_file("p2"),
                               _write(workdir / "a.json", emb["args"]["a"]),
                               _write(workdir / "b.json", [0, 0]), "--certify"],
                      "op": {"op": "box_certify", "g": emb["args"]["product"],
                             "args": {**emb["args"], "b": [0, 0]}, "reach": False},
                      "read": lambda d: (tuple(d["box"]), d["recurrent"])})
    return calls


def run_cli(argv: list[str]) -> tuple[float, dict | None]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "sandpiles", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        return CLI_TIMEOUT, None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return elapsed, None
    return elapsed, json.loads(proc.stdout)


def subprocess_ms(code: str, repeats: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       timeout=CLI_TIMEOUT)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


class CliSlice:
    """The workload's CLI calls with their expected answers, timings and outputs."""

    def __init__(self, calls: list[dict], expected: list):
        self.calls = calls
        self.expected = expected
        self.times: list[float] = []
        self.outputs: list[list] = [[] for _ in calls]
        self.scaled: list[float] = []
        self.ok = True
        self.runs = 0

    def run(self, i: int, speed: Speed, timed: bool = True) -> None:
        seconds, data = run_cli(self.calls[i]["argv"])
        self.runs += 1
        speed.maybe_sample()
        if timed:
            self.times.append(seconds)
            self.scaled.append(seconds * speed.scale())
        try:
            got = self.calls[i]["read"](data)
        except (TypeError, KeyError, ValueError):
            got = None
        if got is None or (self.expected[i] is not None and got != self.expected[i]):
            self.ok = False
        if got not in self.outputs[i]:
            self.outputs[i].append(got)

    def warm_up(self, speed: Speed) -> None:
        """One untimed call each: the first calls read about 40% slower on a
        cold page cache."""
        for i in range(len(self.calls)):
            self.run(i, speed, timed=False)

    def sample_until(self, count: int, speed: Speed) -> None:
        while len(self.times) < count:
            self.run(len(self.times) % len(self.calls), speed)


# -- the closed loop ---------------------------------------------------------------


class Loop:
    def __init__(self, lib, prepared: list[tuple[dict, object]], budget: float, alarm: Alarm,
                 speed: Speed):
        self.lib = lib
        self.prepared = prepared
        self.budget = budget
        self.alarm = alarm
        self.speed = speed
        self.records = [{"latencies": [], "scaled": [], "status": [], "outputs": []}
                        for _ in prepared]
        self.passes = 0
        self.op_seconds = 0.0
        self.between = None  # called with op_seconds after every op

    def run_pass(self) -> None:
        cache = self.lib.dynamics._group_cache
        for (op, call), rec in zip(self.prepared, self.records):
            cache.clear()
            budget = REACH_BUDGET if op["reach"] else self.budget
            status, out, seconds = self.alarm.run(call, budget)
            self.speed.maybe_sample()
            rec["latencies"].append(seconds)
            rec["scaled"].append(seconds * self.speed.scale())
            rec["status"].append(status)
            self.op_seconds += seconds
            if status == "ok":
                out = opkinds.KINDS[op["op"]].normalize(out)
                if not rec["outputs"] or all(out != seen for seen in rec["outputs"]):
                    rec["outputs"].append(out)
            elif status == "error" and out not in rec["outputs"]:
                rec["outputs"].append(out)
            if self.between is not None:
                self.between(self.op_seconds)
        self.passes += 1

    def run_for(self, seconds: float, min_passes: int = MIN_PASSES) -> None:
        """Whole passes until the ops have taken `seconds`, and at least min_passes."""
        target = self.op_seconds + seconds
        first = self.passes
        while self.passes - first < min_passes or self.op_seconds < target:
            self.run_pass()

    def latencies(self, key: str = "scaled") -> list[float]:
        """Each op's latency: the median of its runs, a timeout counting its budget."""
        return [statistics.median(rec[key]) for rec in self.records]

    def ops_per_second(self, key: str = "scaled") -> float:
        """Completed ops over the time of one pass at each op's latency."""
        statuses = [s for rec in self.records for s in rec["status"]]
        return len(self.records) * statuses.count("ok") / len(statuses) / sum(self.latencies(key))


def percentile(values: list[float], q: float) -> float:
    """The q-quantile, interpolating linearly between the two nearest ranks."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- checking ---------------------------------------------------------------------


def check_records(inputs: dict, prepared, records) -> tuple[list[bool], opkinds.Oracles]:
    """Per op: every output it produced passes its independent check."""
    oracle = opkinds.Oracles(inputs["graphs"])
    verdicts = []
    for (op, _), rec in zip(prepared, records):
        kind = opkinds.KINDS[op["op"]]
        ok = all(not isinstance(out, str) and kind.check(oracle, op, out)
                 for out in rec["outputs"])
        verdicts.append(ok)
    return verdicts, oracle


def check_box(oracle, op: dict, out) -> bool:
    a = op["args"]
    gn, hn = oracle.spec(a["cone_g"]).n, oracle.spec(a["cone_h"]).n
    box = tuple(a["a"][i] + a["b"][j] for j in range(hn) for i in range(gn))
    return out == (box, oracle.is_recurrent(op["g"], box))


# Input properties that a later change may help alone; the --out file gives
# the share of op executions that has each.
PROPERTIES = {
    "det_bits_over_64": lambda d: (d["det_bits"] or 0) > 64,
    "maxp_bits_over_32": lambda d: (d["maxp_bits"] or 0) > 32,
    "vertices_1000_plus": lambda d: (d["vertices"] or 0) >= 1000,
    "topplings_1e6_plus": lambda d: (d["topplings"] or 0) >= 10**6,
}


def descriptors(op: dict, graphs: dict, outputs: list) -> dict:
    gid = op["g"] or op["args"].get("src") or op["args"].get("g")
    facts = graphs[gid]["facts"] if gid in graphs else {}
    topplings = None
    if op["op"] in ("stabilize", "recurrent_sum") and outputs and not isinstance(outputs[0], str):
        topplings = sum(outputs[0][1])
    return {"vertices": facts.get("vertices"), "det_bits": facts.get("det_bits"),
            "maxp_bits": facts.get("maxp_bits"), "topplings": topplings}


def traced_layers(lib, loop: Loop, tracer: Tracer, workdir: Path, seconds: float) -> dict:
    """Per-layer figures: untraced passes for half the time, then as many traced."""
    layer = {"cli.import_ms": (subprocess_ms("import sandpiles.cli") - subprocess_ms("pass"),
                               "ms")}
    loads = 3
    tracer.install(lib)
    for _ in range(loads):
        for path in workdir.glob("*.json"):
            data = json.loads(path.read_text())
            if isinstance(data, dict) and data.get("format") == "sandpile-graph-v1":
                lib.jsonio.load_graph(path)
            elif isinstance(data, list):
                lib.jsonio.load_config(path)
    tracer.uninstall()
    stats = tracer.stats
    layer["jsonio.load_s"] = (sum(stats[n].incl for n in ("jsonio.load_graph",
                                                          "jsonio.load_config")
                                  if n in stats) / loads, "s")
    tracer.reset()
    loop.run_for(seconds / 2, min_passes=1)
    plain_seconds, plain_passes = loop.op_seconds, loop.passes
    tracer.install(lib)
    for _ in range(plain_passes):
        loop.run_pass()
    tracer.uninstall()
    layer.update(layer_metrics(tracer, plain_passes))
    traced_seconds = loop.op_seconds - plain_seconds
    layer["trace.overhead_frac"] = (traced_seconds / plain_seconds - 1, "ratio")
    return layer


# -- main --------------------------------------------------------------------------


def generate_inputs(workload: str, seed: int, reach: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--reach", str(int(reach))], capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the sandpiles library and CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--reach", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="write per-op records to this file")
    args = parser.parse_args(argv)

    if not (SRC / "sandpiles" / "__init__.py").is_file():
        print(f"error: no sandpiles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    inputs = generate_inputs(args.workload, args.seed, bool(args.reach))
    graph_entries = inputs["graphs"]

    tracer = Tracer()
    speed = Speed()
    layer: dict[str, tuple[float, str]] = {}
    setup_times, setup_scaled = [], []
    built = None
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while not setup_times or not args.trace and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS):
        built = None  # release the previous set-up's graphs before building again
        speed.sample()
        lib, built, seconds = setup(graph_entries, tracer if args.trace else None)
        speed.sample()
        setup_times.append(seconds)
        setup_scaled.append(seconds * speed.scale())
    for gid, entry in graph_entries.items():
        if not opkinds.same_vertex_order(built[gid], entry["spec"]):
            print(f"error: vertex order of {gid} differs from its spec", file=sys.stderr)
            return 3
    if args.trace:
        # Growth of the resident high-water mark across the one set-up.
        growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
        layer["graphs.build_peak_mb"] = (growth / 1024, "MB")
        layer["graphs.build_s"] = (tracer.counters["build_s"], "s")
        layer["graphs.build_calls"] = (tracer.counters["build_calls"], "count")
        tracer.reset()

    selected = [op for op in inputs["ops"] if args.reach or not op["reach"]]
    prepared = [(op, opkinds.KINDS[op["op"]].prepare(lib, op, built)) for op in selected]
    alarm = Alarm()

    loop = Loop(lib, prepared, BUDGET[args.workload], alarm, speed)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build", prefix="perfbench-") as tmp:
        calls = cli_slice(args.workload, inputs, Path(tmp))
        expected = []
        for call in calls:
            op = call["op"]
            if op["op"] == "box_certify":
                expected.append(None)
            else:
                lib.dynamics._group_cache.clear()
                kind = opkinds.KINDS[op["op"]]
                expected.append(kind.normalize(kind.prepare(lib, op, built)()))
        cli = CliSlice(calls, expected)
        cli.warm_up(speed)

        if args.trace:
            layer.update(traced_layers(lib, loop, tracer, Path(tmp), args.seconds))
        else:
            # CLI samples are spread over the run, as the ops are.
            def between(op_seconds: float) -> None:
                share = op_seconds / args.seconds if args.seconds > 0 else 1.0
                cli.sample_until(min(CLI_SAMPLES, 1 + int(share * CLI_SAMPLES)), speed)

            loop.between = between
            loop.run_for(args.seconds)
            cli.sample_until(CLI_SAMPLES, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts, oracle = check_records(inputs, prepared, loop.records)
    cli_ok = cli.ok
    for call, outs in zip(calls, cli.outputs):
        if call["op"]["op"] == "box_certify":
            cli_ok &= all(got is not None and check_box(oracle, call["op"], got) for got in outs)
        else:
            kind = opkinds.KINDS[call["op"]["op"]]
            cli_ok &= all(got is not None and kind.check(oracle, call["op"], got) for got in outs)

    attempted, failed, wrong = 0, 0, 0
    records_out = []
    for (op, _), rec, ok in zip(prepared, loop.records, verdicts):
        n = len(rec["status"])
        bad = sum(1 for s in rec["status"] if s != "ok")
        attempted += n
        failed += n if not ok else bad
        wrong += 0 if ok else 1
        records_out.append({
            "op": op["op"], "g": op["g"], "reach": op["reach"], "correct": ok,
            "status": {s: rec["status"].count(s) for s in set(rec["status"])},
            "median_ms": 1000 * statistics.median(rec["latencies"]),
            **descriptors(op, graph_entries, rec["outputs"]),
        })
    attempted += cli.runs
    failed += 0 if cli_ok else cli.runs
    correct = wrong == 0 and cli_ok

    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "passes": loop.passes,
            "setup_s": setup_times, "cli_ms": [1000 * t for t in cli.times],
            "shares": {name: sum(sum(r["status"].values()) for r in records_out if test(r))
                       / max(1, sum(sum(r["status"].values()) for r in records_out))
                       for name, test in PROPERTIES.items()},
            "ops": records_out}, indent=1))

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        as_measured = {
            "ops_per_s": loop.ops_per_second("latencies"),
            "op_p50_ms": 1000 * percentile(loop.latencies("latencies"), 0.5),
            "op_p90_ms": 1000 * percentile(loop.latencies("latencies"), 0.9),
            "cli_p50_ms": 1000 * statistics.median(cli.times),
            "setup_s": statistics.median(setup_times),
        }
        # The result gives times at the reference machine speed (speed.py);
        # this line gives them as measured here.
        print(json.dumps({"as_measured": as_measured,
                          "kernel_ms": statistics.median(speed.samples)}))
        metrics = {
            "ops_per_s": {"value": loop.ops_per_second(), "unit": "ops/s"},
            "op_p50_ms": {"value": 1000 * percentile(loop.latencies(), 0.5), "unit": "ms"},
            "op_p90_ms": {"value": 1000 * percentile(loop.latencies(), 0.9), "unit": "ms"},
            "cli_p50_ms": {"value": 1000 * statistics.median(cli.scaled), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if args.reach:
            metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
