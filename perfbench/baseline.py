"""Record a baseline: every workload with its reach ops, and its traced layer split.

    python3 perfbench/baseline.py --seed 1 --seconds 10 > perfbench/baseline.json

For each workload this runs `run.py --reach 1` (end-to-end metrics, fail_frac
and the per-op records, where reach ops show as timeouts) and `run.py
--trace 1` (per-layer metrics), and prints one JSON document.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    out = {"seed": args.seed, "seconds": args.seconds,
           "machine": f"{platform.machine()}, {platform.python_implementation()} "
                      f"{platform.python_version()}", "workloads": {}}
    (HERE.parent / ".bench_build").mkdir(exist_ok=True)
    for workload in WORKLOADS:
        common = ["--workload", workload, "--seed", str(args.seed), "--seconds",
                  str(args.seconds)]
        with tempfile.NamedTemporaryFile(suffix=".json", dir=HERE.parent / ".bench_build") as f:
            result = run(common + ["--trace", "0", "--reach", "1", "--out", f.name])
            records = json.loads(Path(f.name).read_text())["ops"]
        out["workloads"][workload] = {
            "end_to_end": result,
            "reach_ops": [r for r in records if r["reach"]],
            "per_layer": run(common + ["--trace", "1"]),
        }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
