"""Write BENCH_<pr>.json: the benchmark, the Tier-1 wall time and the src/ size.

    python3 tools/bench_file.py --pr N

Run from anywhere inside a source checkout. For each workload of
`perfbench/run.py` it runs one untraced pass (`--trace 0`, the end-to-end
metrics) and one traced pass (`--trace 1`, the per-layer metrics), one after
the other, and keeps the JSON object on the last line of each. Every run
uses seed SEED for SECONDS seconds, so all BENCH files are measured under
the same settings. It then times the Tier-1 suite (`python -m pytest -q`
with `src/` on the path) and counts the lines of `src/**/*.py`. Standard
library only; it changes nothing under `perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table_sweep", "large_torus", "exact_small", "simulate_cli")
SEED = 1
SECONDS = 20.0


def run_perfbench(workload: str, trace: int) -> dict:
    """The JSON object on perfbench's last output line, or {"error": ...}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result["exit_code"] = proc.returncode
    return result


def run_tier1() -> dict:
    """Wall time and outcome counts of the Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|error|skipped)", summary)}
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": summary, **counts}


def src_lines() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    per_file = {str(f.relative_to(ROOT)): len(f.read_text().splitlines()) for f in files}
    return {"total": sum(per_file.values()), "files": per_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the checkout root")
    args = parser.parse_args(argv)

    workloads = {}
    for name in WORKLOADS:
        workloads[name] = {f"trace{t}": run_perfbench(name, t) for t in (0, 1)}
        print(f"{name}: " + ", ".join(f"trace {t} correct={workloads[name][f'trace{t}'].get('correct')}"
                                      for t in (0, 1)), file=sys.stderr)
    doc = {
        "pr": args.pr,
        "seed": SEED,
        "seconds": SECONDS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "system": platform.system(), "cpus": os.cpu_count()},
        "workloads": workloads,
        "tier1": run_tier1(),
        "src_lines": src_lines(),
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    ok = all(w[k].get("correct") is True for w in workloads.values() for k in w)
    print(f"wrote {out}; every run correct: {ok}", file=sys.stderr)
    return 0 if ok and doc["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
