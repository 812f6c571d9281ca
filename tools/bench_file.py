"""Write BENCH_<pr>.json: the benchmark, the Tier-1 wall time and the src/ size.

    python3 tools/bench_file.py --pr N [--baseline REV]

Run from anywhere inside a source checkout. For each workload of
`perfbench/run.py` it runs one untraced pass (`--trace 0`, the end-to-end
metrics) and one traced pass (`--trace 1`, the per-layer metrics), one after
the other, and keeps the JSON object on the last line of each. Every run
uses seed SEED for SECONDS seconds, so all BENCH files are measured under
the same settings. It then times the Tier-1 suite (`python -m pytest -q`
with `src/` on the path) and counts the lines of `src/**/*.py`. Standard
library only; it changes nothing under `perfbench/`.

With `--baseline REV`, the git revision REV is exported to a temporary
directory (`git archive REV | tar -x`, removed afterwards), and each workload
is also run untraced in PAIRS pairs, REV against this checkout; the side
that runs first alternates from pair to pair. The file records every pair
and, per end-to-end metric of `BENCHMARK.json`, both sides' medians and
interquartile spreads and the number of pairs in which this checkout did
better. A single BENCH file's numbers move with the host's load, so a
before/after is read from the pairs, not from two files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table_sweep", "large_torus", "exact_small", "simulate_cli")
SEED = 1
SECONDS = 20.0
PAIRS = 10  # per workload with --baseline: enough for a nine-of-ten reading


def run_perfbench(workload: str, trace: int, root: Path = ROOT) -> dict:
    """The JSON object on perfbench's last output line, or {"error": ...};
    `root` is the checkout whose perfbench and src/ run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
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


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of git revision `rev` under `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _spread(values: list[float]) -> dict:
    """Median and interquartile range of one side's values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def compare_pairs(pairs: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both sides' medians and
    spreads, and in how many pairs this checkout did better."""
    out = {}
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in ("baseline", "change")}
        ahead = sum((c > b) if higher else (c < b) for b, c in zip(sides["baseline"], sides["change"]))
        out[name] = {"better": metric["better"], "change_ahead": ahead,
                     **{side: {**_spread(v), "values": v} for side, v in sides.items()}}
    return out


def run_pairs(baseline: Path, workload: str) -> dict:
    """PAIRS pairs of untraced runs; the baseline runs first in even pairs
    and second in odd ones, so neither side always follows the other."""
    sides = [("baseline", baseline), ("change", ROOT)]
    pairs = [{side: run_perfbench(workload, 0, root) for side, root in sides[::1 - 2 * (i % 2)]}
             for i in range(PAIRS)]
    ok = all(p[side].get("correct") is True for p in pairs for side in p)
    return {"pairs": pairs, "correct": ok, "compare": compare_pairs(pairs) if ok else None}


def src_lines() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    per_file = {str(f.relative_to(ROOT)): len(f.read_text().splitlines()) for f in files}
    return {"total": sum(per_file.values()), "files": per_file}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the checkout root")
    parser.add_argument("--baseline", metavar="REV",
                        help="git revision to compare against in alternating untraced pairs")
    args = parser.parse_args(argv)

    paired = {}
    if args.baseline:
        with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tmp:
            export_revision(args.baseline, Path(tmp))  # a bad revision fails before any run
            for name in WORKLOADS:
                paired[name] = run_pairs(Path(tmp), name)
                print(f"{name}: {PAIRS} pairs against {args.baseline}, "
                      f"correct={paired[name]['correct']}", file=sys.stderr)
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
    if args.baseline:
        doc["baseline"] = {"rev": args.baseline, "pairs_per_workload": PAIRS,
                           "workloads": paired}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    ok = all(w[k].get("correct") is True for w in workloads.values() for k in w)
    ok = ok and all(w["correct"] for w in paired.values())
    print(f"wrote {out}; every run correct: {ok}", file=sys.stderr)
    return 0 if ok and doc["tier1"]["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
