"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed and reports, for each end-to-end metric,
the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile distance as
a share of the median, next to the metric's bound from BENCHMARK.json::

    python3 servedbench/spread.py --workload lattice --seeds 1-10 --seconds 20

A metric whose spread exceeds a third of its bound is flagged, setup_s
included: it will not repeat well enough to gate a change.  ``--json FILE``
also writes every run's values.

``--compare A.json B.json`` compares two such sets of runs of the same
code: for each metric, the second median's change in the metric's worse
direction as a share of the first, next to the bound.  A change above the
bound means the benchmark would reject the code against itself::

    python3 servedbench/spread.py --compare set1.json set2.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int = 0):
    """One benchmark run: (result document, info document)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{out.returncode}: {out.stderr.strip()[-500:]}")
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def compare(first: dict, second: dict, metrics: list[dict]) -> bool:
    """Print how far the second set's medians moved from the first's;
    True when every move in the worse direction is within its bound."""
    print(f"{first['workload']}: {len(first['runs'])} vs "
          f"{len(second['runs'])} runs")
    print(f"{'metric':26} {'median 1':>11} {'median 2':>11} {'worse by':>9} "
          f"{'bound':>6}")
    ok = True
    for m in metrics:
        name = m["name"]
        a = first["summary"][name]["median"]
        b = second["summary"][name]["median"]
        worse = (b - a if m["better"] == "lower" else a - b) / a
        flag = ""
        if worse > m["bound"]:
            ok, flag = False, "  > bound"
        print(f"{name:26} {a:11.4g} {b:11.4g} {worse:9.3f} "
              f"{m['bound']:6}{flag}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--json", help="write every run's values here")
    p.add_argument("--compare", nargs=2, metavar="JSON",
                   help="compare two --json files of the same workload")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(f).read_text())
                         for f in args.compare)
        return 0 if compare(first, second, bench["end_to_end"]) else 1
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        result, info = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT ({info.get('errors')})")
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"],
                     "values": {k: v["value"]
                                for k, v in result["metrics"].items()},
                     "retransmits_per_kevent":
                         info["retransmits_per_kevent"]})
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v:.4g}" for k, v in runs[-1]["values"].items()),
            flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':26} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    summary = {}
    for name in runs[0]["values"]:
        s = spread([r["values"][name] for r in runs])
        summary[name] = s
        bound = bounds.get(name)
        flag = ""
        if bound is not None and s["spread"] > bound / 3:
            flag = "  > bound/3"
        print(f"{name:26} {s['median']:11.4g} {s['q1']:11.4g} "
              f"{s['q3']:11.4g} {s['spread']:7.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": seconds, "runs": runs,
             "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
