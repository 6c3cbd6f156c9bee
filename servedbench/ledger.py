"""Write the per-layer ledger of one or more workloads as markdown.

For each workload this runs the benchmark twice on the same seed, once
untraced and once traced, and prints the traced run's per-layer table
(one section per process, whose CPU rows plus ``*.other_us`` add up to
that process's CPU per event, with the share the rows cover; a traced
run whose rows exceed the CPU reads incorrect) followed by the tracing overhead: each
end-to-end metric traced minus untraced::

    python3 servedbench/ledger.py --workloads firehose lattice --seed 1 \\
        --out servedbench/LEDGER.md
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import CLIENT_CPU_ROWS, DAEMON_CPU_ROWS, LEDGER  # noqa: E402
from spread import run_once  # noqa: E402


def section(workload: str, seed: int, seconds: float) -> str:
    plain, plain_info = run_once(workload, seed, seconds, trace=0)
    traced, info = run_once(workload, seed, seconds, trace=1)
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    out = [f"### {workload}",
           "",
           f"seed {seed}, {seconds:g} s measured, "
           f"{info['sessions_measured']} sessions, "
           f"{info['events_analyzed']} events analyzed, "
           f"messages per session {info['messages_per_session']}, "
           f"correct: {traced['correct'] and plain['correct']}, "
           f"trace `{info['trace_file']}` ({info['trace_events']} events)",
           ""]
    for proc, cpu_rows in (("client", CLIENT_CPU_ROWS),
                           ("daemon", DAEMON_CPU_ROWS)):
        total = values[f"{proc}.cpu_us"]
        covered = total - values[f"{proc}.other_us"]
        out += [f"{proc} process: {total:.1f} us CPU per event, "
                f"{covered / total:.1%} of it covered by span rows",
                "",
                "| row | us/event | share | layer: what |",
                "|---|---:|---:|---|"]
        for name, unit, p, what in LEDGER:
            if p == proc and (name in cpu_rows or name.endswith(".other_us")):
                share = values[name] / total if total else 0.0
                out.append(f"| `{name}` | {values[name]:.1f} | "
                           f"{share:.1%} | {what} |")
        out.append("")
    out += ["other per-layer values", "",
            "| metric | value | unit | what |", "|---|---:|---|---|"]
    for name, unit, p, what in LEDGER:
        if (name not in CLIENT_CPU_ROWS and name not in DAEMON_CPU_ROWS
                and not name.endswith((".other_us", ".cpu_us"))):
            out.append(f"| `{name}` | {values[name]:.3f} | {unit} | {what} |")
    out += ["", "tracing overhead (same seed, traced - untraced)", "",
            "| end-to-end metric | untraced | traced | traced - untraced |",
            "|---|---:|---:|---:|"]
    traced_e2e = info["end_to_end_traced"]
    for name, v in plain["metrics"].items():
        t = traced_e2e[name]
        out.append(f"| `{name}` | {v['value']:.4g} | {t:.4g} | "
                   f"{t - v['value']:+.4g} {v['unit']} |")
    out.append(f"\nretransmissions per 1000 events: untraced "
               f"{plain_info['retransmits_per_kevent']:.1f}, traced "
               f"{info['retransmits_per_kevent']:.1f}")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=["firehose", "lattice", "sessions"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", help="write the markdown here")
    args = p.parse_args(argv)
    text = "\n".join(section(w, args.seed, args.seconds)
                     for w in args.workloads)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
