#!/usr/bin/env python3
"""Paper Example 2 / Fig. 6: the x/y/z program, message by message.

Demonstrates the full observer pipeline on the artificial two-thread program

    T1:  x++; ...; y = x + 1        T2:  z = x + 1; ...; x++

with initial state ``x = -1, y = 0, z = 0`` and property
``(x > 0) -> [y == 0, y > z)``.  Shows:

* the exact MVC labels of Fig. 6 (e1..e4);
* the 7-node computation lattice with three runs;
* the online level-by-level analyzer predicting the violating run while the
  observed execution is successful — even when messages are delivered out
  of order through a reordering channel.

Run:  python examples/xyz_predictive.py
"""

from repro import FixedScheduler, Observer, ReorderingChannel, run_program
from repro.lattice import ComputationLattice
from repro.logic import Monitor
from repro.observer import deliver_all
from repro.workloads import (
    XYZ_OBSERVED_SCHEDULE,
    XYZ_PROPERTY,
    XYZ_VARS,
    xyz_program,
)


def main() -> None:
    program = xyz_program()
    execution = run_program(program, FixedScheduler(XYZ_OBSERVED_SCHEDULE))

    print("messages emitted by Algorithm A (compare with paper Fig. 6):")
    for m in execution.messages:
        print(f"  {m.pretty()}")
    expected = [(1, 0), (1, 1), (1, 2), (2, 0)]
    assert [tuple(m.clock) for m in execution.messages] == expected

    initial = {v: program.initial[v] for v in XYZ_VARS}
    lattice = ComputationLattice(2, initial, execution.messages)
    print(f"\ncomputation lattice: {len(lattice)} states, "
          f"{lattice.count_runs()} runs")
    monitor = Monitor(XYZ_PROPERTY)
    for run in lattice.runs():
        labels = [m.event.label for m in run.messages]
        ok, k = monitor.check_trace([dict(s) for s in run.states])
        verdict = "ok" if ok else f"VIOLATES {XYZ_PROPERTY} at state {k}"
        print(f"  run {labels}: {verdict}")

    # -- now online, with adversarial message reordering ----------------------
    print("\nonline analysis with reordered delivery:")
    channel = ReorderingChannel(seed=42, window=3)
    delivery = deliver_all(channel, execution.messages)
    print(f"  delivery order: {[m.event.label for m in delivery]}")
    observer = Observer(2, initial, spec=XYZ_PROPERTY)
    observer.receive_batch(delivery)
    violations = observer.violations + observer.finish()
    print(f"  predicted violations: {len(violations)}")
    for v in violations:
        print(f"  counterexample (states are <x, y, z>):\n    {v.pretty(XYZ_VARS)}")
    assert len(violations) == 1

    print("\nJPaX-style tools check only the observed path and report OK;")
    print("the predictive observer finds the schedule that breaks the property.")


if __name__ == "__main__":
    main()
