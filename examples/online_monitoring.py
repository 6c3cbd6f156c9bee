#!/usr/bin/env python3
"""Fully online monitoring of real threads — the deployment shape of Fig. 4.

Everything happens *while the program runs*: real ``threading`` threads
touch shared variables through the instrumented runtime; Algorithm A streams
each relevant message straight into an :class:`Observer` (``sink=
observer.receive``); the observer's causal delivery hands the messages to
its LTL engine, which builds the computation lattice level by level as they
arrive.

The monitored program is the landing controller, written against
``SharedVar``s.  After the threads finish, ``finish()`` closes the lattice
and the predicted violations are printed.

Run:  python examples/online_monitoring.py
"""

import threading

from repro import InstrumentedRuntime, SharedVar, run_threads
from repro.observer import Observer
from repro.workloads import LANDING_PROPERTY, LANDING_VARS


def main() -> None:
    initial = {"landing": 0, "approved": 0, "radio": 1}
    observer = Observer(2, initial, spec=LANDING_PROPERTY)
    # the runtime calls its sink under its event lock, as the program runs
    rt = InstrumentedRuntime(initial, sink=observer.receive, max_threads=2)

    landing = SharedVar(rt, "landing")
    approved = SharedVar(rt, "approved")
    radio = SharedVar(rt, "radio")

    gate = threading.Event()

    def controller(r) -> None:
        if radio.get() == 1:
            approved.set(1)
        else:
            approved.set(0)
        if approved.get() == 1:
            landing.set(1)
        gate.set()  # landing started: now let the radio thread act

    def radio_watchdog(r) -> None:
        gate.wait(timeout=10)  # benign ordering: radio drops *after* landing
        radio.set(0)

    print(f"monitoring: {LANDING_PROPERTY}")
    run_threads(rt, [controller, radio_watchdog])
    print(f"lattice levels completed while running: "
          f"{observer.stats.levels_completed}")

    # end of stream: the last levels close and every verdict is final
    observer.finish()

    print(f"\nfinal store: { {k: rt.store[k] for k in LANDING_VARS} }")
    print(f"messages emitted: {len(rt.messages)}")
    print(f"violations predicted: {len(observer.violations)}")
    for text in observer.counterexamples():
        print("  counterexample:", text)
    assert observer.violations, "the lattice contains the radio-first schedules"
    print("\nThe bug was predicted while the program was still the only "
          "evidence — no failing run was ever observed.")


if __name__ == "__main__":
    main()
