#!/usr/bin/env python3
"""Two-process deployment over a wire that drops 5% of sends — zero loss.

The plain two-process demo (``two_process_observer.py``) rides TCP's
perfect byte stream.  Real deployments are not always that lucky: frames
vanish at overloaded relays, UDP-style hops drop under pressure, a flaky
proxy duplicates.  This example runs the same pipeline over exactly such a
wire — the child's reliability layer pushes every frame through a
:class:`~repro.observer.reliable.LossyWire` that *drops 5% of sends* (and
duplicates a few more) — and still delivers every event exactly once, in
order, because the transport acks, retransmits with backoff, and verifies
the total count at the fin/finack handshake.

Run:  python examples/lossy_two_process_observer.py
"""

import subprocess
import sys
import textwrap

from repro import Observer
from repro.observer import ReliableReceiver
from repro.workloads import XYZ_PROPERTY, XYZ_VARS

DROP_RATE = 0.05
DUP_RATE = 0.02
SEED = 15  # chosen so the short demo stream really does lose a data frame

CHILD = textwrap.dedent(
    f"""
    import sys
    from repro import run_program, FixedScheduler
    from repro.observer.reliable import LossyWire, ReliableSender
    from repro.workloads import xyz_program, XYZ_OBSERVED_SCHEDULE

    stats = {{}}

    def flaky(send_fn):
        wire = LossyWire(send_fn, drop={DROP_RATE}, dup={DUP_RATE},
                         seed={SEED})
        stats["wire"] = wire
        return wire

    sender = ReliableSender("127.0.0.1", int(sys.argv[1]), wire=flaky,
                            timeout=0.05, max_retries=10)
    execution = run_program(
        xyz_program(),
        FixedScheduler(XYZ_OBSERVED_SCHEDULE),
        sink=sender.send,          # Algorithm A streams straight to the wire
    )
    sender.close()                 # flushes; raises if anything was lost
    wire = stats["wire"]
    print(f"wire dropped {{wire.frames_dropped}} frames, "
          f"duplicated {{wire.frames_duplicated}}; "
          f"sender retransmitted {{sender.retransmissions}}")
    """
)


def main() -> None:
    receiver = ReliableReceiver()
    receiver.start()
    print(f"observer listening on port {receiver.port} "
          f"(wire drops {DROP_RATE:.0%} of sends)")

    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(receiver.port)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child failed:\n{proc.stderr}")
    print("child: " + proc.stdout.strip())

    messages = receiver.wait()     # raises unless the stream is complete
    print(f"received {len(messages)} messages — exactly once, in order "
          f"({receiver.duplicates} wire duplicates suppressed)")
    for m in messages:
        print(f"  {m.pretty()}")

    observer = Observer(2, {"x": -1, "y": 0, "z": 0}, spec=XYZ_PROPERTY)
    observer.receive_batch(messages)
    violations = observer.violations + observer.finish()
    print(f"\npredicted violations: {len(violations)}")
    for v in violations:
        print(f"  {v.pretty(XYZ_VARS)}")
    assert len(violations) == 1
    assert observer.health.sound_everywhere
    print("\nzero events lost over a lossy wire; verdicts identical to the "
          "perfect-channel run.")


if __name__ == "__main__":
    main()
