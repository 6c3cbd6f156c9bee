#!/usr/bin/env python3
"""Two-process deployment: instrumented program → socket → external observer.

JMPaX's instrumented bytecode sends messages "via a socket to an external
observer" (paper §4.1, Fig. 4).  This example reproduces that deployment
shape: the monitored program runs in a child process, each relevant event is
serialized as JSON over localhost TCP, and the parent process hosts the
observer that rebuilds the computation lattice and predicts violations.

Run:  python examples/two_process_observer.py
"""

import subprocess
import sys
import textwrap

from repro import Observer
from repro.observer import SocketTransport
from repro.workloads import XYZ_PROPERTY, XYZ_VARS

CHILD = textwrap.dedent(
    """
    import sys
    from repro import run_program, FixedScheduler
    from repro.observer.channel import SocketSender
    from repro.workloads import xyz_program, XYZ_OBSERVED_SCHEDULE

    sender = SocketSender("127.0.0.1", int(sys.argv[1]))
    execution = run_program(
        xyz_program(),
        FixedScheduler(XYZ_OBSERVED_SCHEDULE),
        sink=sender.send,          # Algorithm A streams straight to the socket
    )
    sender.close()
    """
)


def main() -> None:
    transport = SocketTransport()
    transport.start_receiver()
    print(f"observer listening on port {transport.port}")

    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(transport.port)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child failed:\n{proc.stderr}")

    messages = transport.wait()
    print(f"received {len(messages)} messages over the wire:")
    for m in messages:
        print(f"  {m.pretty()}")

    observer = Observer(2, {"x": -1, "y": 0, "z": 0}, spec=XYZ_PROPERTY)
    observer.receive_batch(messages)
    violations = observer.violations + observer.finish()
    print(f"\npredicted violations: {len(violations)}")
    for v in violations:
        print(f"  {v.pretty(XYZ_VARS)}")
    assert len(violations) == 1
    print("\ncross-process prediction pipeline works end to end.")


if __name__ == "__main__":
    main()
