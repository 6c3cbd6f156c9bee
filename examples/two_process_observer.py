#!/usr/bin/env python3
"""Two-process deployment: instrumented program → socket → external observer.

JMPaX's instrumented bytecode sends messages "via a socket to an external
observer" (paper §4.1, Fig. 4).  This example reproduces that deployment
shape with two OS processes: the parent hosts the observer as an analysis
server on a free localhost port, and the monitored program runs in a child
process whose Algorithm A sink streams every relevant event over the
reliable wire (sequenced, CRC-checked, acked frames) to that server.  The
server rebuilds the computation lattice and predicts the violation.

Run:  python examples/two_process_observer.py
"""

import subprocess
import sys
import textwrap

from repro.server import AnalysisServer, ServerConfig

CHILD = textwrap.dedent(
    """
    import sys
    from repro import run_program, FixedScheduler
    from repro.server import attach
    from repro.workloads import xyz_program, XYZ_OBSERVED_SCHEDULE, XYZ_PROPERTY

    with attach("127.0.0.1", int(sys.argv[1]), n_threads=2,
                initial={"x": -1, "y": 0, "z": 0}, spec=XYZ_PROPERTY,
                program="xyz") as session:
        run_program(
            xyz_program(),
            FixedScheduler(XYZ_OBSERVED_SCHEDULE),
            sink=session.send,     # Algorithm A streams straight to the socket
        )
    print(f"child: session {session.session_id} sent, "
          f"server says {session.verdict.state}")
    """
)


def main() -> None:
    records: list[dict] = []
    with AnalysisServer(ServerConfig(port=0),
                        on_session_end=records.append) as server:
        print(f"observer listening on port {server.port}")
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(server.port)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child failed:\n{proc.stderr}")
        print(proc.stdout, end="")

    [record] = records
    assert record["state"] == "finished", record
    print(f"observer analyzed {record['analyzed']} messages over the wire")
    print(f"\npredicted violations: {record['violations']}")
    for counterexample in record["counterexamples"]:
        print(f"  {counterexample}")
    assert record["violations"] == 1
    print("\ncross-process prediction pipeline works end to end.")


if __name__ == "__main__":
    main()
