"""Deterministic replay: re-run an archived trace through the analyzer.

The message stream *is* the analysis input — Algorithm A's messages carry
the clocks, the values, everything (the paper's observer works "online or
offline" for exactly this reason).  So feeding an archived stream back
through the same pipeline — ``Observer`` → ``CausalDelivery`` →
``AnalysisBus`` → engines — must reproduce the live verdict
**bit-for-bit**:
same violation count, same counterexample texts in the same order, same
final per-thread vector clocks, same soundness claim.  Nothing about the
analysis depends on wall time, thread scheduling, or the machine; only on
the message sequence, and that is what the archive preserved.

That determinism buys two capabilities:

* **audit** — :func:`verify_entry` replays a trace and diffs the result
  against its catalog entry; ``repro replay --all --expect-catalog`` does
  it for the whole archive, turning it into a standing regression corpus
  (any future change to the analyzer that drifts a verdict fails loudly);
* **re-analysis** — :func:`replay_trace` with a *different* ``spec``
  answers "would this recorded run have violated property Q?" without
  re-running the program.

Replay is streaming (built on :func:`~repro.observer.trace.iter_trace`):
peak memory is one segment plus the analyzer's own two lattice levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..logic.monitor import Monitor
from ..obs import metrics as _metrics
from ..observer.observer import Observer
from ..observer.trace import TraceHeader, iter_trace
from .archive import TraceArchive, ingest_chunks
from .catalog import CatalogEntry, CatalogQuery

__all__ = ["ReplayResult", "ReplayReport", "replay_trace", "replay_entry",
           "verify_entry", "verify_all", "selections_for_entry"]

_C_REPLAYED = _metrics.REGISTRY.counter(
    "store.events_replayed", unit="messages",
    help="archived messages fed back through the analysis pipeline")
_G_REPLAY_RATE = _metrics.REGISTRY.gauge(
    "store.replay_events_per_sec", unit="messages/s",
    help="throughput of the most recent replay (events / wall seconds)")


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one replay — the same quantities a catalog entry pins."""

    program: str
    spec: Optional[str]
    n_threads: int
    events: int
    violations: int
    counterexamples: tuple[str, ...]
    final_clocks: tuple[tuple[int, ...], ...]
    sound: bool
    elapsed_s: float
    #: Per-engine verdict documents (:meth:`EngineVerdict.to_json` shape),
    #: in engine order; ``violations``/``counterexamples`` above are their
    #: aggregation.
    engines: tuple[dict, ...] = ()

    @property
    def verdict(self) -> str:
        return "violation" if self.violations else "clean"

    @property
    def events_per_sec(self) -> float:
        return self.events / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass
class ReplayReport:
    """Aggregate of a ``replay --all`` sweep over the archive."""

    checked: int = 0
    ok: int = 0
    #: ``entry id -> list of human-readable drift descriptions``.
    drifted: dict[str, list[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.drifted

    def summary(self) -> str:
        if self.clean:
            return (f"replayed {self.checked} archived trace(s): "
                    "all verdicts reproduced exactly")
        lines = [f"replayed {self.checked} archived trace(s): "
                 f"{len(self.drifted)} DRIFTED"]
        for entry_id, problems in sorted(self.drifted.items()):
            for p in problems:
                lines.append(f"  {entry_id}: {p}")
        return "\n".join(lines)


def replay_trace(path: str | Path, spec: Optional[str] = None,
                 program: Optional[str] = None,
                 engines: Optional[Sequence[str]] = None) -> ReplayResult:
    """Replay one trace file (v1 or v2) through the full pipeline.

    ``spec=None`` replays without a predictor (clocks and delivery only);
    a spec string re-analyzes the stream against that property.
    ``engines`` selects explicit analysis engines (see
    :mod:`repro.engines`) instead of the spec-implied single LTL engine —
    the differential-replay case.  The observer is the one a live session
    runs, fed in :data:`~repro.store.archive.INGEST_CHUNK`-message
    batches the way a session's worker drains its queue; the result
    carries the final per-thread vector clocks, taken from each thread's
    last message.
    """
    stream = iter_trace(path)
    header = next(stream)
    assert isinstance(header, TraceHeader)
    monitor = Monitor(spec) if spec else None
    observer = Observer(header.n_threads, header.initial, spec=monitor,
                        engines=list(engines) if engines else None)
    final_clocks = [(0,) * header.n_threads
                    for _ in range(header.n_threads)]
    events = 0
    t0 = time.perf_counter()
    for chunk in ingest_chunks(stream):
        observer.receive_batch(chunk)
        for msg in chunk:
            final_clocks[msg.thread] = tuple(msg.clock)
        events += len(chunk)
    observer.finish()
    elapsed = time.perf_counter() - t0
    if _metrics.ENABLED:
        _C_REPLAYED.inc(events)
        _G_REPLAY_RATE.set(round(events / elapsed, 3) if elapsed > 0 else 0.0)
    verdict = observer.verdict()
    return ReplayResult(
        program=program if program is not None else header.program,
        spec=spec,
        n_threads=header.n_threads,
        events=events,
        violations=verdict.violations,
        counterexamples=tuple(verdict.counterexamples),
        final_clocks=tuple(final_clocks),
        sound=verdict.sound,
        elapsed_s=elapsed,
        engines=verdict.engines,
    )


def selections_for_entry(entry: CatalogEntry) -> tuple[list[str], list[str]]:
    """Reconstruct the engine selection strings a catalog entry was
    analyzed under, for bit-for-bit reproduction.

    Returns ``(selections, missing)``: ``selections`` are the strings to
    pass back to :func:`replay_trace`, in the entry's verdict order;
    ``missing`` names engines whose selection cannot be rebuilt from the
    catalog (an unknown engine name, or an entry written before per-engine
    spec recording whose non-primary spec text was not retained).
    """
    specs: tuple[Optional[str], ...]
    if len(entry.engine_specs) == len(entry.engines):
        specs = entry.engine_specs
    else:   # entry predates per-engine spec recording: primary only
        specs = tuple(
            entry.spec if q.partition("@")[0] == "ltl"
            else (entry.engine_spec
                  if q.partition("@")[0] == entry.engine else None)
            for q in entry.engines)
    selections: list[str] = []
    missing: list[str] = []
    for qualified, spec_text in zip(entry.engines, specs):
        name = qualified.partition("@")[0]
        if name == "atomicity":
            selections.append("atomicity")
        elif name in ("ltl", "pattern") and spec_text:
            selections.append(f"{name}:{spec_text}")
        else:
            missing.append(qualified)
    return selections, missing


def replay_entry(archive: TraceArchive,
                 entry: Union[CatalogEntry, str],
                 spec: Optional[str] = None,
                 engines: Optional[Sequence[str]] = None) -> ReplayResult:
    """Replay one archived trace.  ``spec=None`` means *the spec it was
    recorded under* (the reproduce case); pass a different spec string to
    re-analyze the same computation against a new property, or ``engines``
    to run an explicit engine pipeline over it."""
    if isinstance(entry, str):
        entry = archive.get(entry)
    effective = entry.spec if spec is None else spec
    return replay_trace(archive.path_of(entry), spec=effective,
                        program=entry.program, engines=engines)


def verify_entry(archive: TraceArchive,
                 entry: Union[CatalogEntry, str],
                 extra_engines: Sequence[str] = ()) -> list[str]:
    """Replay under the recorded engine pipeline and diff against the
    catalog entry.

    Returns a list of human-readable drift descriptions — empty means the
    verdict was reproduced bit-for-bit (count, counterexample texts,
    final clocks, soundness, event count all equal).  ``extra_engines``
    run additional engines alongside the recorded ones (differential
    replay); their findings are reported by the caller via the result, and
    the catalog diff stays restricted to the recorded engines' verdicts.
    """
    if isinstance(entry, str):
        entry = archive.get(entry)
    recorded, missing = selections_for_entry(entry)
    extras = [e for e in extra_engines if e not in recorded]
    if recorded or extras:
        result = replay_entry(archive, entry, engines=recorded + extras)
    else:   # pre-engine entry: the classic spec-implied pipeline
        result = replay_entry(archive, entry)
    problems: list[str] = []
    if result.events != entry.events:
        problems.append(
            f"event count drifted: catalog {entry.events}, "
            f"replay {result.events}")
    if missing:
        problems.append(
            f"cannot reconstruct engine selection(s) {missing} from the "
            "catalog (only the primary engine's spec is recorded); "
            "verdict not reproducible")
    else:
        # the recorded engines come first in the replay pipeline, so their
        # verdicts are the first len(recorded) documents (all of them for
        # a pre-engine entry)
        docs = (result.engines[:len(recorded)] if recorded
                else result.engines)
        violations = sum(d["violations"] for d in docs)
        counterexamples = tuple(
            c for d in docs for c in d["counterexamples"])
        if violations != entry.violations:
            problems.append(
                f"violation count drifted: catalog {entry.violations}, "
                f"replay {violations}")
        if counterexamples != entry.counterexamples:
            problems.append(
                f"counterexamples drifted: catalog "
                f"{list(entry.counterexamples)}, replay "
                f"{list(counterexamples)}")
    if result.final_clocks != entry.final_clocks:
        problems.append(
            f"final vector clocks drifted: catalog "
            f"{[list(c) for c in entry.final_clocks]}, replay "
            f"{[list(c) for c in result.final_clocks]}")
    if result.sound != entry.sound:
        problems.append(
            f"soundness drifted: catalog {entry.sound}, "
            f"replay {result.sound}")
    return problems


def verify_all(archive: TraceArchive,
               query: Optional[CatalogQuery] = None,
               extra_engines: Sequence[str] = ()) -> ReplayReport:
    """The regression corpus: replay every (matching) archived trace and
    collect verdict drift — ``repro replay --all --expect-catalog``."""
    report = ReplayReport()
    for entry in archive.entries(query):
        report.checked += 1
        problems = verify_entry(archive, entry, extra_engines=extra_engines)
        if problems:
            report.drifted[entry.id] = problems
        else:
            report.ok += 1
    return report
