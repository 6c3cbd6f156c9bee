"""The pluggable analysis-engine contract (the analysis-bus consumer side).

The paper's observer extracts one causal stream; everything downstream of
it is *an analysis* — past-time LTL prediction was simply the first.  An
:class:`AnalysisEngine` is any online consumer of causally-annotated
messages that can

* :meth:`feed` one message (or a :meth:`feed_batch` of them) and report
  findings incrementally,
* :meth:`finish` at end of stream, or :meth:`finish_partial` over a
  delivered *prefix* when the transport lost messages (graceful
  degradation is part of the interface, not an LTL-only special case),
* :meth:`snapshot` its progress, and
* render a final :class:`EngineVerdict` — name, version, spec text,
  violation count, pretty-printed counterexamples, soundness and degraded
  windows — the attribution record the server result frame and the trace
  archive carry per engine.

Engines receive :class:`BusEvent` objects from the
:class:`~repro.engines.bus.AnalysisBus`, which computes the per-event
clock annotations **once** and fans the annotated stream out; an engine
must never recompute clocks itself.

Engine selection strings (``repro observe --engine ...``)::

    ltl                     past-time LTL prediction under the session spec
    ltl:<formula>           ... under an explicit formula
    atomicity               linear-time serializability (vector clocks)
    pattern:<steps>         pattern-regular predictive monitoring, e.g.
                            pattern:W(x);R(y);W(x)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, TYPE_CHECKING

from ..core.events import VarName

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .bus import BusEvent

__all__ = [
    "AnalysisEngine",
    "DegradedWindow",
    "EngineVerdict",
    "StreamVerdict",
    "EngineError",
    "parse_engine_spec",
    "make_engine",
    "make_engines",
    "ENGINE_FACTORIES",
]


class EngineError(ValueError):
    """An engine selection string or configuration is invalid."""


@dataclass(frozen=True)
class DegradedWindow:
    """A per-thread suffix of the computation the analysis never saw.

    When the transport loses the message at 1-based relevant position
    ``first_missing`` of ``thread``, every later message of that thread —
    and everything causally after it — is outside the analyzed sub-lattice.
    Verdicts touching cuts with ``cut[thread] >= first_missing`` are
    therefore *unsound*: neither violations nor their absence can be
    claimed there.  Verdicts on the analyzed prefix remain exact (the
    delivered subset is a consistent cut of the full computation, so its
    sub-lattice is a prefix of the full one).
    """

    thread: int
    #: First 1-based relevant index of ``thread`` that was never analyzed.
    first_missing: int
    #: Number of messages of this thread that *were* analyzed.
    analyzed: int

    def pretty(self) -> str:
        return (f"thread {self.thread}: sound through index {self.analyzed}, "
                f"unsound from index {self.first_missing}")


@dataclass(frozen=True)
class EngineVerdict:
    """One engine's final word on one stream — the attribution record.

    ``spec`` is the engine's own specification text (the LTL formula, the
    pattern string, or a fixed description for spec-less engines), so an
    archived verdict names both *who* produced it and *against what*.
    """

    engine: str
    version: str
    spec: str
    violations: int
    counterexamples: tuple[str, ...]
    sound: bool
    degraded_windows: tuple[DegradedWindow, ...] = ()

    @property
    def verdict(self) -> str:
        return "violation" if self.violations else "clean"

    @property
    def qualified(self) -> str:
        """``name@version`` — the catalog attribution string."""
        return f"{self.engine}@{self.version}"

    def to_json(self) -> dict:
        return {
            "engine": self.engine,
            "version": self.version,
            "spec": self.spec,
            "verdict": self.verdict,
            "violations": self.violations,
            "counterexamples": list(self.counterexamples),
            "sound": self.sound,
            "degraded_windows": [
                {"thread": w.thread, "first_missing": w.first_missing,
                 "analyzed": w.analyzed}
                for w in self.degraded_windows
            ],
        }


@dataclass(frozen=True)
class StreamVerdict:
    """A finished stream's verdict, rendered once: every engine's
    :meth:`EngineVerdict.to_json` document, in engine order, plus overall
    soundness.  It is the value that crosses the supervised worker's
    process boundary; the result frame, the sealed session record, the
    archive footer, replay and the CLI all read it, and the violation
    count and flat counterexample list are views over it.
    """

    engines: tuple[dict, ...]
    sound: bool

    @property
    def violations(self) -> int:
        return sum(e["violations"] for e in self.engines)

    @property
    def counterexamples(self) -> list[str]:
        """Every engine's findings, in engine order."""
        return [c for e in self.engines for c in e["counterexamples"]]


class AnalysisEngine:
    """Base class for online analyses driven by the analysis bus.

    Subclasses set :attr:`name` / :attr:`version` class attributes,
    implement :meth:`feed` and :meth:`finish`, and expose their findings
    via :meth:`counterexamples`.  The base class provides batch feeding,
    the generic degraded-mode bookkeeping (:meth:`finish_partial`), and
    verdict assembly — so ``Observer(fault_tolerant=True)`` works for
    *every* engine, not only the LTL predictor.

    Engines only ever see causally-ordered messages (a linear extension
    of ⊳): the observer feeds the bus from causal-delivery releases.
    """

    name: str = "engine"
    version: str = "1"

    def __init__(self) -> None:
        self._degraded: tuple[DegradedWindow, ...] = ()
        self._finished = False

    # -- streaming ------------------------------------------------------------

    def feed(self, ev: "BusEvent") -> list[Any]:
        """Consume one annotated message; return newly-found findings."""
        raise NotImplementedError

    def feed_batch(self, evs: Sequence["BusEvent"]) -> list[Any]:
        """Consume many annotated messages.  Semantically identical to
        feeding them one by one; engines override this only to amortize
        (same final state and findings either way), and then make
        :meth:`feed` a batch of one so the engine keeps one path."""
        new: list[Any] = []
        for ev in evs:
            new.extend(self.feed(ev))
        return new

    def finish(self) -> list[Any]:
        """End of stream: run any final checks, return late findings."""
        self._finished = True
        return []

    def finish_partial(
        self,
        delivered_counts: Sequence[int],
        expected_counts: Optional[Sequence[int]] = None,
    ) -> list[Any]:
        """Finish over a delivered *prefix* (graceful degradation).

        The delivered subset is a consistent cut (causal delivery only
        releases a message once its causal past has been released), so
        every engine's verdict on the prefix is exact; what no engine can
        claim is anything about the excluded suffixes.  The base
        implementation records one :class:`DegradedWindow` per cut-short
        thread — marking the verdict unsound — and then runs the normal
        :meth:`finish` over the prefix.  Engines with their own partial
        semantics (the LTL predictor closes its sub-lattice) override
        this but must keep the same window accounting.
        """
        self._degraded = compute_degraded_windows(
            delivered_counts, expected_counts)
        return self.finish()

    def snapshot(self) -> dict:
        """Progress/diagnostic counters (shape is engine-specific; always
        includes ``engine`` and ``violations``)."""
        return {
            "engine": self.name,
            "version": self.version,
            "violations": self.finding_count(),
            "finished": self._finished,
        }

    # -- results --------------------------------------------------------------

    def counterexamples(self) -> list[str]:
        """Pretty-printed findings, in discovery order."""
        raise NotImplementedError

    def finding_count(self) -> int:
        """How many findings so far.  The built-in engines count without
        rendering; the default renders and counts."""
        return len(self.counterexamples())

    def spec_text(self) -> str:
        """The engine's specification text, for attribution."""
        return self.name

    @property
    def degraded_windows(self) -> tuple[DegradedWindow, ...]:
        return self._degraded

    def verdict(self) -> EngineVerdict:
        ces = tuple(self.counterexamples())
        return EngineVerdict(
            engine=self.name,
            version=self.version,
            spec=self.spec_text(),
            violations=len(ces),
            counterexamples=ces,
            sound=not self._degraded,
            degraded_windows=self._degraded,
        )


def compute_degraded_windows(
    delivered_counts: Sequence[int],
    expected_counts: Optional[Sequence[int]] = None,
) -> tuple[DegradedWindow, ...]:
    """The shared partial-verdict accounting (satellite of PR 8): which
    per-thread suffixes did the analysis never see?

    ``expected_counts`` (true totals from end-of-thread markers) makes the
    windows exact; without it every thread is conservatively degraded from
    ``delivered + 1`` since the stream was cut short.
    """
    out: list[DegradedWindow] = []
    for i, delivered in enumerate(delivered_counts):
        expected = None if expected_counts is None else expected_counts[i]
        if expected is not None and delivered > expected:
            raise ValueError(
                f"thread {i}: delivered {delivered} > expected {expected}")
        if expected is None or delivered < expected:
            out.append(DegradedWindow(
                thread=i, first_missing=delivered + 1, analyzed=delivered))
    return tuple(out)


# -- selection strings --------------------------------------------------------

#: ``name -> factory(arg, n_threads, initial, default_spec) -> engine``.
#: Registered by each engine module at import time (see
#: :func:`register_engine`); :func:`make_engine` resolves through it.
ENGINE_FACTORIES: dict[str, Callable[..., AnalysisEngine]] = {}


def register_engine(name: str,
                    factory: Callable[..., AnalysisEngine]) -> None:
    ENGINE_FACTORIES[name] = factory


def parse_engine_spec(text: str) -> tuple[str, Optional[str]]:
    """Split an engine selection string into ``(name, arg)``.

    ``"atomicity"`` → ``("atomicity", None)``;
    ``"pattern:W(x);R(y)"`` → ``("pattern", "W(x);R(y)")``.
    """
    if not isinstance(text, str) or not text.strip():
        raise EngineError(f"empty engine selection {text!r}")
    name, sep, arg = text.partition(":")
    name = name.strip().lower()
    if not name:
        raise EngineError(f"engine selection {text!r} has no engine name")
    return name, (arg if sep else None)


def make_engine(
    text: str,
    n_threads: int,
    initial: Mapping[VarName, Any],
    default_spec: Optional[str] = None,
) -> AnalysisEngine:
    """Build one engine from a selection string.

    ``default_spec`` is the session's spec (``Hello.spec`` / the demo's
    bundled property): ``"ltl"`` without an inline formula runs under it.
    """
    # ensure the built-in engines have registered their factories
    from . import atomicity, ltl, pattern  # noqa: F401

    name, arg = parse_engine_spec(text)
    factory = ENGINE_FACTORIES.get(name)
    if factory is None:
        raise EngineError(
            f"unknown engine {name!r} (available: "
            f"{', '.join(sorted(ENGINE_FACTORIES))})")
    return factory(arg, n_threads, initial, default_spec)


def make_engines(
    texts: Sequence[str],
    n_threads: int,
    initial: Mapping[VarName, Any],
    default_spec: Optional[str] = None,
) -> list[AnalysisEngine]:
    """Build a bus-ready engine list from selection strings."""
    return [make_engine(t, n_threads, initial, default_spec) for t in texts]
