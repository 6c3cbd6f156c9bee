"""Online level-by-level lattice construction with monitor states (paper §4).

The paper's space optimization: *"only one cut in the computation lattice is
needed at any time, in particular one level"* — because for FSM-translatable
properties (our synthesized ptLTL monitors) everything the past of a path
matters for is captured by the monitor state stored with the node.  The
builder therefore keeps at most two consecutive levels resident (the level
being expanded and the one being produced) and garbage-collects everything
older; experiment E5 measures the resulting memory gap versus the full
lattice.

Events arrive *incrementally and in any order*; a level is expanded only
once it is known complete: for every frontier cut and every thread, the next
message of that thread either has been received (its 1-based position within
the thread is just ``clock[thread]``) or is known to not exist (the stream
was closed).  Until then the builder simply buffers — this is the "buffer
them at the observer's side and build the lattice on a level-by-level basis
as the events become available" of §4.

Violations are reported with a full counterexample run, reconstructed from a
per-(cut, monitor-state) chain of parent pointers.  Path tracking can be
disabled (``track_paths=False``) to realize the paper's strict memory bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..core.events import Message, VarName
from ..logic.monitor import Monitor, MonitorState
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .cut import Cut, MessageChains, apply_message
from .full import Run

__all__ = ["LevelByLevelBuilder", "Violation", "BuilderStats"]

_C_LEVELS = _metrics.REGISTRY.counter(
    "lattice.levels", unit="levels",
    help="lattice levels fully expanded")
_C_NODES = _metrics.REGISTRY.counter(
    "lattice.nodes_expanded", unit="cuts",
    help="lattice cuts expanded (sum of expanded level widths)")
_C_MSTEPS = _metrics.REGISTRY.counter(
    "lattice.monitor_steps", unit="steps",
    help="monitor transitions requested ((state, valuation) lookups)")
_C_MHITS = _metrics.REGISTRY.counter(
    "lattice.monitor_cache_hits", unit="steps",
    help="monitor transitions served from the step memo cache")
_C_VIOLATIONS = _metrics.REGISTRY.counter(
    "lattice.violations", unit="violations",
    help="safety violations recorded (observed or predicted)")
_H_WIDTH = _metrics.REGISTRY.histogram(
    "lattice.level_width", unit="cuts",
    help="cuts per expanded level (lattice breadth profile)")
_H_STATES = _metrics.REGISTRY.histogram(
    "lattice.level_states", unit="states",
    help="(cut, monitor-state) pairs per expanded level")
_G_FRONTIER = _metrics.REGISTRY.gauge(
    "lattice.frontier_cuts", unit="cuts",
    help="width of the current frontier (max = widest level seen)")
_G_FSTATES = _metrics.REGISTRY.gauge(
    "lattice.frontier_states", unit="states",
    help="(cut, monitor-state) pairs resident in the current frontier")


class _PathNode:
    """Immutable cons cell: the message that led here, and the path before it."""

    __slots__ = ("msg", "parent")

    def __init__(self, msg: Message, parent: Optional["_PathNode"]):
        self.msg = msg
        self.parent = parent

    def to_messages(self) -> tuple[Message, ...]:
        out: list[Message] = []
        node: Optional[_PathNode] = self
        while node is not None:
            out.append(node.msg)
            node = node.parent
        out.reverse()
        return tuple(out)


@dataclass(frozen=True)
class Violation:
    """A predicted (or observed) safety violation on some multithreaded run."""

    #: The run prefix that violates the property (relevant messages in order).
    messages: tuple[Message, ...]
    #: Global states along the prefix, initial state first.
    states: tuple[Mapping[VarName, Any], ...]
    #: The lattice cut at which the monitor reported False.
    cut: Cut
    #: The violating monitor state (None when built without a monitor).
    monitor_state: MonitorState = field(default=None, compare=False)

    def run(self) -> Run:
        return Run(self.messages, self.states)

    def pretty(self, variables: Optional[Sequence[VarName]] = None) -> str:
        return self.run().pretty(variables)


@dataclass
class BuilderStats:
    """Resource accounting for experiment E5."""

    nodes_expanded: int = 0
    #: Maximum number of cuts simultaneously resident (both live levels).
    peak_resident_cuts: int = 0
    #: Maximum number of (cut, monitor-state) pairs simultaneously resident.
    peak_resident_states: int = 0
    levels_completed: int = 0
    messages_buffered: int = 0


class _Node:
    __slots__ = ("state", "state_key", "mstates")

    def __init__(self, state: dict):
        self.state = state
        # hashable valuation, the monitor-step memoization key component
        self.state_key = tuple(sorted(state.items(), key=lambda kv: str(kv[0])))
        # monitor state -> representative path (or None when not tracking)
        self.mstates: dict[MonitorState, Optional[_PathNode]] = {}


class LevelByLevelBuilder:
    """Incremental lattice construction + all-runs-in-parallel monitoring.

    Args:
        n_threads: MVC width.
        initial_state: shared-variable valuation before any relevant event.
        monitor: optional synthesized monitor; when given, every path of the
            lattice is checked and violations collected in :attr:`violations`.
        track_paths: keep parent pointers for counterexample reconstruction.
            Disable to realize the paper's two-level memory bound exactly.

    Usage::

        b = LevelByLevelBuilder(2, {"x": -1, "y": 0, "z": 0}, Monitor(spec))
        for msg in delivery_order:      # any order!
            b.feed(msg)
        b.finish()                      # no more messages will come
        for v in b.violations: ...
    """

    def __init__(
        self,
        n_threads: int,
        initial_state: Mapping[VarName, Any],
        monitor: Optional[Monitor] = None,
        track_paths: bool = True,
        max_frontier: int = 1_000_000,
        project: Optional[Iterable[VarName]] = None,
    ):
        self._n = n_threads
        self._chains = MessageChains(n_threads)
        self._monitor = monitor
        self._track = track_paths
        self._closed = False
        # Known total of relevant events per thread (-1 = unknown).  Set by
        # mark_thread_done when the instrumentation sends end-of-thread
        # markers, enabling online progress before the stream closes.
        self._known_totals: list[int] = [-1] * n_threads
        self._done = False
        self._max_frontier = max_frontier
        # State projection (§2.3's spirit on the observer side): when the
        # message stream carries writes of variables the monitor never
        # reads, tracking them in node states only shrinks memoization hit
        # rates.  `project` restricts global states to the given variables;
        # defaults to the monitor's variables when a monitor is present.
        if project is not None:
            self._project: Optional[frozenset] = frozenset(project)
        elif monitor is not None:
            self._project = frozenset(monitor.variables)
        else:
            self._project = None
        self.stats = BuilderStats()
        self.violations: list[Violation] = []
        self._initial = dict(initial_state)
        # Monitor.step is pure in (mstate, valuation); in wide lattices many
        # cuts share the same valuation (independent writes commute), so
        # memoizing the step saves most monitor work (profiled, DESIGN §4).
        self._step_cache: dict[tuple, tuple] = {}

        bottom = (0,) * n_threads
        node = _Node(self._projected(dict(initial_state)))
        if monitor is not None:
            ms, ok = monitor.step(monitor.initial_state(), node.state)
            node.mstates[ms] = None
            if not ok:
                self._record_violation(bottom, None, node, ms)
        else:
            node.mstates[None] = None
        self._frontier: dict[Cut, _Node] = {bottom: node}
        self._level = 0
        self._bump_peaks(len(self._frontier), self._count_states(self._frontier))

    # -- feeding ------------------------------------------------------------------

    def feed(self, msg: Message) -> None:
        """Buffer one relevant message: :meth:`feed_many` of one."""
        self.feed_many((msg,))

    def feed_many(self, msgs: Iterable[Message]) -> None:
        """Buffer relevant messages (any delivery order), then advance as
        far as the received prefix allows.

        Advancing once per call reaches the same frontier and violations
        however the stream is chunked — expansion is monotone in the
        buffered set — and skips the O(frontier × n) readiness scans a
        per-message advance would repeat.
        """
        if self._closed:
            raise RuntimeError("cannot feed a closed builder")
        inserted = 0
        for m in msgs:
            self._chains.insert(m)
            inserted += 1
        self.stats.messages_buffered += inserted
        self._advance()

    def mark_thread_done(self, thread: int, total_relevant: int) -> None:
        """Declare that ``thread`` will emit exactly ``total_relevant``
        relevant events in total (end-of-thread marker from the
        instrumentation).  Lets levels advance online without waiting for
        the global end of stream."""
        if not 0 <= thread < self._n:
            raise IndexError(thread)
        if total_relevant < 0:
            raise ValueError("total_relevant must be >= 0")
        known = self._known_totals[thread]
        if known >= 0 and known != total_relevant:
            raise ValueError(
                f"conflicting totals for thread {thread}: {known} vs {total_relevant}"
            )
        self._known_totals[thread] = total_relevant
        self._advance()

    def finish(self) -> None:
        """Declare end-of-stream: threads with no pending next message are
        now known finished, unblocking the final levels."""
        self._closed = True
        self._advance()
        # The build is complete only if expansion stopped at a top cut that
        # consumed every buffered message; a gap in some thread's chain
        # makes expansion stall early instead.
        reached_top = any(
            not self._chains.has_beyond(cut) for cut in self._frontier
        )
        if not self._done or not reached_top:
            raise RuntimeError(
                "stream closed with missing relevant messages; "
                "lattice incomplete (a gap in some thread's chain)"
            )

    @property
    def complete(self) -> bool:
        """All levels expanded (only meaningful after :meth:`finish`)."""
        return self._done

    @property
    def level(self) -> int:
        """Index of the current (not yet expanded) level."""
        return self._level

    @property
    def frontier(self) -> dict[Cut, Mapping[VarName, Any]]:
        """Current level's cuts and their global states (copies)."""
        return {cut: dict(node.state) for cut, node in self._frontier.items()}

    def frontier_monitor_states(self) -> dict[Cut, frozenset]:
        return {cut: frozenset(node.mstates) for cut, node in self._frontier.items()}

    def _projected(self, state: dict) -> dict:
        if self._project is None:
            return state
        return {k: v for k, v in state.items() if k in self._project}

    # -- internals ------------------------------------------------------------------

    def _count_states(self, frontier: dict[Cut, _Node]) -> int:
        return sum(len(n.mstates) for n in frontier.values())

    def _bump_peaks(self, cuts: int, states: int) -> None:
        self.stats.peak_resident_cuts = max(self.stats.peak_resident_cuts, cuts)
        self.stats.peak_resident_states = max(self.stats.peak_resident_states, states)

    def _level_ready(self) -> bool:
        """Can the current frontier be fully expanded with what we know?"""
        for cut in self._frontier:
            for i in range(self._n):
                if self._chains.get(i, cut[i] + 1) is None:
                    # Missing next message: fine only if the thread is known
                    # to have ended — globally (stream closed) or via an
                    # end-of-thread marker saying no such index exists.
                    known = self._known_totals[i]
                    thread_over = known >= 0 and cut[i] + 1 > known
                    if not (self._closed or thread_over):
                        return False
        return True

    def _advance(self) -> None:
        while not self._done and self._frontier and self._level_ready():
            with _tracing.span("lattice.level", level=self._level,
                               cuts=len(self._frontier)):
                new_frontier: dict[Cut, _Node] = {}
                progressed = False
                for cut, node in self._frontier.items():
                    for i in range(self._n):
                        m = self._chains.enabled_at(cut, i)
                        if m is None:
                            continue
                        progressed = True
                        succ = cut[:i] + (cut[i] + 1,) + cut[i + 1:]
                        snode = new_frontier.get(succ)
                        if snode is None:
                            snode = _Node(self._projected(apply_message(node.state, m)))
                            new_frontier[succ] = snode
                        self._extend_monitors(node, snode, m, succ)
                self.stats.nodes_expanded += len(self._frontier)
                self.stats.levels_completed += 1
                self._bump_peaks(
                    len(self._frontier) + len(new_frontier),
                    self._count_states(self._frontier) + self._count_states(new_frontier),
                )
                if _metrics.ENABLED:
                    _C_LEVELS.inc()
                    _C_NODES.inc(len(self._frontier))
                    _H_WIDTH.observe(len(self._frontier))
                    _H_STATES.observe(self._count_states(self._frontier))
                    _G_FRONTIER.set(len(new_frontier))
                    _G_FSTATES.set(self._count_states(new_frontier))
                if not progressed:
                    # No cut had an enabled successor: computation fully explored.
                    self._done = True
                    return
                if len(new_frontier) > self._max_frontier:
                    raise MemoryError(
                        f"lattice frontier exceeded max_frontier="
                        f"{self._max_frontier} at level {self._level + 1}"
                    )
                self._frontier = new_frontier  # previous level is GC'd here
                self._level += 1

    def _extend_monitors(self, node: _Node, snode: _Node, m: Message, succ: Cut) -> None:
        if self._monitor is None:
            for _ms, path in node.mstates.items():
                child = _PathNode(m, path) if self._track else None
                snode.mstates.setdefault(None, child)
            return
        cache = self._step_cache
        for ms, path in node.mstates.items():
            key = (ms, snode.state_key)
            hit = cache.get(key)
            if _metrics.ENABLED:
                _C_MSTEPS.inc()
                if hit is not None:
                    _C_MHITS.inc()
            if hit is None:
                hit = self._monitor.step(ms, snode.state)
                cache[key] = hit
            new_ms, ok = hit
            child = _PathNode(m, path) if self._track else None
            if new_ms not in snode.mstates:
                snode.mstates[new_ms] = child
                if not ok:
                    self._record_violation(succ, child, snode, new_ms)

    def _record_violation(
        self,
        cut: Cut,
        path: Optional[_PathNode],
        node: _Node,
        mstate: MonitorState,
    ) -> None:
        if _metrics.ENABLED:
            _C_VIOLATIONS.inc()
        msgs: tuple[Message, ...] = path.to_messages() if path is not None else ()
        states: list[Mapping[VarName, Any]] = [dict(self._initial)]
        for m in msgs:
            states.append(apply_message(states[-1], m))
        self.violations.append(
            Violation(
                messages=msgs,
                states=tuple(states),
                cut=cut,
                monitor_state=mstate,
            )
        )
