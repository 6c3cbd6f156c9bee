"""repro.store — persistent trace archive with deterministic replay.

The paper's observer analyzes a message stream "online or offline"; this
package makes offline a first-class citizen.  An archive is a directory of
**v2 trace files** (binary-framed, CRC-checksummed, gzip-compressed
segments — :mod:`repro.store.format`) plus a **catalog**
(:mod:`repro.store.catalog`) recording, per session: program, spec, thread
count, event count, the live verdict and the final per-thread vector
clocks.  Because the analysis is a deterministic function of the message
stream, :mod:`repro.store.replay` can feed any archived trace back through
``Observer`` → ``CausalDelivery`` → analysis engines and reproduce the
live verdict bit-for-bit — or re-analyze it under a *different* spec
without re-running the program.  :mod:`repro.store.gc` bounds the archive
by age, size and count.

Entry points:

* :class:`TraceArchive` — ``begin()``/``commit()`` two-phase recording,
  queries, GC; the analysis server drives it via
  ``ServerConfig(archive_dir=...)``;
* :func:`replay_trace` / :func:`replay_entry` — deterministic replay;
* :func:`verify_all` — the standing regression corpus
  (``repro replay --all --expect-catalog``);
* CLI: ``repro archive / replay / query / gc``.

Format spec, catalog schema, retention semantics and the determinism
guarantee are documented in ``docs/STORE.md``.
"""

from .archive import CatalogRebuildReport, PendingTrace, TraceArchive
from .catalog import Catalog, CatalogEntry, CatalogError, CatalogQuery
from .format import (
    FORMAT_VERSION,
    SegmentWriter,
    TraceMeta,
    TracePrefix,
    iter_trace_v2,
    read_trace_meta,
    read_trace_prefix,
)
from .gc import GCReport, RetentionPolicy
from .replay import (
    ReplayReport,
    ReplayResult,
    replay_entry,
    replay_trace,
    verify_all,
    verify_entry,
)

__all__ = [
    "TraceArchive",
    "PendingTrace",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "CatalogQuery",
    "CatalogRebuildReport",
    "FORMAT_VERSION",
    "SegmentWriter",
    "TraceMeta",
    "TracePrefix",
    "iter_trace_v2",
    "read_trace_meta",
    "read_trace_prefix",
    "RetentionPolicy",
    "GCReport",
    "ReplayResult",
    "ReplayReport",
    "replay_trace",
    "replay_entry",
    "verify_entry",
    "verify_all",
]
