"""Content-addressed pipeline artifact cache.

Configuration sweeps (hardware ablations, dataset sensitivity, hardware
generations) re-run the identical compile -> annotate -> profile front
half of the Figure 1 pipeline under every configuration; only the
stages a changed knob actually feeds need to re-execute.  This module
memoizes the pipeline's intermediate products behind content-addressed
keys so :class:`~repro.jrpm.pipeline.Jrpm` can skip unchanged stages.

Stages and their key components
-------------------------------
``compile``
    (source text, optimize flag) -> the compiled :class:`Program`, its
    :class:`CandidateTable` (each loop's blocks, nesting and scalar
    classes) and the optimizer counters.  Every warm run unpickles it,
    so it keeps no CFG: ``annotate`` builds its own graph per function.
``annotate``
    (compile key, annotation level) -> pristine
    :class:`AnnotatedProgram` (snapshotted *before* the profiling run
    patches converged READSTATS sites to NOPs).  Only the profiled run
    reads it, so it is read only on a ``profile`` miss.
``sequential``
    (compile key, cost model, instruction budget) -> the baseline
    :class:`RunResult` of the unannotated program.
``profile``
    (annotate key, cost model, the profiling-relevant subset of
    :class:`HydraConfig`, convergence threshold, instruction budget,
    trace-JIT flag) -> the profiled :class:`RunResult` and the finished
    TEST device (which carries the annotation counter).
``recording``
    (profile key) -> the profiled run's
    :class:`~repro.runtime.events.ColumnarRecording`, stored next to
    the profile artifact but read apart from it: selection never reads
    the trace, so a warm run fetches the recording only when the
    replay needs a plan it has not memoised (or a caller reads
    ``report.recording``).  A missing or corrupt recording blob re-runs
    the profiled stage, which stores both artifacts again.

A stage counts a hit or a miss only when its artifact is read: a warm
run whose replay plans are memoised counts ``compile``, ``sequential``
and ``profile`` hits and nothing else.

Selection (Equation 2) and the TLS replay's timing pass are recomputed
on every run: they are cheap relative to profiling and depend on knobs
(``n_cpus``, the Table 2 overheads) that should *not* invalidate trace
collection — exactly the stage split the paper's methodology implies,
where one profile of a program is amortized across analyses.

The part of the replay those knobs cannot change — each selected loop's
:class:`~repro.tls.plan.ReplayPlan` — is memoised in-process next to
the profile blob (:meth:`ArtifactCache.plans`, under the profile key),
so a warm run whose plans hit skips the split and the event walk.  The
memo is not a stage: it is never pickled or written to disk, a pickled
cache crosses a process boundary without it, and quarantining the
profile blob drops it.

Values are stored as pickled blobs keyed by a SHA-256 digest of their
canonicalized key components; every fetch unpickles a fresh copy, so
cached artifacts can never alias live mutable state (the profiled run
patches annotated code in place — a shared object would leak those
patches into the next run).  An optional backing directory persists
blobs across processes, which lets the parallel fleet executor's
workers share one cache.

Integrity
---------
On-disk blobs are *checksum-framed*: a magic line, the owning stage
name, and a SHA-256 digest of the payload precede the pickle bytes.
A torn, truncated, or bit-flipped file (worker killed mid-write, disk
trouble, a fault-injection test) therefore fails verification instead
of feeding garbage to ``pickle.loads``; the bad file is quarantined by
renaming it to ``<name>.corrupt``, the read is demoted to a miss, and
a per-stage ``corrupt`` counter records the event.  Unpickling errors
(truncated payload that still checksummed, a class that moved, an enum
value or a constructor signature that changed) are demoted the same
way — a corrupt cache entry costs one recompute, never the run.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import os
import pickle
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.hydra.config import HydraConfig
from repro.runtime.costs import CostModel

STAGE_COMPILE = "compile"
STAGE_ANNOTATE = "annotate"
STAGE_SEQUENTIAL = "sequential"
STAGE_PROFILE = "profile"
STAGE_RECORDING = "recording"

#: every pipeline stage the cache knows about, in execution order
STAGES = (STAGE_COMPILE, STAGE_ANNOTATE, STAGE_SEQUENTIAL, STAGE_PROFILE,
          STAGE_RECORDING)

#: HydraConfig fields the profiling stage actually reads: timestamp
#: storage geometry (Section 5.3), comparator bank count (Section 5.2),
#: and the Table 1 buffer limits the overflow analysis compares against.
#: ``n_cpus``, the Table 2 overheads, and the load-buffer associativity
#: feed only selection / TLS replay, so changing them keeps the profile.
PROFILE_CONFIG_FIELDS = (
    "heap_ts_fifo_lines",
    "local_ts_lines",
    "line_ts_ld_entries",
    "line_ts_st_entries",
    "n_comparator_banks",
    "load_buffer_lines",
    "store_buffer_lines",
)


#: first line of every framed blob file; bump on format changes (old
#: files then quarantine as corrupt and recompute, never misparse)
BLOB_MAGIC = b"jrpmblob1\n"

#: exceptions ``pickle.loads`` raises on damaged-but-checksummed or
#: schema-drifted payloads; all demoted to cache misses
_UNPICKLE_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError, TypeError)

#: name suffix of a fleet submission's counter ledger (see
#: :func:`read_ledger`); the executor deletes each after merging it,
#: and :func:`purge_directory` sweeps any an interrupted run left
LEDGER_SUFFIX = ".ledger"

#: per-process tmp-file serial: combined with the pid this makes every
#: in-flight write target unique, so two threads (or a retry racing
#: its predecessor) can never collide mid-write
_TMP_COUNTER = itertools.count()


def frame_blob(stage: str, payload: bytes) -> bytes:
    """Wrap a pickle payload in the on-disk integrity frame."""
    return b"".join([BLOB_MAGIC, stage.encode("ascii"), b"\n",
                     hashlib.sha256(payload).digest(), payload])


def unframe_blob(data: bytes) -> Tuple[str, bytes]:
    """Parse and verify a framed blob; ``(stage, payload)``.

    Raises :class:`CorruptBlobError` on any damage: missing magic,
    torn header, or a payload that fails its checksum.
    """
    if not data.startswith(BLOB_MAGIC):
        raise CorruptBlobError("bad magic")
    cut = data.find(b"\n", len(BLOB_MAGIC))
    if cut < 0:
        raise CorruptBlobError("torn header")
    stage = data[len(BLOB_MAGIC):cut].decode("ascii", "replace")
    digest = data[cut + 1:cut + 33]
    payload = data[cut + 33:]
    if len(digest) < 32 or hashlib.sha256(payload).digest() != digest:
        raise CorruptBlobError("checksum mismatch for stage %r" % stage)
    return stage, payload


def blob_stage(path: str) -> Optional[str]:
    """The stage recorded in a blob file's frame header, or None when
    the file is unreadable/unframed.  Reads only the header."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(BLOB_MAGIC) + 64)
    except OSError:
        return None
    if not head.startswith(BLOB_MAGIC):
        return None
    cut = head.find(b"\n", len(BLOB_MAGIC))
    if cut < 0:
        return None
    return head[len(BLOB_MAGIC):cut].decode("ascii", "replace")


class CorruptBlobError(ValueError):
    """A framed blob failed integrity verification."""


def _canon(value: Any) -> str:
    """Deterministic string form of a key component."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return "%s.%s" % (type(value).__name__, value.name)
    if isinstance(value, (tuple, list)):
        return "[%s]" % ",".join(_canon(v) for v in value)
    if isinstance(value, dict):
        return "{%s}" % ",".join(
            "%s:%s" % (_canon(k), _canon(v))
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0])))
    if isinstance(value, CostModel):
        return "CostModel{%s|%s}" % (
            _canon({int(k): v for k, v in value.op_costs.items()}),
            _canon({int(k): v for k, v in value.bin_costs.items()}))
    if isinstance(value, HydraConfig):
        return "HydraConfig%s" % _canon(vars(value))
    raise TypeError("uncacheable key component %r" % (value,))


def cache_key(stage: str, *parts: Any) -> str:
    """Content-addressed key: SHA-256 over the canonicalized parts."""
    blob = "|".join([stage] + [_canon(p) for p in parts])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def profile_config_key(config: HydraConfig) -> Tuple:
    """The profiling-relevant projection of a Hydra configuration."""
    return tuple((f, getattr(config, f)) for f in PROFILE_CONFIG_FIELDS)


class ArtifactCache:
    """Blob store for pipeline artifacts with per-stage hit/miss/
    corrupt counters.

    ``directory`` optionally backs the in-memory store with one file
    per blob (named by digest), shared across processes; writes go
    through a unique temp file + rename so concurrent workers never
    observe a torn blob, and reads verify the integrity frame —
    damaged files are quarantined (renamed ``*.corrupt``) and demoted
    to misses rather than crashing the pipeline.
    """

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._blobs: Dict[str, bytes] = {}
        #: profile key -> that profile's replay-plan memo
        self._plans: Dict[str, Dict] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.corrupt: Dict[str, int] = {}
        #: file each counter bump is also appended to (see
        #: :func:`read_ledger`), so a fleet worker that dies mid-task
        #: leaves its counters behind; None keeps them in memory only
        self.ledger: Optional[str] = None
        #: guards the blob map and the counters — the analysis service
        #: keeps one resident cache and fetches from many handler /
        #: scheduler threads concurrently; dict mutation plus
        #: read-modify-write counter bumps need the lock (pickling and
        #: file I/O happen outside it, so readers don't serialize on
        #: compute)
        self._lock = threading.RLock()

    # locks don't pickle; a cache that crosses a process boundary
    # rebuilds its own, and starts with no replay plans
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        state["_plans"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def _count(self, counter: str, stage: str) -> None:
        """Bump one per-stage counter (``hits``, ``misses`` or
        ``corrupt``), and log the bump to the ledger file if any."""
        with self._lock:
            table = getattr(self, counter)
            table[stage] = table.get(stage, 0) + 1
        if self.ledger is not None:
            with open(self.ledger, "a") as handle:
                handle.write("%s %s\n" % (counter, stage))

    # -- blob plumbing ---------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".pkl")

    def _quarantine(self, key: str, stage: str) -> None:
        """Move a bad blob aside (``.corrupt``) and forget it, so the
        slot recomputes and the evidence survives for inspection."""
        self._count("corrupt", stage)
        with self._lock:
            self._blobs.pop(key, None)
            self._plans.pop(key, None)
        if self.directory is not None:
            path = self._path(key)
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass  # already gone or unwritable; forgetting suffices

    def _read_blob(self, key: str, stage: str) -> Optional[bytes]:
        """The verified pickle payload for ``key``, or None (counting
        a corruption when the file exists but fails verification)."""
        with self._lock:
            blob = self._blobs.get(key)
        if blob is not None:
            return blob
        if self.directory is not None:
            try:
                with open(self._path(key), "rb") as handle:
                    data = handle.read()
            except OSError:
                return None
            try:
                _, blob = unframe_blob(data)
            except CorruptBlobError:
                self._quarantine(key, stage)
                return None
            with self._lock:
                self._blobs[key] = blob
            return blob
        return None

    def _write_blob(self, key: str, stage: str, blob: bytes) -> None:
        with self._lock:
            self._blobs[key] = blob
        if self.directory is not None:
            path = self._path(key)
            tmp = "%s.tmp.%d.%d" % (path, os.getpid(),
                                    next(_TMP_COUNTER))
            with open(tmp, "wb") as handle:
                handle.write(frame_blob(stage, blob))
            os.replace(tmp, path)

    # -- the memoization interface ---------------------------------------

    def fetch(self, stage: str, key: str) -> Tuple[bool, Any]:
        """(hit, value); the value is a fresh unpickled copy.

        A corrupt entry — torn frame, checksum mismatch, or a payload
        ``pickle.loads`` rejects — is quarantined and returned as a
        miss, so callers recompute instead of crashing.
        """
        blob = self._read_blob(key, stage)
        if blob is None:
            self._count("misses", stage)
            return False, None
        try:
            value = pickle.loads(blob)
        except _UNPICKLE_ERRORS:
            self._quarantine(key, stage)
            self._count("misses", stage)
            return False, None
        self._count("hits", stage)
        return True, value

    def store(self, stage: str, key: str, value: Any) -> None:
        """Snapshot ``value`` (by pickling) under ``key``."""
        self._write_blob(
            key, stage, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))

    def plans(self, key: str) -> Dict:
        """The in-process replay-plan memo of the profile stored under
        ``key`` (see the module docstring); a
        :class:`~repro.tls.engine.TraceEngine` serves from and fills
        it."""
        with self._lock:
            return self._plans.setdefault(key, {})

    # -- statistics -------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Current counters as
        {stage: {"hits": n, "misses": n, "corrupt": n}}."""
        out: Dict[str, Dict[str, int]] = {}
        with self._lock:
            stages = set(self.hits) | set(self.misses) | set(self.corrupt)
            for stage in stages:
                out[stage] = {"hits": self.hits.get(stage, 0),
                              "misses": self.misses.get(stage, 0),
                              "corrupt": self.corrupt.get(stage, 0)}
        return out

    @property
    def hit_count(self) -> int:
        return sum(self.hits.values())

    @property
    def miss_count(self) -> int:
        return sum(self.misses.values())

    def render(self) -> str:
        """One-line-per-stage counter summary."""
        lines = ["%-12s %6s %6s %7s" % ("stage", "hits", "misses",
                                        "corrupt")]
        for stage in STAGES:
            if stage in self.hits or stage in self.misses \
                    or stage in self.corrupt:
                lines.append("%-12s %6d %6d %7d" % (
                    stage, self.hits.get(stage, 0),
                    self.misses.get(stage, 0),
                    self.corrupt.get(stage, 0)))
        return "\n".join(lines)


def merge_stats(into: Dict[str, Dict[str, int]],
                extra: Optional[Dict[str, Dict[str, int]]]
                ) -> Dict[str, Dict[str, int]]:
    """Accumulate one ``{stage: {hits, misses, corrupt}}`` counter
    snapshot into another (in place); the one fold behind the
    executor's worker merge and the service metrics."""
    if extra:
        for stage, counts in extra.items():
            slot = into.setdefault(stage, {})
            for field in ("hits", "misses", "corrupt"):
                slot[field] = slot.get(field, 0) + counts.get(field, 0)
    return into


def diff_stats(after: Dict[str, Dict[str, int]],
               before: Dict[str, Dict[str, int]]
               ) -> Dict[str, Dict[str, int]]:
    """Counter delta between two snapshots of the same cache."""
    out: Dict[str, Dict[str, int]] = {}
    for stage, counts in after.items():
        base = before.get(stage, {})
        hits = counts.get("hits", 0) - base.get("hits", 0)
        misses = counts.get("misses", 0) - base.get("misses", 0)
        corrupt = counts.get("corrupt", 0) - base.get("corrupt", 0)
        if hits or misses or corrupt:
            out[stage] = {"hits": hits, "misses": misses,
                          "corrupt": corrupt}
    return out


def read_ledger(path: str) -> Dict[str, Dict[str, int]]:
    """The ``{stage: {hits, misses, corrupt}}`` counters an
    :attr:`ArtifactCache.ledger` file logged (empty when the file is
    missing)."""
    out: Dict[str, Dict[str, int]] = {}
    try:
        with open(path) as handle:
            data = handle.read()
    except OSError:
        return out
    # a line cut short by the worker's death has no newline yet
    for line in data.split("\n")[:-1]:
        counter, _, stage = line.partition(" ")
        slot = out.setdefault(stage, {"hits": 0, "misses": 0,
                                      "corrupt": 0})
        slot[counter] += 1
    return out


# ---------------------------------------------------------------------------
# offline cache maintenance (the ``jrpm cache`` subcommand)
# ---------------------------------------------------------------------------

def iter_blob_paths(directory: str) -> Iterator[str]:
    """Every committed blob file in ``directory``, sorted by name
    (tmp files mid-write and quarantined ``.corrupt`` files excluded)."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return
    for name in names:
        if name.endswith(".pkl"):
            yield os.path.join(directory, name)


def directory_stats(directory: str) -> Dict[str, Any]:
    """Shape of an on-disk cache without opening any payloads:
    per-stage blob counts and bytes (from the frame headers alone),
    plus how many quarantined ``.corrupt`` files are lying around."""
    stages: Dict[str, Dict[str, int]] = {}
    blobs = total_bytes = quarantined = unreadable = 0
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        path = os.path.join(directory, name)
        if name.endswith(".corrupt"):
            quarantined += 1
            continue
        if not name.endswith(".pkl"):
            continue
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        stage = blob_stage(path)
        if stage is None:
            unreadable += 1
            continue
        blobs += 1
        total_bytes += size
        slot = stages.setdefault(stage, {"blobs": 0, "bytes": 0})
        slot["blobs"] += 1
        slot["bytes"] += size
    return {"directory": directory, "blobs": blobs,
            "bytes": total_bytes, "stages": stages,
            "quarantined": quarantined, "unreadable": unreadable}


def verify_directory(directory: str, quarantine: bool = True
                     ) -> Dict[str, Any]:
    """Walk every blob and verify its integrity frame (magic, stage,
    SHA-256) without unpickling or running a pipeline.

    Corrupt entries are reported and — with ``quarantine`` — renamed
    to ``<name>.corrupt`` exactly as a live read would have done, so a
    fsck'd cache never feeds a pipeline a bad blob.

    Previously quarantined ``*.corrupt`` files are swept and reported
    too (name, size, originating stage where the frame header is still
    readable) so operators can see the evidence backlog and clear it
    with ``jrpm cache purge --corrupt-only``.
    """
    checked = ok = 0
    corrupt: List[Dict[str, str]] = []
    quarantined: List[Dict[str, Any]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".corrupt"):
            continue
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        quarantined.append({"file": name, "bytes": size,
                            "stage": blob_stage(path) or "?"})
    for path in iter_blob_paths(directory):
        checked += 1
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            corrupt.append({"file": os.path.basename(path),
                            "stage": "?", "error": str(exc)})
            continue
        try:
            unframe_blob(data)
        except CorruptBlobError as exc:
            entry = {"file": os.path.basename(path),
                     "stage": blob_stage(path) or "?",
                     "error": str(exc)}
            if quarantine:
                try:
                    os.replace(path, path + ".corrupt")
                    entry["quarantined"] = "yes"
                except OSError:
                    entry["quarantined"] = "no"
            corrupt.append(entry)
            continue
        ok += 1
    return {"directory": directory, "checked": checked, "ok": ok,
            "corrupt": corrupt, "quarantine": quarantine,
            "quarantined": quarantined}


def purge_directory(directory: str, include_quarantined: bool = True,
                    corrupt_only: bool = False) -> Dict[str, int]:
    """Delete every blob (and, by default, every quarantined
    ``.corrupt`` file), along with the temp files and counter ledgers
    an interrupted write or fleet run left; returns ``{"files": n,
    "bytes": n}`` freed.

    ``corrupt_only`` inverts the sweep: only quarantined ``.corrupt``
    evidence files are removed and live blobs stay untouched — the
    cleanup half of ``jrpm cache verify``'s quarantine report.
    """
    files = freed = 0
    try:
        names = list(os.listdir(directory))
    except OSError:
        names = []
    for name in names:
        if corrupt_only:
            if not name.endswith(".corrupt"):
                continue
        elif not (name.endswith(".pkl")
                  or (include_quarantined and name.endswith(".corrupt"))
                  or ".pkl.tmp." in name
                  or name.endswith(LEDGER_SUFFIX)):
            continue
        path = os.path.join(directory, name)
        try:
            size = os.path.getsize(path)
            os.remove(path)
        except OSError:
            continue
        files += 1
        freed += size
    return {"files": files, "bytes": freed}
