"""Content-addressed, crash-safe on-disk result cache.

A cache entry is keyed by the experiment id plus a *source
fingerprint*: the SHA-256 over the source text of every ``repro.*``
module the experiment's runner transitively imports (discovered
statically from the import statements in each module, so function-local
imports count too).  Editing any module in that closure -- and only in
that closure -- changes the fingerprint and invalidates the entry, so
unchanged experiments return instantly while touched ones re-run.
Fingerprints are memoized per process (:class:`SourceCache`) and
re-validated on each lookup with one ``stat`` per closure file and
package directory, so a repeat lookup does not walk the import graph.

Layout under the cache root::

    <cache_dir>/objects/<experiment_id>--<fingerprint[:24]>.rpc
    <cache_dir>/objects/<...>.rpc.claim    (in-flight computation leases)
    <cache_dir>/quarantine/                (corrupt entries, kept for autopsy)
    <cache_dir>/journal.jsonl              (written by the scheduler)

Crash safety:

* every entry is written **atomically** (unique temp file in the same
  directory, then ``os.replace``), so readers never observe a torn
  entry under normal operation;
* every entry is **checksummed**: the ``.rpc`` container is a magic
  header + SHA-256 digest + pickled payload.  A torn write, bit rot,
  or a foreign file is detected on read and the entry is
  **quarantined** (moved to ``quarantine/``) -- a corrupt entry becomes
  a cache miss, never a wrong result;
* directory creation is race-safe (concurrent ``--jobs`` sweeps on a
  cold cache), and unreadable or foreign files in the cache dir are
  ignored rather than fatal.

Results are pickled so they round-trip exactly (numpy scalars,
tuples); an unpicklable result is simply not cached.

Claims (cross-process dedup):

When several processes -- concurrent CLI sweeps, or service jobs from
different clients -- miss on the same ``(experiment, fingerprint)``
key, only one should compute it.  A **claim** is an advisory lease on
an in-flight entry: a ``<entry>.rpc.claim`` file created with
``O_CREAT | O_EXCL`` (atomic on every platform we care about) holding
the claimant's pid/host/timestamp.  The scheduler acquires the claim
before launching a runner and releases it after the store; a process
that loses the claim race polls for the stored result instead of
recomputing.  Claims are *advisory* and crash-tolerant: a claim whose
process died (same host) or whose age exceeds the TTL is **stale** and
may be broken by any waiter, so a crashed claimant can never wedge the
key -- the worst outcome is the duplicate computation we started with.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import inspect
import itertools
import json
import os
import pickle
import socket
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ReproError
from repro.obs import SIZE_BUCKETS, add_counter, observe, span, wall_now

CACHE_SCHEMA_VERSION = "2"

#: Leading bytes of every valid cache entry file.
ENTRY_MAGIC = b"RPROC2\n"

#: Suffix appended to an entry path to form its claim (lease) file.
CLAIM_SUFFIX = ".claim"

#: Age past which a claim is considered abandoned by any waiter.  Two
#: minutes matches the default per-experiment timeout: a healthy
#: claimant either stores or releases well within it.
DEFAULT_CLAIM_TTL_S = 120.0

_DIGEST_BYTES = 32

_PACKAGE_PREFIX = "repro"

_tmp_counter = itertools.count()


def _is_repro_module(name: str) -> bool:
    return name == _PACKAGE_PREFIX or name.startswith(_PACKAGE_PREFIX + ".")


def _imported_names(source: str, package: str | None) -> set[str]:
    """Module names imported anywhere in ``source`` (repro.* only).

    ``from repro.pdn import grid`` may name either an attribute or a
    submodule, so both ``repro.pdn`` and ``repro.pdn.grid`` are
    returned; non-module candidates are dropped during resolution.
    """
    names: set[str] = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level and package:
                parts = package.split(".")
                if node.level - 1 <= len(parts):
                    base = parts[:len(parts) - (node.level - 1)]
                    module = ".".join(
                        base + ([node.module] if node.module else []))
                else:
                    continue
            elif node.level:
                continue
            else:
                module = node.module or ""
            if module:
                names.add(module)
                for alias in node.names:
                    names.add(f"{module}.{alias.name}")
    return {name for name in names if _is_repro_module(name)}


def _find_source(module_name: str) -> Path | None:
    try:
        spec = importlib.util.find_spec(module_name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or spec.origin is None:
        return None
    path = Path(spec.origin)
    return path if path.suffix == ".py" and path.exists() else None


def _package_of(module_name: str | None, path: Path | None) -> str | None:
    if module_name is None:
        return None
    if path is not None and path.name == "__init__.py":
        return module_name
    return module_name.rpartition(".")[0] or None


#: ``(st_mtime_ns, st_size)`` of a file or directory; ``None`` if absent.
Stamp = tuple[int, int] | None


def _stamp(path: str) -> Stamp:
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size


def _stamps_match(deps: tuple[tuple[str, Stamp], ...]) -> bool:
    return all(_stamp(path) == stamp for path, stamp in deps)


def _search_dirs(parent: str) -> tuple[str, ...]:
    """Directories ``find_spec`` searches for a submodule of ``parent``.

    ``find_spec`` imports the parent package itself; doing it here
    first lets the caller stamp the directories before the search
    lists them.  Top-level names search ``sys.path``, which the
    caller records as a whole.
    """
    if not parent:
        return ()
    try:
        module = importlib.import_module(parent)
    except (ImportError, AttributeError, ValueError):
        return ()
    return tuple(getattr(module, "__path__", None) or ())


def _resolve(names: set[str]) -> tuple[
        tuple[tuple[str, str | None], ...], tuple[tuple[str, Stamp], ...]]:
    """``(targets, searched)`` for a file's imported names.

    ``targets`` holds ``(resolved path, package)`` for every name that
    is a source module; ``searched`` stamps each package directory a
    lookup listed, taken before the lookup, since a module added
    there later can turn an attribute import into a module import.
    """
    targets: list[tuple[str, str | None]] = []
    searched: dict[str, Stamp] = {}
    for name in sorted(names):
        for directory in _search_dirs(name.rpartition(".")[0]):
            if directory not in searched:
                searched[directory] = _stamp(directory)
        target = _find_source(name)
        if target is not None:
            target = target.resolve()
            targets.append((str(target), _package_of(name, target)))
    return tuple(targets), tuple(searched.items())


@dataclass(frozen=True)
class _SourceFile:
    """One source file as a fingerprint walk sees it.

    Valid while the file still has ``stamp``, every ``searched``
    directory keeps its stamp, and ``sys.path`` equals ``sys_path``.
    """

    stamp: Stamp
    package: str | None
    digest: str
    targets: tuple[tuple[str, str | None], ...]
    searched: tuple[tuple[str, Stamp], ...]
    sys_path: tuple[str, ...]


@dataclass(frozen=True)
class _RunnerMemo:
    """A runner's fingerprint and the stamps it was computed under."""

    digest: str
    deps: tuple[tuple[str, Stamp], ...]
    sys_path: tuple[str, ...]


class SourceCache:
    """Memoized source fingerprints, validated by file stamps.

    Two kinds of entry, both checked against fresh ``stat`` stamps on
    every use, so an edit is seen without any explicit invalidation:

    * per file (one entry per path): stamp, SHA-256 and the resolved
      ``repro.*`` import targets, so a file is read, parsed and its
      imports resolved once per process, not once per lookup;
    * per runner (keyed by experiment id, source file and module): the
      digest plus the stamps of every closure file, every package
      directory searched, and ``sys.path``.  A lookup whose stamps all
      match returns the digest after one ``stat`` per dependency.

    Every stamp is taken before the bytes or listing it vouches for
    are read, so a concurrent edit can only force a recompute, never
    pin a stale digest.  Entries are immutable and replaced whole;
    threads racing on one key at worst both compute it.
    """

    def __init__(self) -> None:
        self._files: dict[str, _SourceFile] = {}
        self._runners: dict[tuple[str, str, str | None], _RunnerMemo] = {}

    def fingerprint(self, experiment_id: str,
                    runner: Callable[[], Any]) -> tuple[str, bool]:
        """``(fingerprint, memo hit)`` of ``runner``; see
        :func:`runner_fingerprint`."""
        hasher = hashlib.sha256()
        hasher.update(f"schema:{CACHE_SCHEMA_VERSION}\n".encode())
        hasher.update(f"experiment:{experiment_id}\n".encode())

        module_name = getattr(runner, "__module__", None)
        try:
            source_file = inspect.getsourcefile(runner) or ""
        except TypeError:
            source_file = ""
        start_path = Path(source_file)

        if not (start_path.name and start_path.exists()):
            code = getattr(runner, "__code__", None)
            token = (code.co_code if code is not None
                     else repr(runner).encode())
            hasher.update(b"opaque-runner:")
            hasher.update(token)
            return hasher.hexdigest(), False

        key = (experiment_id, source_file, module_name)
        sys_path = tuple(sys.path)
        memo = self._runners.get(key)
        if (memo is not None and memo.sys_path == sys_path
                and _stamps_match(memo.deps)):
            return memo.digest, True

        deps: dict[str, Stamp] = {}
        entries: list[str] = []
        seen: set[str] = set()
        queue = [(str(start_path.resolve()),
                  _package_of(module_name, start_path))]
        while queue:
            path, package = queue.pop()
            if path in seen:
                continue
            seen.add(path)
            source = self._source_file(path, package, sys_path)
            if source is None:
                deps[path] = None
                continue
            deps[path] = source.stamp
            for directory, stamp in source.searched:
                # The first stamp seen is the oldest, so a listing that
                # moved mid-walk fails the next check.
                deps.setdefault(directory, stamp)
            entries.append(f"{os.path.basename(path)}:{source.digest}")
            queue.extend(target for target in source.targets
                         if target[0] not in seen)
        for entry in sorted(entries):
            hasher.update(entry.encode("utf-8"))
            hasher.update(b"\n")
        digest = hasher.hexdigest()
        self._runners[key] = _RunnerMemo(digest, tuple(deps.items()),
                                         sys_path)
        return digest, False

    def _source_file(self, path: str, package: str | None,
                     sys_path: tuple[str, ...]) -> _SourceFile | None:
        stamp = _stamp(path)
        if stamp is None:
            return None
        entry = self._files.get(path)
        if (entry is not None and entry.stamp == stamp
                and entry.package == package and entry.sys_path == sys_path
                and _stamps_match(entry.searched)):
            return entry
        try:
            source = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        try:
            names = _imported_names(source, package)
        except SyntaxError:
            names = set()
        targets, searched = _resolve(names)
        entry = _SourceFile(stamp, package, digest, targets, searched,
                            sys_path)
        self._files[path] = entry
        return entry


_SOURCES = SourceCache()


def runner_fingerprint(experiment_id: str,
                       runner: Callable[[], Any]) -> str:
    """Fingerprint of ``runner``'s transitive repro source closure.

    Starts from the file defining the runner (which may live outside
    the package, e.g. a test module), walks ``repro.*`` imports
    breadth-first, and hashes every reachable module's source together
    with the experiment id.  Runners with no retrievable source (C
    builtins, REPL lambdas) fall back to hashing whatever identity
    ``inspect`` can provide, which disables sharing but stays safe.
    Repeat calls are served by the process-wide :class:`SourceCache`
    while no dependency's stamp has moved.
    """
    with span("cache.fingerprint", experiment=experiment_id) as fp_span:
        digest, hit = _SOURCES.fingerprint(experiment_id, runner)
        fp_span.set(memo="hit" if hit else "miss")
    # Both counters are always bumped (one by 0) so a summary shows a
    # zero rather than omitting the name.
    add_counter("cache.fingerprint_memo_hits", int(hit))
    add_counter("cache.fingerprint_memo_misses", int(not hit))
    return digest


def ensure_dir(path: Path) -> Path:
    """Race-safe ``mkdir -p``: concurrent creators all succeed.

    ``Path.mkdir(parents=True, exist_ok=True)`` already tolerates the
    create/create race; what it does not tolerate is a non-directory
    squatting on the path, which we surface as a :class:`ReproError`
    instead of a bare ``OSError`` from deep inside a sweep.
    """
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        raise ReproError(
            f"cache path {path} exists but is not a directory") from exc
    except NotADirectoryError as exc:
        raise ReproError(
            f"a parent of cache path {path} is a regular file") from exc
    return path


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/store/quarantine counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    claims: int = 0
    claim_waits: int = 0
    claims_broken: int = 0


@dataclass(frozen=True)
class ClaimInfo:
    """Who holds (or held) an in-flight entry's lease."""

    pid: int
    host: str
    created_at: float  # wall_now() unix-scale stamp

    def age_s(self, now: float | None = None) -> float:
        return max(0.0, (wall_now() if now is None else now)
                   - self.created_at)

    def holder_alive(self) -> bool | None:
        """Liveness of the claiming process.

        ``True``/``False`` when the claim was taken on this host (pid
        probe-able with ``os.kill(pid, 0)``), ``None`` when it came
        from another machine and only the TTL can judge it.
        """
        if self.host != socket.gethostname():
            return None
        if self.pid <= 0:
            return False
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return False
        except (OSError, PermissionError):
            return True  # exists, just not ours to signal
        return True


class ResultCache:
    """Checksummed result store addressed by (experiment id, fingerprint)."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._quarantined = 0
        self._claims = 0
        self._claim_waits = 0
        self._claims_broken = 0

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, experiment_id: str, fingerprint: str) -> Path:
        return self.objects_dir / f"{experiment_id}--{fingerprint[:24]}.rpc"

    # -- entry encoding -----------------------------------------------

    @staticmethod
    def encode_entry(entry: dict) -> bytes:
        """Serialise an entry dict into the checksummed container."""
        payload = pickle.dumps(entry)
        digest = hashlib.sha256(payload).digest()
        return ENTRY_MAGIC + digest + payload

    @staticmethod
    def decode_entry(blob: bytes) -> dict:
        """Verify and deserialise a container; raises ``ValueError``."""
        if not blob.startswith(ENTRY_MAGIC):
            raise ValueError("bad magic: not a cache entry")
        body = blob[len(ENTRY_MAGIC):]
        if len(body) < _DIGEST_BYTES:
            raise ValueError("truncated entry header")
        digest, payload = body[:_DIGEST_BYTES], body[_DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("checksum mismatch (torn or corrupt write)")
        entry = pickle.loads(payload)
        if not isinstance(entry, dict):
            raise ValueError("entry payload is not a dict")
        return entry

    # -- quarantine ---------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside; never raises."""
        target = (self.quarantine_dir
                  / f"{path.name}.{os.getpid()}.{next(_tmp_counter)}")
        with span("cache.quarantine", entry=path.name):
            try:
                ensure_dir(self.quarantine_dir)
                os.replace(path, target)
            except (OSError, ReproError):
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    return
        self._quarantined += 1
        add_counter("cache.quarantined")

    # -- public API ---------------------------------------------------

    def get(self, experiment_id: str,
            fingerprint: str) -> tuple[bool, Any]:
        """Return ``(hit, result)``.

        A missing entry is a miss; an unreadable entry is a miss; a
        corrupt (torn, bit-rotted, foreign, or wrong-fingerprint) entry
        is quarantined and reported as a miss.  No code path returns a
        result that failed its checksum.
        """
        path = self.path_for(experiment_id, fingerprint)
        with span("cache.read", experiment=experiment_id) as read_span:
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                self._misses += 1
                add_counter("cache.misses")
                return False, None
            except OSError:
                # unreadable (permissions, I/O error): ignore, don't crash
                self._misses += 1
                add_counter("cache.misses")
                return False, None
            try:
                entry = self.decode_entry(blob)
                if entry.get("fingerprint") != fingerprint:
                    raise ValueError("fingerprint mismatch")
            except Exception:
                self._quarantine(path)
                self._misses += 1
                add_counter("cache.misses")
                return False, None
            read_span.set(hit=True, bytes=len(blob))
            observe("cache.entry_bytes", len(blob), SIZE_BUCKETS,
                    op="read")
        try:
            # Touch-on-read keeps mtime ~= last access, which is what
            # the shared store's LRU eviction orders entries by.
            os.utime(path)
        except OSError:
            pass
        self._hits += 1
        add_counter("cache.hits")
        return True, entry["result"]

    def put(self, experiment_id: str, fingerprint: str,
            result: Any) -> bool:
        """Store atomically (write-then-rename); False if not storable."""
        path = self.path_for(experiment_id, fingerprint)
        entry = {
            "experiment_id": experiment_id,
            "fingerprint": fingerprint,
            "created_at": wall_now(),
            "result": result,
        }
        with span("cache.write", experiment=experiment_id) as write_span:
            try:
                blob = self.encode_entry(entry)
            except Exception:
                return False
            tmp = path.parent / (f".tmp-{experiment_id}-{os.getpid()}"
                                 f"-{next(_tmp_counter)}")
            try:
                ensure_dir(path.parent)
                tmp.write_bytes(blob)
                os.replace(tmp, path)
            except OSError:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
                return False
            write_span.set(bytes=len(blob))
            observe("cache.entry_bytes", len(blob), SIZE_BUCKETS,
                    op="write")
        self._stores += 1
        add_counter("cache.stores")
        return True

    # -- claims (in-flight entry leases) ------------------------------

    def claim_path(self, experiment_id: str, fingerprint: str) -> Path:
        return Path(str(self.path_for(experiment_id, fingerprint))
                    + CLAIM_SUFFIX)

    def claim(self, experiment_id: str, fingerprint: str) -> bool:
        """Try to lease the in-flight entry; True if this process won.

        The claim is written to a private temp file and hard-linked
        into place: the link fails if the claim exists, so exactly one
        of any number of simultaneous claimants succeeds, and the claim
        appears with its body already in it.  (Created empty and then
        written, a waiter reading in between would parse no holder and
        break the claim as stale.)  Failure to create for any other
        reason (read-only cache, I/O error) is reported as an acquired
        claim: claims are an optimisation, and a cache that cannot hold
        leases must never block computation.
        """
        path = self.claim_path(experiment_id, fingerprint)
        body = json.dumps({
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "created_at": wall_now(),
        }).encode("utf-8")
        tmp = path.parent / (f".tmp-claim-{os.getpid()}"
                             f"-{next(_tmp_counter)}")
        try:
            ensure_dir(path.parent)
            tmp.write_bytes(body)
            os.link(tmp, path)
        except FileExistsError:
            return False
        except (OSError, ReproError):
            return True
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
        self._claims += 1
        add_counter("cache.claims")
        return True

    def claim_holder(self, experiment_id: str,
                     fingerprint: str) -> ClaimInfo | None:
        """Parse the current claim; ``None`` when the key is unclaimed.

        A claim file that cannot be parsed (torn write, foreign
        content) reports an ancient zero-stamp holder, which every
        staleness check treats as breakable.
        """
        return self._claim_info_at(
            self.claim_path(experiment_id, fingerprint))

    @staticmethod
    def claim_is_stale(info: ClaimInfo,
                       ttl_s: float = DEFAULT_CLAIM_TTL_S) -> bool:
        """True when a waiter may break this claim and take over."""
        if info.age_s() > ttl_s:
            return True
        return info.holder_alive() is False

    def release_claim(self, experiment_id: str,
                      fingerprint: str) -> None:
        """Drop this process's lease (missing file is fine)."""
        try:
            self.claim_path(experiment_id, fingerprint).unlink()
        except OSError:
            pass

    def break_claim(self, experiment_id: str, fingerprint: str) -> None:
        """Forcibly remove a stale claim so a waiter can take over."""
        try:
            self.claim_path(experiment_id, fingerprint).unlink()
        except OSError:
            return
        self._claims_broken += 1
        add_counter("cache.claims_broken")

    def _claim_info_at(self, path: Path) -> ClaimInfo | None:
        """Parse the claim file at ``path`` (same rules as claim_holder)."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return ClaimInfo(pid=int(payload["pid"]),
                             host=str(payload["host"]),
                             created_at=float(payload["created_at"]))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            if not path.exists():
                return None
            return ClaimInfo(pid=0, host="", created_at=0.0)

    def sweep_stale_claims(self,
                           ttl_s: float = DEFAULT_CLAIM_TTL_S) -> int:
        """Break every stale claim under the objects dir; returns count.

        Waiters already break a dead-pid claim the moment they contest
        it, but a claim with no active waiter -- a worker SIGKILLed
        mid-compute, a daemon that died with leases held -- would
        otherwise linger until the next contender shows up, shielding
        its entry from store pruning the whole time.  The daemon runs
        this sweep on startup recovery and the store manager before
        pruning.
        """
        if not self.objects_dir.is_dir():
            return 0
        broken = 0
        try:
            claim_paths = list(
                self.objects_dir.glob("*.rpc" + CLAIM_SUFFIX))
        except OSError:
            return 0
        for path in claim_paths:
            info = self._claim_info_at(path)
            if info is None or not self.claim_is_stale(info, ttl_s):
                continue
            try:
                path.unlink()
            except OSError:
                continue
            broken += 1
            self._claims_broken += 1
            add_counter("cache.claims_broken")
        return broken

    def note_claim_wait(self) -> None:
        """Count one task that waited on a foreign claim."""
        self._claim_waits += 1
        add_counter("cache.claim_waits")

    def claim_count(self) -> int:
        """Live claim files under the objects directory."""
        if not self.objects_dir.is_dir():
            return 0
        try:
            return sum(1 for _ in
                       self.objects_dir.glob("*.rpc" + CLAIM_SUFFIX))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every cache object; returns the number removed."""
        removed = 0
        for directory in (self.objects_dir, self.quarantine_dir):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.rpc*"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.objects_dir.is_dir():
            return 0
        try:
            return sum(1 for _ in self.objects_dir.glob("*.rpc"))
        except OSError:
            return 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses,
                          stores=self._stores,
                          quarantined=self._quarantined,
                          claims=self._claims,
                          claim_waits=self._claim_waits,
                          claims_broken=self._claims_broken)
