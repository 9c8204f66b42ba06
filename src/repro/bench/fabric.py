"""Distributed sweep fabric: leasable shards, work-stealing workers.

:class:`~repro.bench.runner.CheckpointedSweep` already journals every
grid cell atomically and resumes bit-identically — but it is a single
process (plus its local pool).  This module fans the same journal out
across any number of worker *processes or hosts* that share one
directory (NFS, a bind-mounted volume, a plain local dir):

* a **shard planner** splits the spec's canonical cell list into
  leasable shards, balanced by measured per-cell compute seconds when a
  previous journal recorded them (``compute_seconds`` in the checkpoint
  payloads) and by a static cost model otherwise;
* **leases** are ``O_CREAT | O_EXCL`` files under ``<out>/leases/`` —
  creation is the atomic test-and-set, the file's mtime is the owner's
  heartbeat, and a lease whose mtime is older than the TTL is *expired*
  and may be stolen;
* **workers** (:class:`FabricWorker`, ``repro sweep --fabric``) claim
  shards, compute their cells through the very same journal writes the
  solo runner uses, renew heartbeats from a background thread, and
  work-steal expired leases when their own claims run dry;
* the **merge** (:func:`fabric_merge`, ``repro sweep --merge``) verifies
  every shard's and worker's spec fingerprint, requires every cell to be
  journaled or quarantined, and emits a ``sweep.json`` byte-identical to
  a solo :class:`CheckpointedSweep` run of the same spec.

Safety model — leases are an *efficiency* mechanism, not a correctness
one.  Cells are deterministic functions of ``(spec, cell)`` and their
checkpoints are written with atomic replace, so if a heartbeat race ever
lets two workers compute the same cell, both write byte-identical
payloads and the journal stays sound.  What the protocol guarantees:

* of N workers racing one shard, exactly one ``O_EXCL`` create wins;
* a SIGKILLed worker stops heartbeating, its leases expire after the
  TTL, and survivors reclaim the shards with no lost cells;
* a worker that loses a lease (its heartbeat finds another owner's id
  in the file) abandons the shard instead of double-journaling it.

Directory layout (shared by all workers)::

    out_dir/
      manifest.json        # SweepSpec + fingerprint (CheckpointedSweep's)
      shards.json          # the shard plan, fingerprint-stamped per shard
      cells/<cell>.json    # the ordinary cell journal
      leases/<shard>.lease # O_EXCL lease files, mtime = heartbeat
      quarantine/<cell>.json  # per-cell failure records (per worker)
      workers/<id>.json    # per-worker stats (cells/sec, steals, ...)
      sweep.json           # written by the merge step only
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.microbench import SweepPoint
from repro.bench.runner import (
    CheckpointedSweep,
    SweepSpec,
    cell_costs,
    cell_filename,
    compute_cell,
)
from repro.util.atomicio import atomic_write_json, exclusive_create_text

__all__ = [
    "Shard",
    "ShardPlan",
    "plan_shards",
    "ensure_plan",
    "static_cell_cost",
    "journaled_cell_costs",
    "FabricWorker",
    "WorkerStats",
    "run_fabric_worker",
    "fabric_merge",
    "FabricMergeResult",
    "fabric_status",
    "FabricStatus",
    "FabricError",
    "FabricFingerprintError",
    "FabricIncompleteError",
    "DEFAULT_LEASE_TTL",
]

#: Seconds without a heartbeat after which a lease is stealable.
DEFAULT_LEASE_TTL = 30.0


class FabricError(RuntimeError):
    """Base class for fabric protocol failures."""


class FabricFingerprintError(FabricError):
    """A shard plan, cell or worker record belongs to a different spec."""


class FabricIncompleteError(FabricError):
    """Merge requested while cells are still pending (and not quarantined)."""


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One leasable unit of work: a named subset of the grid's cells."""

    shard_id: str
    cells: Tuple[str, ...]
    cost: float
    fingerprint: str


@dataclass(frozen=True)
class ShardPlan:
    """The full shard decomposition of one spec's cell grid."""

    fingerprint: str
    shards: Tuple[Shard, ...]

    def to_dict(self) -> Dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "fingerprint": self.fingerprint,
            "shards": [asdict(s) for s in self.shards],
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "ShardPlan":
        shards = tuple(
            Shard(
                shard_id=str(s["shard_id"]),
                cells=tuple(s["cells"]),
                cost=float(s["cost"]),
                fingerprint=str(s["fingerprint"]),
            )
            for s in d["shards"]
        )
        return cls(fingerprint=str(d["fingerprint"]), shards=shards)


def static_cell_cost(spec: SweepSpec, cell: str) -> float:
    """Planner's prior when no measured cost exists for ``cell``.

    A tuned cell prices one schedule set per restoration strategy (plus
    the reordering itself); a base cell prices a single set.
    """
    return float(max(1, len(spec.strategies))) if cell.startswith("tuned::") else 1.0


def journaled_cell_costs(spec: SweepSpec, out_dir) -> Dict[str, float]:
    """Measured ``compute_seconds`` from an existing journal, by cell.

    Lets a re-planned (or resumed) fabric balance shards by *measured*
    cost; cells never journaled — or journaled by a pre-cost version —
    are simply absent.
    """
    return cell_costs(CheckpointedSweep(spec, out_dir).collect_cells()[0])


def plan_shards(
    spec: SweepSpec,
    n_shards: Optional[int] = None,
    cell_costs: Optional[Dict[str, float]] = None,
    workers_hint: int = 4,
) -> ShardPlan:
    """Split the spec's cells into cost-balanced shards (LPT greedy).

    Deterministic: cells are taken in descending cost (canonical order
    breaking ties) and each goes to the currently lightest shard.  Costs
    come from ``cell_costs`` (measured seconds, see
    :func:`journaled_cell_costs`) with :func:`static_cell_cost` filling
    the gaps.  The default shard count over-decomposes ~2x past the
    expected worker count so work-stealing has spare granularity.
    """
    cells = spec.cells()
    if n_shards is None:
        n_shards = min(len(cells), max(2 * max(1, workers_hint), -(-len(cells) // 4)))
    n_shards = max(1, min(int(n_shards), len(cells)))
    costs = {
        cell: float((cell_costs or {}).get(cell, static_cell_cost(spec, cell)))
        for cell in cells
    }
    order = sorted(range(len(cells)), key=lambda i: (-costs[cells[i]], i))
    loads = [0.0] * n_shards
    members: List[List[int]] = [[] for _ in range(n_shards)]
    for i in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += costs[cells[i]]
        members[target].append(i)
    fp = spec.fingerprint()
    width = max(3, len(str(n_shards - 1)))
    shards = tuple(
        Shard(
            shard_id=f"s{idx:0{width}d}",
            cells=tuple(cells[i] for i in sorted(member)),
            cost=loads[idx],
            fingerprint=fp,
        )
        for idx, member in enumerate(members)
        if member
    )
    return ShardPlan(fingerprint=fp, shards=shards)


def _plan_path(out_dir) -> Path:
    return Path(out_dir) / "shards.json"


def _load_plan(out_dir, expected_fp: str, retries: int = 20) -> ShardPlan:
    """Read ``shards.json``, tolerating a concurrent writer's window."""
    path = _plan_path(out_dir)
    for attempt in range(retries):
        try:
            plan = ShardPlan.from_dict(json.loads(path.read_text()))
            break
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            # O_EXCL-created file may be momentarily empty; wait it out.
            if attempt == retries - 1:
                raise FabricError(f"{path}: unreadable shard plan")
            time.sleep(0.05)
    if plan.fingerprint != expected_fp:
        raise FabricFingerprintError(
            f"{path}: shard plan fingerprint {plan.fingerprint!r} != "
            f"manifest {expected_fp!r}"
        )
    for shard in plan.shards:
        if shard.fingerprint != expected_fp:
            raise FabricFingerprintError(
                f"{path}: shard {shard.shard_id} fingerprint "
                f"{shard.fingerprint!r} != manifest {expected_fp!r}"
            )
    return plan


def ensure_plan(
    spec: SweepSpec,
    out_dir,
    n_shards: Optional[int] = None,
    workers_hint: int = 4,
) -> ShardPlan:
    """Create-or-join the shard plan for ``out_dir`` (race-safe).

    The first worker to arrive plans (balancing by any costs already in
    the journal) and publishes via ``O_EXCL``; every later worker — and
    the first one losing the race — loads the published plan.  All paths
    verify the plan's fingerprint against the spec.
    """
    path = _plan_path(out_dir)
    fp = spec.fingerprint()
    if not path.exists():
        plan = plan_shards(
            spec,
            n_shards=n_shards,
            cell_costs=journaled_cell_costs(spec, out_dir),
            workers_hint=workers_hint,
        )
        body = json.dumps(plan.to_dict(), indent=1) + "\n"
        if exclusive_create_text(path, body):
            return plan
    return _load_plan(out_dir, fp)


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------
def _leases_dir(out_dir) -> Path:
    return Path(out_dir) / "leases"


def _lease_path(out_dir, shard_id: str) -> Path:
    return _leases_dir(out_dir) / f"{shard_id}.lease"


def _read_lease_owner(path: Path) -> Optional[str]:
    """The owner id inside a lease file; None if unreadable/partial."""
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None  # mid-create window or torn body: existence still counts
    if isinstance(payload, dict) and isinstance(payload.get("owner"), str):
        return payload["owner"]
    return None


def try_acquire_lease(
    out_dir, shard_id: str, owner: str, ttl: float
) -> Tuple[bool, bool, bool]:
    """Attempt to claim one shard: ``(acquired, stolen, contended)``.

    Fresh claim: an ``O_EXCL`` create of the lease file (exactly one of
    any number of racers wins).  Steal: a lease whose mtime is older
    than ``ttl`` is unlinked — guarded by re-checking the mtime did not
    advance — and then re-created ``O_EXCL``; losing any step of that
    race simply reports contention.
    """
    path = _lease_path(out_dir, shard_id)
    body = json.dumps(
        {"owner": owner, "shard": shard_id, "claimed_unix": time.time()}
    )
    if exclusive_create_text(path, body):
        return True, False, False
    try:
        st = path.stat()
    except FileNotFoundError:
        # released/stolen between our create attempt and the stat
        return (exclusive_create_text(path, body), False, True)
    if time.time() - st.st_mtime <= ttl:
        return False, False, True  # live lease
    # expired: steal.  Re-stat right before unlink so an owner whose
    # heartbeat just landed keeps its lease.
    try:
        if path.stat().st_mtime_ns != st.st_mtime_ns:
            return False, False, True
        path.unlink()
    except FileNotFoundError:
        return False, False, True  # another thief was faster
    if exclusive_create_text(path, body):
        return True, True, False
    return False, False, True


def renew_lease(out_dir, shard_id: str, owner: str) -> bool:
    """Advance the heartbeat iff the lease still names ``owner``."""
    path = _lease_path(out_dir, shard_id)
    if _read_lease_owner(path) != owner:
        return False
    try:
        os.utime(path)
    except FileNotFoundError:
        return False
    return True


def release_lease(out_dir, shard_id: str, owner: str) -> bool:
    """Drop the lease iff it is still ours."""
    path = _lease_path(out_dir, shard_id)
    if _read_lease_owner(path) != owner:
        return False
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    return True


class _Heartbeat(threading.Thread):
    """Renews one lease every ``interval`` seconds until stopped.

    Sets :attr:`lost` (and exits) the moment a renewal finds the lease
    gone or owned by someone else — the worker polls that flag between
    cells and abandons the shard.  A SIGKILL kills this thread with the
    process, which is exactly what lets the lease expire.
    """

    def __init__(self, out_dir, shard_id: str, owner: str, interval: float) -> None:
        super().__init__(daemon=True, name=f"lease-{shard_id}")
        self._args = (out_dir, shard_id, owner)
        self._interval = interval
        # (not named _stop: that would shadow threading.Thread internals)
        self._halt = threading.Event()
        self.lost = threading.Event()

    def run(self) -> None:  # pragma: no cover - exercised via FabricWorker
        while not self._halt.wait(self._interval):
            if not renew_lease(*self._args):
                self.lost.set()
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """One worker's contribution to a fabric run (persisted to JSON)."""

    worker_id: str
    fingerprint: str
    cells_computed: int = 0
    cells_skipped: int = 0
    cells_quarantined: int = 0
    shards_claimed: int = 0
    steals: int = 0
    lease_contention: int = 0
    leases_lost: int = 0
    compute_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    cells_per_sec: float = 0.0


def _quarantine_dir(out_dir) -> Path:
    return Path(out_dir) / "quarantine"


def _quarantine_path(out_dir, cell: str) -> Path:
    return _quarantine_dir(out_dir) / cell_filename(cell)


class FabricWorker:
    """One fabric participant: claim shards, compute cells, heartbeat.

    ``spec=None`` *joins* an existing fabric directory (the spec comes
    from its manifest, exactly like ``CheckpointedSweep.resume``);
    passing a spec creates the fabric on first arrival — manifest and
    shard plan writes are race-safe, so any number of workers may be
    started with identical flags simultaneously.
    """

    def __init__(
        self,
        out_dir,
        spec: Optional[SweepSpec] = None,
        worker_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        n_shards: Optional[int] = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.25,
        poll_interval: Optional[float] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.out_dir = Path(out_dir)
        if spec is None:
            self._cs = CheckpointedSweep.resume(
                self.out_dir, max_retries=max_retries, backoff_seconds=backoff_seconds
            )
        else:
            self._cs = CheckpointedSweep(
                spec, self.out_dir, max_retries=max_retries,
                backoff_seconds=backoff_seconds,
            )
        self.spec = self._cs.spec
        self.worker_id = worker_id or f"{platform.node() or 'worker'}-{os.getpid()}"
        self.lease_ttl = float(lease_ttl)
        self.n_shards = n_shards
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.poll_interval = (
            float(poll_interval)
            if poll_interval is not None
            else min(0.5, max(0.05, self.lease_ttl / 5.0))
        )
        self.stats = WorkerStats(
            worker_id=self.worker_id, fingerprint=self.spec.fingerprint()
        )
        self._covered: set = set()

    # ------------------------------------------------------------------
    def _prepare(self) -> ShardPlan:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._cs.cells_dir.mkdir(exist_ok=True)
        _leases_dir(self.out_dir).mkdir(exist_ok=True)
        _quarantine_dir(self.out_dir).mkdir(exist_ok=True)
        (self.out_dir / "workers").mkdir(exist_ok=True)
        self._cs._write_manifest()
        return ensure_plan(self.spec, self.out_dir, n_shards=self.n_shards)

    def _is_covered(self, cell: str) -> bool:
        """Done-or-quarantined, with a positive-result cache."""
        if cell in self._covered:
            return True
        if self._cs._load_cell(cell) is not None or _quarantine_path(
            self.out_dir, cell
        ).is_file():
            self._covered.add(cell)
            return True
        return False

    def run(self) -> WorkerStats:
        """Work until every cell in the plan is journaled or quarantined."""
        t0 = time.perf_counter()
        plan = self._prepare()
        shards = list(plan.shards)
        if shards:
            offset = zlib.crc32(self.worker_id.encode()) % len(shards)
            shards = shards[offset:] + shards[:offset]
        with self._cs._mapping_cache_env():
            while True:
                claimed_any = False
                outstanding = False
                for shard in shards:
                    todo = [c for c in shard.cells if not self._is_covered(c)]
                    if not todo:
                        continue
                    outstanding = True
                    acquired, stolen, contended = try_acquire_lease(
                        self.out_dir, shard.shard_id, self.worker_id, self.lease_ttl
                    )
                    self.stats.lease_contention += int(contended)
                    if not acquired:
                        continue
                    claimed_any = True
                    self.stats.shards_claimed += 1
                    self.stats.steals += int(stolen)
                    self._run_shard(shard)
                if not outstanding:
                    break
                if not claimed_any:
                    # everything left is leased by live workers: wait for
                    # them to finish (or for their leases to expire).
                    time.sleep(self.poll_interval)
        self.stats.elapsed_seconds = time.perf_counter() - t0
        done_cells = self.stats.cells_computed
        self.stats.cells_per_sec = (
            done_cells / self.stats.elapsed_seconds
            if self.stats.elapsed_seconds > 0
            else 0.0
        )
        atomic_write_json(
            self.out_dir / "workers" / f"{self.worker_id}.json", asdict(self.stats)
        )
        return self.stats

    # ------------------------------------------------------------------
    def _run_shard(self, shard: Shard) -> None:
        """Compute a claimed shard's cells under a heartbeat thread."""
        hb = _Heartbeat(
            self.out_dir,
            shard.shard_id,
            self.worker_id,
            interval=max(0.05, self.lease_ttl / 4.0),
        )
        hb.start()
        try:
            for cell in shard.cells:
                if hb.lost.is_set():
                    self.stats.leases_lost += 1
                    return  # lease stolen: the thief owns the rest
                if self._is_covered(cell):
                    self.stats.cells_skipped += 1
                    continue
                self._run_cell(cell)
        finally:
            hb.stop()
            if not hb.lost.is_set():
                release_lease(self.out_dir, shard.shard_id, self.worker_id)

    def _run_cell(self, cell: str) -> None:
        """One cell with bounded retries; quarantine on exhaustion."""
        last_error = "unknown error"
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(min(self.backoff_seconds * (2 ** (attempt - 1)), 10.0))
            try:
                payload = compute_cell(self.spec, cell)
            except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            atomic_write_json(self._cs._cell_path(cell), payload)
            self._covered.add(cell)
            self.stats.cells_computed += 1
            self.stats.compute_seconds += float(payload.get("compute_seconds", 0.0))
            return
        atomic_write_json(
            _quarantine_path(self.out_dir, cell),
            {"cell": cell, "error": last_error, "worker": self.worker_id},
        )
        self._covered.add(cell)
        self.stats.cells_quarantined += 1


def run_fabric_worker(
    out_dir,
    spec: Optional[SweepSpec] = None,
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    n_shards: Optional[int] = None,
    max_retries: int = 2,
    poll_interval: Optional[float] = None,
) -> WorkerStats:
    """Module-level worker entry point (picklable for process fan-out)."""
    return FabricWorker(
        out_dir,
        spec=spec,
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        n_shards=n_shards,
        max_retries=max_retries,
        poll_interval=poll_interval,
    ).run()


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
@dataclass
class FabricMergeResult:
    """What the fingerprint-verified merge combined (and from whom)."""

    points: List[SweepPoint]
    out_dir: Path
    fingerprint: str
    p: int
    n_cells: int
    n_shards: int
    quarantined: Dict[str, str] = field(default_factory=dict)
    workers: List[Dict] = field(default_factory=list)
    steals: int = 0
    lease_contention: int = 0
    cell_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable merge report: per-worker table + quarantine."""
        lines = [
            f"fabric merge: {len(self.points)} points from {self.n_cells} cells "
            f"across {self.n_shards} shards (fingerprint {self.fingerprint})",
        ]
        if self.workers:
            lines.append(
                f"  {'worker':>24} {'cells':>6} {'skip':>5} {'steals':>7} "
                f"{'contend':>8} {'cells/s':>8}"
            )
            for w in self.workers:
                lines.append(
                    f"  {w['worker_id']:>24} {w['cells_computed']:>6} "
                    f"{w['cells_skipped']:>5} {w['steals']:>7} "
                    f"{w['lease_contention']:>8} {w['cells_per_sec']:>8.2f}"
                )
            lines.append(
                f"  total steals {self.steals}, lease contention {self.lease_contention}"
            )
        for cell, err in sorted(self.quarantined.items()):
            lines.append(f"  quarantined {cell}: {err}")
        return "\n".join(lines)


def _read_quarantine(out_dir) -> Dict[str, str]:
    qdir = _quarantine_dir(out_dir)
    out: Dict[str, str] = {}
    if not qdir.is_dir():
        return out
    for path in sorted(qdir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue  # torn quarantine record: the cell stays pending
        if isinstance(payload, dict) and isinstance(payload.get("cell"), str):
            out[payload["cell"]] = str(payload.get("error", "unknown error"))
    return out


def _read_worker_stats(out_dir, expected_fp: str) -> List[Dict]:
    wdir = Path(out_dir) / "workers"
    out: List[Dict] = []
    if not wdir.is_dir():
        return out
    for path in sorted(wdir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue  # a worker died mid-write; its cells still count
        if not isinstance(payload, dict):
            continue
        if payload.get("fingerprint") != expected_fp:
            raise FabricFingerprintError(
                f"{path}: worker fingerprint {payload.get('fingerprint')!r} "
                f"!= manifest {expected_fp!r}"
            )
        out.append(payload)
    return out


def fabric_merge(out_dir) -> FabricMergeResult:
    """Verify fingerprints shard by shard, then combine the journal.

    Every shard in the plan, every journaled cell (via the runner's own
    ``_load_cell`` gate) and every worker record must carry the
    manifest's spec fingerprint.  Cells neither journaled nor
    quarantined abort the merge (:class:`FabricIncompleteError`) — a
    partial fabric is resumed by running more workers, not by merging.
    The ``sweep.json`` written here goes through
    :meth:`CheckpointedSweep.write_merged`, so it is byte-identical to a
    solo run of the same spec.
    """
    cs = CheckpointedSweep.resume(out_dir)
    fp = cs.spec.fingerprint()
    plan = _load_plan(out_dir, fp)
    planned = [cell for shard in plan.shards for cell in shard.cells]
    if sorted(planned) != sorted(cs.spec.cells()):
        raise FabricError(
            f"{_plan_path(out_dir)}: shard plan does not cover the spec's "
            f"cell grid exactly"
        )
    done, pending = cs.collect_cells()
    quarantined = _read_quarantine(out_dir)
    quarantined = {c: e for c, e in quarantined.items() if c not in done}
    missing = [c for c in pending if c not in quarantined]
    if missing:
        raise FabricIncompleteError(
            f"{out_dir}: {len(missing)} cell(s) neither journaled nor "
            f"quarantined (e.g. {missing[0]!r}); run more workers, then merge"
        )
    workers = _read_worker_stats(out_dir, fp)
    if quarantined:
        atomic_write_json(Path(out_dir) / "quarantine.json", quarantined)
    points = cs.write_merged(done)
    return FabricMergeResult(
        points=points,
        out_dir=Path(out_dir),
        fingerprint=fp,
        p=8 * cs.spec.n_nodes,
        n_cells=len(done),
        n_shards=len(plan.shards),
        quarantined=quarantined,
        workers=workers,
        steals=sum(int(w.get("steals", 0)) for w in workers),
        lease_contention=sum(int(w.get("lease_contention", 0)) for w in workers),
        cell_seconds=cell_costs(done),
    )


# ----------------------------------------------------------------------
# status (read-only)
# ----------------------------------------------------------------------
@dataclass
class ShardStatus:
    """One row of the live lease table."""

    shard_id: str
    n_cells: int
    n_done: int
    state: str            # done | leased | expired | unleased
    owner: Optional[str]
    heartbeat_age: Optional[float]


@dataclass
class FabricStatus:
    """Read-only snapshot of a sweep journal and its fabric state."""

    out_dir: Path
    fingerprint: str
    n_cells: int
    n_done: int
    n_pending: int
    n_quarantined: int
    cell_seconds: Dict[str, float]
    shards: List[ShardStatus] = field(default_factory=list)

    def format(self, lease_ttl: float = DEFAULT_LEASE_TTL) -> str:
        """Render counts, cost spread and the live shard-lease table."""
        lines = [
            f"sweep journal {self.out_dir} (fingerprint {self.fingerprint})",
            f"  cells: {self.n_cells} total, {self.n_done} done, "
            f"{self.n_pending} pending, {self.n_quarantined} quarantined",
        ]
        if self.cell_seconds:
            values = sorted(self.cell_seconds.values())
            med = values[len(values) // 2]
            lines.append(
                f"  cell cost: min {values[0]:.3f}s / median {med:.3f}s / "
                f"max {values[-1]:.3f}s over {len(values)} measured"
            )
        if self.shards:
            lines.append(
                f"  {'shard':>6} {'cells':>6} {'done':>5} {'state':>9} "
                f"{'owner':>24} {'beat-age':>9}"
            )
            for s in self.shards:
                age = f"{s.heartbeat_age:>8.1f}s" if s.heartbeat_age is not None else (
                    " " * 9
                )
                lines.append(
                    f"  {s.shard_id:>6} {s.n_cells:>6} {s.n_done:>5} "
                    f"{s.state:>9} {(s.owner or '-'):>24} {age}"
                )
        else:
            lines.append("  no shard plan (solo journal)")
        return "\n".join(lines)


def fabric_status(out_dir, lease_ttl: float = DEFAULT_LEASE_TTL) -> FabricStatus:
    """Inspect a journal without touching it (works mid-run).

    Purely read-only: no directory creation, no lease mutation — safe to
    point at a fabric other workers are actively computing.
    """
    cs = CheckpointedSweep.resume(out_dir)
    fp = cs.spec.fingerprint()
    done, pending = cs.collect_cells()
    quarantined = _read_quarantine(out_dir)
    status = FabricStatus(
        out_dir=Path(out_dir),
        fingerprint=fp,
        n_cells=len(cs.spec.cells()),
        n_done=len(done),
        n_pending=len([c for c in pending if c not in quarantined]),
        n_quarantined=len([c for c in quarantined if c not in done]),
        cell_seconds=cell_costs(done),
    )
    if not _plan_path(out_dir).is_file():
        return status
    plan = _load_plan(out_dir, fp)
    now = time.time()
    for shard in plan.shards:
        n_done = sum(
            1
            for c in shard.cells
            if c in done or (c in quarantined and c not in done)
        )
        lease = _lease_path(out_dir, shard.shard_id)
        owner: Optional[str] = None
        age: Optional[float] = None
        if n_done == len(shard.cells):
            state = "done"
        else:
            try:
                st = lease.stat()
            except FileNotFoundError:
                state = "unleased"
            else:
                owner = _read_lease_owner(lease)
                age = max(0.0, now - st.st_mtime)
                state = "expired" if age > lease_ttl else "leased"
        status.shards.append(
            ShardStatus(
                shard_id=shard.shard_id,
                n_cells=len(shard.cells),
                n_done=n_done,
                state=state,
                owner=owner,
                heartbeat_age=age,
            )
        )
    return status
