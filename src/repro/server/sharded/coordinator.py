"""Routing and fan-out over abstract shard backends.

The coordinator is the brain the front door and the in-process tests
share: it routes upload frames by location hash, sends each shard one
request carrying every location of a multi-location query that it
owns, and folds the per-location answers — including the silence of
dead shards — into one honest
:class:`~repro.server.sharded.merge.ShardedQueryResult`.

Backends come in two flavours with the same duck type:

* :class:`LocalShardBackend` — wraps a
  :class:`~repro.server.sharded.engine.ShardEngine` in-process.  Used
  by tests to pin the merge semantics down bit-for-bit without
  sockets, and as the single-shard degenerate case.
* :class:`~repro.server.sharded.frontdoor.RemoteShardBackend` — the
  same calls forwarded over a socket to a shard worker process.

A backend signals its death by raising :class:`ShardDownError`; the
coordinator never lets that abort a fan-out — the dead shard's cells
are reported as uncovered instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    TransportError,
)
from repro.faults.transport import DeadLetterLog
from repro.obs import runtime as obs
from repro.obs.spans import trace_span
from repro.server.degradation import (
    CoveragePolicy,
    CoverageReport,
    DegradedResult,
)
from repro.server.sharded.engine import ShardEngine, count_deadline
from repro.server.sharded.merge import LocationOutcome, ShardedQueryResult
from repro.server.sharded.router import ShardRouter
from repro.server.sharded.wire import Deadline, peek_location


class ShardDownError(TransportError):
    """A shard backend is unreachable (process dead, socket refused)."""


def _outcome(location: int, shard: int, answer, periods) -> LocationOutcome:
    """One location's merged outcome from its shard's answer or error."""
    if isinstance(answer, ReproError):
        return LocationOutcome(
            location=location, shard=shard, result=None, error=str(answer)
        )
    if not isinstance(answer, DegradedResult):
        # A strict (policy-less) answer implies full coverage; normalize
        # so merging is uniform.
        answer = DegradedResult(
            value=answer,
            coverage=CoverageReport(requested=periods, covered=periods),
        )
    return LocationOutcome(location=location, shard=shard, result=answer)


class FencedShardBackend:
    """The tombstone backend of a permanently-dead (fenced) shard.

    Installed by the supervisor once a flapping shard exhausts its
    restart budget: every call raises :class:`ShardDownError`, so
    queries keep reporting the shard's cells as honestly uncovered and
    uploads routed to it keep dead-lettering at the front door — all
    without a single socket syscall.
    """

    def __init__(self, shard_id: int, reason: str = ""):
        self.shard_id = int(shard_id)
        self.reason = reason or (
            f"shard {shard_id} is fenced (restart budget exhausted)"
        )

    def _down(self):
        raise ShardDownError(self.reason)

    def deliver_frame(self, frame, deadline=None):
        self._down()

    def deliver_batch(self, frames, deadline=None):
        self._down()

    def point_persistent(
        self, locations, periods, policy, deadline=None, **observe
    ):
        self._down()

    def stats(self):
        self._down()

    def close(self) -> None:
        pass


class LocalShardBackend:
    """An in-process shard: the engine called directly.

    ``kill()`` simulates a crashed worker — every later call raises
    :class:`ShardDownError`, which is exactly how the remote backend
    reports a refused connection.
    """

    def __init__(self, engine: ShardEngine):
        self.engine = engine
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Make every later call fail like a dead worker process."""
        self._alive = False

    def revive(self) -> None:
        self._alive = True

    def _check(self) -> None:
        if not self._alive:
            raise ShardDownError(
                f"shard {self.engine.shard_id} is down"
            )

    def deliver_frame(
        self, frame: bytes, deadline: Optional[Deadline] = None
    ) -> dict:
        self._check()
        return self.engine.handle_frame(frame)

    def deliver_batch(
        self, frames: Sequence[bytes], deadline: Optional[Deadline] = None
    ) -> dict:
        self._check()
        return self.engine.handle_batch(frames, deadline=deadline)

    def point_persistent(
        self,
        locations: Sequence[int],
        periods: Sequence[int],
        policy: Optional[CoveragePolicy],
        deadline: Optional[Deadline] = None,
        trace=None,
        explain: Optional[dict] = None,
    ) -> list:
        """The engine's per-location outcomes, optionally observed.

        ``trace`` (a :class:`~repro.obs.trace.TraceContext`) parents
        the shard-side query span to the caller's fan-out span;
        ``explain`` is an out-parameter dict this backend fills with
        the engine's timing attribution (no wire cost in-process).
        """
        self._check()

        def call():
            return self.engine.point_persistent(
                locations, periods, policy, deadline
            )

        if trace is None and explain is None:
            return call()
        outcomes, detail = self.engine.observed(
            trace, explain is not None, call
        )
        if explain is not None:
            explain.update(detail)
        return outcomes

    def stats(self) -> dict:
        self._check()
        return self.engine.stats()

    def close(self) -> None:
        pass


class ShardedCoordinator:
    """Routes uploads and fans out queries across shard backends.

    Parameters
    ----------
    backends:
        Mapping of shard index → backend, one per shard, covering
        ``0 .. n-1`` densely.
    router:
        Optional explicit router (defaults to hashing over
        ``len(backends)`` shards).

    Frames that cannot even be routed (mangled beyond claiming a
    location) or whose owning shard is down land in the coordinator's
    own in-memory quarantine, :attr:`dead_letters`.
    """

    def __init__(
        self,
        backends: Dict[int, object],
        router: Optional[ShardRouter] = None,
    ):
        if not backends:
            raise TransportError("a sharded tier needs at least one backend")
        self._backends = dict(backends)
        self._router = (
            router if router is not None else ShardRouter(len(backends))
        )
        missing = set(range(self._router.n_shards)) - set(self._backends)
        if missing:
            raise TransportError(
                f"router expects shards {sorted(missing)} but no backend "
                "was provided for them"
            )
        self.dead_letters = DeadLetterLog()
        #: Optional :class:`~repro.obs.cluster.ClusterTelemetry` that
        #: absorbs telemetry payloads piggy-backed on shard stats
        #: replies (attached by the service when cluster collection is
        #: wired up).
        self.telemetry_collector = None
        self._routed = obs.LazyCounter(
            "repro_ingest_frames_total",
            "Upload frames routed by the sharded front door, by outcome.",
            "outcome",
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, self._router.n_shards),
            thread_name_prefix="shard-fanout",
        )

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def n_shards(self) -> int:
        return self._router.n_shards

    @property
    def backends(self) -> Dict[int, object]:
        """The live shard-index → backend mapping (read-only copy)."""
        return dict(self._backends)

    def backend_for(self, location: int):
        """The backend owning a location's records."""
        return self._backends[self._router.shard_for(location)]

    def replace_backend(self, shard: int, backend) -> None:
        """Swap one shard's backend (a restarted worker's new port)."""
        if shard not in self._backends:
            raise TransportError(f"no shard {shard} to replace")
        old = self._backends[shard]
        self._backends[shard] = backend
        old.close()

    def close(self) -> None:
        self._pool.shutdown(wait=False)
        for backend in self._backends.values():
            backend.close()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _unrouted(self, frame: bytes, reason: str) -> dict:
        self.dead_letters.append(reason, frame, attempts=1)
        self._routed.inc("unrouted")
        return {"outcome": "quarantined", "reason": reason}

    def ingest_frame(
        self, frame: bytes, deadline: Optional[Deadline] = None
    ) -> dict:
        """Route one upload frame to its owning shard; returns the ack.

        Unroutable frames (too mangled to claim a location) and frames
        whose shard is down are quarantined at the front door — never
        raised, mirroring the transport's fault contract.  A frame
        whose deadline already expired is *rejected*, not quarantined:
        the sender still owns it and will retry or dead-letter it.
        """
        if deadline is not None and deadline.expired:
            count_deadline("front_door")
            return {"outcome": "rejected", "reason": "deadline"}
        location = peek_location(frame)
        if location is None:
            return self._unrouted(frame, "malformed")
        shard = self._router.shard_for(location)
        try:
            ack = self._backends[shard].deliver_frame(
                frame, deadline=deadline
            )
        except ShardDownError:
            return self._unrouted(frame, "shard_down")
        except DeadlineExceededError:
            count_deadline("shard")
            return {"outcome": "rejected", "reason": "deadline"}
        self._routed.inc(ack.get("outcome", "unknown"))
        return ack

    def ingest_batch(
        self, frames: Sequence[bytes], deadline: Optional[Deadline] = None
    ) -> dict:
        """Route a batch, fanning per-shard sub-batches out in parallel.

        Frames are grouped by owning shard and each group ships as one
        sub-batch on the coordinator's thread pool, so N shard
        processes parse and store concurrently.  Returns summed
        outcome counts over the whole batch.  Each outcome a shard
        reports for its sub-batch counts on ``repro_ingest_frames_total``,
        as :meth:`ingest_frame` counts one ack.
        """
        counts = {"delivered": 0, "duplicate": 0, "quarantined": 0}
        groups: Dict[int, List[bytes]] = {}
        for frame in frames:
            location = peek_location(frame)
            if location is None:
                self._unrouted(frame, "malformed")
                counts["quarantined"] += 1
                continue
            groups.setdefault(
                self._router.shard_for(location), []
            ).append(frame)

        def _ship(shard: int, group: List[bytes]) -> dict:
            try:
                shipped = self._backends[shard].deliver_batch(
                    group, deadline=deadline
                )
            except ShardDownError:
                for frame in group:
                    self._unrouted(frame, "shard_down")
                return {"quarantined": len(group)}
            except DeadlineExceededError:
                # The budget ran out before the sub-batch even shipped;
                # the sender still owns these frames.
                count_deadline("shard")
                return {"aborted": len(group)}
            for outcome, count in shipped.items():
                if count:
                    self._routed.inc(outcome, count)
            return shipped

        if len(groups) <= 1:
            results = [_ship(s, g) for s, g in groups.items()]
        else:
            results = list(
                self._pool.map(lambda item: _ship(*item), groups.items())
            )
        for result in results:
            for outcome, count in result.items():
                counts[outcome] = counts.get(outcome, 0) + count
        return counts

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def multi_point_persistent(
        self,
        locations: Sequence[int],
        periods: Sequence[int],
        policy: Optional[CoveragePolicy] = None,
        deadline: Optional[Deadline] = None,
        explain: bool = False,
    ) -> ShardedQueryResult:
        """One Eq. 12 estimate per location, merged across shards.

        Locations are grouped by owning shard, and each group goes to
        its shard as one request on its own fan-out thread.  The shard
        answers or refuses (coverage floor, missing data) each location
        on its own; a refused location, and every location of a dead
        shard, yields a ``result=None`` outcome whose cells surface in
        :attr:`~repro.server.sharded.merge.ShardedQueryResult.uncovered`
        — the answer degrades, it never lies.  With a ``deadline``, a
        group whose budget ran out before its request was sent comes
        back unanswered whole, and a shard whose budget runs out
        mid-request stops between locations and leaves the rest
        unanswered, so a slow shard costs coverage, not correctness.

        With ``explain=True`` the merged result carries a timing and
        attribution breakdown
        (:attr:`~repro.server.sharded.merge.ShardedQueryResult.explain`):
        total and per-shard wall/engine/wire latency, cache hit/miss
        deltas, coverage contribution per shard, and the deadline
        budget consumed.  Under tracing, the fan-out runs inside a
        ``server.fanout`` span whose context is forwarded to every
        shard, so shard-side query spans join this trace.
        """
        periods = tuple(int(p) for p in periods)
        groups = self._router.group_locations(locations)
        want_explain = bool(explain)
        if want_explain and obs.ACTIVE:
            obs.counter(
                "repro_query_explain_total",
                "Fan-out queries that requested an explain breakdown.",
            ).inc()
        budget = deadline.remaining if deadline is not None else None
        started = time.perf_counter()
        shard_details: Dict[str, dict] = {}

        fanout = trace_span(
            "server.fanout",
            locations=str(len(tuple(locations))),
            shards=str(len(groups)),
        )
        with fanout:
            # Contextvars do not cross the fan-out pool's threads; the
            # span's context is handed to each shard call explicitly.
            context = getattr(fanout, "context", None)

            def _query_shard(
                shard: int, group: List[int]
            ) -> List[LocationOutcome]:
                probe: Optional[dict] = {} if want_explain else None
                shard_started = time.perf_counter()
                if deadline is not None and deadline.expired:
                    count_deadline("fanout")
                    answers = [
                        DeadlineExceededError(
                            "deadline expired before the shard request "
                            "was sent"
                        )
                    ] * len(group)
                else:
                    try:
                        answers = self._backends[shard].point_persistent(
                            group,
                            periods,
                            policy,
                            deadline=deadline,
                            trace=context,
                            explain=probe,
                        )
                    except ReproError as exc:
                        answers = [exc] * len(group)
                outcomes = [
                    _outcome(location, shard, answer, periods)
                    for location, answer in zip(group, answers)
                ]
                if probe is not None:
                    answered = sum(o.answered for o in outcomes)
                    shard_details[str(shard)] = {
                        "locations": len(group),
                        "answered": answered,
                        "errors": len(group) - answered,
                        "wall_seconds": time.perf_counter() - shard_started,
                        "engine_seconds": float(
                            probe.get("engine_seconds", 0.0)
                        ),
                        "wire_seconds": float(probe.get("wire_seconds", 0.0)),
                        "cache_hits": int(probe.get("cache_hits", 0)),
                        "cache_lookups": int(probe.get("cache_lookups", 0)),
                    }
                return outcomes

            if len(groups) <= 1:
                shard_outcomes = [
                    _query_shard(s, g) for s, g in groups.items()
                ]
            else:
                shard_outcomes = list(
                    self._pool.map(
                        lambda item: _query_shard(*item), groups.items()
                    )
                )
            by_location = {
                outcome.location: outcome
                for outcomes in shard_outcomes
                for outcome in outcomes
            }
            ordered = tuple(by_location[int(loc)] for loc in locations)
            explain_payload = None
            if want_explain:
                explain_payload = self._build_explain(
                    ordered,
                    periods,
                    shard_details,
                    total_seconds=time.perf_counter() - started,
                    budget=budget,
                    deadline=deadline,
                )
                if context is not None:
                    # The breakdown also lands on the fan-out span, so
                    # a trace tree shows the same attribution the
                    # client got.  (Guarded: the no-op span's attrs
                    # dict is shared.)
                    fanout.attrs.update(
                        {
                            "explain_total_seconds": (
                                f"{explain_payload['total_seconds']:.6f}"
                            ),
                            "explain_coverage": (
                                f"{explain_payload['coverage_fraction']:.3f}"
                            ),
                        }
                    )
            return ShardedQueryResult(
                outcomes=ordered,
                requested_periods=periods,
                explain=explain_payload,
            )

    @staticmethod
    def _build_explain(
        outcomes,
        periods,
        shard_details: Dict[str, dict],
        total_seconds: float,
        budget: Optional[float],
        deadline: Optional[Deadline],
    ) -> dict:
        """Fold per-shard probes and coverage into one explain payload."""
        for outcome in outcomes:
            detail = shard_details.setdefault(
                str(outcome.shard),
                {"locations": 0, "answered": 0, "errors": 0},
            )
            covered = 0
            if outcome.result is not None:
                covered = len(periods) - len(
                    outcome.result.coverage.missing
                )
            detail["covered_cells"] = (
                detail.get("covered_cells", 0) + covered
            )
            detail["requested_cells"] = (
                detail.get("requested_cells", 0) + len(periods)
            )
        requested = len(outcomes) * len(periods)
        covered_total = sum(
            detail.get("covered_cells", 0)
            for detail in shard_details.values()
        )
        payload = {
            "total_seconds": total_seconds,
            "locations": len(outcomes),
            "periods": len(periods),
            "coverage_fraction": (
                covered_total / requested if requested else 1.0
            ),
            "per_shard": shard_details,
            "deadline_budget_seconds": budget,
            "deadline_consumed_seconds": (
                max(0.0, budget - deadline.remaining)
                if deadline is not None and budget is not None
                else None
            ),
        }
        return payload

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard health plus one merged metrics view.

        Every reachable shard's registry snapshot is folded through
        :meth:`~repro.obs.metrics.MetricsRegistry.merge` into a fresh
        registry, so per-shard ingest counters (labelled
        ``shard="k"``) survive side by side and process-wide totals
        add up exactly as the parallel experiment harness's do.
        """
        from repro.obs.metrics import MetricsRegistry

        merged = MetricsRegistry()
        shards: Dict[str, dict] = {}
        total_records = 0
        for shard, backend in sorted(self._backends.items()):
            try:
                payload = backend.stats()
            except ShardDownError as exc:
                shards[str(shard)] = {"alive": False, "error": str(exc)}
                continue
            metrics = payload.pop("metrics", {}) or {}
            if metrics:
                merged.merge(metrics)
            # Telemetry piggy-backed on the stats reply: hand it to
            # the attached collector.  Without one it stays in the
            # payload — the drain is destructive, so dropping it here
            # would lose the shard's spans.
            telemetry = payload.pop("telemetry", None)
            if telemetry and self.telemetry_collector is not None:
                self.telemetry_collector.absorb(shard, telemetry)
            elif telemetry:
                payload["telemetry"] = telemetry
            payload["alive"] = True
            shards[str(shard)] = payload
            total_records += payload.get("records", 0)
        return {
            "shards": shards,
            "records": total_records,
            "front_door_dead_letters": len(self.dead_letters),
            "metrics": merged.snapshot(),
        }
