"""Fault injection and resilience for the V2I measurement pipeline.

A real roadside deployment degrades constantly: DSRC encounters are
lost to occlusion and packet collisions, RSUs lose power for whole
measurement periods, upload links time out, and payloads arrive
corrupted, duplicated, delayed, or out of order.  This package makes
those failure processes first-class and reproducible:

* :mod:`repro.faults.plan` — a seeded :class:`FaultPlan` describing
  *what* goes wrong (rates and outage windows) and the stateful
  :class:`FaultInjector` that samples every fault from independent,
  deterministic substreams of one master seed;
* :mod:`repro.faults.transport` — :class:`UploadTransport`, the
  resilient RSU-to-server upload path: checksummed frames, retry with
  exponential backoff, idempotent duplicate handling, and a dead-letter
  quarantine for payloads that cannot be delivered intact;
* :mod:`repro.faults.chaos` — the chaos harness: end-to-end scenario
  sweeps across loss/outage/corruption rates asserting the pipeline
  never crashes and the estimators stay within bounded error;
* :mod:`repro.faults.proxy` — :class:`ChaosProxy`, a wire-level fault
  injector severing, stalling, truncating and partitioning real TCP
  streams between clients and the sharded tier;
* :mod:`repro.faults.drill` — the distributed chaos drill: kill,
  partition and flap shard workers under live proxied ingest while
  asserting zero acknowledged-record loss and coverage-honest
  degraded answers.

The package root re-exports only the plan, transport and proxy names.
Import the chaos harness and the drill from their own submodules: they
pull in the simulation and experiment stack, and importing any
``repro.faults`` submodule runs this ``__init__`` first, so a
re-export here would load that stack into every shard worker.

Every injected fault increments ``repro_faults_injected_total`` (by
``kind``) on the active :mod:`repro.obs` registry, so chaos runs export
their fault mix alongside the ordinary runtime metrics.  See
``docs/robustness.md`` for the fault model and degradation policy.
"""

from repro.faults.plan import FaultInjector, FaultKind, FaultPlan, OutageWindow
from repro.faults.proxy import ChaosProxy
from repro.faults.transport import (
    DeadLetter,
    DeadLetterLog,
    UploadOutcome,
    UploadReceipt,
    UploadTransport,
)

__all__ = [
    "ChaosProxy",
    "DeadLetter",
    "DeadLetterLog",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "OutageWindow",
    "UploadOutcome",
    "UploadReceipt",
    "UploadTransport",
]
