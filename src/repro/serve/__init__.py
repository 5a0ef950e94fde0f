"""The fault-tolerant ``repro serve`` daemon.

A stdlib-only long-lived HTTP/JSON service over warm
:class:`~repro.api.OptimizerSession` objects (one per spec, from
:func:`~repro.api.session.shared_session`), with bounded admission,
per-request deadlines, the sessions' retry/breaker resilience,
supervised worker-process isolation (:mod:`repro.serve.supervisor`),
a durable write-ahead request journal (:mod:`repro.serve.journal`),
graceful drain, and ``/healthz`` + ``/metrics`` + ``/quarantine``.
See :mod:`repro.serve.daemon` for the endpoint contract and
docs/architecture.md ("Service daemon & resilience") for the design.
"""

from .admission import AdmissionController, Rejected
from .config import ServeConfig
from .daemon import BadRequest, ServeDaemon
from .journal import (JOURNAL_STREAM, RequestJournal, prune_finished,
                      request_signature)
from .metrics import Metrics
from .supervisor import (QuarantineRegistry, WorkerCrashed,
                         WorkerSupervisor)

__all__ = [
    "AdmissionController", "Rejected", "ServeConfig", "BadRequest",
    "ServeDaemon", "Metrics",
    "JOURNAL_STREAM", "RequestJournal",
    "prune_finished", "request_signature",
    "QuarantineRegistry", "WorkerCrashed", "WorkerSupervisor",
]
