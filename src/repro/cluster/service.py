"""The cluster execution backend for :class:`~repro.service.service.WhirlpoolService`.

The service's backend hook is duck-typed — anything with
``run_query(request, database, k, deadline_seconds)``, ``health()`` and
``close()`` — so ``repro.service`` never imports this package (the
layer contract puts ``cluster`` *above* ``service``; the dependency
points down, and a cluster-backed service is assembled by the caller):

    backend = ClusterBackend(shards=4)
    service = WhirlpoolService({"auction": db}, backend=backend)

The service owns the document registry and hands each request's
resolved :class:`~repro.xmldb.model.Database` to
:meth:`ClusterBackend.run_query`; the backend keeps no handle map of its
own.  One :class:`~repro.cluster.coordinator.Coordinator` is built
lazily per document handle and reused while the handle still names the
database it was built over — the expensive parts (forest
partitioning/serialization, per-query engine facades for the global
score model) amortize the same way, and under the same rule, as the
service's engine cache.  A handle re-registered with another database
gets a fresh coordinator, and the stale one is closed.

A coordinator serves one query at a time; concurrent service workers
contend by blocking on the coordinator's own idle condition
(:meth:`~repro.cluster.coordinator.Coordinator.wait_idle`, a progress
wait on the clock seam) — never on a lock held across subprocess I/O,
which keeps the package clean under the graph analyzer's
blocking-under-lock rule, and never by spin-polling, so a blocked
submit wakes the instant the slot frees.
"""

from __future__ import annotations

import inspect
import threading
from typing import Any, Dict, Optional

from repro.cluster.coordinator import ClusterResult, Coordinator
from repro.core.stats import monotonic_seconds
from repro.errors import ClusterError, CoordinatorBusyError
from repro.service.request import QueryRequest
from repro.xmldb.model import Database

#: How long a request waits for the coordinator slot when it carries no
#: deadline of its own.
_DEFAULT_SLOT_WAIT_SECONDS = 30.0


class ClusterBackend:
    """Route service queries to sharded coordinator clusters.

    ``coordinator_options`` are :class:`~repro.cluster.coordinator.Coordinator`'s
    own keyword arguments, checked here and passed on unchanged: every
    document handle gets its own coordinator (lazily, on first query)
    built with the same tuning.
    """

    def __init__(self, shards: int = 2, **coordinator_options: Any) -> None:
        if shards < 1:
            raise ClusterError(f"shards must be >= 1, got {shards}")
        # A misspelt option fails here, not at the first query.
        inspect.signature(Coordinator).bind(None, shards=shards, **coordinator_options)
        self.shards = shards
        self.coordinator_options = coordinator_options
        self._lock = threading.Lock()
        self._coordinators: Dict[str, Coordinator] = {}
        self._closed = False

    # -- the service-facing backend protocol -------------------------------------

    def run_query(
        self,
        request: QueryRequest,
        database: Database,
        k: int,
        deadline_seconds: Optional[float] = None,
    ) -> ClusterResult:
        """Execute one admitted request on the cluster over ``database``,
        the document the service resolved ``request.document`` to.

        A recovered request re-executes from scratch: the cluster ships
        its own per-shard checkpoints through the coordinator's recovery
        store, and the anytime certificate, not a single-process engine
        snapshot, is the contract that survives.
        """
        coordinator = self._coordinator_for(request.document, database)
        give_up = monotonic_seconds() + (
            deadline_seconds
            if deadline_seconds is not None
            else _DEFAULT_SLOT_WAIT_SECONDS
        )
        while True:
            try:
                return coordinator.run_query(
                    request.xpath,
                    k,
                    algorithm=request.algorithm,
                    relaxed=request.relaxed,
                    routing=request.routing,
                    deadline_seconds=deadline_seconds,
                    faults=request.faults,
                    engine_retry_policy=request.retry_policy,
                )
            except CoordinatorBusyError as exc:
                # Busy with another worker's query: block on its idle
                # condition until the slot frees (never a lock held across
                # the cluster's socket I/O, never a spin poll).
                remaining = give_up - monotonic_seconds()
                if remaining <= 0 or not coordinator.wait_idle(remaining):
                    raise ClusterError(
                        f"coordinator for {request.document!r} busy past deadline"
                    ) from exc

    def health(self) -> Dict[str, Any]:
        """Backend health: per-document coordinator fleets (satellite of
        the service's ``health()``; also surfaced by ``repro metrics``)."""
        with self._lock:
            coordinators = dict(self._coordinators)
            closed = self._closed
        return {
            "kind": "cluster",
            "shards": self.shards,
            "closed": closed,
            "documents": {
                name: coordinator.health()
                for name, coordinator in sorted(coordinators.items())
            },
        }

    def close(self) -> None:
        """Shut down every coordinator's worker fleet (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            coordinators = list(self._coordinators.values())
        for coordinator in coordinators:
            coordinator.close()

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def _coordinator_for(self, document: str, database: Database) -> Coordinator:
        """The coordinator cached under ``document``, rebuilt (and the
        stale one closed) when the handle now names another database."""
        with self._lock:
            if self._closed:
                raise ClusterError("cluster backend is closed")
            coordinator = self._coordinators.get(document)
        if coordinator is not None and coordinator.database is database:
            return coordinator
        built = Coordinator(database, shards=self.shards, **self.coordinator_options)
        with self._lock:
            # Two workers may have built concurrently; first one wins.
            cached = self._coordinators.get(document)
            if cached is None or cached.database is not database:
                self._coordinators[document] = built
                cached, discard = built, cached
            else:
                discard = built
        if discard is not None:
            discard.close()
        return cached
