"""Declarative configuration for the whole-program graph analyzer.

Everything the analyzer *asserts about this repo specifically* lives
here, in data, so the machinery in the sibling modules stays generic:

- :data:`LAYER_CONTRACT` — the layer DAG the import graph must respect
  (see ``docs/architecture.md`` for the diagram this encodes);
- :data:`REQUIRED_LOCK_ORDERS` — cross-class lock orders that until this
  PR existed only as comments (e.g. the breaker → metrics-stripe order
  documented in ``service/breaker.py``), now machine-checked against the
  computed lock-order graph;
- :data:`CALLBACK_BINDINGS` — callable attributes the call-graph builder
  cannot resolve statically (listener/sink indirection), bound here to
  their known implementations so lock contexts propagate through them;
- :data:`RETURN_TYPES` — return-type overrides for the few methods whose
  annotations are too generic to resolve (``MetricFamily.labels`` returns
  a type variable; for lock purposes it can be any instrument child);
- :data:`BLOCKING_CALLS` — the catalog of calls that block unboundedly
  and are therefore hazards while any lock is held.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: Layer contract, bottom (most fundamental) to top.  A module in layer N
#: may import layers <= N at runtime; importing a *higher* layer is a
#: WPLG03 layering violation.  Entries are package-relative prefixes:
#: ``core`` covers ``repro.core`` and everything under it; bare module
#: names (``errors``, ``cli``) cover that single module.
LAYER_CONTRACT: Sequence[Tuple[str, Sequence[str]]] = (
    ("foundation", ("errors",)),
    # The clock seam sits below everything timed: ``sim.clock`` imports
    # only the stdlib, and core/faults/simulate/cluster all route their
    # sleeps and deadline reads through it (as ``import repro.sim.clock``
    # so the edge targets this prefix, not the package).  Entries match
    # in contract order (see ``layers.py``), so this one must precede
    # the broad ``sim`` entry — the harness side of ``sim``, which
    # drives engines and clusters, lands in the *high* layer below
    # ``bench``.
    ("clock", ("sim.clock",)),
    ("storage", ("xmldb",)),
    ("corpus", ("xmark", "biblio")),
    ("query", ("query",)),
    ("scoring", ("scoring",)),
    ("relax", ("relax",)),
    ("core", ("core",)),
    ("simulate", ("simulate",)),
    ("faults", ("faults",)),
    ("obs", ("obs",)),
    ("recovery", ("recovery",)),
    ("service", ("service",)),
    ("cluster", ("cluster",)),
    ("sim", ("sim",)),
    ("bench", ("bench",)),
    ("top", ("cli", "analysis", "__main__", "")),
)

#: Cross-class lock orders the code comments promise; the analyzer fails
#: if the computed lock-order graph contains a path in the *reverse*
#: direction (WPLG04), and also fails if the forward edge disappears —
#: a vanished edge means the config went stale and stopped guarding
#: anything.  Names are lock identities: ``<module>.<Class>._<attr>``.
REQUIRED_LOCK_ORDERS: Sequence[Dict[str, str]] = (
    {
        # service/breaker.py documents: the breaker's transition listener
        # runs under the breaker lock and may only touch metric stripe
        # locks — the only sanctioned cross-lock order is breaker → stripe.
        "before": "repro.service.breaker.CircuitBreaker._lock",
        "after": "repro.obs.metrics.Counter._lock",
        "reason": "breaker listener records metrics under the breaker lock",
    },
    {
        # Same contract for the gauge side of the listener
        # (whirlpool_breaker_state) — still breaker → stripe, never back.
        "before": "repro.service.breaker.CircuitBreaker._lock",
        "after": "repro.obs.metrics.Gauge._lock",
        "reason": "breaker listener sets the state gauge under the breaker lock",
    },
)

#: Callable attributes → implementations they are known to invoke.  The
#: call-graph builder adds these edges so lock contexts flow through
#: listener/sink indirection the AST cannot resolve.
CALLBACK_BINDINGS: Dict[str, Sequence[str]] = {
    # CircuitBreaker fires its transition listener while holding the
    # breaker lock; the service installs _on_breaker_transition there.
    "repro.service.breaker.CircuitBreaker._listener": (
        "repro.service.service.WhirlpoolService._on_breaker_transition",
    ),
}

#: Return-type overrides (function qname → candidate class qnames) for
#: methods whose annotations are generic.  ``MetricFamily.labels``
#: returns ``_C`` — any instrument child; all three matter for lock
#: propagation because children share the registry's stripe locks.
RETURN_TYPES: Dict[str, Sequence[str]] = {
    "repro.obs.metrics.MetricFamily.labels": (
        "repro.obs.metrics.Counter",
        "repro.obs.metrics.Gauge",
        "repro.obs.metrics.Histogram",
    ),
}

#: Method names that block unboundedly when called *without* a timeout
#: argument (positional or keyword).  ``wait`` on the lock you are
#: waiting's own condition is the sanctioned pattern and is exempted by
#: the analyzer; ``wait`` on anything else while holding a lock is not.
BLOCKING_METHODS_TIMEOUT: Dict[str, str] = {
    "get": "queue get() without timeout",
    "put": "queue put() without timeout",
    "join": "join() without timeout",
    "wait": "wait() without timeout",
    "wait_zero": "in-flight wait_zero() without timeout",
    "acquire": "blocking acquire()",
}

#: Method/function names that block (or can run unboundedly) regardless
#: of arguments — reaching one of these while a lock is held is always a
#: latency/deadlock hazard worth a finding.
BLOCKING_CALLS_ALWAYS: Dict[str, str] = {
    "sleep": "time.sleep under a lock",
    "run": "engine run() under a lock",
    "connect": "socket connect under a lock",
    "recv": "socket recv under a lock",
    "send": "socket send under a lock",
    "sendall": "socket sendall under a lock",
    "accept": "socket accept under a lock",
    "read": "file/socket read under a lock",
    "write": "file/socket write under a lock",
    "replace": "os.replace (filesystem) under a lock",
    "remove": "os.remove (filesystem) under a lock",
    "listdir": "os.listdir (filesystem) under a lock",
    "makedirs": "os.makedirs (filesystem) under a lock",
}

#: ``open``-style builtins treated as file I/O when called under a lock.
BLOCKING_BUILTINS: Dict[str, str] = {
    "open": "open() (file I/O) under a lock",
}

#: Receiver names whose ``run()`` is engine execution (the only ``run``
#: the hazard catalog means); a bare ``anything.run()`` would be far too
#: noisy, so the ``run`` entry in :data:`BLOCKING_CALLS_ALWAYS` only
#: fires when the receiver's inferred class is one of these.
ENGINE_RUN_CLASSES: Sequence[str] = (
    "repro.core.base.EngineBase",
    "repro.core.whirlpool_m.WhirlpoolM",
    "repro.core.whirlpool_s.WhirlpoolS",
    "repro.core.lockstep.LockStep",
    "repro.core.engine.Engine",
)

#: ``read``/``write`` are common method names; only flag them when the
#: receiver is a file-handle-ish local (from ``open(...)``) or unknown
#: receivers whose name suggests a handle.  Receiver *classes* in this
#: set are exempt even for catalog names (e.g. ``MatchQueue.put`` under
#: no lock is fine; under a lock the timeout rule still applies).
IO_RECEIVER_HINTS: Sequence[str] = ("handle", "file", "fh", "sock", "socket", "conn")


class GraphConfig:
    """Bundled configuration with override points for tests/fixtures."""

    def __init__(
        self,
        layer_contract: Sequence[Tuple[str, Sequence[str]]] = LAYER_CONTRACT,
        required_lock_orders: Sequence[Dict[str, str]] = REQUIRED_LOCK_ORDERS,
        callback_bindings: Dict[str, Sequence[str]] = CALLBACK_BINDINGS,
        return_types: Dict[str, Sequence[str]] = RETURN_TYPES,
    ) -> None:
        self.layer_contract = tuple((name, tuple(p)) for name, p in layer_contract)
        self.required_lock_orders = tuple(dict(d) for d in required_lock_orders)
        self.callback_bindings = {
            key: tuple(targets) for key, targets in callback_bindings.items()
        }
        self.return_types = {
            key: tuple(targets) for key, targets in return_types.items()
        }


DEFAULT_CONFIG = GraphConfig()
