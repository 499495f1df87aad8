"""Deterministic simulation: virtual time, fault schedules, shrinking.

The package splits across the layer contract (see
``docs/architecture.md``): :mod:`repro.sim.clock` is the *foundation*
seam every timed path in the repo routes through, while the harness
modules (:mod:`repro.sim.invariants`, :mod:`repro.sim.harness`,
:mod:`repro.sim.explore`, :mod:`repro.sim.shrink`) sit at the *top*,
driving engines and clusters under timing-precise fault plans — each a
plain :class:`~repro.faults.plan.FaultPlan` of single-fire ``nth`` rules.

Only the clock is re-exported here — this ``__init__`` executes whenever
a low-layer module imports ``repro.sim.clock``, so it must never import
the harness side (which would pull the whole engine stack into every
fault-injection import).  Reach the harness explicitly::

    from repro.sim.harness import SimHarness, SimScenario
    from repro.sim.shrink import shrink
"""

from repro.sim.clock import (
    Clock,
    RealClock,
    VirtualClock,
    get_clock,
    set_clock,
    use_clock,
)

__all__ = [
    "Clock",
    "RealClock",
    "VirtualClock",
    "get_clock",
    "set_clock",
    "use_clock",
]
