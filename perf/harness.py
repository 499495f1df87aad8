"""Measurement loop, clocks and statistics shared by every workload.

A run repeats one *round* — a fixed list of operations — until ``--seconds``
have passed.  Three things keep the numbers steady on a small shared machine
(see ``perf/README.md``, "Why the numbers are steady"):

- every operation is bracketed by a fixed pure-Python *reference kernel*
  timed on the thread CPU clock, and its times are scaled to the speed the
  kernel would run at on the reference machine;
- operation ``j`` of the round is the *same* work in every round, so its
  time is the lower quartile over the rounds: interference from other
  tenants only ever adds time;
- the latency distribution (``latency_p50_s``, ``latency_tail_s``) is over
  the round's distinct operations, each represented by that quartile.
"""

from __future__ import annotations

import gc
import resource
import time
from statistics import median
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

wall = time.perf_counter

#: Iterations of the reference kernel, and the thread CPU seconds they take
#: on the reference machine (this repo's 2-core container when quiet).  Only
#: the ratio matters: reported seconds = measured x NOMINAL / kernel seconds.
KERNEL_ITERATIONS = 100_000
KERNEL_NOMINAL_S = 0.0050

#: ``latency_tail_s`` is this share of the round's distinct operations
#: (nearest rank): the slowest class of operations in all five workloads.
TAIL_SHARE = 0.9
#: A run measures at least this many rounds however slow the machine is.
MIN_ROUNDS = 3
#: Set-up is repeated this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3


def reference_kernel() -> float:
    """Run the fixed kernel; return the thread CPU seconds it took."""
    started = time.thread_time()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - started


def speed_factor(kernel_before: float, kernel_after: float) -> float:
    """Scale from measured seconds to reference-machine seconds."""
    return KERNEL_NOMINAL_S / ((kernel_before + kernel_after) / 2.0)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # Linux reports kilobytes


def nearest_rank(values: Sequence[float], share: float) -> float:
    """The value at ``share`` of the sorted sample (nearest rank, 0-based)."""
    ordered = sorted(values)
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


def lower_quartile(values: Sequence[float]) -> float:
    """Undisturbed time of one repeated operation: rank (n-1)//4."""
    return sorted(values)[(len(values) - 1) // 4]


class Op(NamedTuple):
    """One finished operation: what it was, how long, what came back."""

    label: str
    latency_s: float
    result: Any


class UnitSample(NamedTuple):
    """One timed unit (one operation, or one burst of concurrent ones)."""

    wall_s: float
    cpu_s: float
    factor: float
    latencies_s: List[float]
    labels: List[str]


Unit = Callable[[], List[Op]]


class Measurement:
    """Rounds of unit samples, plus what every operation answered."""

    def __init__(self) -> None:
        self.rounds: List[List[UnitSample]] = []
        #: (label, compact answers or None) per operation, verified after
        #: the timed phase so the oracle's memory never reaches peak_rss_mb.
        self.answers: List[Tuple[str, Any]] = []
        self.peak_rss_mb = 0.0

    @property
    def ops_per_round(self) -> int:
        return sum(len(unit.latencies_s) for unit in self.rounds[0])

    def unit_quartiles(self, field: Callable[[UnitSample], float]) -> List[float]:
        """Per unit of the round, the lower quartile over rounds."""
        return [
            lower_quartile([field(unit) for unit in repeats]) for repeats in zip(*self.rounds)
        ]

    def op_latencies(self, normalised: bool = True) -> List[float]:
        """Per distinct operation of the round, its lower-quartile latency."""
        out: List[float] = []
        for repeats in zip(*self.rounds):  # one unit of the round, in every round
            for op in range(len(repeats[0].latencies_s)):
                out.append(
                    lower_quartile(
                        [
                            unit.latencies_s[op] * (unit.factor if normalised else 1.0)
                            for unit in repeats
                        ]
                    )
                )
        return out

    def op_labels(self) -> List[str]:
        return [label for unit in self.rounds[0] for label in unit.labels]

    def latency_of(self, part: str) -> float:
        """Median latency of the round's operations whose label has ``part``
        (labels look like ``Q2/k=15``, ``r03:Q1/k=3`` or ``lockstep``)."""
        picked = [
            latency
            for label, latency in zip(self.op_labels(), self.op_latencies())
            if part in label.replace(":", "/").split("/")
        ]
        return median(picked) if picked else 0.0

    def speed_factor(self) -> float:
        """Median reference-machine scale of the run's units."""
        return median([unit.factor for round_ in self.rounds for unit in round_])

    def round_wall_s(self) -> float:
        """Reference-machine seconds of one round."""
        return sum(self.unit_quartiles(lambda unit: unit.wall_s * unit.factor))


def run_unit(unit: Unit, kernel_before: float) -> "tuple[UnitSample, List[Op], float]":
    """Time one unit between two reference kernels."""
    cpu_before = cpu_seconds()
    started = wall()
    ops = unit()
    elapsed = wall() - started
    cpu = cpu_seconds() - cpu_before
    kernel_after = reference_kernel()
    sample = UnitSample(
        elapsed,
        cpu,
        speed_factor(kernel_before, kernel_after),
        [op.latency_s for op in ops],
        [op.label for op in ops],
    )
    return sample, ops, kernel_after


def measure(
    units: Sequence[Unit],
    extract: Callable[[Op], Any],
    seconds: float,
    min_rounds: int = MIN_ROUNDS,
    on_unit: Optional[Callable[[int, UnitSample], None]] = None,
) -> Measurement:
    """Repeat the round until ``seconds`` have passed (at least ``min_rounds``).

    ``extract`` reduces each result to what the oracle compares, outside the
    timed region, so results are not kept alive across operations.
    ``on_unit`` (the tracer) is told each unit's running number and sample.
    """
    measurement = Measurement()
    gc.collect()
    kernel = reference_kernel()
    started = wall()
    number = 0
    while True:
        samples: List[UnitSample] = []
        for unit in units:
            sample, ops, kernel = run_unit(unit, kernel)
            samples.append(sample)
            measurement.answers.extend((op.label, extract(op)) for op in ops)
            del ops
            if on_unit is not None:
                on_unit(number, sample)
            number += 1
        measurement.rounds.append(samples)
        elapsed = wall() - started
        # Stop when the next round would overshoot by more than it undershoots.
        round_s = elapsed / len(measurement.rounds)
        if len(measurement.rounds) >= min_rounds and elapsed + round_s / 2 >= seconds:
            break
    measurement.peak_rss_mb = peak_rss_mb()
    return measurement


def end_to_end(measurement: Measurement, setup_s: float) -> Dict[str, Dict[str, Any]]:
    """The six end-to-end metrics of one workload run."""
    latencies = measurement.op_latencies()
    round_wall = measurement.round_wall_s()
    round_cpu = sum(measurement.unit_quartiles(lambda u: u.cpu_s * u.factor))
    ops = measurement.ops_per_round
    return {
        "throughput_qps": {"value": ops / round_wall, "unit": "1/s"},
        "latency_p50_s": {"value": median(latencies), "unit": "s"},
        "latency_tail_s": {"value": nearest_rank(latencies, TAIL_SHARE), "unit": "s"},
        "cpu_per_op_s": {"value": round_cpu / ops, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": measurement.peak_rss_mb, "unit": "MB"},
    }


def bracketed(call: Callable[[], Any]) -> Tuple[float, float]:
    """Run ``call`` between two reference kernels: (wall seconds, speed factor)."""
    before = reference_kernel()
    started = wall()
    call()
    elapsed = wall() - started
    return elapsed, speed_factor(before, reference_kernel())


def untraced_run(
    workload: Any, seconds: float, setup_repeats: int, min_rounds: int
) -> Tuple[Dict[str, Dict[str, Any]], Measurement]:
    """Set up ``setup_repeats`` times, measure, report the end-to-end metrics."""
    setups = []
    for number in range(setup_repeats):
        if number:
            workload.tear_down()
        elapsed, factor = bracketed(workload.set_up)
        setups.append(elapsed * factor)
    measurement = measure(workload.units(), workload.extract, seconds, min_rounds)
    return end_to_end(measurement, median(setups)), measurement
