"""Low-cardinality observability metrics: counters and log-bucket histograms.

This is the aggregate companion to :mod:`repro.obs.trace`: a tracer folds
the events named in ``trace.HISTOGRAM_KINDS`` (request→commit latency,
network hop delay, mempool queue depth) into histograms here, so a run can
be summarised without scanning the full event stream — and so the trace
ring buffers can wrap without losing the aggregate picture.

Histograms use power-of-two ("log2") buckets: ``observe(v)`` increments the
bucket holding ``v``'s binary exponent, which gives ~30 buckets across nine
decades of latency with a single ``math.frexp`` call per observation and no
configuration.  That is deliberately coarse — the histograms answer "what
order of magnitude, and how skewed" questions; exact quantiles come from
the trace itself.

:class:`CampaignProgress` reuses the histogram layer to drive the live
progress/ETA reporter on :class:`repro.experiments.runner.CampaignRunner`:
per-run durations feed a histogram whose median flags stragglers.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class LogHistogram:
    """Histogram with power-of-two buckets, exact count/sum/min/max."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram values must be non-negative, got {value}")
        # frexp(v) = (m, e) with v = m * 2**e, 0.5 <= |m| < 1; the exponent
        # alone is the bucket index. Zero gets its own bucket below every
        # positive exponent.
        exponent = math.frexp(value)[1] if value > 0 else -1075
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "LogHistogram") -> None:
        for exponent, count in other.buckets.items():
            self.buckets[exponent] = self.buckets.get(exponent, 0) + count
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket containing the q-quantile observation.

        Accurate to within a factor of two — enough for straggler detection
        and order-of-magnitude summaries.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for exponent in sorted(self.buckets):
            seen += self.buckets[exponent]
            if seen >= target:
                return math.ldexp(1.0, exponent)
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {str(exp): self.buckets[exp] for exp in sorted(self.buckets)},
        }


class ObsMetrics:
    """Counters and histograms keyed ``(replica, name)``.

    Cardinality stays low by construction: names are the fixed category /
    histogram names from the instrumentation points, replicas number in the
    tens, and histogram buckets are log-bounded — so a full campaign's
    metrics serialise to a few KB regardless of run length.
    """

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[Tuple[str, str], int] = {}
        self.histograms: Dict[Tuple[str, str], LogHistogram] = {}

    def inc(self, replica: str, name: str, delta: int = 1) -> None:
        key = (replica, name)
        self.counters[key] = self.counters.get(key, 0) + delta

    def observe(self, replica: str, name: str, value: float) -> None:
        key = (replica, name)
        histogram = self.histograms.get(key)
        if histogram is None:
            histogram = self.histograms[key] = LogHistogram()
        histogram.observe(value)

    def counter(self, replica: str, name: str) -> int:
        return self.counters.get((replica, name), 0)

    def histogram(self, replica: str, name: str) -> Optional[LogHistogram]:
        return self.histograms.get((replica, name))

    def merged_histogram(self, name: str) -> LogHistogram:
        """Union of the named histogram across every replica."""
        merged = LogHistogram()
        for (_, hist_name), histogram in self.histograms.items():
            if hist_name == name:
                merged.merge(histogram)
        return merged

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic (sorted-key) snapshot for JSON serialisation."""
        return {
            "counters": {
                f"{replica}/{name}": self.counters[(replica, name)]
                for replica, name in sorted(self.counters)
            },
            "histograms": {
                f"{replica}/{name}": self.histograms[(replica, name)].to_dict()
                for replica, name in sorted(self.histograms)
            },
        }


class CampaignProgress:
    """Live progress/ETA reporter for :class:`CampaignRunner`.

    The runner calls :meth:`start` when a run is submitted and
    :meth:`finish` when it completes; each ``finish`` emits one status line
    (through ``emit``, default: print to stderr) with points done/total, the
    rolling completion rate over the last ``window`` finishes, the ETA it
    implies, and a straggler flag for any in-flight run older than
    ``straggler_factor`` × the median completed duration (from the shared
    :class:`LogHistogram` layer, so "median" is a log-bucket upper bound).
    """

    def __init__(
        self,
        total: int,
        emit: Optional[Callable[[str], None]] = None,
        window: int = 10,
        straggler_factor: float = 4.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.total = total
        self.window = window
        self.straggler_factor = straggler_factor
        self.clock = clock
        self.emit = emit if emit is not None else self._default_emit
        self.metrics = ObsMetrics()
        self.done = 0
        self.in_flight: Dict[str, float] = {}
        self._recent: List[float] = []  # completion times, last `window` kept

    @staticmethod
    def _default_emit(line: str) -> None:
        import sys

        print(line, file=sys.stderr)

    def start(self, run_id: str) -> None:
        self.in_flight[run_id] = self.clock()

    def finish(self, run_id: str) -> None:
        now = self.clock()
        started = self.in_flight.pop(run_id, None)
        if started is not None:
            self.metrics.observe("campaign", "run_duration", now - started)
        self.done += 1
        self._recent.append(now)
        if len(self._recent) > self.window:
            del self._recent[0]
        self.emit(self.render(now))

    def rate(self, now: Optional[float] = None) -> float:
        """Completions/s over the rolling window (0.0 until two finishes)."""
        if len(self._recent) < 2:
            return 0.0
        span = self._recent[-1] - self._recent[0]
        if span <= 0:
            return 0.0
        return (len(self._recent) - 1) / span

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        rate = self.rate(now)
        if rate <= 0:
            return None
        return (self.total - self.done) / rate

    def stragglers(self, now: Optional[float] = None) -> List[str]:
        """In-flight run ids older than factor × median completed duration."""
        histogram = self.metrics.histogram("campaign", "run_duration")
        if histogram is None or not histogram.count:
            return []
        if now is None:
            now = self.clock()
        threshold = self.straggler_factor * histogram.quantile(0.5)
        return sorted(
            run_id
            for run_id, started in self.in_flight.items()
            if now - started > threshold
        )

    def render(self, now: Optional[float] = None) -> str:
        if now is None:
            now = self.clock()
        parts = [f"campaign: {self.done}/{self.total} done"]
        rate = self.rate(now)
        if rate > 0:
            parts.append(f"{rate:.2f} runs/s")
            eta = self.eta_seconds(now)
            if eta is not None:
                parts.append(f"eta {eta:.0f}s")
        stragglers = self.stragglers(now)
        if stragglers:
            parts.append(f"stragglers: {','.join(stragglers)}")
        return " | ".join(parts)
