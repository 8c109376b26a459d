"""The process-wide metrics registry.

Every layer registers typed instruments into one
:class:`MetricsRegistry` — the serve layer its request/fold counters,
the api layer its per-path search counters, the perf layer its
prune/cache counters, the store layer its transaction/retry counters —
and ``GET /metrics`` on the serving layer renders the whole registry in
Prometheus text exposition format (version 0.0.4).

Three instrument kinds:

* :class:`Counter` — monotonically increasing totals
  (``repro_requests_total``);
* :class:`Gauge` — set-to-current values (``repro_tenants_open``);
* :class:`Summary` — observation streams with exact lifetime
  count/sum and nearest-rank quantiles over a bounded
  :class:`~repro.obs.histogram.Reservoir`
  (``repro_request_latency_seconds``, ``repro_batch_fold_size``).

Instruments are get-or-created by name — calling
``registry.counter("x")`` twice returns the same object, and declaring
the same name with a different kind or label set raises.  All mutation
is guarded by one lock per registry, so worker threads (store layer)
and the event loop (serve layer) can record concurrently.

The default process-wide registry is :data:`REGISTRY` /
:func:`get_registry`; tests build private registries to assert exact
counts in isolation.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from .histogram import Reservoir

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "REGISTRY",
    "Summary",
    "get_registry",
]

#: Quantiles a Summary exposes, matching the serving stats' p50/p99.
SUMMARY_QUANTILES = (0.5, 0.99)


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(names: "tuple[str, ...]", values: "tuple[str, ...]", extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    ]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


class _Instrument:
    """Shared bookkeeping of one named metric family."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, label_names: "tuple[str, ...]", lock: threading.Lock
    ) -> None:
        self.name = _validate_name(name)
        self.help = help_text
        self.label_names = tuple(label_names)
        self._lock = lock

    def _label_values(self, labels: "dict[str, Any]") -> "tuple[str, ...]":
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(_Instrument):
    """A monotonically increasing total, optionally per label set."""

    kind = "counter"

    def __init__(self, name, help_text, label_names, lock) -> None:
        super().__init__(name, help_text, label_names, lock)
        # An unlabelled counter exposes its zero immediately (labelled
        # children only exist once a label set is observed).
        self._values: "dict[tuple[str, ...], float]" = {} if label_names else {(): 0.0}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._label_values(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._label_values(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> "list[tuple[tuple[str, ...], float]]":
        with self._lock:
            return list(self._values.items())

    def render(self) -> Iterator[str]:
        for key, value in self.samples():
            yield f"{self.name}{_render_labels(self.label_names, key)} {_format_value(value)}"


class Gauge(_Instrument):
    """A value that can go up and down, optionally per label set."""

    kind = "gauge"

    def __init__(self, name, help_text, label_names, lock) -> None:
        super().__init__(name, help_text, label_names, lock)
        self._values: "dict[tuple[str, ...], float]" = {} if label_names else {(): 0.0}

    def set(self, value: float, **labels: Any) -> None:
        key = self._label_values(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._label_values(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = self._label_values(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> "list[tuple[tuple[str, ...], float]]":
        with self._lock:
            return list(self._values.items())

    def render(self) -> Iterator[str]:
        for key, value in self.samples():
            yield f"{self.name}{_render_labels(self.label_names, key)} {_format_value(value)}"


class Summary(_Instrument):
    """An observation stream: exact count/sum + reservoir quantiles."""

    kind = "summary"

    def __init__(self, name, help_text, label_names, lock) -> None:
        super().__init__(name, help_text, label_names, lock)
        self._reservoirs: "dict[tuple[str, ...], Reservoir]" = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._label_values(labels)
        with self._lock:
            reservoir = self._reservoirs.get(key)
            if reservoir is None:
                reservoir = self._reservoirs[key] = Reservoir()
            reservoir.observe(float(value))

    def count(self, **labels: Any) -> int:
        key = self._label_values(labels)
        with self._lock:
            reservoir = self._reservoirs.get(key)
            return reservoir.count if reservoir is not None else 0

    def total(self, **labels: Any) -> float:
        key = self._label_values(labels)
        with self._lock:
            reservoir = self._reservoirs.get(key)
            return reservoir.total if reservoir is not None else 0.0

    def quantile(self, fraction: float, **labels: Any) -> float | None:
        key = self._label_values(labels)
        with self._lock:
            reservoir = self._reservoirs.get(key)
            return reservoir.percentile(fraction) if reservoir is not None else None

    def samples(self) -> "list[tuple[tuple[str, ...], int, float, list[float]]]":
        with self._lock:
            return [
                (key, reservoir.count, reservoir.total, reservoir.values())
                for key, reservoir in self._reservoirs.items()
            ]

    def render(self) -> Iterator[str]:
        from .histogram import percentile as nearest_rank

        for key, count, total, values in self.samples():
            for fraction in SUMMARY_QUANTILES:
                estimate = nearest_rank(values, fraction)
                if estimate is None:
                    continue
                labels = _render_labels(
                    self.label_names, key, extra=(("quantile", str(fraction)),)
                )
                yield f"{self.name}{labels} {_format_value(estimate)}"
            plain = _render_labels(self.label_names, key)
            yield f"{self.name}_count{plain} {count}"
            yield f"{self.name}_sum{plain} {_format_value(total)}"


class MetricsRegistry:
    """Get-or-create instruments by name; render them all as one page."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "dict[str, _Instrument]" = {}

    def _get_or_create(self, cls, name: str, help_text: str, labels: "tuple[str, ...]"):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is not None:
                if not isinstance(instrument, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {instrument.kind}, "
                        f"not {cls.kind}"
                    )
                if instrument.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{instrument.label_names}, not {tuple(labels)}"
                    )
                if help_text and not instrument.help:
                    instrument.help = help_text
                return instrument
            instrument = cls(name, help_text, tuple(labels), threading.Lock())
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labels: "tuple[str, ...]" = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: "tuple[str, ...]" = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def summary(self, name: str, help: str = "", labels: "tuple[str, ...]" = ()) -> Summary:
        return self._get_or_create(Summary, name, help, labels)

    def get(self, name: str) -> "_Instrument | None":
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> "list[_Instrument]":
        with self._lock:
            return list(self._instruments.values())

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text format (0.0.4)."""
        lines: "list[str]" = []
        for instrument in sorted(self.instruments(), key=lambda i: i.name):
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        """Drop every instrument (tests only — cached references orphan)."""
        with self._lock:
            self._instruments.clear()


#: The process-wide default registry every layer records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
