"""Fault plans: deterministic schedules of injectable storage faults.

A :class:`FaultPlan` answers one question — *what goes wrong at AIO
request ordinal N (or on device D)?* — and answers it identically every
time it is asked.  Two construction styles compose:

* **Explicit events** (:meth:`FaultPlan.parse` tokens such as
  ``transient@5`` or ``slow:0:4``) pin faults to exact request ordinals
  or devices — the form chaos tests use to stage one precise scenario.
* **Seeded generation** (:meth:`FaultPlan.from_seed`) draws per-ordinal
  faults from :class:`FaultRates` through a stateless hash of
  ``(seed, ordinal)``, so the injected sequence depends only on which
  ordinals a run touches — never on thread timing, prefetch depth, or
  how far the plan was "consumed".

Request ordinals are assigned by :class:`~repro.storage.aio.AIOContext`
in batch-plan order (retries of a request reuse its ordinal), which is
what makes a chaos run bit-deterministic at every prefetch depth.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.errors import StorageError


class FaultKind(enum.Enum):
    """Taxonomy of injectable faults (docs/RELIABILITY.md)."""

    TRANSIENT = "transient"  # read error for the first `count` attempts
    PERSISTENT = "persistent"  # read error on every attempt
    SHORT_READ = "short"  # `drop` bytes missing for the first `count` attempts
    BIT_FLIP = "bitflip"  # payload bit `bit` flipped (silent corruption)
    LATENCY_SPIKE = "spike"  # `delay` extra simulated seconds on the batch
    DEVICE_SLOW = "slow"  # RAID member `device` slowed by `factor`
    DEVICE_DEAD = "dead"  # RAID member `device` fails every request


#: Kinds keyed by request ordinal (vs. per-device configuration).
REQUEST_KINDS = frozenset(
    {
        FaultKind.TRANSIENT,
        FaultKind.PERSISTENT,
        FaultKind.SHORT_READ,
        FaultKind.BIT_FLIP,
        FaultKind.LATENCY_SPIKE,
    }
)
DEVICE_KINDS = frozenset({FaultKind.DEVICE_SLOW, FaultKind.DEVICE_DEAD})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``request`` is the AIO request ordinal it fires on (request kinds);
    ``device`` the RAID member index (device kinds).  ``count`` is how
    many attempts a transient condition fails before clearing.
    """

    kind: FaultKind
    request: "int | None" = None
    device: "int | None" = None
    count: int = 1
    delay: float = 0.0  # LATENCY_SPIKE: seconds added
    factor: float = 1.0  # DEVICE_SLOW: service-time multiplier
    bit: int = 0  # BIT_FLIP: bit index within the payload
    drop: int = 1  # SHORT_READ: trailing bytes withheld

    def __post_init__(self) -> None:
        if self.kind in REQUEST_KINDS and self.request is None:
            raise StorageError(f"{self.kind.value} fault needs a request ordinal")
        if self.kind in DEVICE_KINDS and self.device is None:
            raise StorageError(f"{self.kind.value} fault needs a device index")
        if self.count < 1:
            raise StorageError("fault count must be >= 1")
        if self.delay < 0:
            raise StorageError("spike delay must be >= 0")
        if self.factor < 1.0:
            raise StorageError("slowdown factor must be >= 1")
        if self.drop < 1:
            raise StorageError("short-read drop must be >= 1 byte")


@dataclass(frozen=True)
class FaultRates:
    """Per-request probabilities for seeded generation (disjoint draws)."""

    transient: float = 0.02
    short_read: float = 0.005
    bit_flip: float = 0.0
    spike: float = 0.02
    spike_max: float = 0.005  # max injected seconds per spike

    def __post_init__(self) -> None:
        total = self.transient + self.short_read + self.bit_flip + self.spike
        if not (0.0 <= total <= 1.0):
            raise StorageError("fault rates must sum into [0, 1]")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for retryable storage errors.

    ``max_attempts`` counts total tries (first attempt included); the
    backoff before retry ``k`` (1-based) is ``backoff * multiplier**(k-1)``
    simulated seconds, charged to the batch's service time so chaos runs
    stay on one deterministic timeline.
    """

    max_attempts: int = 4
    backoff: float = 0.002
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise StorageError("max_attempts must be >= 1")
        if self.backoff < 0 or self.multiplier < 1.0:
            raise StorageError("backoff must be >= 0 and multiplier >= 1")

    def backoff_for(self, retry: int) -> float:
        """Simulated seconds to wait before retry number ``retry`` (1-based)."""
        return self.backoff * self.multiplier ** (retry - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule: explicit events plus an optional
    seeded background rate."""

    events: "tuple[FaultEvent, ...]" = ()
    seed: "int | None" = None
    rates: FaultRates = field(default_factory=FaultRates)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_by_request",
            {e.request: e for e in self.events if e.kind in REQUEST_KINDS},
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_seed(
        cls, seed: int, rates: "FaultRates | None" = None
    ) -> "FaultPlan":
        """A purely generative plan: faults drawn per ordinal from ``rates``."""
        return cls(seed=int(seed), rates=rates or FaultRates())

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec: a bare integer seed, or comma-separated
        event tokens.

        Tokens (docs/RELIABILITY.md):
        ``transient@N[:count]``, ``persistent@N``, ``short@N[:drop]``,
        ``bitflip@N[:bit]``, ``spike@N[:seconds]``, ``slow:DEV:FACTOR``,
        ``dead:DEV``.  Example::

            transient@3,spike@5:0.01,slow:0:4
        """
        spec = spec.strip()
        if not spec:
            raise StorageError("empty fault spec")
        try:
            return cls.from_seed(int(spec))
        except ValueError:
            pass
        events: "list[FaultEvent]" = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            events.append(_parse_token(token))
        return cls(events=tuple(events))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def event_for(self, ordinal: int) -> "FaultEvent | None":
        """The fault (if any) scheduled on request ``ordinal``.

        Stateless and deterministic: explicit events win; otherwise the
        seeded draw is a pure function of ``(seed, ordinal)``.
        """
        ev = self._by_request.get(ordinal)  # type: ignore[attr-defined]
        if ev is not None:
            return ev
        if self.seed is None:
            return None
        rng = random.Random((self.seed << 24) ^ (ordinal * 0x9E3779B1))
        r = rng.random()
        rates = self.rates
        edge = rates.transient
        if r < edge:
            return FaultEvent(
                FaultKind.TRANSIENT, request=ordinal, count=1 + (rng.random() < 0.25)
            )
        edge += rates.short_read
        if r < edge:
            return FaultEvent(
                FaultKind.SHORT_READ, request=ordinal, drop=1 + rng.randrange(4)
            )
        edge += rates.bit_flip
        if r < edge:
            return FaultEvent(
                FaultKind.BIT_FLIP, request=ordinal, bit=rng.randrange(1 << 12)
            )
        edge += rates.spike
        if r < edge:
            return FaultEvent(
                FaultKind.LATENCY_SPIKE,
                request=ordinal,
                delay=rng.uniform(0.0, rates.spike_max),
            )
        return None

    def device_events(self) -> "tuple[FaultEvent, ...]":
        """Per-device configuration events (slow / dead members)."""
        return tuple(e for e in self.events if e.kind in DEVICE_KINDS)

    def describe(self) -> str:
        parts = [f"{len(self.events)} explicit events"]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return f"FaultPlan({', '.join(parts)})"


def _parse_token(token: str) -> FaultEvent:
    kind_s, _, rest = token.partition("@")
    try:
        prefix = token.split(":", 1)[0]
        if prefix in ("slow", "dead"):
            fields = token.split(":")
            if fields[0] == "slow":
                if len(fields) != 3:
                    raise ValueError("slow:DEV:FACTOR")
                return FaultEvent(
                    FaultKind.DEVICE_SLOW,
                    device=int(fields[1]),
                    factor=float(fields[2]),
                )
            if len(fields) != 2:
                raise ValueError("dead:DEV")
            return FaultEvent(FaultKind.DEVICE_DEAD, device=int(fields[1]))
        if not rest:
            raise ValueError("request faults need @N")
        arg_s, _, extra = rest.partition(":")
        ordinal = int(arg_s)
        if kind_s == "transient":
            return FaultEvent(
                FaultKind.TRANSIENT,
                request=ordinal,
                count=int(extra) if extra else 1,
            )
        if kind_s == "persistent":
            return FaultEvent(FaultKind.PERSISTENT, request=ordinal)
        if kind_s == "short":
            return FaultEvent(
                FaultKind.SHORT_READ,
                request=ordinal,
                drop=int(extra) if extra else 1,
            )
        if kind_s == "bitflip":
            return FaultEvent(
                FaultKind.BIT_FLIP,
                request=ordinal,
                bit=int(extra) if extra else 0,
            )
        if kind_s == "spike":
            return FaultEvent(
                FaultKind.LATENCY_SPIKE,
                request=ordinal,
                delay=float(extra) if extra else 0.005,
            )
        raise ValueError(f"unknown fault kind {kind_s!r}")
    except (ValueError, IndexError) as exc:
        raise StorageError(
            f"bad fault token {token!r}: {exc}", context={"token": token}
        ) from None
