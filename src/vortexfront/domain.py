"""Domain types shared by the symbol, solver and pressure modules."""

from __future__ import annotations

import contextvars
import enum
import math
import os
import threading
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)

# Relative tolerance used to classify a medium as sonic / at the stability
# threshold.  Inside this band the root structure is degenerate and the
# operations that rely on it refuse to run.
REGIME_RTOL = 1e-12

# Absolute tolerance (in units of |eta|) used to snap a boundary root to the
# loci where it vanishes exactly.
ENDPOINT_ATOL = 1e-12

# Chunks per core in :func:`_split`.  With a core shared with other work,
# one chunk per core waits for the slow one: on a 2-vCPU host with another
# process busy half the time, a 128x128x256 solve and its two half-space
# norms took a median 176 ms in two chunks per stage and 166 ms in eight,
# against 198 ms on one thread.
_CHUNKS_PER_CORE = 4
# Least work (complex entries) that _split spreads over threads.  On a 2-vCPU
# host the x1 rfft of 35k entries took 1.4 ms split and 0.54 ms on one
# thread, and broke even at 104k-135k; the depth pass broke even at 139k.
_SPLIT_MIN_ENTRIES = 1 << 17


def _workers() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Set in the threads of a running _split, whose nested _split calls run inline.
_IN_SPLIT = contextvars.ContextVar("_IN_SPLIT", default=False)


def _split(fn, n: int, entries: int) -> None:
    """Run fn(lo, hi) over contiguous chunks of range(n) on the usable cores,
    or fn(0, n) on the calling thread when the stage touches fewer than
    _SPLIT_MIN_ENTRIES entries, one core is usable, or the call is made in
    a chunk of another _split (which already keeps the cores busy).

    The range is cut into a few chunks per core, taken in order: one by
    each thread (the calling thread takes the first), then the next free
    one, so a core slowed by other work takes fewer.  Each fn call must
    write only the outputs of its own indices, by arithmetic that does not
    depend on the chunk bounds, so results do not depend on the core count.
    Workers see the caller's context (np.errstate).  Once every thread has
    stopped, the lowest failing chunk's exception, the one a serial loop
    would raise, is re-raised here.
    """
    k = min(_workers(), n)
    if entries < _SPLIT_MIN_ENTRIES or k < 2 or _IN_SPLIT.get():
        fn(0, n)
        return
    size = -(-n // (_CHUNKS_PER_CORE * k))
    starts = iter(range(0, n, size))
    lock = threading.Lock()
    errors = []

    def work(lo):
        token = _IN_SPLIT.set(True)
        try:
            while lo is not None:
                fn(lo, min(lo + size, n))
                with lock:
                    lo = next(starts, None)
        except BaseException as exc:  # re-raised in the caller
            errors.append((lo, exc))
        finally:
            _IN_SPLIT.reset(token)

    first, *others = (next(starts) for _ in range(k))
    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(work, lo)) for lo in others]
    for thread in threads:
        thread.start()
    work(first)
    for thread in threads:
        thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


class RegimeError(RuntimeError):
    """An operation was requested outside the regime where it is defined."""

    def __init__(self, regime: str, message: str):
        super().__init__(message)
        self.regime = regime


@dataclass(frozen=True)
class Frequency:
    """A point (tau, eta) of the frequency set, tau = gamma + i*delta.

    gamma >= 0 is the exponential time weight (1/time), delta the time
    frequency (1/time) and eta the space frequency (1/length).  The origin
    (0, 0, 0) is excluded.
    """

    gamma: float
    delta: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.delta)
                and math.isfinite(self.eta)):
            raise ValueError("frequency components must be finite")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.gamma == 0 and self.delta == 0 and self.eta == 0:
            raise ValueError("(0, 0, 0) is not a frequency")

    @property
    def tau(self) -> complex:
        return complex(self.gamma, self.delta)

    @property
    def magnitude_sq(self) -> float:
        """|tau|^2 + eta^2, the squared frequency scale."""
        return self.gamma * self.gamma + self.delta * self.delta + self.eta * self.eta

    def scaled(self, k: float) -> "Frequency":
        if k <= 0:
            raise ValueError("scale factor must be positive")
        return Frequency(k * self.gamma, k * self.delta, k * self.eta)


@dataclass(frozen=True)
class Medium:
    """Constant states: velocity v1 = +v above the front and -v below it,
    and sound speed c, both positive.  The symbol depends only on the jump
    2v, so a Galilean change of frame in x1 reduces any constant states to
    this form (Coulombel & Secchi, Indiana Univ. Math. J. 53, 2004)."""

    v: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.c)):
            raise ValueError("medium parameters must be finite")
        if self.v <= 0 or self.c <= 0:
            raise ValueError("velocity v and sound speed c must be positive")

    @classmethod
    def symmetric(cls, v: float, c: float) -> "Medium":
        return cls(v, c)

    @property
    def v1_plus(self) -> float:
        return self.v

    @property
    def v1_minus(self) -> float:
        return -self.v


class MachClass(str, enum.Enum):
    SUBSONIC = "subsonic"
    SONIC = "sonic"
    SUPERSONIC = "supersonic"


class StabilityClass(str, enum.Enum):
    ELLIPTIC_UNSTABLE = "elliptic_unstable"
    TRANSITION = "transition"
    WEAKLY_STABLE = "weakly_stable"


@dataclass(frozen=True)
class RootPair:
    """The decay roots of the upper (+) and lower (-) sides."""

    mu_plus: complex
    mu_minus: complex


@dataclass(frozen=True)
class RegimeReport:
    """Stability classification of a medium.

    y0 locates the spurious candidates of the dispersion relation (never
    symbol roots); y1 the real-axis root parameter (only below the
    threshold); y2 the neutral imaginary-axis root parameter (only above).
    """

    mach_class: MachClass
    stability_class: StabilityClass
    mach_ratio: float
    y0: float
    y1: float | None
    y2: float | None
