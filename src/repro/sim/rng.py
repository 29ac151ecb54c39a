"""Deterministic, named random-number streams.

Every stochastic choice in the simulator (per-TB instruction counts, CPI
jitter, non-idempotent points, preemption arrival phases) draws from a
stream named after its purpose. Streams are derived from a single root
seed, so an experiment is reproducible from ``(root_seed, stream names)``
alone, and adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from typing import Deque, Dict, List, Optional

from repro import vector as _vector_mode
from repro.errors import SimulationError

#: Below this batch size the numpy path's fixed costs (state copies,
#: array setup) outweigh the per-draw win; the scalar loop runs instead.
#: The two paths are bit-identical either way.
_VECTOR_MIN_N = 512


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 12345):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}
        #: Per stream name, the Beta windows with undrawn positions,
        #: oldest first; only the first may be partly drawn.
        self._undrawn: Dict[str, Deque[BetaWindow]] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream with this name."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.root_seed, name))
        return self._streams[name]

    def lognormal(self, name: str, mean: float, cv: float) -> float:
        """Draw a lognormal value with the given arithmetic mean and
        coefficient of variation (stddev/mean).

        ``cv == 0`` returns ``mean`` exactly.
        """
        if mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {mean}")
        if cv <= 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return self.stream(name).lognormvariate(mu, math.sqrt(sigma2))

    def lognormal_batch(self, name: str, mean: float, cv: float,
                        n: int) -> List[float]:
        """Draw ``n`` lognormal values in one call.

        The ``mu``/``sigma`` transform is computed once and the stream's
        bound ``lognormvariate`` is called ``n`` times, so the sequence
        of values is bit-identical to ``n`` calls of :meth:`lognormal`
        (same stream state transitions, same floats). ``cv == 0``
        returns ``[mean] * n`` without touching the stream, matching the
        scalar method's draw-free shortcut.
        """
        if mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {mean}")
        if n <= 0:
            return []
        if cv <= 0:
            return [mean] * n
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        sigma = math.sqrt(sigma2)
        stream = self.stream(name)
        if n >= _VECTOR_MIN_N and _vector_mode.vector_enabled():
            from repro.sim import rng_vector
            return rng_vector.lognormal_fill(stream, mu, sigma, n)
        draw = stream.lognormvariate
        return [draw(mu, sigma) for _ in range(n)]

    def beta(self, name: str, alpha: float, beta: float) -> float:
        """Draw from a Beta(alpha, beta) distribution on [0, 1]."""
        return self.stream(name).betavariate(alpha, beta)

    def beta_batch(self, name: str, alpha: float, beta: float,
                   n: int) -> List[float]:
        """Draw ``n`` Beta(alpha, beta) values in one call (bit-identical
        to ``n`` calls of :meth:`beta` on the same stream)."""
        if n <= 0:
            return []
        stream = self.stream(name)
        if n >= _VECTOR_MIN_N and _vector_mode.vector_enabled():
            from repro.sim import rng_vector
            try:
                return rng_vector.beta_fill(stream, alpha, beta, n)
            except rng_vector.VectorUnsupported:
                pass  # e.g. alpha < 1: the scalar loop handles it
        draw = stream.betavariate
        return [draw(alpha, beta) for _ in range(n)]

    def beta_window(self, name: str, alpha: float, beta: float,
                    n: int) -> "BetaWindow":
        """Reserve the next ``n`` positions of the stream's Beta sequence.

        Nothing is drawn yet: reading a position draws (through
        :meth:`beta_batch`) every value of the sequence up to it that is
        still undrawn, in position order. A value therefore equals the
        one an eager ``beta_batch`` of every window reserved so far would
        have produced there, however the reads are ordered or batched —
        provided the stream has no other consumer.
        """
        window = BetaWindow(self, name, alpha, beta, n)
        self._undrawn.setdefault(name, deque()).append(window)
        return window

    def _draw_through(self, window: "BetaWindow", index: int) -> None:
        """Draw every undrawn position of ``window``'s sequence up to
        ``window[index]``, one :meth:`beta_batch` call per window, so
        the stream advances exactly as eager draws at reservation would
        have advanced it."""
        undrawn = self._undrawn[window.name]
        while True:
            head = undrawn[0]
            stop = index + 1 if head is window else head.n
            values = self.beta_batch(head.name, head.alpha, head.beta,
                                     stop - head.drawn)
            if head.values is not None:
                head.values += values
            head.drawn = stop
            if stop == head.n:
                undrawn.popleft()
            if head is window:
                return

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """Draw uniformly from [lo, hi)."""
        return self.stream(name).uniform(lo, hi)

    def fork(self, name: str) -> "RngStreams":
        """Return a new independent RngStreams rooted under ``name``."""
        return RngStreams(_derive_seed(self.root_seed, f"fork:{name}"))


class BetaWindow:
    """``n`` consecutive positions of a stream's Beta sequence, reserved
    by :meth:`RngStreams.beta_window`; ``window[i]`` draws on first read.

    ``values`` holds the drawn values of positions ``[0, drawn)``, or
    None once :meth:`release` has dropped them.
    """

    __slots__ = ("_rng", "name", "alpha", "beta", "n", "drawn", "values")

    def __init__(self, rng: RngStreams, name: str, alpha: float,
                 beta: float, n: int):
        self._rng = rng
        self.name = name
        self.alpha = alpha
        self.beta = beta
        self.n = n
        self.drawn = 0
        self.values: Optional[List[float]] = []

    def __getitem__(self, index: int) -> float:
        if index >= self.drawn:
            self._rng._draw_through(self, index)
        if self.values is None:
            raise SimulationError("read of a released beta window")
        return self.values[index]

    def release(self) -> None:
        """Drop the drawn values; the window may not be read again. Its
        undrawn positions are still drawn (and discarded) when a later
        window of the stream is read."""
        self.values = None
