"""Finitely supported test functionals, signed measures, and moments.

Kernel values live in the space of finitely supported signed measures on
the nonnegative integers; test functionals (finitely supported real
functions on the same index set) act on them by weighted summation. A
real-valued kernel embeds as ``r * delta_1`` read off by the canonical
``unit`` functional, so scalar kernels are a special case of the same
representation.

The norm on measures is total variation (sum of absolute weights), the
dual norm to the sup norm carried by the functionals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import ValidationError

#: id of the canonical functional reading off the scalar embedded at point 1.
DEFAULT_FUNCTIONAL_ID = "unit"


def _validate_support(support: tuple[int, ...], what: str) -> None:
    for k in support:
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValidationError(
                f"{what}: support entries must be nonnegative integers, got {k!r}",
                code=f"bad-{what}",
            )
    if any(a >= b for a, b in zip(support, support[1:], strict=False)):
        raise ValidationError(
            f"{what}: support must be strictly increasing", code=f"bad-{what}"
        )


@dataclass(frozen=True)
class TestFunctional:
    """A real-valued function on the nonnegative integers with finite support.

    Evaluation at any point outside ``support`` is 0.
    """

    id: str
    support: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.id:
            raise ValidationError("functional id must be nonempty", code="bad-functional")
        _validate_support(self.support, "functional")
        if len(self.values) != len(self.support):
            raise ValidationError(
                "functional: values and support lengths differ", code="bad-functional"
            )
        if any(not math.isfinite(v) for v in self.values):
            raise ValidationError("functional: values must be finite", code="bad-functional")

    @cached_property
    def _table(self) -> dict[int, float]:
        return dict(zip(self.support, self.values))

    def __call__(self, k: int) -> float:
        return self._table.get(k, 0.0)


def check_measure(support: Sequence[int], weights: Sequence[float]) -> None:
    """Raise ``bad-measure`` unless support and weights make a :class:`FiniteMeasure`."""
    _validate_support(support, "measure")
    if len(weights) != len(support):
        raise ValidationError(
            "measure: weights and support lengths differ", code="bad-measure"
        )
    for w in weights:
        if not math.isfinite(w):
            raise ValidationError("measure: weights must be finite", code="bad-measure")
        if w == 0.0:
            raise ValidationError(
                "measure: zero weights must not be stored", code="bad-measure"
            )


@dataclass(frozen=True)
class FiniteMeasure:
    """A finitely supported signed measure on the nonnegative integers.

    Zero weights are never stored explicitly; the zero measure has empty
    support.
    """

    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        check_measure(self.support, self.weights)

    def __call__(self, k: int) -> float:
        return self._table.get(k, 0.0)

    @cached_property
    def _table(self) -> dict[int, float]:
        return dict(zip(self.support, self.weights))


ZERO_MEASURE = FiniteMeasure((), ())


def point_mass(k: int, weight: float = 1.0) -> FiniteMeasure:
    """The measure ``weight * delta_k`` (the zero measure when weight == 0)."""
    if weight == 0.0:
        return ZERO_MEASURE
    return FiniteMeasure((k,), (weight,))


def unit_functional() -> TestFunctional:
    """The canonical functional pairing to 1 against ``delta_1``."""
    return TestFunctional(DEFAULT_FUNCTIONAL_ID, (1,), (1.0,))


def pair(psi: TestFunctional, v: FiniteMeasure) -> float:
    """Weak-* evaluation ``sum_k psi(k) * v({k})``; bilinear in both arguments."""
    return math.fsum(psi(k) * w for k, w in zip(v.support, v.weights))


def tv_norm(v: FiniteMeasure) -> float:
    """Total variation norm: the sum of absolute weights."""
    return math.fsum(abs(w) for w in v.weights)


def measure_combine(terms: Sequence[tuple[float, FiniteMeasure]]) -> FiniteMeasure:
    """Linear combination ``sum coef_i * mu_i``, dropping exact zeros.

    Per-point accumulation uses exact summation so equal-and-opposite
    contributions cancel to a true zero.
    """
    buckets: dict[int, list[float]] = {}
    for coef, mu in terms:
        if coef == 0.0:
            continue
        for k, w in zip(mu.support, mu.weights):
            buckets.setdefault(k, []).append(coef * w)
    support = []
    weights = []
    for k in sorted(buckets):
        w = math.fsum(buckets[k])
        if w != 0.0:
            support.append(k)
            weights.append(w)
    return FiniteMeasure(tuple(support), tuple(weights))


def tv_distance(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    """``tv_norm(mu - nu)`` without materialising the difference."""
    points = set(mu.support) | set(nu.support)
    return math.fsum(abs(mu(k) - nu(k)) for k in points)


def moment(dist: Sequence[float], r: int) -> float:
    """r-th raw moment ``sum_k k**r * dist[k]`` of a distribution on {0..N}.

    ``dist`` must be entrywise nonnegative and sum to 1 within 1e-12.
    The order-0 moment is exactly 1 by the ``0**0 == 1`` convention. A
    power ``k**r`` or a sum beyond the double range is refused as
    ``overflow``.
    """
    if r < 0 or not isinstance(r, int) or isinstance(r, bool):
        raise ValidationError("moment order must be a nonnegative integer", code="bad-order")
    p = [float(x) for x in dist]
    if any(x < -1e-12 for x in p):
        raise ValidationError("distribution has a negative entry", code="bad-distribution")
    total = math.fsum(p)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(
            f"distribution sums to {total!r}, not 1 within 1e-12", code="bad-distribution"
        )
    if r == 0:
        return 1.0
    try:
        return math.fsum((k**r) * x for k, x in enumerate(p))
    except OverflowError:
        raise ValidationError(
            f"the moment of order {r} on {{0..{len(p) - 1}}} is beyond the double range",
            code="overflow",
        ) from None


@dataclass(frozen=True)
class MomentSequence:
    """A sequence of scalars indexed from order 0, tagged by provenance.

    source == "distribution": entries are raw moments of a nonnegative
    random variable (entry 0 must be 1, even orders nonnegative); the
    implied p-norm at order p is ``moments[p] ** (1/p)``.

    source == "symbolic": entries ARE the p-norm scale directly (entry at
    index p is the norm at exponent p), used to feed analytic families into
    the Carleman report without representing an actual distribution.
    """

    moments: tuple[float, ...]
    source: str = "distribution"

    def __post_init__(self):
        object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))
        if self.source not in ("distribution", "symbolic"):
            raise ValidationError(
                f"unknown moment-sequence source {self.source!r}", code="bad-source"
            )
        if any(not math.isfinite(m) for m in self.moments):
            raise ValidationError("moments must be finite", code="bad-moments")
        if self.source == "distribution":
            if not self.moments or abs(self.moments[0] - 1.0) > 1e-12:
                raise ValidationError(
                    "distribution moments must start with 1 at order 0",
                    code="bad-moments",
                )
            if any(m < 0 for m in self.moments[::2]):
                raise ValidationError(
                    "even-order moments of a distribution must be nonnegative",
                    code="bad-moments",
                )

    def norm_at(self, p: int) -> float:
        """The p-norm implied by the sequence at integer order ``p >= 1``."""
        if p < 1:
            raise ValidationError("norm order must be >= 1", code="bad-order")
        if p >= len(self.moments):
            raise ValidationError(
                f"moment of order {p} not present (have {len(self.moments) - 1})",
                code="insufficient-moments",
            )
        m = self.moments[p]
        if self.source == "symbolic":
            if m < 0:
                raise ValidationError(
                    "symbolic norm entries must be nonnegative", code="bad-moments"
                )
            return m
        if m < 0:
            raise ValidationError(
                "cannot take a norm from a negative moment", code="bad-moments"
            )
        return m ** (1.0 / p)

