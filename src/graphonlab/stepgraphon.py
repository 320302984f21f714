"""Step graphons: finite partitions with measure-valued symmetric blocks.

A step graphon is the computable graphon: a probability vector of class
masses, a symmetric matrix of finitely supported signed measures, and a
dictionary of the test functionals the graphon can be probed with.
Kernels, p-norms and the Carleman-sum diagnostics live here.

Array layout. The q x q block matrix is stored as two arrays over one
shared support:

* ``support``: shape ``(S,)``, int64, strictly increasing, the sorted
  union of the block supports;
* ``weights``: shape ``(q, q, S)``, float64; ``weights[i, j, s]`` is the
  mass block (i, j) puts on ``support[s]``, and 0 where it puts none.

A functional acts as its vector of values at the support points, so a
kernel is ``weights`` contracted with that vector, and the block
total-variation norms are ``|weights|.sum(-1)``, a ``(q, q)`` matrix
computed once per graphon. Both sum over all of S, so twin rows (which
share S) get bit-identical kernel and norm rows, but an entry can move in
its last bits when another block gains support points (ROADMAP item 18).
The arrays are read-only once held; ``blocks`` is an exact view of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import ValidationError
from .measures import FiniteMeasure, MomentSequence, TestFunctional

# bench/tracing.py counts calls through these names; nothing here calls them
from .measures import pair, tv_norm  # noqa: F401

MASS_SUM_TOL = 1e-12


class StepGraphon:
    """Masses, symmetric measure blocks, and the functional dictionary.

    ``StepGraphon(masses, support, weights, functionals)`` keeps the given
    arrays and makes them read-only. Construction does not validate; call
    :func:`validate_graphon` (file loading always does).
    """

    def __init__(
        self,
        masses,
        support: np.ndarray,
        weights: np.ndarray,
        functionals: dict[str, TestFunctional] | None = None,
    ):
        self.masses = tuple(float(m) for m in masses)
        self.support = np.asarray(support, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.support.flags.writeable = False
        self.weights.flags.writeable = False
        self.functionals = dict(functionals or {})

    @property
    def q(self) -> int:
        return len(self.masses)

    @cached_property
    def blocks(self) -> tuple[tuple[FiniteMeasure, ...], ...]:
        """Block (i, j) as an exact measure, zero weights dropped; built once."""
        pts = self.support.tolist()
        return tuple(
            tuple(
                FiniteMeasure(tuple(compress(pts, ws)), tuple(filter(None, ws)))
                for ws in row
            )
            for row in self.weights.tolist()
        )

    def functional(self, psi_id: str) -> TestFunctional:
        try:
            return self.functionals[psi_id]
        except KeyError:
            raise ValidationError(
                f"unknown functional id {psi_id!r}", code="unknown-functional"
            ) from None

    @cached_property
    def tv_matrix(self) -> np.ndarray:
        """Total-variation norm of every block, shape ``(q, q)``; inf where it overflows."""
        with np.errstate(over="ignore"):
            return np.abs(self.weights).sum(axis=-1)

    @property
    def sup_norm(self) -> float:
        """Largest block total-variation norm (internal bound, not a p-norm)."""
        return float(self.tv_matrix.max())


def validate_graphon(W: StepGraphon) -> None:
    """Check all step-graphon invariants, raising coded errors.

    Codes: ``nonpositive-mass``, ``mass-sum``, ``bad-shape``,
    ``asymmetric-blocks``, ``bad-functional-key``.
    """
    q = W.q
    if q == 0:
        raise ValidationError("graphon needs at least one class", code="bad-shape")
    for m in W.masses:
        if not math.isfinite(m) or m <= 0.0:
            raise ValidationError(
                f"class masses must be positive, got {m!r}", code="nonpositive-mass"
            )
    total = math.fsum(W.masses)
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise ValidationError(
            f"class masses sum to {total!r}, not 1 within {MASS_SUM_TOL}",
            code="mass-sum",
        )
    if W.weights.shape[:2] != (q, q):
        raise ValidationError("block matrix must be q x q", code="bad-shape")
    differ = np.any(W.weights != W.weights.transpose(1, 0, 2), axis=-1)
    if differ.any():
        i, j = np.argwhere(np.triu(differ))[0].tolist()
        raise ValidationError(
            f"blocks ({i},{j}) and ({j},{i}) differ", code="asymmetric-blocks"
        )
    for key, f in W.functionals.items():
        if key != f.id:
            raise ValidationError(
                f"functional dictionary key {key!r} does not match id {f.id!r}",
                code="bad-functional-key",
            )


def require_finite(value, what: str):
    """``value``, refused as ``overflow`` when any entry of it is inf or NaN.

    The callers compute ``value`` with numpy's overflow and invalid-value
    warnings off: the refusal reports it instead.
    """
    if not np.isfinite(value).all():
        raise ValidationError(f"{what} is not finite: it overflows a double", code="overflow")
    return value


def kernel_matrix(W: StepGraphon, psi_id: str) -> np.ndarray:
    """Pair the functional against every block: entry (i, j) = <psi, W_ij>.

    An elementwise product summed over the support rather than a matrix
    product: BLAS may round a row differently by its position, and twin
    classes must get bit-identical kernel rows. Every reader of a kernel
    calls this, which refuses one beyond the double range as ``overflow``."""
    psi = W.functional(psi_id)
    values = np.array([psi(k) for k in W.support.tolist()], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite((W.weights * values).sum(axis=-1), f"the kernel of {psi_id!r}")


def p_norm(W: StepGraphon, p: float) -> float:
    """``(sum_ij pi_i pi_j tv(W_ij)^p)^(1/p)`` for ``p >= 1``.

    Computed with max scaling so large exponents (the Carleman sums go up
    to p = 2Nk) neither overflow nor underflow, in place without BLAS.
    Refused as ``overflow`` when a block norm is beyond the double range.
    """
    if not p >= 1:  # NaN fails too
        raise ValidationError("p-norms require p >= 1", code="bad-p")
    top = require_finite(W.sup_norm, "the largest block total variation")
    if top == 0.0:
        return 0.0
    pi = np.asarray(W.masses)
    r = W.tv_matrix / top
    np.power(r, p, out=r)
    r *= pi
    r *= pi[:, None]
    return top * float(r.sum()) ** (1.0 / p)


@dataclass
class CarlemanReport:
    """Partial sums of ``sum_n norm(2nk)^(-k)`` with a growth classification."""

    k: int
    classification: str  # divergent | convergent | inconclusive
    growth_fit: float
    partial_sums: tuple[float, ...]


def _fit_slope(values: list[float]) -> float:
    """Least-squares slope of values against 1-based index, over the last half."""
    n = len(values)
    start = n // 2
    ys = values[start:]
    if any(math.isinf(y) for y in ys):
        return math.inf
    xs = list(range(start + 1, n + 1))
    if len(xs) < 2:
        return 0.0
    xm = sum(xs) / len(xs)
    ym = math.fsum(ys) / len(ys)
    num = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    den = math.fsum((x - xm) ** 2 for x in xs)
    return num / den


def _inverse_power(nv: float, k: int) -> float:
    """``nv ** -k``, or ``inf`` where that is no finite double (a zero norm too)."""
    try:
        return nv ** (-float(k))
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _prefix_sums(terms: list[float]) -> list[float]:
    """The correctly rounded sum of ``terms[: n + 1]`` for every n, in linear time.

    The terms are nonnegative doubles, each a whole multiple of 2**-1074,
    so the running sum is kept exactly as the integer ``sum * 2**1074``;
    ``int / int`` rounds it correctly, as ``math.fsum`` does. Once a term
    is ``inf``, or a prefix is beyond the double range, every later prefix
    is ``inf``; once a term is NaN, every later prefix is NaN.
    """
    scale = 1 << 1074
    total = 0
    sums: list[float] = []
    try:
        for x in terms:
            numerator, denominator = x.as_integer_ratio()
            total += numerator << (1075 - denominator.bit_length())
            sums.append(total / scale)
    except OverflowError:  # an inf term, or a sum beyond the double range
        return sums + [math.inf] * (len(terms) - len(sums))
    except ValueError:  # a NaN term
        return sums + [math.nan] * (len(terms) - len(sums))
    return sums


def _verdict(terms: list[float]) -> str:
    """The rule of :func:`carleman_report` on finite, nonnegative terms."""
    half = terms[len(terms) // 2 :]
    if len(half) < 2:
        return "inconclusive"
    if 0.0 in half:  # a norm whose k-th power overflows: convergent once the tail stays 0
        return "inconclusive" if any(half[half.index(0.0) :]) else "convergent"
    ratios = [b / a for a, b in zip(half, half[1:])]
    if min(ratios) >= 1.0:
        return "divergent"
    if max(ratios) < 1.0 and all(s <= r + 1e-12 for r, s in zip(ratios, ratios[1:])):
        return "convergent"
    first = len(terms) - len(half) + 1  # the 1-based index n of half[0]
    pairs = enumerate(zip(half, half[1:]), first)
    bertrand = [math.log(n) * (n * (a / b - 1.0) - 1.0) for n, (a, b) in pairs]
    if min(bertrand) > 1.25:
        return "convergent"
    return "divergent" if max(bertrand) < 0.75 else "inconclusive"


def carleman_report(
    source: StepGraphon | MomentSequence, k: int, n_terms: int
) -> CarlemanReport:
    """Evaluate the order-k Carleman partial sums on ``n_terms`` terms.

    Classification rule (documented, deterministic), on the terms t_n of
    the last half of the range:
      * a step graphon is always divergent: its norms are bounded by the
        largest block tv-norm, so every term is bounded below by a fixed
        positive constant; so is a series with an infinite term;
      * every ratio t_{n+1}/t_n at least 1: divergent;
      * every ratio below 1 and none above the one before it by more
        than 1e-12: convergent (the ratio test);
      * else Bertrand's statistic B_n = ln n (n (t_n/t_{n+1} - 1) - 1)
        decides: min B_n > 1.25 convergent, max B_n < 0.75 divergent,
        anything between inconclusive.
    Terms that reach 0.0 (a norm whose k-th power overflows) and stay
    there read convergent; fewer than two terms in the last half read
    inconclusive.
    ``growth_fit`` is the least-squares slope of the partial sums over
    the last half, reported and not used.

    Divergence of an infinite series is not decidable from finitely many
    terms; the rule is right on the classical families of the test suite
    and calls 1/(n log n), Bertrand's boundary case, inconclusive.
    """
    if k < 1:
        raise ValidationError("carleman order k must be >= 1", code="bad-order")
    if n_terms < 2:
        raise ValidationError("need at least two terms", code="bad-order")

    if isinstance(source, StepGraphon):
        norms = [p_norm(source, 2 * n * k) for n in range(1, n_terms + 1)]
        forced_divergent = True
    else:
        needed = 2 * n_terms * k
        if needed >= len(source.moments):
            raise ValidationError(
                f"need moments up to order {needed}, have {len(source.moments) - 1}",
                code="insufficient-moments",
            )
        norms = [source.norm_at(2 * n * k) for n in range(1, n_terms + 1)]
        forced_divergent = False

    terms = [_inverse_power(nv, k) for nv in norms]
    sums = _prefix_sums(terms)
    cls = "divergent" if forced_divergent or math.inf in terms else _verdict(terms)
    return CarlemanReport(k, cls, _fit_slope(sums), tuple(sums))
