"""Kernel eigendecompositions and the parallel-edge lifting check.

A kernel K acts on the mass-weighted space as the symmetric matrix
``M = sqrt(Pi) K sqrt(Pi)`` with ``Pi = diag(masses)``. Its eigenpairs
give path marginals as operator powers, and they let the density of a
multigraph with a designated parallel bond be written as a power series
``sum_n a_n lambda_n^k`` in the path length k. Matching those series
between two graphons, grouped by shared eigenvalue, is the finite
verification that equal simple-graph densities force equal multigraph
densities. The lifting check also sums each density without eigenvectors,
from the bond's pinned marginal and the path kernels ``K (Pi K)^(k-1)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .density import _contract, eliminate, require_affordable
from .graphs import DecoratedMultigraph, remove_one_edge
from .stepgraphon import StepGraphon, kernel_matrix, require_finite

#: eigenvalues at most this large in magnitude are treated as exact zeros
ZERO_EIGENVALUE = 1e-12

#: eigenvalues of the two graphons are matched into one group within this
GROUP_MATCH_TOL = 1e-9

#: relative tolerance for "the two densities agree" style report verdicts
AGREE_TOL = 1e-8


@dataclass
class EigenSystem:
    """Spectrum of ``sqrt(Pi) K sqrt(Pi)``, descending by magnitude.

    ``basis`` columns are orthonormal eigenvectors of the symmetrized
    operator; the corresponding step eigenfunctions of the integral
    operator are ``basis[:, n] / sqrt(masses)``.
    """

    psi_id: str
    eigenvalues: tuple[float, ...]
    basis: np.ndarray


def eigendecomp(W: StepGraphon, psi_id: str) -> EigenSystem:
    """Full eigensystem of the symmetrized kernel, deterministically signed."""
    with np.errstate(over="ignore", invalid="ignore"):
        K = require_finite(kernel_matrix(W, psi_id), f"the kernel of {psi_id!r}")
    s = np.sqrt(np.asarray(W.masses))
    vals, vecs = np.linalg.eigh(s[:, None] * K * s[None, :])
    order = np.lexsort((-vals, -np.abs(vals)))  # stable: ties keep eigh's order
    vals = vals[order]
    vecs = vecs[:, order]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))]
    vecs[:, lead < 0] *= -1.0
    return EigenSystem(psi_id, tuple(float(v) for v in vals), vecs)


def _path_kernels(W: StepGraphon, psi_id: str, k: int):
    """Path kernels of lengths 1 to k, one BLAS-free product apart. Unbounded:
    callers check ``k`` first and iterate with numpy's overflow warnings off."""
    K = kernel_matrix(W, psi_id)
    step = np.asarray(W.masses)[:, None] * K
    P = K
    yield P
    for _ in range(k - 1):
        P = _contract(P, (0, 1), step, (1, 2), (0, 2))
        yield P


def path_kernel(W: StepGraphon, psi_id: str, k: int) -> np.ndarray:
    """Matrix of fully pinned path marginals: entry (i, j) is the marginal
    of the k-edge psi-path with its endpoints pinned to classes i and j.

    Computed as ``K (Pi K)^(k-1)``; ``k == 1`` returns the kernel itself.
    Refused as ``too-costly`` when the ``(k - 1) * q^2`` entries of the
    products exceed the size budget of :func:`require_affordable`, and as
    ``overflow`` when an entry is beyond the double range.
    """
    if k < 1:
        raise ValidationError("path length must be >= 1", code="bad-order")
    what = f"path kernel of length {k} ({k - 1} products of {W.q} x {W.q} matrices)"
    require_affordable(what, (k - 1) * W.q**2)
    with np.errstate(over="ignore", invalid="ignore"):
        for P in _path_kernels(W, psi_id, k):
            pass
    return require_finite(P, f"the path kernel of length {k}")


@dataclass
class CoefficientGroup:
    """Spectral coefficients of both graphons summed over one shared eigenvalue."""

    value: float
    sum_a: float
    sum_b: float
    matched: bool


@dataclass
class LiftCheckReport:
    """Direct vs spectral densities of the path-augmented family F^k."""

    psi: str
    kmax: int
    direct_a: tuple[float, ...]
    direct_b: tuple[float, ...]
    spectral_a: tuple[float, ...]
    spectral_b: tuple[float, ...]
    max_discrepancy: float
    powers_match: bool  # t(F^k, W1) == t(F^k, W2) for all k >= 2
    groups: tuple[CoefficientGroup, ...]
    groups_match: bool
    t_f_a: float
    t_f_b: float
    densities_agree: bool  # t(F, W1) == t(F, W2)


def _close(a: float, b: float, tol: float = AGREE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _spectral_coefficients(
    W: StepGraphon, T: np.ndarray, psi_id: str
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and coefficients a_n such that t(F^k) = sum a_n lambda_n^k.

    a_n integrates the n-th eigenfunction pair against the pinned density
    of the reduced graph: with T[i,j] the marginal of F' pinned at (i, j),
    ``a_n = sum_ij sqrt(pi_i pi_j) b_n[i] b_n[j] T[i,j]``.
    """
    es = eigendecomp(W, psi_id)
    s = np.sqrt(np.asarray(W.masses))
    Tm = s[:, None] * T * s[None, :]
    Tb = _contract(Tm, (0, 1), es.basis, (1, 2), (0, 2))
    return np.asarray(es.eigenvalues), _contract(es.basis, (0, 2), Tb, (0, 2), (2,))


def _grouped(vals: np.ndarray, coefs: np.ndarray) -> list[tuple[float, float]]:
    """Collapse (eigenvalue, coefficient) pairs into nonzero-eigenvalue groups."""
    pairs = sorted(
        (float(v), float(c)) for v, c in zip(vals, coefs) if abs(v) > ZERO_EIGENVALUE
    )
    out: list[tuple[float, list[float]]] = []
    for v, c in pairs:
        if out and abs(v - out[-1][0]) <= GROUP_MATCH_TOL:
            out[-1][1].append(c)
        else:
            out.append((v, [c]))
    return [(v, math.fsum(cs)) for v, cs in out]


def lift_check(
    F: DecoratedMultigraph,
    W1: StepGraphon,
    W2: StepGraphon,
    u: int,
    v: int,
    psi_id: str,
    kmax: int,
) -> LiftCheckReport:
    """Verify the parallel-edge lifting argument on a designated bond of F.

    Removing one psi-edge between u and v leaves F'; re-inserting a path
    of k psi-edges gives the family F^k with F^1 = F. For k = 1..kmax the
    density of F^k is computed both directly and as the eigen-sum
    ``sum_n a_n lambda_n^k``, for both graphons. When the two graphons
    agree on every F^k with k >= 2, coefficient sums grouped by shared
    nonzero eigenvalue must cancel pairwise, which forces agreement at
    k = 1 as well; the report records whether that is numerically the case.

    The direct density needs no eigenvectors, so it checks the eigen-sum
    independently: with T the marginal of F' pinned at (u, v) and P_k the
    path kernel of length k, ``t(F^k) = sum_ij pi_i pi_j T[i,j] P_k[i,j]``
    (the operator form of path densities; Lovasz, *Large Networks and
    Graph Limits*, 2012). F' is eliminated once per graphon and each P_k
    is one q x q product from the last. Refused as ``too-costly``, before
    anything is eliminated or decomposed, when the ``kmax * (q1^2 + q2^2)``
    product entries and the ``4 * kmax`` printed values exceed the size
    budget of :func:`require_affordable`, and as ``overflow`` when a direct
    density or a spectral sum is beyond the double range.
    """
    if kmax < 2:
        raise ValidationError("kmax must be >= 2", code="bad-order")
    if F.labels:
        raise ValidationError("lift check needs an unlabeled graph", code="labeled-graph")
    what = f"liftcheck to kmax={kmax} on q={W1.q} and q={W2.q}"
    require_affordable(what, kmax * (W1.q**2 + W2.q**2), printed=4 * kmax)
    Fprime = remove_one_edge(F, u, v, psi_id)

    results = []
    for name, W in (("W1", W1), ("W2", W2)):
        pi = np.asarray(W.masses)
        with np.errstate(over="ignore", invalid="ignore"):
            T = eliminate(Fprime, W, keep=(u, v))
            vals, coefs = _spectral_coefficients(W, T, psi_id)
            weighted = pi[:, None] * T * pi[None, :]
            paths = _path_kernels(W, psi_id, kmax)
            direct = np.fromiter((np.sum(weighted * P) for P in paths), float, kmax)
            powers = vals ** np.arange(1, kmax + 1)[:, None]
            powers[1] = vals * vals  # np.square's bits: np.power's can differ with the CPU
            spectral = np.sum(coefs * powers, axis=1)
        finite = np.isfinite(direct) & np.isfinite(spectral)
        for k in np.flatnonzero(~finite)[:1]:  # the first k that overflows, direct density first
            require_finite(direct[k], f"the direct density t(F^{k + 1}, {name})")
            require_finite(spectral[k], f"the spectral sum for t(F^{k + 1}, {name})")
        disc = np.abs(direct - spectral).max()
        results.append((vals, coefs, tuple(direct.tolist()), tuple(spectral.tolist()), disc))

    (vals1, coefs1, direct1, spectral1, disc1), (vals2, coefs2, direct2, spectral2, disc2) = results
    powers_match = all(map(_close, direct1[1:], direct2[1:]))  # k = 2..kmax

    g1 = _grouped(vals1, coefs1)
    g2 = _grouped(vals2, coefs2)
    groups: list[CoefficientGroup] = []
    i = j = 0
    while i < len(g1) or j < len(g2):
        if j >= len(g2) or (i < len(g1) and g1[i][0] < g2[j][0] - GROUP_MATCH_TOL):
            v1, s1 = g1[i]
            groups.append(CoefficientGroup(v1, s1, 0.0, _close(s1, 0.0)))
            i += 1
        elif i >= len(g1) or g2[j][0] < g1[i][0] - GROUP_MATCH_TOL:
            v2, s2 = g2[j]
            groups.append(CoefficientGroup(v2, 0.0, s2, _close(0.0, s2)))
            j += 1
        else:
            (va, sa), (vb, sb) = g1[i], g2[j]
            groups.append(CoefficientGroup((va + vb) / 2.0, sa, sb, _close(sa, sb)))
            i += 1
            j += 1

    t_f_a, t_f_b = direct1[0], direct2[0]
    return LiftCheckReport(
        psi=psi_id,
        kmax=kmax,
        direct_a=direct1,
        direct_b=direct2,
        spectral_a=spectral1,
        spectral_b=spectral2,
        max_discrepancy=float(max(disc1, disc2)),
        powers_match=powers_match,
        groups=tuple(groups),
        groups_match=all(g.matched for g in groups),
        t_f_a=t_f_a,
        t_f_b=t_f_b,
        densities_agree=_close(t_f_a, t_f_b),
    )
