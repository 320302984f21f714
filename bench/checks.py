"""Output checks: each builder returns ``check(text) -> None | reason``.

A check is built from values the fixture generator already knows, never
from the program's own results, and runs outside the timed region.
"""
from __future__ import annotations

import json
import math

import numpy as np

#: agreement required between exact routes and against the numpy oracles
EXACT_TOL = 1e-10


def _close(got: float, want: float, tol: float = EXACT_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def scalar(want: float, tol: float = EXACT_TOL):
    """A printed scalar within ``tol`` of ``want``."""

    def check(text: str):
        got = float(text)
        if not _close(got, want, tol):
            return f"got {got!r}, want {want!r} within {tol}"
        return None

    return check


def agree(text_a: str, text_b: str, tol: float = EXACT_TOL):
    """Two printed scalars (enumeration and elimination) within ``tol``."""
    a, b = float(text_a), float(text_b)
    return None if _close(a, b, tol) else f"{a!r} and {b!r} differ by more than {tol}"


def literal(want: str):
    def check(text: str):
        return None if text == want else f"got {text!r}, want {want!r}"

    return check


def mc(want: float, samples: int, sigmas: float = 4.0):
    """Monte Carlo mean within ``sigmas`` standard errors of the exact value."""

    def check(text: str):
        doc = json.loads(text)
        if doc["samples"] != samples:
            return f"ran {doc['samples']} samples, asked for {samples}"
        if not abs(doc["mean"] - want) <= sigmas * doc["stderr"]:
            return f"mean {doc['mean']!r} is not within {sigmas} stderr {doc['stderr']!r} of {want!r}"
        return None

    return check


def residual(limit: float = EXACT_TOL):
    def check(text: str):
        got = float(text)
        return None if abs(got) <= limit else f"residual {got!r} exceeds {limit}"

    return check


def twins(planted: list[int]):
    """The twin partition equals the planted one exactly."""

    def check(text: str):
        got = json.loads(text)["class_of"]
        return None if got == planted else "twin partition differs from the planted one"

    return check


def _masses_sum_to_one(doc: dict):
    total = math.fsum(doc["masses"])
    return None if abs(total - 1.0) <= 1e-12 else f"masses sum to {total!r}"


def reduced(n_distinct: int):
    """Twin reduction keeps exactly the planted distinct classes."""

    def check(text: str):
        doc = json.loads(text)
        if len(doc["masses"]) != n_distinct:
            return f"{len(doc['masses'])} classes, planted {n_distinct}"
        return _masses_sum_to_one(doc)

    return check


def quotient(masses: np.ndarray, class_of: list[int]):
    """Merged masses are the group sums and total 1 within 1e-12."""
    want = np.zeros(max(class_of) + 1)
    np.add.at(want, class_of, masses)

    def check(text: str):
        doc = json.loads(text)
        got = np.asarray(doc["masses"])
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-12:
            return "quotient masses are not the group sums"
        return _masses_sum_to_one(doc)

    return check


def anchored(n_distinct: int):
    """Anchors that separate classes leave exactly the distinct classes."""

    def check(text: str):
        doc = json.loads(text)["graphon"]
        if len(doc["masses"]) != n_distinct:
            return f"anchored graphon has {len(doc['masses'])} classes, planted {n_distinct}"
        return _masses_sum_to_one(doc)

    return check


def carleman(text: str):
    docs = json.loads(text)
    docs = docs if isinstance(docs, list) else [docs]
    bad = [d["classification"] for d in docs if d["classification"] != "divergent"]
    return f"step graphon classified {bad}" if bad else None


def _matrix(lines: list[str]) -> np.ndarray:
    return np.array([[float(x) for x in line.split()] for line in lines])


def eigen(M: np.ndarray, tol: float = EXACT_TOL):
    """Eigenpairs reconstruct the symmetrized kernel within ``tol``."""

    def check(text: str):
        lines = text.split("\n")
        vals = np.array([float(x) for x in lines[0].split()])
        basis = _matrix(lines[1:])
        err = np.max(np.abs((basis * vals) @ basis.T - M))
        return None if err <= tol else f"reconstruction error {err!r}"

    return check


def matrix(want: np.ndarray, tol: float = EXACT_TOL):
    def check(text: str):
        got = _matrix(text.split("\n"))
        if got.shape != want.shape:
            return f"shape {got.shape}, want {want.shape}"
        err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
        return None if err <= tol else f"matrix differs by {err!r}"

    return check


def liftcheck(text: str):
    doc = json.loads(text)
    if not doc["max_discrepancy"] <= 1e-8:
        return f"max_discrepancy {doc['max_discrepancy']!r}"
    return None if doc["groups_match"] else "coefficient groups do not match"


def counterexample(text: str):
    doc = json.loads(text)
    if not doc["max_discrepancy_low_degree"] <= EXACT_TOL:
        return f"low-degree discrepancy {doc['max_discrepancy_low_degree']!r}"
    return None if doc["witness_gap"] > 0 else "no witness gap"


def momentpair(order: int):
    """Both vectors are distributions whose moments agree up to ``order`` only."""

    def check(text: str):
        doc = json.loads(text)
        p, q = np.asarray(doc["p"]), np.asarray(doc["q"])
        k = np.arange(len(p), dtype=float)
        for vec in (p, q):
            if vec.min() < 0 or abs(math.fsum(vec) - 1.0) > 1e-12:
                return "pair vector is not a distribution"
        gaps = [abs(float((k**r) @ (p - q))) for r in range(order + 2)]
        if max(gaps[: order + 1]) > EXACT_TOL:
            return f"moments differ below order {order + 1}: {gaps}"
        return None if gaps[order + 1] > 1e-8 else "no gap at the witness order"

    return check
