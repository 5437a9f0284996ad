"""Single-qubit states, the two diagonal gates, and their logical images.

A qubit is kept in canonical form: real non-negative amplitudes plus one
relative phase, global phase fixed.  Measuring along the computational
axis yields a finite outcome domain with exact rational probabilities;
the state itself is the universally quantified formula over that domain.
The bit-flip gate realizes the sharp duality on formulas and the
phase-flip gate the phase duality, which is what ``duality_correspondence``
verifies cell by cell.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .domains import DomainRecord, Registry, standard_registry
from .dualities import apply_duality
from .formulas import (
    And, Atom, CorrelationTag, Forall, Formula, IConst, Join, Outcome, Var,
    formula_equal,
)

__all__ = [
    "Qubit", "BellState", "GateTag", "NonDyadicProbability",
    "KET_DOWN", "KET_UP", "KET_PLUS", "KET_MINUS", "BASIS_STATES",
    "measurement_domain", "inner_product", "distinguishable", "apply_gate",
    "state_formula", "collapse", "bell_formula", "duality_correspondence",
    "NORM_TOL", "PROB_TOL", "DENOMINATOR_BOUND",
]

NORM_TOL = 1e-12
PROB_TOL = 1e-9
DENOMINATOR_BOUND = 10 ** 6

_TAU = 2 * math.pi
_STANDARD = standard_registry()  # the named measurement domains


class NonDyadicProbability(Exception):
    """An amplitude square that no small rational approximates closely."""


def _require_finite(*xs) -> None:
    if not all(map(cmath.isfinite, xs)):
        raise ValueError("amplitudes must be finite")


@dataclass(frozen=True)
class Qubit:
    """State ``alpha |down> + beta e^{i phi} |up>`` up to a global phase."""

    alpha: float
    beta: float
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(self.alpha, self.beta, self.phi)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("canonical amplitudes are non-negative")
        norm = self.alpha ** 2 + self.beta ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |.|^2 = {norm}")
        object.__setattr__(self, "phi",
                           0.0 if self.beta <= NORM_TOL else self.phi % _TAU)

    @property
    def amplitudes(self) -> tuple:
        return (complex(self.alpha), self.beta * cmath.exp(1j * self.phi))

    @staticmethod
    def from_amplitudes(v) -> "Qubit":
        """Canonicalize a non-zero C^2 vector of any scale: fix the global
        phase so the first amplitude is real non-negative (the second, if
        the first vanishes)."""
        a0, a1 = complex(v[0]), complex(v[1])
        _require_finite(a0, a1)
        scale = max(map(abs, (a0.real, a0.imag, a1.real, a1.imag)))
        if scale == 0:
            raise ValueError("zero vector")
        norm = math.sqrt(abs(a0 / scale) ** 2 + abs(a1 / scale) ** 2)
        a0, a1 = a0 / scale / norm, a1 / scale / norm
        ref = a0 if abs(a0) > NORM_TOL else a1
        ref /= abs(ref)
        a0, a1 = a0 / ref, a1 / ref
        alpha, beta = abs(a0), abs(a1)
        phi = cmath.phase(a1) % _TAU if beta > NORM_TOL else 0.0
        return Qubit(alpha, beta, phi)


KET_DOWN = Qubit(1.0, 0.0)
KET_UP = Qubit(0.0, 1.0)
KET_PLUS = Qubit(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
KET_MINUS = Qubit(1 / math.sqrt(2), 1 / math.sqrt(2), math.pi)
BASIS_STATES = {"down": KET_DOWN, "up": KET_UP,
                "plus": KET_PLUS, "minus": KET_MINUS}

_X = ((0j, 1 + 0j), (1 + 0j, 0j))
_Z = ((1 + 0j, 0j), (0j, -1 + 0j))


@dataclass(frozen=True)
class GateTag:
    name: str  # "X" | "Z"

    def __post_init__(self):
        if self.name not in ("X", "Z"):
            raise ValueError(f"unknown gate: {self.name}")

    @property
    def matrix(self) -> tuple:
        """The gate as a 2x2 tuple of rows."""
        return _X if self.name == "X" else _Z


X_GATE = GateTag("X")
Z_GATE = GateTag("Z")


@dataclass(frozen=True)
class BellState:
    phase: str  # "plus" | "minus"
    correlation: CorrelationTag

    def __post_init__(self):
        if self.phase not in ("plus", "minus"):
            raise ValueError(f"unknown phase modality: {self.phase}")


# --------------------------------------------------------------------------
# numeric operations

def inner_product(q: Qubit, r: Qubit) -> complex:
    return q.alpha * r.alpha + cmath.exp(1j * (r.phi - q.phi)) * q.beta * r.beta


def distinguishable(q: Qubit, r: Qubit) -> bool:
    """States are perfectly distinguishable exactly when orthogonal."""
    return abs(inner_product(q, r)) < NORM_TOL


def apply_gate(g: GateTag, q: Qubit) -> Qubit:
    (a, b), (c, d) = g.matrix
    u, v = q.amplitudes
    return Qubit.from_amplitudes((a * u + b * v, c * u + d * v))


# --------------------------------------------------------------------------
# the logical image of a state

def _rationalize(p: float) -> Fraction:
    frac = Fraction(p).limit_denominator(DENOMINATOR_BOUND)
    if abs(float(frac) - p) > PROB_TOL:
        raise NonDyadicProbability(
            f"{p} has no rational approximation below denominator "
            f"{DENOMINATOR_BOUND} within {PROB_TOL}")
    return frac


def measurement_domain(q: Qubit) -> DomainRecord:
    """The outcome domain of a computational-axis measurement.

    Sharp states give the two extensional singletons; the balanced states
    with phase 0 or pi give the two unfocused virtual-singleton copies of
    the uniform domain, distinguished by their phase modality.  Everything
    else yields an anonymous unfocused domain without a licensed duality.
    """
    pa = _rationalize(q.alpha ** 2)
    pb = 1 - pa
    if pb == 0:
        return _STANDARD.get("Ddown")
    if pa == 0:
        return _STANDARD.get("Dup")
    if pa == Fraction(1, 2):
        if abs(q.phi) < PROB_TOL or abs(q.phi - _TAU) < PROB_TOL:
            return _STANDARD.get("Dplus")
        if abs(q.phi - math.pi) < PROB_TOL:
            return _STANDARD.get("Dminus")
    entries = (Outcome("down", pa), Outcome("up", pb))
    name = f"Dq{pa.numerator}x{pa.denominator}"
    return DomainRecord(name, entries, focused=False)


def _ensure_registered(rec: DomainRecord, registry: Registry) -> DomainRecord:
    if rec.name in registry:
        return registry.get(rec.name)
    registry.register_domain(rec)
    return rec


def state_formula(q: Qubit, registry: Registry = None, pred: str = "A",
                  var: Var = Var("x")) -> Formula:
    """The predicative state attribution: the universally quantified
    outcome proposition over the measurement domain."""
    registry = registry if registry is not None else standard_registry()
    rec = _ensure_registered(measurement_domain(q), registry)
    return Forall(var, rec.name, Atom(pred, None, (var,)))


def collapse(q: Qubit, pred: str = "A") -> Formula:
    """What measurement leaves: the conjunction of outcome propositions
    over the domain entries, the phase modality lost."""
    rec = measurement_domain(q)
    f: Formula = Atom(pred, None, (rec.entries[0],))
    for e in rec.entries[1:]:
        f = And(f, Atom(pred, None, (e,)))
    return f


def bell_formula(b: BellState, pred: str = "A", var: Var = Var("x")) -> Formula:
    """The correlated two-particle state: a generalized quantifier built
    from the universal quantifier and the correlation connective."""
    dom = "Dplus" if b.phase == "plus" else "Dminus"
    a1 = Atom(pred, IConst(1), (var,))
    a2 = Atom(pred, IConst(2), (var,))
    return Forall(var, dom, Join(b.correlation, a1, a2))


def duality_correspondence(registry: Registry = None, pred: str = "A") -> dict:
    """Check the commuting square on all eight cells: the bit-flip gate
    tracks the sharp duality and the phase-flip gate the phase duality."""
    registry = registry if registry is not None else standard_registry()
    cells = {}
    for name, state in BASIS_STATES.items():
        before = state_formula(state, registry, pred)
        for gate, dual in ((X_GATE, "perp"), (Z_GATE, "top")):
            after = state_formula(apply_gate(gate, state), registry, pred)
            expected = apply_duality(before, dual)
            cells[f"{name}:{gate.name}"] = formula_equal(after, expected)
    return {"ok": all(cells.values()), "cells": cells}
