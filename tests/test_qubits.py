"""The numeric layer and its logical dictionary."""
import math
import random
from fractions import Fraction

import pytest

from symlog.dualities import apply_duality
from symlog.formulas import And, Atom, Forall, IDENTICAL, Join, OPPOSITE, Outcome, Var
from symlog.qubits import (
    BellState, GateTag, KET_DOWN, KET_MINUS, KET_PLUS, KET_UP,
    NonDyadicProbability, Qubit, apply_gate, bell_formula, collapse,
    distinguishable, duality_correspondence, inner_product,
    measurement_domain, state_formula,
)

from genlib import random_qubit

X, Z = GateTag("X"), GateTag("Z")
TOL = 1e-12


@pytest.mark.parametrize("build, message", [
    (lambda: Qubit(-1.0, 0.0), "non-negative"),
    (lambda: Qubit(1.0, 1.0), "not normalized"),
    (lambda: GateTag("Y"), "unknown gate: Y"),
    (lambda: BellState("zero", IDENTICAL), "unknown phase modality: zero"),
], ids=["negative", "unnormalized", "gate", "phase"])
def test_constructors_refuse_values_outside_their_range(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_gate_matrices_are_involutions():
    for g in (X, Z):
        (a, b), (c, d) = g.matrix
        square = ((a * a + b * c, a * b + b * d),
                  (c * a + d * c, c * b + d * d))
        assert square == ((1, 0), (0, 1))


def test_bit_flip_swaps_computational_basis():
    assert apply_gate(X, KET_DOWN) == KET_UP
    assert apply_gate(X, KET_UP) == KET_DOWN


def test_phase_flip_swaps_dual_basis():
    assert abs(apply_gate(Z, KET_PLUS).phi - math.pi) < 1e-9
    assert apply_gate(Z, KET_MINUS).phi < 1e-9


def test_dual_basis_fixed_by_bit_flip_up_to_phase():
    for s in (KET_PLUS, KET_MINUS):
        t = apply_gate(X, s)
        assert abs(abs(inner_product(s, t)) - 1.0) < TOL


def test_inner_product_values():
    assert abs(inner_product(KET_PLUS, KET_MINUS)) < TOL
    assert abs(inner_product(KET_PLUS, KET_PLUS) - 1.0) < TOL
    # independent complex-arithmetic check: 0.36 - 0.64
    got = inner_product(Qubit(0.6, 0.8, 0.0), Qubit(0.6, 0.8, math.pi))
    assert abs(got - (-0.28)) < 1e-9


def test_orthogonality_grid():
    """|<q|q'>| vanishes exactly at the balanced amplitudes with opposite
    phases: an 11 x 16 scan."""
    zeros = []
    for i in range(11):
        a2 = i / 10
        a, b = math.sqrt(a2), math.sqrt(1 - a2)
        for k in range(16):
            dphi = k * math.pi / 8
            q1 = Qubit(a, b, 0.0)
            q2 = Qubit(a, b, dphi)
            if abs(inner_product(q1, q2)) < TOL:
                zeros.append((i, k))
    assert zeros == [(5, 8)]  # alpha^2 = 1/2, phase difference pi


def test_gates_involutive_on_random_states():
    rng = random.Random(99)
    for _ in range(1000):
        q = random_qubit(rng)
        for g in (X, Z):
            r = apply_gate(g, apply_gate(g, q))
            assert abs(abs(inner_product(q, r)) - 1.0) < TOL


def test_measurement_domain_sharp():
    rec = measurement_domain(KET_DOWN)
    assert rec.name == "Ddown" and rec.is_singleton
    rec = measurement_domain(KET_UP)
    assert rec.entries == (Outcome("up", Fraction(1)),)


def test_measurement_domain_balanced():
    rec = measurement_domain(KET_PLUS)
    assert rec.name == "Dplus" and rec.virtual_singleton and not rec.focused
    rec = measurement_domain(KET_MINUS)
    assert rec.name == "Dminus"


def test_measurement_domain_generic_phase_is_anonymous():
    q = Qubit(1 / math.sqrt(2), 1 / math.sqrt(2), math.pi / 3)
    rec = measurement_domain(q)
    assert rec.name not in ("Dplus", "Dminus")
    assert not rec.focused and rec.duality is None


def test_measurement_domain_drops_zero_outcomes():
    rec = measurement_domain(Qubit(0.0, 1.0))
    assert len(rec.entries) == 1


def test_non_dyadic_probability():
    # a hair off one half: the best bounded rational is 1/2, too far away
    a2 = 0.5 + 5e-8
    with pytest.raises(NonDyadicProbability):
        measurement_domain(Qubit(math.sqrt(a2), math.sqrt(1 - a2)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("args", [(NAN, NAN), (1.0, 0.0, NAN),
                                  (0.0, 1.0, INF), (INF, 0.0)])
def test_a_qubit_refuses_non_finite_parts(args):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        Qubit(*args)


@pytest.mark.parametrize("v", [[NAN, 1], [INF, 1], [1, complex(0, INF)],
                               [complex(NAN, 0), 0]])
def test_from_amplitudes_refuses_non_finite_input(v):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        Qubit.from_amplitudes(v)


def test_from_amplitudes_reads_a_huge_vector():
    q = Qubit.from_amplitudes([1, 1e308])
    assert (q.alpha, q.beta, q.phi) == pytest.approx(
        (KET_UP.alpha, KET_UP.beta, KET_UP.phi))
    assert measurement_domain(q).name == "Dup"


def test_from_amplitudes_reads_a_tiny_vector():
    q = Qubit.from_amplitudes([3e-13, 4e-13])
    assert (q.alpha, q.beta, q.phi) == pytest.approx((0.6, 0.8, 0.0))


def test_from_amplitudes_refuses_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        Qubit.from_amplitudes([0, 0])


def test_state_formula_registers_domains(registry):
    x = Var("x")
    assert state_formula(KET_DOWN, registry) == \
        Forall(x, "Ddown", Atom("A", None, (x,)))
    q = Qubit(math.sqrt(0.25), math.sqrt(0.75))
    f = state_formula(q, registry)
    assert f.domain in registry


def test_collapse_loses_the_phase():
    half = Fraction(1, 2)
    want = And(Atom("A", None, (Outcome("down", half),)),
               Atom("A", None, (Outcome("up", half),)))
    assert collapse(KET_PLUS) == want
    assert collapse(KET_MINUS) == want
    assert collapse(KET_PLUS) != state_formula(KET_PLUS)
    assert collapse(KET_DOWN) == Atom("A", None, (Outcome("down", Fraction(1)),))


def test_bell_formula_shapes():
    from symlog.formulas import IConst
    x = Var("x")
    f = bell_formula(BellState("minus", OPPOSITE))
    want = Forall(x, "Dminus", Join(OPPOSITE, Atom("A", IConst(1), (x,)),
                                    Atom("A", IConst(2), (x,))))
    assert f == want
    assert bell_formula(BellState("plus", IDENTICAL)).domain == "Dplus"


def test_bell_formulas_are_duality_fixed_points():
    for phase in ("plus", "minus"):
        for tag in (IDENTICAL, OPPOSITE):
            b = bell_formula(BellState(phase, tag))
            assert apply_duality(b, "perp") == b
            assert apply_duality(b, "top") == b


def test_duality_correspondence_all_cells():
    rep = duality_correspondence()
    assert rep["ok"]
    assert len(rep["cells"]) == 8
    assert all(rep["cells"].values())


def test_distinguishable_iff_orthogonal():
    assert distinguishable(KET_DOWN, KET_UP)
    assert distinguishable(KET_PLUS, KET_MINUS)
    assert not distinguishable(KET_DOWN, KET_PLUS)
