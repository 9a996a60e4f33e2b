import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcskit import (
    EdgeSupport,
    FockVector,
    LeakageExceeded,
    Overflow,
    apply_k_ladder,
    basis_state,
    inner,
    ladder_spectrum,
    pha_commutator_check,
    time_evolve,
)
from mcskit.fock import _ENTRIES_MAX, _hamiltonian_apply, _number_falling_apply


def random_state(rng, n_max=64, clear_top=8):
    c = rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)
    if clear_top:
        c[-clear_top:] = 0.0
    return FockVector(c / np.linalg.norm(c))


def test_fockvector_validation():
    with pytest.raises(ValueError):
        FockVector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        FockVector(np.array([]))
    v = FockVector(np.array([3.0, 4.0]))
    assert v.norm() == pytest.approx(5.0)


def test_basis_state_and_inner():
    v = basis_state(3, n_max=8)
    assert v.coeffs[3] == 1.0
    assert v.top_occupied() == 3
    w = basis_state(5, n_max=8)
    assert inner(v, w) == 0.0
    assert inner(v, v) == 1.0
    with pytest.raises(ValueError, match="outside"):
        basis_state(8, n_max=8)
    with pytest.raises(ValueError, match="mismatched truncations"):
        inner(v, basis_state(3, n_max=9))


@pytest.mark.parametrize("size", [1, 255, 9999, 10**4])
def test_norm_and_inner_of_one_chunk_are_numpys_bit_for_bit(size):
    # up to 10^4 entries each dot is one call, so nothing moves
    rng = np.random.default_rng(size)
    a, b = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(2))
    assert FockVector(a).norm().hex() == float(np.linalg.norm(a)).hex()
    assert inner(FockVector(a), FockVector(b)) == complex(np.vdot(a, b))


@pytest.mark.parametrize("size", [10**4 + 1, 25_001, 200_000])
def test_norm_and_inner_of_many_chunks_match_numpy(size):
    # chunked sums round differently from one dot, but only in the last bits
    rng = np.random.default_rng(size)
    a, b = (rng.standard_normal(size) + 1j * rng.standard_normal(size) for _ in range(2))
    assert FockVector(a).norm() == pytest.approx(np.linalg.norm(a), rel=1e-14)
    assert inner(FockVector(a), FockVector(b)) == pytest.approx(np.vdot(a, b), rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: basis_state(2.0, 8),
        lambda: basis_state(2, 8.0),
        lambda: ladder_spectrum(3, 2.5),
        lambda: apply_k_ladder(basis_state(2, 8), 1.0, -1),
    ],
    ids=["basis_index", "basis_n_max", "spectrum_levels", "ladder_order"],
)
def test_non_integer_input_raises_value_error(call):
    with pytest.raises(ValueError, match="must be integers"):
        call()


@pytest.mark.parametrize("sign", [0, 2, -2, "+"])
def test_ladder_sign_must_be_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match="sign"):
        apply_k_ladder(basis_state(2, 8), 1, sign)


@pytest.mark.parametrize(
    "coeffs",
    [[1.0, math.nan], [1.0, math.inf], [complex(0.0, -math.inf), 1.0]],
    ids=["nan", "inf", "imag-inf"],
)
def test_non_finite_coefficients_raise_value_error(coeffs):
    # a vector holding inf used to build, and (a+) of it reported leakage inf
    with pytest.raises(ValueError, match="finite"):
        FockVector(np.array(coeffs))


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_time_raises_value_error(t):
    # a RuntimeWarning fails tier-1, so this also shows that none is emitted
    with pytest.raises(ValueError, match="finite"):
        time_evolve(basis_state(20, 32), t)


@pytest.mark.parametrize("t", [1e307, -1e307])
def test_phase_past_double_range_raises_overflow(t):
    # t is finite, but the phase (n + 1/2) t of |31> leaves double range
    with pytest.raises(Overflow, match="phase"):
        time_evolve(basis_state(20, 32), t)
    # (8 - 1/2) 1e307 is still finite
    assert time_evolve(basis_state(2, 8), t).norm() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("t", [-math.pi / 2, math.pi / 2, 2.0])
@pytest.mark.parametrize("level", [0, 3])
def test_evolution_past_double_range_raises_overflow(t, level):
    # unit-modulus phases do not bound the parts of the product: at t = -pi/2
    # |0> takes e^{i pi/4}, whose product with 1.7e308 (1 + i) has the part
    # 2.4e308; refused by name, without a RuntimeWarning on the way
    state = FockVector(np.eye(4)[level] * (1.7e308 + 1.7e308j))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Overflow, match=re.escape(f"exp(-iHt) at t = {t!r}")):
            time_evolve(state, t)
        # at t = 0 every phase is 1, and the state keeps its bits
        assert time_evolve(state, 0.0).coeffs.tobytes() == state.coeffs.tobytes()


@pytest.mark.parametrize("call", [
    lambda: pha_commutator_check(1, FockVector(np.array([0, 1.7e308, 0, 0, 0]))),
    lambda: _number_falling_apply(FockVector(np.array([0, 0, 1e308, 0, 0, 0, 0])), 2),
])
def test_diagonal_operators_past_double_range_raise_overflow(call):
    # (n + 1/2) c_n and F(n) c_n leave double range where the ladder images of
    # the same probes stay finite; refused by name, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Overflow, match="takes the state past double range"):
            call()


@pytest.mark.parametrize("t", [0.3, 2, np.float64(0.3), np.float32(0.3), np.array(0.3)])
def test_time_evolve_takes_one_real_time(t):
    got = time_evolve(basis_state(3, 8), t).coeffs
    assert got[3] == np.exp(-3.5j * float(t))
    assert np.count_nonzero(got) == 1


@pytest.mark.parametrize("t", [np.linspace(0.0, 1.0, 8), np.array([0.3]), [0.3, 0.4],
                               np.zeros((2, 2))])
def test_time_evolve_refuses_an_array_of_times(t):
    # each level was phased by its own time before, or numpy failed to broadcast
    with pytest.raises(ValueError, match="one time.*density_movie"):
        time_evolve(basis_state(3, 8), t)


@pytest.mark.parametrize("t", [1j, np.complex128(0.3), "0.3"])
def test_time_evolve_refuses_a_time_that_is_not_real(t):
    with pytest.raises(ValueError, match="real number"):
        time_evolve(basis_state(3, 8), t)


def test_ladder_actions_on_basis():
    v = basis_state(4, n_max=16)
    low = apply_k_ladder(v, 1, -1)
    assert low.coeffs[3] == pytest.approx(math.sqrt(4))
    high = apply_k_ladder(v, 1, +1)
    assert high.coeffs[5] == pytest.approx(math.sqrt(5))
    assert apply_k_ladder(basis_state(0, n_max=4), 1, -1).norm() == 0.0


def test_raising_adjoint_to_lowering(rng):
    # with empty edge slots the truncated matrices are exact adjoints
    u = random_state(rng)
    v = random_state(rng)
    lhs = inner(apply_k_ladder(u, 1, +1), v)
    rhs = inner(u, apply_k_ladder(v, 1, -1))
    assert abs(lhs - rhs) < 1e-14


def test_leakage_accounting():
    v = basis_state(7, n_max=8)
    with pytest.raises(LeakageExceeded):
        apply_k_ladder(v, 1, +1)
    raised = apply_k_ladder(v, 1, +1, leak_tol=np.inf)
    assert raised.norm() == 0.0
    assert raised.leakage == pytest.approx(8.0)  # n_max * |c_top|^2


def test_leakage_is_the_exact_image_past_the_edge(rng):
    # k = 1 is n_max |c_top|^2, exact on a basis state
    assert apply_k_ladder(basis_state(15, 16), 1, +1, leak_tol=np.inf).leakage == 16.0
    v = random_state(rng, n_max=16, clear_top=0)
    leak = apply_k_ladder(v, 1, +1, leak_tol=np.inf).leakage
    assert leak == pytest.approx(16 * abs(v.coeffs[-1]) ** 2, rel=1e-15)
    # (a+)^3 |7> = sqrt(10!/7!) |10>, all of it past n_max = 8
    raised = apply_k_ladder(basis_state(7, 8), 3, +1, leak_tol=np.inf)
    assert raised.norm() == 0.0 and raised.leakage == 720.0
    # mixed top slots add their images: |5> -> 8!/5! = 336, |6> -> 9!/6! = 504
    mixed = FockVector(np.array([0, 0, 0, 0, 0, 0.6, 0.8j, 0]))
    leak = apply_k_ladder(mixed, 3, +1, leak_tol=np.inf).leakage
    assert leak == pytest.approx(0.36 * 336 + 0.64 * 504, rel=1e-15)
    # k >= n_max lowers to zero and raises the whole image past the edge
    for k in (16, 19):
        assert apply_k_ladder(v, k, -1).norm() == 0.0
        whole = apply_k_ladder(v, k, +1, leak_tol=np.inf)
        falling = np.array([math.perm(n + k, k) for n in range(16)], dtype=float)
        assert whole.norm() == 0.0
        assert whole.leakage == pytest.approx(falling @ np.abs(v.coeffs) ** 2, rel=1e-14)
    # leakage accumulates across raisings
    twice = apply_k_ladder(raised, 1, +1, leak_tol=np.inf)
    assert twice.leakage == 720.0


def test_ladder_weights_past_double_range_raise_overflow():
    # 405!/255! and 255!/105! both pass 1e308
    for sign in (-1, +1):
        with pytest.raises(Overflow):
            apply_k_ladder(basis_state(0, 256), 150, sign, leak_tol=np.inf)
    with pytest.raises(Overflow):
        _number_falling_apply(basis_state(255, 256), 200)


@pytest.mark.parametrize(
    "coeffs, sign",
    [
        ([0.0, 1.5e308, 0.0, 0.0], +1),  # the image sqrt(2) 1.5e308
        ([0.0, 0.0, 0.0, 1.5e308], -1),  # the image sqrt(3) 1.5e308
        ([0.0, 0.0, 0.0, 1e200], +1),  # the leakage 4e400
    ],
    ids=["raised", "lowered", "leaked"],
)
def test_ladder_past_double_range_raises_overflow(coeffs, sign):
    # a finite vector whose ladder image leaves double range is refused by
    # name, without a RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Overflow, match=re.escape(f"(a{'+' if sign > 0 else '-'})^1")):
            apply_k_ladder(FockVector(coeffs), 1, sign, leak_tol=np.inf)


def test_k_ladder_matches_repeated_single(rng):
    # stepwise reference: k single shifts by sqrt(n); random_state leaves the
    # top 8 slots empty, so no step up to k = 8 reaches the edge
    def step(c, sign):
        out = np.zeros_like(c)
        if sign < 0:
            out[:-1] = np.sqrt(np.arange(1, c.size)) * c[1:]
        else:
            out[1:] = np.sqrt(np.arange(1, c.size)) * c[:-1]
        return out

    v = random_state(rng)
    for sign in (-1, +1):
        for k in range(1, 9):
            stepped = v.coeffs
            for _ in range(k):
                stepped = step(stepped, sign)
            direct = apply_k_ladder(v, k, sign)
            scale = np.max(np.abs(stepped))
            assert np.max(np.abs(direct.coeffs - stepped)) <= 4e-16 * k * scale
            assert direct.leakage == 0.0


def test_number_falling_is_lower_then_raise(rng):
    v = random_state(rng)
    for k in (1, 2, 3, 4):
        composed = apply_k_ladder(apply_k_ladder(v, k, -1), k, +1)
        direct = _number_falling_apply(v, k)
        assert np.allclose(direct.coeffs, composed.coeffs, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_commutator_residuals_property(k, seed):
    probe = random_state(np.random.default_rng(seed), n_max=96, clear_top=k + 4)
    res = pha_commutator_check(k, probe)
    assert res.lowering < 1e-12
    assert res.raising < 1e-12
    assert res.number_poly < 1e-12


def test_commutator_edge_guard(rng):
    probe = FockVector(np.ones(16) / 4.0)
    with pytest.raises(EdgeSupport):
        pha_commutator_check(3, probe)


def test_hamiltonian_apply():
    v = basis_state(2, n_max=4)
    assert _hamiltonian_apply(v).coeffs[2] == pytest.approx(2.5)


def test_spectrum_ladders():
    spec = ladder_spectrum(3, levels=4)
    assert spec.shape == (3, 4)
    assert np.array_equal(spec[0], [0.5, 3.5, 6.5, 9.5])
    assert np.array_equal(spec[1], [1.5, 4.5, 7.5, 10.5])
    assert np.array_equal(spec[2], [2.5, 5.5, 8.5, 11.5])


def test_spectrum_past_its_element_budget_raises_overflow():
    # refused before numpy is asked for the array; one entry past the
    # budget, so no case here allocates anything
    for k, levels in ((_ENTRIES_MAX + 1, 1), (1, _ENTRIES_MAX + 1), (2**13, 2**13 + 1)):
        with pytest.raises(Overflow, match="spectrum entries"):
            ladder_spectrum(k, levels)


def test_time_evolution_is_unitary(rng):
    v = random_state(rng)
    evolved = time_evolve(v, 0.37)
    assert evolved.norm() == pytest.approx(1.0, abs=1e-14)
    # one full oscillator period returns the state up to the ground phase
    full = time_evolve(v, 2.0 * math.pi)
    assert np.allclose(full.coeffs, -v.coeffs, atol=1e-12)
