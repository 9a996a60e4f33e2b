"""Self-check suites behind `mcskit verify`.

CHECKS is the one table of checks: each row names its suite, its
statement, a threshold with its relation, and the function that measures
it. `run_suite` builds a suite's shared inputs once per call and measures
that suite's rows in table order; the acceptance tests read the same
rows. The states suite takes, once per label of its label set, the closed
moments from the series and the numeric moments from the state it built.
The wigner suite measures each case as it builds it and keeps a small
record per case, which each row reduces with its own max or min, so it
holds at most one closed and one numeric field at once (besides the
quarter-turn case's rotated field). The inputs are the table's own, so a
row always measures the same thing: states are truncated at n_max = 256
and the algebra probes at 128. Nothing here is fitted to the
implementation, so a regression in any module shows up as a FAIL with
the measured number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import completeness as comp
from . import decomposition as dec
from . import states as st
from . import wigner as wg
from .errors import DegenerateNorm, EdgeSupport
from .fock import (FockVector, _norm, apply_k_ladder, basis_state, ladder_spectrum,
                   pha_commutator_check, time_evolve)

_SEED = 20240813

# label set of the states suite; every (k, j) with k <= 3 takes each alpha
_LABEL_ALPHAS = (0.5, 2.0, 4.0, 2.0 + 2.0j, 4.0j)
# shared radial grid of the scalar sweeps, each radius real and rotated
_RADII = (0.5, 1.0, 2.0, 4.0)
_PHASES = (1.0, complex(np.exp(0.7j)))
# ring labels z of the wavefunction pairs, the closed fields and reassembly
_RING_Z = (1.0, 2.0, 1.0 + 1.0j)
# closed fields that also get a numeric field; with the quarter-turn case
# (3, 0) every class with k <= 3 meets a closed-vs-numeric comparison
_NUMERIC_CASES = (
    (1, 0, 2.0),
    (2, 0, 2.0),
    (2, 1, 1.0 + 1.0j),
    (3, 1, 2.0),
    (3, 2, 1.0),
)
_QUARTER_TURN = (3, 0, 1.0 + 1.0j)
# truncation of every suite's states, and of the algebra suite's probes
_N_MAX = 256
_ALGEBRA_N_MAX = 128


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    relation: str
    passed: bool


@dataclass(frozen=True)
class Check:
    """One row of the table: `measure(shared) relation threshold` must hold."""

    suite: str
    name: str
    relation: str
    threshold: float
    measure: Callable[[SimpleNamespace], float]


def _algebra_inputs() -> SimpleNamespace:
    # one generator per run: the rows draw their probes from it in table order
    return SimpleNamespace(rng=np.random.default_rng(_SEED))


def _random_probe(rng: np.random.Generator, clear_top: int) -> FockVector:
    n_max = _ALGEBRA_N_MAX
    c = rng.standard_normal(n_max) + 1j * rng.standard_normal(n_max)
    c[n_max - clear_top :] = 0.0
    return FockVector(c / _norm(c))


def _commutators(s: SimpleNamespace) -> float:
    worst = 0.0
    for k in range(1, 6):
        for _ in range(10):
            probe = _random_probe(s.rng, clear_top=k + 1)
            res = pha_commutator_check(k, probe)
            worst = max(worst, res.lowering, res.raising, res.number_poly)
    return worst


def _ladder_union(s: SimpleNamespace) -> float:
    gap = 0.0
    for k in (2, 3, 5):
        merged = np.sort(ladder_spectrum(k, levels=60), axis=None)[:60]
        gap = max(gap, float(np.max(np.abs(merged - (np.arange(60) + 0.5)))))
    return gap


def _unitary_drift(s: SimpleNamespace) -> float:
    state = _random_probe(s.rng, clear_top=1)
    for _ in range(1000):
        state = time_evolve(state, 0.01)
    return abs(state.norm() - 1.0)


def _edge_leakage(s: SimpleNamespace) -> float:
    top = basis_state(_ALGEBRA_N_MAX - 1, _ALGEBRA_N_MAX)
    lifted = apply_k_ladder(top, 1, +1, leak_tol=np.inf)
    return abs(lifted.leakage - _ALGEBRA_N_MAX) + lifted.norm()


def _fires(error: type[Exception], call: Callable[[], object]) -> float:
    """0 when call() raises `error`, else 1: the measure of a guard row."""
    try:
        call()
    except error:
        return 0.0
    return 1.0


def _state_inputs() -> SimpleNamespace:
    labels = [
        st.MCSLabel(k, j, a) for k in (1, 2, 3) for j in range(k) for a in _LABEL_ALPHAS
    ]
    built = {lab: st.build_mcs(lab, _N_MAX) for lab in labels}
    return SimpleNamespace(
        built=built,
        closed={lab: st._closed_moments(lab) for lab in labels},
        numeric={lab: st.numeric_moments(vec) for lab, vec in built.items()},
    )


def _swept_labels(s: SimpleNamespace, k: int) -> list[st.MCSLabel]:
    """Order-k labels of the label set, then of the shared radial sweep."""
    sweep = [st.MCSLabel(k, j, r * ph) for j in range(k) for r in _RADII for ph in _PHASES]
    return [lab for lab in s.closed if lab.k == k] + sweep


def _swept_moments(s: SimpleNamespace, k: int) -> list[tuple[st.MCSLabel, st.MomentSet]]:
    """Order-k closed moments over `_swept_labels`."""
    return [(lab, s.closed.get(lab) or st.moments(lab, _N_MAX)) for lab in _swept_labels(s, k)]


def _state_norms(s: SimpleNamespace) -> float:
    return max(abs(v.norm() - 1.0) for v in s.built.values())


def _eigen_residuals(s: SimpleNamespace) -> float:
    return max(st.eigenvalue_residual(lab, vec) for lab, vec in s.built.items())


def _moment_routes(s: SimpleNamespace) -> float:
    return max(st._route_gap(closed, s.numeric[lab])[1] for lab, closed in s.closed.items())


def _order_one_product(s: SimpleNamespace) -> float:
    # the closed order-one moments hold 1/2 itself, so this reads the built states
    numeric = (s.numeric.get(lab) or st.numeric_moments(st.build_mcs(lab, _N_MAX))
               for lab in _swept_labels(s, 1))
    return max(abs(mom.uncertainty_product - 0.5) for mom in numeric)


def _number_closed_vs_series(s: SimpleNamespace) -> float:
    # every class of k >= 2 takes the series at 0 and the ring filter at 20
    radii = (0.0, 1e-9, 1e-6, 1e-3, 0.03, 0.3, 3.0, 20.0)
    rel = 0.0
    for k, j, r in ((k, j, r) for k in range(1, 9) for j in range(k) for r in radii):
        a_series = st._a_norm_series(k, j, r * r)
        a_closed = st.a_norm_closed(st.MCSLabel(k, j, r))
        rel = max(rel, abs(a_closed - a_series) / max(a_series, 1e-300))
    return rel


def _small_alpha_limits(s: SimpleNamespace) -> float:
    lim = 0.0
    for k in (1, 2, 3):
        for j in range(k):
            prod = st.moments(st.MCSLabel(k, j, 1e-6), _N_MAX).uncertainty_product
            lim = max(lim, abs(prod - (j + 0.5)))
    return lim


def _order_three_energy(s: SimpleNamespace) -> float:
    gap = 0.0
    for lab, mom in _swept_moments(s, 3):
        target = st.a_norm_closed(lab) + 0.5
        gap = max(
            gap,
            abs(mom.uncertainty_product - mom.mean_H),
            abs(mom.uncertainty_product - target),
            abs(mom.mean_H - target),
        )
    return gap


def _revival(s: SimpleNamespace) -> float:
    # ||U psi - phase psi|| bounds |<psi|U psi> conj(phase) - 1| from above
    rev = 0.0
    for lab, vec in s.built.items():
        cycled = time_evolve(vec, 2.0 * math.pi / lab.k)
        expect = st.revival_phase(lab.k, lab.j) * vec.coeffs
        rev = max(rev, _norm(cycled.coeffs - expect))
    return rev


def _phase_routes(s: SimpleNamespace) -> float:
    return max(st._phase_routes(lab, numeric.mean_H)[2] for lab, numeric in s.numeric.items())


def _order_two_phase(s: SimpleNamespace) -> float:
    gap = 0.0
    for r in _RADII:
        beta0 = st.geometric_phase(st.MCSLabel(2, 0, r), _N_MAX)
        beta1 = st.geometric_phase(st.MCSLabel(2, 1, r), _N_MAX)
        gap = max(gap, abs(beta0 - math.pi * r * math.tanh(r)))
        gap = max(gap, abs(beta1 - math.pi * (r / math.tanh(r) - 1.0)))
    return gap


def _ring_vs_direct(s: SimpleNamespace) -> float:
    gap = 0.0
    for k in (2, 3):
        for j in range(k):
            for z in (1.5, 1.0 + 1.0j):
                ring = dec.mcs_as_scs(k, j, z).fock_vector(_N_MAX)
                direct = dec._ring_state(k, j, z, _N_MAX)
                gap = max(gap, _norm(ring.coeffs - direct.coeffs))
    return gap


def _reassembly(s: SimpleNamespace) -> float:
    gap = 0.0
    for k in (2, 3, 5):
        for z in (1.5, 0.8 - 1.1j) + _RING_Z:
            back = dec.coherent_from_classes(k, z, _N_MAX)
            ref = st.build_mcs(st.MCSLabel(1, 0, z), _N_MAX)
            gap = max(gap, _norm(back.coeffs - ref.coeffs))
    return gap


def _wavefunctions(s: SimpleNamespace) -> float:
    x, t = np.linspace(-10.0, 10.0, 801), np.array((0.0, 0.7))
    cases = [(k, j, z) for k in (2, 3) for j in range(k) for z in _RING_Z]
    # the Fock route of every case at both instants from one synthesis
    synth = dec._synthesize(np.concatenate(
        [dec._fock_rows(dec._ring_state(*case, _N_MAX).coeffs, t) for case in cases]), x)
    gap = 0.0
    for i, case in enumerate(cases):
        closed = dec._amplitudes(*case, x, t, "closed", _N_MAX)
        gap = max(gap, float(np.max(np.abs(closed - synth[2 * i : 2 * i + 2]))))
    return gap


class _PairGaps(NamedTuple):  # what the wigner rows read of a closed/numeric pair
    sup_gap: float  # max |closed - numeric|
    mass: float  # the larger |total - 1| of the two
    marginals: float  # both fields' marginals against the state's densities
    purity: float  # |purity - 1| of the closed field
    rotation: float  # quarter turn: both fields against the rotated field; else 0


def _wigner_inputs() -> SimpleNamespace:
    """Closed fields of every (k, j, z) with k <= 3 and z in _RING_Z, each
    measured as it is built: its negativity and a numeric case's pair gaps.
    The quarter-turn case's field, rotated, meets the pair of its state
    evolved by t = pi/2, the one time three fields are held at once."""
    s = SimpleNamespace(grid=wg.PhaseGrid(), negativity={}, pairs=[])
    for case in ((k, j, z) for k in (1, 2, 3) for j in range(k) for z in _RING_Z):
        closed = wg.wigner_closed(*case, s.grid)
        s.negativity[case] = wg.negativity_volume(closed)
        if case in _NUMERIC_CASES:
            s.pairs.append(_pair_gaps(dec._ring_state(*case, _N_MAX), closed, s.grid))
        elif case == _QUARTER_TURN:
            k, j, z = case
            t = math.pi / 2.0
            # a quarter turn maps grid nodes onto nodes: W_t(q, p) = W_0(-p, q)
            s.quarter = _pair_gaps(time_evolve(dec._ring_state(*case, _N_MAX), t),
                                   wg.wigner_closed(k, j, complex(z) * np.exp(-1j * t), s.grid),
                                   s.grid, closed.values[::-1, :].T)
            s.pairs.append(s.quarter)
        del closed  # before the next case's field is built
    return s


def _pair_gaps(state: FockVector, closed: wg.WignerField, grid: wg.PhaseGrid,
               rotated: np.ndarray | None = None) -> _PairGaps:
    numeric = wg.wigner_numeric(state, grid)
    ref = wg.marginals(numeric, state)
    marginal = max(max(float(np.max(np.abs(m.q_marginal - ref.q_density))),
                       float(np.max(np.abs(m.p_marginal - ref.p_density))))
                   for m in (ref, wg.marginals(closed)))
    rotation = 0.0 if rotated is None else max(wg._sup_gap(closed.values, rotated),
                                               wg._sup_gap(numeric.values, rotated))
    return _PairGaps(wg._sup_gap(closed.values, numeric.values),
                     max(abs(closed.total() - 1.0), abs(numeric.total() - 1.0)),
                     marginal, abs(closed.purity() - 1.0), rotation)


def _wide_window(s: SimpleNamespace) -> float:
    # the branches sit 12.7 apart, so the y window must pass 10
    state = dec._ring_state(2, 0, 4.5, _N_MAX)
    closed = wg.wigner_closed(2, 0, 4.5, s.grid)
    return wg._sup_gap(wg.wigner_numeric(state, s.grid).values, closed.values)


def _completeness_inputs() -> SimpleNamespace:
    # radial quadrature, no truncation involved
    plain = comp.MeasureCandidate(
        k=1, j=0, log_density=lambda v: (-v, np.ones_like(v)), support_hint=200.0, name="exp(-x)"
    )
    return SimpleNamespace(
        order_two=[comp.root_exponential_density(2, j) for j in (0, 1)],
        plain=comp.moment_check(plain, n_top=6),
    )


def _order_one_moments(s: SimpleNamespace) -> float:
    report = comp.moment_check(comp.root_exponential_density(1, 0), n_top=20)
    return report.worst_error() if report.nonnegative else math.inf


def _order_one_identity(s: SimpleNamespace) -> float:
    return comp.identity_resolution_numeric(1, 0)


def _order_two_moments(s: SimpleNamespace) -> float:
    return max(comp.moment_check(cand, n_top=12).worst_error() for cand in s.order_two)


def _tiling_gap(k: int) -> float:
    """Gap to the identity of the first 8k levels, tiled from the k class
    blocks of order k: the blocks are diagonal, so the worst of theirs."""
    return max(comp.identity_resolution_numeric(k, j, 8) for j in range(k))


def _zero_density(s: SimpleNamespace) -> float:
    zero = comp.MeasureCandidate(
        k=1, j=0, log_density=lambda v: (np.full_like(v, -np.inf), np.zeros_like(v)),
        support_hint=10.0, name="zero",
    )
    return comp.moment_check(zero, n_top=3).worst_error()


_INPUTS = {
    "algebra": _algebra_inputs,
    "states": _state_inputs,
    "wigner": _wigner_inputs,
    "completeness": _completeness_inputs,
}

CHECKS = (
    Check("algebra", "commutator residuals, orders 1..5, 50 probes", "<=", 1e-12,
          _commutators),
    Check("algebra", "ladder union reproduces n + 1/2 (first 60)", "<=", 0.0,
          _ladder_union),
    Check("algebra", "unitary drift after 1000 steps", "<=", 1e-13, _unitary_drift),
    Check("algebra", "leakage accounting at the truncation edge", "<=", 0.0,
          _edge_leakage),
    Check("algebra", "edge-support guard fires", "<=", 0.0,
          lambda s: _fires(EdgeSupport, lambda: pha_commutator_check(
              2, basis_state(_ALGEBRA_N_MAX - 1, _ALGEBRA_N_MAX)))),
    Check("states", "state norms after truncation", "<=", 1e-12, _state_norms),
    Check("states", "ladder eigenvalue residuals", "<=", 1e-10, _eigen_residuals),
    Check("states", "moment routes (series vs matrix elements)", "<=", 1e-10,
          _moment_routes),
    Check("states", "order-one product stays at 1/2", "<=", 1e-12, _order_one_product),
    Check("states", "closed vs series number expectation", "<=", 1e-10,
          _number_closed_vs_series),
    Check("states", "uncertainty limits j + 1/2 at alpha -> 0", "<=", 1e-6,
          _small_alpha_limits),
    Check("states", "order-3 product and energy equal the closed number + 1/2", "<=",
          1e-10, _order_three_energy),
    Check("states", "revival phase after one period", "<=", 1e-10, _revival),
    Check("states", "geometric phase routes", "<=", 1e-12, _phase_routes),
    Check("states", "order-2 closed geometric phase", "<=", 1e-10, _order_two_phase),
    Check("states", "ring decomposition matches direct build", "<=", 1e-12,
          _ring_vs_direct),
    Check("states", "coherent state reassembled from classes", "<=", 1e-12,
          _reassembly),
    Check("states", "closed vs synthesized wavefunctions", "<=", 1e-8, _wavefunctions),
    Check("states", "degenerate-class guard fires", "<=", 0.0,
          lambda s: _fires(DegenerateNorm, lambda: dec.mcs_as_scs(2, 1, 0.0))),
    Check("wigner", "closed vs numeric fields", "<=", 1e-6,
          lambda s: max(pair.sup_gap for pair in s.pairs)),
    Check("wigner", "field total mass", "<=", 1e-6,
          lambda s: max(pair.mass for pair in s.pairs)),
    Check("wigner", "marginals vs synthesized densities", "<=", 1e-6,
          lambda s: max(pair.marginals for pair in s.pairs)),
    Check("wigner", "pure-state purity from the field", "<=", 1e-3,
          lambda s: max(pair.purity for pair in s.pairs)),
    Check("wigner", "coherent field nonnegativity", "<=", 1e-10,
          lambda s: max(s.negativity[1, 0, z] for z in _RING_Z)),
    Check("wigner", "cat negativity volume", ">=", 1e-3,
          lambda s: min(v for (k, _, _), v in s.negativity.items() if k > 1)),
    Check("wigner", "quarter-turn rotation covariance", "<=", 1e-6,
          lambda s: s.quarter.rotation),
    Check("wigner", "numeric window from the state, (2, 0, 4.5) vs closed", "<=",
          1e-12, _wide_window),
    Check("completeness", "order-1 density moments (n <= 20)", "<=", 1e-8,
          _order_one_moments),
    Check("completeness", "order-1 identity resolution", "<=", 1e-6,
          _order_one_identity),
    Check("completeness", "order-2 density moments (n <= 12)", "<=", 1e-8,
          _order_two_moments),
    Check("completeness", "order-2 class blocks tile the identity", "<=", 1e-8,
          lambda s: _tiling_gap(2)),
    Check("completeness", "class blocks tile the identity, orders 3..5", "<=", 1e-8,
          lambda s: max(_tiling_gap(k) for k in (3, 4, 5))),
    Check("completeness", "plain exponential still matches the first moment", "<=",
          1e-10, lambda s: s.plain.rel_errors[0]),
    Check("completeness", "plain exponential rejected at the second moment", ">=",
          0.4, lambda s: s.plain.rel_errors[1]),
    Check("completeness", "zero density rejected outright", ">=", 0.99, _zero_density),
)

SUITE_NAMES = tuple(dict.fromkeys(row.suite for row in CHECKS))


def run_suite(name: str) -> list[CheckResult]:
    """Measure every row of suite `name` in table order, on inputs built once
    for the suite, and keep nothing past the call. ValueError unless the
    name is one of SUITE_NAMES."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
    out = []
    shared = _INPUTS[name]()
    for row in CHECKS:
        if row.suite == name:
            v = float(row.measure(shared))
            ok = v <= row.threshold if row.relation == "<=" else v >= row.threshold
            out.append(CheckResult(row.name, v, row.threshold, row.relation, ok))
    return out
