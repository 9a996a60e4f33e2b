"""End-to-end checks of the library's headline guarantees.

Each numbered criterion is a named group of rows of `mcskit.verify.CHECKS`,
the table behind `mcskit verify`; the table owns every input and
threshold, so this module measures nothing itself. Each test reports one
PASS/FAIL line through the `criterion` fixture, citing the measured value
of every row it reads, so `pytest -v` doubles as the release checklist.
"""

import pytest

from mcskit.verify import SUITE_NAMES, run_suite

# criterion number -> (title, the (suite, check name) rows it reads)
CRITERIA = {
    1: ("states are k-fold lowering eigenvectors",
        [("states", "ladder eigenvalue residuals")]),
    2: ("order-one product stays at 1/2",
        [("states", "order-one product stays at 1/2")]),
    3: ("vanishing-alpha products hit j + 1/2",
        [("states", "uncertainty limits j + 1/2 at alpha -> 0")]),
    4: ("closed number expectation matches its series",
        [("states", "closed vs series number expectation")]),
    5: ("k=3 product and energy follow the closed number",
        [("states", "order-3 product and energy equal the closed number + 1/2")]),
    6: ("one revival period returns the state up to its phase",
        [("states", "revival phase after one period")]),
    7: ("both geometric-phase routes agree",
        [("states", "geometric phase routes"),
         ("states", "order-2 closed geometric phase")]),
    8: ("algebra commutators close on random probes",
        [("algebra", "commutator residuals, orders 1..5, 50 probes")]),
    9: ("field marginals reproduce both densities",
        [("wigner", "marginals vs synthesized densities")]),
    10: ("closed and numeric fields agree",
         [("wigner", "closed vs numeric fields")]),
    11: ("only genuine cats go negative",
         [("wigner", "coherent field nonnegativity"),
          ("wigner", "cat negativity volume")]),
    12: ("classes reassemble the coherent state",
         [("states", "coherent state reassembled from classes")]),
    13: ("closed wavefunctions match Hermite synthesis",
         [("states", "closed vs synthesized wavefunctions")]),
    14: ("exponential measure has the right moments and identity",
         [("completeness", "order-1 density moments (n <= 20)"),
          ("completeness", "order-1 identity resolution")]),
    15: ("interleaved ladders rebuild the oscillator exactly",
         [("algebra", "ladder union reproduces n + 1/2 (first 60)")]),
    16: ("every class of order <= 5 resolves the identity",
         [("completeness", "order-1 identity resolution"),
          ("completeness", "order-2 class blocks tile the identity"),
          ("completeness", "class blocks tile the identity, orders 3..5")]),
}


@pytest.fixture(scope="module")
def table():
    """(suite, check name) -> CheckResult for every row of the table."""
    return {(suite, r.name): r for suite in SUITE_NAMES for r in run_suite(suite)}


@pytest.fixture
def check(criterion, table):
    def run(num: int) -> None:
        title, keys = CRITERIA[num]
        rows = [table[key] for key in keys]
        detail = "; ".join(
            f"{r.name}: {r.value:.2e} {r.relation} {r.threshold:.0e}" for r in rows
        )
        criterion(num, title, all(r.passed for r in rows), detail)

    return run


def test_c01_ladder_eigenvalue_property(check):
    check(1)


def test_c02_coherent_product_is_minimal(check):
    check(2)


def test_c03_small_alpha_limits(check):
    check(3)


def test_c04_closed_vs_series_number(check):
    check(4)


def test_c05_order_three_closed_moments(check):
    check(5)


def test_c06_revival_overlap_phase(check):
    check(6)


def test_c07_phase_route_agreement(check):
    check(7)


def test_c08_commutator_residuals(check):
    check(8)


def test_c09_wigner_marginals(check):
    check(9)


def test_c10_wigner_closed_vs_numeric(check):
    check(10)


def test_c11_negativity_dichotomy(check):
    check(11)


def test_c12_class_matrix_and_reassembly(check):
    check(12)


def test_c13_wavefunction_closed_vs_synthesis(check):
    check(13)


def test_c14_order_one_measure(check):
    check(14)


def test_c15_merged_ladders(check):
    check(15)


def test_c16_identity_every_class_to_order_five(check):
    check(16)
