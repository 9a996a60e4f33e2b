"""Property tests of the public entry points over random class states.

The numeric Wigner route: every label with k <= 8, any class j < k and |z|
in [0.2, 3] gets a finite numeric field of unit total on 65^2 and 129^2
copies of the default +-8 grid, and that field matches the closed one
wherever the closed route serves the label. At |z| in [1, 3], on 65^2 to
513^2 grids of half-width 8 or 10, the two fields agree within 1e-13
plus the closed route's rounding bound.

The typed contract: over k <= 8 and a few orders past 120, |z| log-uniform
in [1e-150, 40] and n_max up to 4096, `build_mcs`, `moments`,
`geometric_phase`, `mcs_wavefunction` on both routes and `wigner_closed`
either raise a McskitError or return finite values that meet their
invariants: unit norm, an uncertainty product >= 1/2, and unit mass or a
field total of 1 on a grid that covers the state's reach. Every argument
drawn is valid, so not even a ValueError is allowed.

The trusted kernels, whose FockVector is not validated again: over k <= 8
and both signs, `apply_k_ladder` of vectors of up to 4096 levels with
parts up to 1e300, any `basis_state`, and `build_mcs` with |alpha|
log-uniform from 1e-300 to 1.78e308, across the 1.34e154 where |alpha|^2
leaves double range, and n_max up to 4096, each return finite
coefficients or raise a McskitError, and never warn. `_norm`, which these
kernels and the moments use, is np.linalg.norm bit for bit on complex
vectors of 1 to 4096 entries with parts from subnormal to 1e300, signed
zeros included.

Completeness: over every class with k <= 400, n_top and dim_check up to 8,
`moment_check` passes the root-exponential density and the diagonal of
its identity block lies within 1e-10 of one; nothing is refused.

The command line: over argv drawn for spectrum, uncertainty, wigner and
evolve, with orders up to 8 and 124, 171 and 330, option values from edge
sets (0, 1e-300, 1e308, nan, inf, polar forms) and grids of at most 33
points per axis, `cli.main` exits 0, 1 or 2 and lets no exception escape,
and every table it writes with exit 0 holds finite numbers only. Grid
bounds are either at most 16 apart or past double range, so no drawn grid
lies between what the array cap refuses and what fits in memory.

Each fixed example below is a label a search once failed on.
"""

import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcskit import (
    DegenerateNorm,
    FockVector,
    MCSLabel,
    McskitError,
    PhaseGrid,
    apply_k_ladder,
    basis_state,
    build_mcs,
    geometric_phase,
    mcs_wavefunction,
    moment_check,
    moments,
    root_exponential_density,
    wigner_closed,
    wigner_numeric,
)
from mcskit.cli import main
from mcskit.completeness import _identity_diagonal
from mcskit.decomposition import _RING_ACCURACY, _ring_norm
from mcskit.fock import _norm

EPS = np.finfo(np.float64).eps
EDGE = 8.0

labels = st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1)))


@settings(max_examples=300, deadline=None)
@given(
    label=labels,
    r=st.floats(0.2, 3.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    n=st.sampled_from([65, 129]),
)
# served by the closed route, whose ring pairs then cancelled to 1.1e-7
# while its guard counted one pair's rounding instead of all k^2
@example(label=(7, 6), r=0.26512, theta=0.07297, n=129)
# refused by the fixed y window of 10 the numeric route once had; a branch
# 3.76 from the grid edge leaves 6.4e-8 of the mass outside
@example(label=(4, 3), r=2.99610, theta=1.61878, n=65)
def test_numeric_field_of_any_class_state(label, r, theta, n):
    k, j = label
    z = r * complex(math.cos(theta), math.sin(theta))
    grid = PhaseGrid(-EDGE, EDGE, -EDGE, EDGE, n, n)
    field = wigner_numeric(build_mcs(MCSLabel(k, j, z**k)), grid)
    assert np.all(np.isfinite(field.values))
    # a unit-width Gaussian on the ring, sqrt(2) r from the origin, leaves
    # at most erfc(8 - sqrt(2) r) of its mass outside the box
    outside = math.erfc(EDGE - math.sqrt(2.0) * r)
    assert abs(field.total() - 1.0) <= 1e-8 + outside
    try:
        closed = wigner_closed(k, j, z, grid)
    except DegenerateNorm:
        return
    # the accuracy the closed route promises wherever it serves, and the
    # tighter rounding bound of its ring pairs for this label
    num, den = _ring_norm(k, j, z, "wigner_numeric", pairs=True)
    gap = float(np.max(np.abs(field.values - closed.values)))
    assert gap <= _RING_ACCURACY
    assert gap <= 1e-9 + 2.0 * EPS * num / den**2


@settings(max_examples=200, deadline=None)
@given(
    label=labels,
    r=st.floats(1.0, 3.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    n=st.sampled_from([65, 129, 201, 257, 513]),
    edge=st.sampled_from([8.0, 10.0]),
)
def test_numeric_field_meets_the_closed_field_to_rounding(label, r, theta, n, edge):
    # y steps from a third of a q step (65 points on +-10) to 4 q steps (513
    # on +-8), each below the integrand's band limit, where the trapezoid
    # rule is exact to rounding; past 1e-13 the gap is the closed route's
    # own rounding (5.8e-13 at (8, 7, |z| = 1)), which its ring pairs bound
    k, j = label
    z = r * complex(math.cos(theta), math.sin(theta))
    grid = PhaseGrid(-edge, edge, -edge, edge, n, n)
    field = wigner_numeric(build_mcs(MCSLabel(k, j, z**k)), grid)
    gap = float(np.max(np.abs(field.values - wigner_closed(k, j, z, grid).values)))
    num, den = _ring_norm(k, j, z, "wigner_numeric", pairs=True)
    assert gap <= 1e-13 + 2.0 * EPS * num / den**2


# orders past 120 where the norm series once left double range
any_order = st.one_of(st.integers(1, 8), st.sampled_from((124, 135, 171)))
any_label = any_order.flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1)))
# |z| log-uniform in [1e-150, 40]
radius = st.floats(-150.0, math.log10(40.0)).map(lambda e: 10.0**e)
angle = st.floats(0.0, 2.0 * math.pi)


def ring_label(r, theta):
    return r * complex(math.cos(theta), math.sin(theta))


def covering_axis(r, j):
    """An axis over the reach of a class-j state whose ring sits sqrt(2) r
    from the origin, at a step that resolves its fringes. The state lies
    within R = max(sqrt(2) r, sqrt(2 j + 1)) in position and momentum (at
    small r it is nearly |j>), with tails of unit width that leave nothing
    past R + 9, and its density and field hold frequencies below 2 R + 14,
    which integrate exactly up to aliasing under 1e-16."""
    reach = max(math.sqrt(2.0) * r, math.sqrt(2.0 * j + 1.0))
    half = reach + 9.0
    step = 2.0 * math.pi / (2.0 * reach + 14.0)
    return half, math.ceil(2.0 * half / step) + 1


@settings(max_examples=150, deadline=None)
@given(label=st.integers(1, 400).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
       n_top=st.integers(1, 8), dim_check=st.integers(1, 8))
@example(label=(89, 88), n_top=8, dim_check=8)
@example(label=(90, 0), n_top=1, dim_check=1)
@example(label=(400, 399), n_top=8, dim_check=8)
def test_completeness_holds_for_every_class_to_order_400(label, n_top, dim_check):
    k, j = label
    report = moment_check(root_exponential_density(k, j), n_top)
    assert report.passed, report
    assert np.max(np.abs(_identity_diagonal(k, j, dim_check) - 1.0)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(label=any_label, r=radius, theta=angle, n_max=st.integers(1, 4096))
def test_states_moments_and_phases_are_finite_or_refused(label, r, theta, n_max):
    k, j = label
    mcs = MCSLabel(k, j, ring_label(r, theta) ** k)
    try:
        state = build_mcs(mcs, n_max)
    except McskitError:
        return
    assert np.all(np.isfinite(state.coeffs))
    assert abs(state.norm() - 1.0) <= 1e-12
    try:
        mom = moments(mcs, n_max)
    except McskitError:
        pass
    else:
        values = np.array([getattr(mom, f) for f in mom.__dataclass_fields__])
        assert np.all(np.isfinite(values))
        assert mom.uncertainty_product >= 0.5 - 1e-12
    try:
        beta = geometric_phase(mcs, n_max)
    except McskitError:
        return
    assert math.isfinite(beta)


@settings(max_examples=150, deadline=None)
@given(label=any_label, r=radius, theta=angle, t=st.floats(0.0, 2.0 * math.pi),
       n_max=st.integers(1, 4096), method=st.sampled_from(["closed", "fock"]))
def test_wavefunction_has_unit_mass_or_is_refused(label, r, theta, t, n_max, method):
    k, j = label
    half, n = covering_axis(r, j)
    x = np.linspace(-half, half, n)
    try:
        psi = mcs_wavefunction(k, j, ring_label(r, theta), x, t=t, method=method,
                               n_max=n_max)
    except McskitError:
        return
    assert np.all(np.isfinite(psi))
    density = np.abs(psi) ** 2
    mass = float(np.sum(density) - 0.5 * (density[0] + density[-1])) * (x[1] - x[0])
    # each point within the ring routes' promised 1e-8, which moves the
    # mass by at most 2e-8 times the integral of |psi| <= sqrt(2 half)
    assert abs(mass - 1.0) <= 1e-10 + 2.0 * _RING_ACCURACY * math.sqrt(2.0 * half)


@settings(max_examples=80, deadline=None)
@given(label=any_label, r=radius, theta=angle)
def test_closed_field_has_unit_total_or_is_refused(label, r, theta):
    k, j = label
    # past order 120 a field holds k^2 ring pairs; keep its grid small
    r = min(r, 2.0) if k > 8 else r
    z = ring_label(r, theta)
    half, n = covering_axis(r, j)
    grid = PhaseGrid(-half, half, -half, half, n, n)
    try:
        field = wigner_closed(k, j, z, grid)
    except McskitError:
        return
    assert np.all(np.isfinite(field.values))
    # every cell within the ring pairs' rounding bound
    num, den = _ring_norm(k, j, z, "wigner_numeric", pairs=True)
    area = (2.0 * half) ** 2
    assert abs(field.total() - 1.0) <= 1e-10 + area * 2.0 * EPS * num / den**2


def finite_or_refused(call):
    """call()'s coefficients, or None for a McskitError; a RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            coeffs = call().coeffs
        except McskitError:
            return None
    assert coeffs.dtype == np.complex128 and np.all(np.isfinite(coeffs))
    return coeffs


def random_parts(draw_seed, size, low, high, zeros):
    """size doubles, log-uniform in magnitude between 10^low and 10^high with
    random signs, and a share `zeros` of them +-0.0."""
    rng = np.random.default_rng(draw_seed)
    mag = 10.0 ** rng.uniform(low, high, size)  # underflows to 0 below 5e-324
    mag[rng.random(size) < zeros] = 0.0
    return np.where(rng.random(size) < 0.5, -mag, mag)


def complex_vector(seed, size, low, high, zeros):
    c = np.empty(size, dtype=np.complex128)  # parts set apart keep -0.0
    c.real = random_parts(seed, size, low, high, zeros)
    c.imag = random_parts(seed + 1, size, low, high, zeros)
    return c


SEEDS = st.integers(0, 2**32 - 2)
DECADES = st.floats(-324.0, 300.0)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 4096), seed=SEEDS, ends=st.tuples(DECADES, DECADES),
       zeros=st.sampled_from([0.0, 0.3, 1.0]),
       picks=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                      max_size=8))
def test_norm_is_numpys_bit_for_bit(size, seed, ends, zeros, picks):
    c = complex_vector(seed, size, min(ends), max(ends), zeros)
    for i, (re, im) in enumerate(picks[:size]):  # drawn edge values up front
        c[i] = complex(re, im)
    with np.errstate(over="ignore"):  # squares past 1.3e154 are inf on both
        got, want = _norm(c), np.linalg.norm(c)
    assert type(got) is float and got.hex() == float(want).hex()


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 8), sign=st.sampled_from([-1, 1]), n_max=st.integers(1, 4096),
       seed=SEEDS, ends=st.tuples(DECADES, DECADES), zeros=st.sampled_from([0.0, 0.5]))
# an image past double range: sqrt(F(n + 8)) reaches 2.8e14 on 4096 levels
@example(k=8, sign=-1, n_max=4096, seed=0, ends=(300.0, 300.0), zeros=0.0)
@example(k=8, sign=1, n_max=4096, seed=0, ends=(300.0, 300.0), zeros=0.0)
def test_ladder_is_finite_or_refused(k, sign, n_max, seed, ends, zeros):
    state = FockVector(complex_vector(seed, n_max, min(ends), max(ends), zeros))
    finite_or_refused(lambda: apply_k_ladder(state, k, sign, leak_tol=np.inf))


@settings(max_examples=50, deadline=None)
@given(n_max=st.integers(1, 4096), data=st.data())
def test_basis_state_is_finite(n_max, data):
    n = data.draw(st.integers(0, n_max - 1))
    coeffs = finite_or_refused(lambda: basis_state(n, n_max))
    assert coeffs[n] == 1.0 and np.count_nonzero(coeffs) == 1


@settings(max_examples=200, deadline=None)
@given(label=any_label, decade=st.floats(-300.0, 308.25), theta=angle,
       n_max=st.integers(1, 4096))
# the largest |alpha| whose square fits a double, and one past it
@example(label=(1, 0), decade=math.log10(1.3e154), theta=0.0, n_max=4096)
@example(label=(1, 0), decade=math.log10(1.35e154), theta=0.0, n_max=4096)
def test_built_state_is_finite_or_refused(label, decade, theta, n_max):
    k, j = label
    finite_or_refused(lambda: build_mcs(MCSLabel(k, j, ring_label(10.0**decade, theta)),
                                        n_max))


# edge values of the command line as a user spells them, each set ending in
# values that are refused (exit 2)
REALS = st.sampled_from(("0", "1e-300", "1.5", "8", "30", "1e308", "-1", "nan", "inf"))
COMPLEXES = st.sampled_from(("0", "1e-300", "-2", "6@60", "1e308", "0,-0", "1,1", "2@45", "1e308@90",
                             "1e-300@180", "3@-30", "nan", "inf", "nan@10", "1,inf"))
# bounds at most 16 apart or past double range
AXES = st.sampled_from(("-8,8", "-1,1", "0,1e-300", "1e-300,1", "-8,0", "-1e308,1", "0,1e308",
                        "-1.7e308,1", "-1e308,1e308", "8,-8", "nan,1"))
POINTS = st.sampled_from(("2", "3", "17", "33", "1"))


@st.composite
def cli_argv(draw):
    """argv of one table command."""
    cmd = draw(st.sampled_from(("spectrum", "uncertainty", "wigner", "evolve")))
    k = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 124, 171, 330)))
    argv = [cmd, "--k", str(k)]
    if cmd == "spectrum":
        argv += ["--levels", draw(POINTS)]
    else:
        argv += ["--j", str(draw(st.integers(0, k - 1))),
                 "--nmax", draw(st.sampled_from(("2", "16", "256")))]
    if cmd == "uncertainty":
        argv += ["--alpha", draw(REALS), "--points", draw(POINTS)]
        if draw(st.booleans()):
            argv += ["--alpha-min", draw(REALS)]
    elif cmd == "wigner":
        grid = [draw(AXES), draw(AXES), draw(POINTS), draw(POINTS)]
        argv += ["--z", draw(COMPLEXES), "--grid", ",".join(grid),
                 "--method", draw(st.sampled_from(("closed", "numeric", "both")))]
    elif cmd == "evolve":
        argv += ["--z", draw(COMPLEXES), "--grid", f"{draw(AXES)},{draw(POINTS)}",
                 "--nt", draw(POINTS), "--method", draw(st.sampled_from(("closed", "fock")))]
        if draw(st.booleans()):
            argv += ["--tmax", draw(REALS)]
    return argv + ["--format", draw(st.sampled_from(("csv", "json")))]


def table_columns(text, fmt):
    """The columns of a written table as float arrays."""
    if fmt == "json":
        return {name: np.array(col, dtype=float) for name, col in json.loads(text)["columns"].items()}
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    return {name: np.array([float(row[c]) for row in rows])
            for c, name in enumerate(lines[0].split(","))}


@settings(max_examples=600, deadline=None)
@given(argv=cli_argv())
# the synthesis seed e^{-x^2/2} formed x^2 past double range (a RuntimeWarning)
@example(argv="evolve --k 1 --j 0 --nmax 2 --z 0 --grid=-1e308,1,2 --nt 2 --method fock "
              "--format csv".split())
# and the first recurrence product overflowed, so the density there was NaN
@example(argv="evolve --k 2 --j 0 --nmax 256 --z 2@45 --grid=-1.7e308,1,3 --nt 2 "
              "--method fock --format json".split())
def test_cli_exits_0_1_or_2_and_writes_finite_tables(tmp_path_factory, argv):
    out = tmp_path_factory.getbasetemp() / "cli_property.out"
    out.unlink(missing_ok=True)
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse's exit 2
        code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        for name, col in table_columns(out.read_text(), argv[-1]).items():
            assert col.size and np.all(np.isfinite(col)), name
