"""Wigner quasiprobability fields on a rectangular phase-space grid.

Kernel convention:

    W(q, p) = (1/pi) integral psi*(q+y) psi(q-y) e^{2ipy} dy

so that integral(W dq dp) = 1, marginals are |psi(q)|^2 and |phi(p)|^2, and
2*pi*integral(W^2) = 1 for a pure state.

Both routes are dense linear algebra, real by construction, and hold no
full-grid array besides the field they return. The closed field sums k^2
ring pairs, each rank-1 in (q, p); pair (b, a) is the conjugate of pair
(a, b), so the k diagonal pairs and twice the real part of the k(k-1)/2
pairs a < b make the whole field one real (n_q x k^2) @ (k^2 x n_p)
product. Every factor is peeled to modulus <= 1, so no intermediate
overflows where the field itself is finite. That product runs in blocks of
rows small enough that OpenBLAS keeps each on the calling thread (see
decomposition._matmul_tiles): at k >= 3 on 257^2 a single call would wake
its thread pool, whose workers spin between products and whose split
makes the last bits depend on the thread count.

The numeric transform gets its speed from two choices. Its y step sits
at the integrand's band limit pi / (reach + max|p|), the reach taken level
by level (see wigner_numeric), since the trapezoid rule is exact up to
aliasing for this smooth, decaying integrand: whole q steps where the
limit allows, else an integer fraction of one, so every q +- y lies on
one shared lattice. psi is synthesized once on that lattice, and
psi(q+y) and psi(q-y) are strided views of it. The y window is the
state's too: it ends at the last y where |psi(q+y) psi(q-y)| still
exceeds 1e-16 |psi|^2 somewhere on the q axis, so no caller sets it. Since
C(q, y) = psi*(q+y) psi(q-y) obeys C(q, -y) = conj C(q, y), only y >= 0 is
kept and the p integral is two real matmuls against cos(2yp) and sin(2yp),
which carry the trapezoid weights and 1/pi. Those tables come from about
2 sqrt(n_y) complex exponentials per momentum by angle addition, and on a
mirrored p axis (symmetric bounds) only p >= 0 is tabulated and
transformed: the even cos part and the odd sin part give both halves. C
is formed a block of rows at a time, each product small enough to stay on
the calling thread even for a state as wide as |200>, and goes straight
into the field; purity and negativity_volume likewise square or clip the
field a block of rows at a time. For a state on levels of one parity
(|n>, each class state of even order), on mirrored q and p axes, psi is
synthesized at x >= 0 and W(-q, -p) = W(q, p) gives the rows q < 0 (see
wigner_numeric). Agreement with a naive transform at a far finer step is
at machine precision. On a 2-vCPU x86 machine with OpenBLAS a 257x257
field of (2, 0, z = 2) takes about 0.44 ms, and 0.59 ms for the mixed
(3, 1, 2).

A PhaseGrid builds its axes and trapezoid weights once, as read-only
arrays that every field and integral on it shares; marginals synthesizes
|psi(q)|^2 and |phi(p)|^2 as two rows of one Hermite recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .decomposition import (_cis, _matmul_tiles, _ring_norm, _ring_points, _split_rows,
                            _synthesize, fock_wavefunction)
from .errors import BoundaryMass, WindowTooNarrow
from .fock import (FockVector, _check_class, _check_entries, _ints, _positive_norm,
                   _read_only)
from .states import _turns

# largest |W| marginals accepts on the grid edge
_BOUNDARY_TOL = 1e-10

# the numeric route's edge tolerance per |psi|^2, the tail share that counts
# a level towards its reach p_psi, and the share of |c| a level's term falls
# below at that reach (see wigner_numeric)
_EDGE_TOL = 1e-16
_LEVEL_TOL = 1e-32
_TERM_TOL = 1e-17
# field rows folded at once by the integrals, and correlator rows whose
# envelope the numeric route takes at once, so no temporary grows with the
# grid beyond a block of rows
_FIELD_ROWS = 32
_ENVELOPE_ROWS = 128


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular grid; values are indexed [i_q, i_p]. Overflow past
    2^26 points on an axis; axes and weights are built once, read-only, and
    an axis with symmetric bounds is mirrored bit for bit."""

    q_min: float = -8.0
    q_max: float = 8.0
    p_min: float = -8.0
    p_max: float = 8.0
    n_q: int = 257
    n_p: int = 257

    def __post_init__(self) -> None:
        # a finite span also means finite bounds
        if not (math.isfinite(self.q_max - self.q_min)
                and math.isfinite(self.p_max - self.p_min)):
            raise ValueError("grid bounds and spans must be finite")
        if not (self.q_min < self.q_max and self.p_min < self.p_max):
            raise ValueError("grid bounds must be increasing")
        n_q, n_p = _ints("grid sizes n_q and n_p", self.n_q, self.n_p)
        if min(n_q, n_p) < 2:
            raise ValueError("grid needs at least 2 points per axis")
        _check_entries("q axis points (n_q)", n_q)
        _check_entries("p axis points (n_p)", n_p)

    @cached_property
    def _mirrored(self) -> tuple[bool, bool]:
        """Whether the q and p axes are mirrored, a[::-1] == -a (see _axis)."""
        return self.q_min == -self.q_max, self.p_min == -self.p_max

    @cached_property
    def q_axis(self) -> np.ndarray:
        return _read_only(_axis(self.q_min, self.q_max, self.n_q))

    @cached_property
    def p_axis(self) -> np.ndarray:
        return _read_only(_axis(self.p_min, self.p_max, self.n_p))

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid weights of the q and p axes."""
        return tuple(_read_only(_trapezoid_weights(x)) for x in (self.q_axis, self.p_axis))


@dataclass(frozen=True, eq=False)
class WignerField:
    """Real field W on a PhaseGrid."""

    grid: PhaseGrid
    values: np.ndarray

    def total(self) -> float:
        return _trapz2d(self.values, self.grid)

    def purity(self) -> float:
        """2*pi*integral(W^2); equals Tr(rho^2), so 1 for pure states."""
        return 2.0 * math.pi * _trapz2d(self.values, self.grid, np.square)


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n >= 2 uniform points from lo to hi: linspace's, or for symmetric
    bounds (lo == -hi) h (i - (n - 1) / 2) with the ends pinned to lo and
    hi, so a[::-1] == -a bit for bit at any n."""
    if lo != -hi:
        return np.linspace(lo, hi, n)
    a = (hi - lo) / (n - 1) * (np.arange(n) - (n - 1) / 2)
    a[0], a[-1] = lo, hi
    return a


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    half = 0.5 * np.diff(x)
    w = np.zeros_like(x)
    w[:-1] += half
    w[1:] += half
    return w


def _trapz2d(v: np.ndarray, grid: PhaseGrid, fold: Callable | None = None) -> float:
    """Trapezoid rule over both axes as one contraction w_q @ v @ w_p.

    With fold, a ufunc such as np.square called as fold(rows, out=buf),
    the integrand is fold(v), formed _FIELD_ROWS rows at a time into one
    small buffer instead of as a copy of the whole field.
    """
    w_q, w_p = grid._weights
    if fold is None:
        return float(w_q @ v @ w_p)
    acc = np.zeros(v.shape[1])
    buf = np.empty((min(_FIELD_ROWS, v.shape[0]), v.shape[1]))
    for lo in range(0, v.shape[0], _FIELD_ROWS):
        rows = v[lo : lo + _FIELD_ROWS]
        acc += w_q[lo : lo + _FIELD_ROWS] @ fold(rows, out=buf[: len(rows)])
    return float(acc @ w_p)


def _sup_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over two fields of one shape, formed _FIELD_ROWS rows at a
    time into one small buffer; a NaN anywhere gives NaN, as np.max does."""
    buf = np.empty((min(_FIELD_ROWS, a.shape[0]), a.shape[1]))
    tops = np.empty(-(-a.shape[0] // _FIELD_ROWS))
    for i, lo in enumerate(range(0, a.shape[0], _FIELD_ROWS)):
        rows = a[lo : lo + _FIELD_ROWS]
        diff = np.subtract(rows, b[lo : lo + _FIELD_ROWS], out=buf[: len(rows)])
        tops[i] = np.abs(diff, out=diff).max()
    return float(tops.max())


def _phase_table(h: float, p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """w_l cos(2 l h p) / pi and w_l sin(2 l h p) / pi for l < n, each an
    (n, len(p)) array, with w_l the folded trapezoid weights of the y
    samples: h at l = 0 and l = n - 1, 2h between.

    With l = b a + c and a about sqrt(n), e^{2i l h p} is the product of
    e^{2i b a h p} and e^{2i c h p}: about 2 sqrt(n) exponentials per
    momentum and one complex product per entry, in place of n sines and
    n cosines, formed a rows at a time. Each entry carries a few ulp of
    rounding, as the direct cos and sin of the rounded argument 2 l h p do.
    """
    a = math.isqrt(n - 1) + 1
    small = np.exp(2j * h * np.arange(a)[:, None] * p)
    big = (2.0 * h / math.pi) * np.exp(2j * (a * h) * np.arange(-(-n // a))[:, None] * p)
    cos = np.empty((big.shape[0] * a, p.size))
    sin = np.empty_like(cos)
    for b, row in enumerate(big):
        phase = row * small
        cos[b * a : (b + 1) * a] = phase.real
        sin[b * a : (b + 1) * a] = phase.imag
    for table in (cos, sin):
        table[0] *= 0.5
        table[n - 1] *= 0.5
    return cos[:n], sin[:n]


def wigner_numeric(state: FockVector, grid: PhaseGrid | None = None) -> WignerField:
    """Transform a truncated state by direct quadrature on a shared lattice.

    The y step and window come from the state. Level n's term stays below
    |c_n| e^{-u^2/2} at |x| = sqrt(2n + 1) + u, so past p_psi, the max over
    levels of sqrt(2n + 1) + sqrt(2 ln(|c_n| / (1e-17 |c|))), every term is
    below 1e-17 |c|, in position and momentum alike (levels past the last
    whose tail holds 1e-32 of the norm do not count). The integrand then
    holds y frequencies below 2 (p_psi + max|p|), and the trapezoid rule is
    exact up to aliasing for such a smooth, decaying integrand, so any step
    h <= pi / (p_psi + max|p|) reproduces the transform to rounding: h is
    the most whole q steps within it, or else the largest integer fraction
    of one.

    psi is synthesized once on a lattice that holds every q +- y and
    reaches p_psi past each end of the q axis, and the y window ends at the
    last y whose correlator envelope, max over q of |psi(q+y) psi(q-y)|,
    exceeds 1e-16 |psi|^2 (at least one y step). WindowTooNarrow means psi
    still has weight at p_psi itself. Overflow when the grid or the y
    lattice would pass 2^26 points (on a unit q step, max|p| past about
    1e7), or the phase tables 2^26 entries, each checked before allocation.
    ValueError unless the norm of the vector is positive and finite.

    The p integral is two real matmuls against cos 2yp and sin 2yp, built
    by angle addition (see _phase_table), in blocks of rows each below the
    BLAS split (see decomposition._split_rows), so no product wakes the
    BLAS thread pool. On a mirrored p axis they run on p >= 0 only, and the
    p < 0 columns come from the same two products with the sign of the odd
    sin part flipped.

    A state on levels of one parity has psi(-x) = sign psi(x) and, W being
    the mean of the displaced parity operator, W(-q, -p) = W(q, p). On
    mirrored q and p axes, and so a mirrored lattice, psi is synthesized at
    x >= 0 and filled by the sign, so |psi| is exactly even and the
    envelope over rows q >= 0 is the full one bit for bit; rows q < 0 are
    then rows q > 0 turned over in p. Else every row is worked.
    """
    if grid is None:
        grid = PhaseGrid()
    _check_entries("field entries (n_q * n_p)", grid.n_q * grid.n_p)
    edge = _EDGE_TOL * _positive_norm(state.coeffs, "Wigner fields") ** 2
    p = grid.p_axis
    h_q = (grid.q_max - grid.q_min) / (grid.n_q - 1)

    weight = np.abs(state.coeffs) ** 2
    tail = np.cumsum(weight[::-1])[::-1]
    levels = int(np.count_nonzero(tail > _LEVEL_TOL * tail[0]))
    # past this reach every level's term is below _TERM_TOL |c|
    share = weight[:levels] / tail[0] / _TERM_TOL**2
    reach = float(np.max(np.sqrt(2.0 * np.arange(levels) + 1.0)
                         + np.sqrt(np.log(np.maximum(share, 1.0))), initial=1.0))
    # y step = stride q steps or q step / m within the band limit, so
    # q_i +- y_l all live on one lattice of step q step / m
    max_p = max(abs(grid.p_min), abs(grid.p_max))
    ratio = h_q * (reach + max_p) / math.pi
    _check_entries("y lattice points", (grid.n_q - 1 + 2.0 * reach / h_q) * max(1.0, ratio))
    m, stride = max(1, math.ceil(ratio)), max(1, int(1.0 / ratio))
    h = h_q * stride / m
    n_y = math.ceil(reach / h)
    n_reach = n_y * stride
    n_fine = (grid.n_q - 1) * m + 2 * n_reach + 1
    lattice = _axis(grid.q_min - n_reach * h_q / m, grid.q_max + n_reach * h_q / m, n_fine)
    sign = 1 if not state.coeffs[1::2].any() else -1 if not state.coeffs[::2].any() else 0
    half = grid.n_p // 2 if grid._mirrored[1] else 0
    parity = sign != 0 and all(grid._mirrored)
    start, mid = (grid.n_q // 2, n_fine // 2) if parity else (0, 0)
    psi = fock_wavefunction(state, lattice[mid:])
    psi = np.concatenate([sign * psi[::-1][:mid], psi])

    # windows[s] holds lattice points s .. s + n_reach, and q_i sits at point
    # i m + n_reach, so f(q_i + y_l) and f(q_i - y_l), y_l = l h = l stride
    # points, are strided views of it
    def shifted(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        windows = sliding_window_view(f, n_reach + 1)
        return windows[n_reach::m][: grid.n_q, ::stride], windows[::m][: grid.n_q, ::-stride]

    # |C| is even in y, so y >= 0 stands for both edges; the envelope is a
    # running max over blocks of rows
    mod_plus, mod_minus = shifted(np.abs(psi))
    envelope = np.zeros(n_y + 1)
    for lo in range(start, grid.n_q, _ENVELOPE_ROWS):
        rows = slice(lo, lo + _ENVELOPE_ROWS)
        np.maximum(envelope, (mod_plus[rows] * mod_minus[rows]).max(axis=0), out=envelope)
    above = np.flatnonzero(envelope > edge)
    last = int(above[-1]) if above.size else 0
    if last == n_y:
        raise WindowTooNarrow(
            f"integrand envelope {envelope[-1]:.3e} at the state's reach "
            f"y=+-{reach:.3g} exceeds {_EDGE_TOL:.1e} of the squared norm"
        )
    n_half = max(last, 1)
    plus, minus = (f[:, : n_half + 1] for f in shifted(psi))

    # C(q, -y) = conj C(q, y), so the y < 0 half folds onto y > 0 and
    # W = sum_y w_y (Re C cos 2yp - Im C sin 2yp) / pi with interior
    # weights doubled (both sit in the tables). cos 2yp is even in p and
    # sin 2yp odd, so on a mirrored p axis the p >= 0 half gives both
    # halves of the field. C is formed a block of rows at a time, each
    # product below the BLAS split so it runs on the calling thread, and each
    # block of rows goes straight into the field.
    _check_entries("phase table entries", (n_half + 1) * grid.n_p)
    cos, sin = _phase_table(h, p[half:], n_half + 1)
    field = np.empty((grid.n_q, grid.n_p))
    block = _split_rows(n_half + 1, grid.n_p - half)
    for lo in range(start, grid.n_q, block):
        rows = slice(lo, lo + block)
        corr = np.conj(plus[rows]) * minus[rows]
        even = np.ascontiguousarray(corr.real) @ cos
        odd = np.ascontiguousarray(corr.imag) @ sin
        np.subtract(even, odd, out=field[rows, half:])
        if half:
            mirror = slice(None, -half - 1, -1)
            np.add(even[:, mirror], odd[:, mirror], out=field[rows, :half])
    field[:start] = field[::-1, ::-1][:start]
    return WignerField(grid=grid, values=field)


def wigner_closed(
    k: int, j: int, z: complex, grid: PhaseGrid | None = None
) -> WignerField:
    """Exact field of the class state |z^k; k, j> for any order.

    Writing the state over its ring of coherent constituents z_a = mu^a z,
    each (a, b) pair contributes a complex-center Gaussian

        mu^{j(a-b)} exp(-(q-Q_ab)^2 - (p-P_ab)^2 + D_ab),
        Q_ab = (conj(z_a)+z_b)/sqrt2,  P_ab = i(conj(z_a)-z_b)/sqrt2,
        D_ab = conj(z_a) z_b - |z|^2,

    scaled by e^{|z|^2} / (k^2 N_j^2) / pi, with N_j the class norm of
    `decomposition._class_norm`; every turn mu^m is read exactly from
    `states._turns`. Diagonal pairs are the branch Gaussians,
    off-diagonal pairs the interference fringes with their exact damping.
    k=1 collapses to the single displaced Gaussian.

    The pairs cancel down to the class field, which keeps about
    2 eps e^{|z|^2} / N_j^2 of absolute accuracy (small |z| with j > 0);
    past 1e-8 DegenerateNorm is raised, and wigner_numeric serves those
    labels. Overflow when the grid has more than 2^26 points.
    """
    k, j = _check_class(k, j)
    if grid is None:
        grid = PhaseGrid()
    _check_entries("field entries (n_q * n_p)", grid.n_q * grid.n_p)
    z = complex(z)
    num, den = _ring_norm(k, j, z, "wigner_numeric", pairs=True)
    # pair (a, b) is rank-1 in (q, p): exp(-(q-Q)^2) exp(D) exp(-(p-P)^2).
    # Writing d = q - Re Q, -(q-Q)^2 = -d^2 + 2i d Im Q + (Im Q)^2, and the
    # (Im Q)^2 + (Im P)^2 this peels off both factors cancels Re D exactly,
    # so each factor below has modulus <= 1 and the pair weight is a phase.
    # Pair (b, a) is the conjugate of pair (a, b), so the field is the k
    # diagonal pairs, which are real, plus twice the real part of the pairs
    # a < b: Re(L R) = [Re L, Im L] @ [Re conj R; Im conj R], one real
    # product of inner size k^2, the k diagonal pairs first. Pair (a, b)
    # turns by mu^{j(a-b)}, read exactly from the table, so conj R by its conjugate
    r = np.arange(k)
    a, b = (np.concatenate([r, i]) for i in np.nonzero(r[:, None] < r))
    ring = _ring_points(k, z)
    za, zb = np.conj(ring[a]), ring[b]
    center_q = (za + zb) / math.sqrt(2.0)
    center_p = 1j * (za - zb) / math.sqrt(2.0)
    weight = np.where(a == b, 1.0, 2.0) * (num / (k * den) ** 2 / math.pi)
    turn = np.conj(np.array(_turns(k)))[j * (a - b)[k:] % k]
    # every factor is exactly 0 past an offset of 1e150; the clamp keeps the
    # squares and the phases from overflowing there (inf * 0 would be NaN)
    d = (grid.q_axis[:, None] - center_q.real).clip(-1e150, 1e150)
    e = (grid.p_axis[:, None] - center_p.real).clip(-1e150, 1e150)
    left = _pair_parts(np.exp(-d * d), 2.0 * d * center_q.imag, k)
    phase = -2.0 * e * center_p.imag - (za * zb).imag
    right = _pair_parts(weight * np.exp(-e * e), phase, k, turn)
    field = np.empty((grid.n_q, grid.n_p))
    return WignerField(grid=grid, values=_matmul_tiles(left, right.T, field))


def _pair_parts(modulus: np.ndarray, phase: np.ndarray, k: int,
                turn: np.ndarray | float = 1.0) -> np.ndarray:
    """Columns modulus for the k diagonal pairs, whose phases are 0, then Re
    and Im of turn modulus e^{i phase} for the pairs past them."""
    off = turn * _cis(modulus[:, k:], phase[:, k:])
    return np.hstack([modulus[:, :k], off.real, off.imag])


@dataclass(frozen=True, eq=False)
class Marginals:
    """Wigner marginals on the field's grid axes, next to independently
    synthesized densities (None without a state)."""

    q_marginal: np.ndarray
    p_marginal: np.ndarray
    q_density: np.ndarray | None
    p_density: np.ndarray | None


def marginals(field: WignerField, state: FockVector | None = None) -> Marginals:
    """Integrate out each axis; optionally synthesize reference densities.

    The position reference is |psi(q)|^2 from the coefficients; the
    momentum reference applies the basis twist c_n -> (-i)^n c_n, under
    which the same synthesis yields |phi(p)|^2. Both are independent of the
    transform route. One recurrence serves both, on q alone when p equals
    it bit for bit and on q and p joined otherwise.

    A field whose edges still carry more than 1e-10 cannot produce
    trustworthy marginals on this grid, hence BoundaryMass. ValueError
    unless the state's norm is positive and finite.
    """
    if state is not None:
        _positive_norm(state.coeffs, "reference densities")
    w = field.values
    edge = max(
        float(np.max(np.abs(w[0, :]))),
        float(np.max(np.abs(w[-1, :]))),
        float(np.max(np.abs(w[:, 0]))),
        float(np.max(np.abs(w[:, -1]))),
    )
    if edge > _BOUNDARY_TOL:
        raise BoundaryMass(
            f"field magnitude {edge:.3e} on the grid edge exceeds "
            f"{_BOUNDARY_TOL:.1e}; enlarge the grid"
        )
    q, p = field.grid.q_axis, field.grid.p_axis
    w_q, w_p = field.grid._weights
    q_marg, p_marg = w @ w_p, w_q @ w
    q_dens = p_dens = None
    if state is not None:
        # (-i)^n, exact where a complex power drifts by n eps
        twist = state.coeffs * np.array(_turns(4))[-np.arange(state.n_max) % 4]
        shared = np.array_equal(q, p)
        psi = _synthesize(np.stack([state.coeffs, twist]), q if shared else np.concatenate([q, p]))
        dens = np.abs(psi) ** 2
        q_dens, p_dens = dens[0, : q.size], dens[1, 0 if shared else q.size :]
    return Marginals(
        q_marginal=q_marg, p_marginal=p_marg, q_density=q_dens, p_density=p_dens
    )


def negativity_volume(field: WignerField) -> float:
    """Integrated magnitude of the negative part; 0 for any Gaussian state."""
    # the integral of min(W, 0); 0.0 - keeps a field with no negative part at +0.0
    return 0.0 - _trapz2d(field.values, field.grid, partial(np.minimum, 0.0))


def purity(field: WignerField) -> float:
    return field.purity()
