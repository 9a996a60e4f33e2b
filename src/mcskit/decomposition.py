"""Cat decompositions and position-space profiles.

Every order-k class state is a finite superposition of k ordinary coherent
states sitting on a ring: the roots-of-unity filter that keeps n = j mod k
turns |z> into |z; k, j> and back. This module owns that change of basis
and the closed-form wavefunctions it implies.

Conventions. A coherent constituent here is the normalized k=1 state, and
`mcs_as_scs` returns weights with respect to those. The closed wavefunction
carries the per-branch phase exp(-i <x><p> / 2) of each moving Gaussian;
dropping it is harmless for one branch but scrambles the interference of a
superposition, which is observable in |psi|^2. The global phase is pinned
to the number-basis convention of `build_mcs` (real positive seed
coefficient), so closed and synthesized wavefunctions agree pointwise as
complex functions, not just in modulus.

The closed wavefunction and density movie share one kernel, `_amplitudes`.
It cuts a uniform x grid into about sqrt(n) blocks of about sqrt(n) points
and writes each Gaussian branch as the outer product of a factor on the
block starts and a factor on the offsets within a block, so a frame costs
about 6 sqrt(n) exp/cos/sin calls per branch instead of 3 per point, and
the sum over the k branches is one (blocks x k) @ (k x offsets) matrix
product per frame. The Fock route phases only the occupied levels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNorm
from .fock import (DEFAULT_N_MAX, FockVector, _check_class, _check_entries, _check_n_max,
                   _check_phase)
from .states import MCSLabel, _class_norm, _power, _turns, build_mcs

_QUARTIC_ROOT_PI = math.pi ** (-0.25)
_LN2 = math.log(2.0)
# largest argument whose exp is a double, and the room _ring_norm leaves below it
_LOG_MAX = math.log(np.finfo(np.float64).max)
_LOG_MARGIN = 8.0

# e^{-u^2/2} < 1e-17 past u = _GAUSS_MARGIN (see _reach)
_GAUSS_MARGIN = 9.0
# past x^2/2 = this the seed pi^{-1/4} e^{-x^2/2} is carried with a power of two
_SEED_SCALED = 708.0
# _synthesize clips |x| to the larger of this and the state's reach; a clipped
# point keeps the unscaled seed, 0 past this |x|, so all its levels are 0
_SEED_ZERO = 64.0

# absolute accuracy a sum over the coherent ring must keep as its branches
# cancel (the threshold of verify's closed-vs-synthesized row; see _ring_norm)
_RING_ACCURACY = 1e-8

# eigenfunction rows held at once by the synthesis; bounds its memory to
# _BLOCK_ROWS * len(x) doubles whatever n_max is
_BLOCK_ROWS = 64

# m k n of the largest matrix product issued at once (see _matmul_tiles):
# OpenBLAS gives a product a second thread only from 65536 * 4 = 2^18
# upward, so below twice that every product runs on the calling thread
_SPLIT_SIZE = 2**19

# the closed kernel's block factors e^{d u} and q (see `_blocks`) stay within
# e^{+-_BLOCK_EXPONENT}, far from exp overflow
_BLOCK_EXPONENT = 32.0


def _reach(levels: int) -> float:
    """|x| (and |p|) past which a state on levels below `levels` has no weight."""
    return math.sqrt(2.0 * levels + 1.0) + _GAUSS_MARGIN


def fock_wavefunction(state: FockVector, x: np.ndarray) -> np.ndarray:
    """Synthesize psi(x) = sum_n c_n psi_n(x) with oscillator eigenfunctions.

    Uses the stable two-term recurrence
    psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1};
    no Hermite polynomial or factorial ever appears explicitly, so n_max in
    the thousands is routine. n_max sets the range: where the seed
    pi^{-1/4} e^{-x^2/2} would underflow it is carried with a power of two.
    ValueError for a non-finite x.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("position grid must be finite")
    return _synthesize(state.coeffs[None, :], x.ravel())[0].reshape(x.shape)


def _split_rows(inner: int, width: int) -> int:
    """The most rows, at least 1, of a product of inner size `inner` and
    `width` columns that keep m k n below _SPLIT_SIZE."""
    return max(1, (_SPLIT_SIZE - 1) // (inner * width))


def _matmul_tiles(left: np.ndarray, right: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = left @ right for 2-d operands, in tiles of m k n < _SPLIT_SIZE.

    Tiles are blocks of rows; the columns are cut too only when a single
    row already reaches that size. Every tile then runs on the calling
    thread, so no BLAS worker wakes to spin between products and the bits
    do not depend on the thread count. A product that fits is one call.
    """
    m, inner = left.shape
    n = right.shape[1]
    # all n columns whenever one row fits; at least one column, for n = 0
    width = max(1, min(n, _split_rows(inner, 1)))
    height = _split_rows(inner, width)
    for lo in range(0, m, height):
        for col in range(0, n, width):
            rows, cols = slice(lo, lo + height), slice(col, col + width)
            np.matmul(left[rows], right[:, cols], out=out[rows, cols])
    return out


def _synthesize(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[r] = sum_n coeffs[r, n] psi_n(x) for a (rows, n_max) coefficient
    matrix and a 1-d x: one recurrence over x, whose rows are contracted
    with the coefficients as real matrix products, _BLOCK_ROWS at a time,
    each in tiles that stay on the calling thread (see _matmul_tiles).

    Only levels with a nonzero coefficient in some row are kept, and the
    recurrence stops at the highest of them. `build_mcs` states are zero
    past their effective support (about 45-80 levels at |z| <= 3), so the
    cost follows that support, not n_max. The recurrence runs in place on
    preallocated rows, so it allocates nothing per level. n_max sets the range:
    past x^2/2 = _SEED_SCALED the seed is cur 2^scale, an int32 scale per
    point renormalized every 16 levels, paid for only by such calls.
    """
    out = np.zeros((coeffs.shape[0], x.size), dtype=np.complex128)
    used = np.any(coeffs != 0.0, axis=0)
    top = int(np.flatnonzero(used)[-1]) + 1 if used.any() else 0
    used = used.tolist()
    bound = max(_SEED_ZERO, _reach(top))
    x = np.clip(x, -bound, bound)
    basis = np.empty((_BLOCK_ROWS, x.size))
    product = np.empty((coeffs.shape[0], x.size))
    held: list[int] = []
    prev, nxt, scratch = np.zeros_like(x), np.empty_like(x), np.empty_like(x)
    half_square, scale = 0.5 * x * x, 0
    scaled = float(np.max(half_square, initial=0.0)) > _SEED_SCALED
    if scaled:
        far = (half_square > _SEED_SCALED) & (np.abs(x) < bound)
        scale = np.where(far, np.floor(-half_square / _LN2), 0.0).astype(np.int32)
    cur = _QUARTIC_ROOT_PI * np.exp(-half_square - scale * _LN2)
    for n in range(top):
        if n > 0:
            np.multiply(x, math.sqrt(2.0 / n), out=scratch)
            scratch *= cur
            np.multiply(prev, math.sqrt((n - 1) / n), out=nxt)
            np.subtract(scratch, nxt, out=nxt)
            prev, cur, nxt = cur, nxt, prev
        if scaled and n % 16 == 0:
            shift = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            cur, prev, scale = np.ldexp(cur, -shift), np.ldexp(prev, -shift), scale + shift
        if used[n]:
            basis[len(held)] = np.ldexp(cur, scale) if scaled else cur
            held.append(n)
        if len(held) == _BLOCK_ROWS or n == top - 1:
            c = coeffs[:, held]
            out.real += _matmul_tiles(c.real, basis[: len(held)], product)
            out.imag += _matmul_tiles(c.imag, basis[: len(held)], product)
            held = []
    return out


def _ring_norm(
    k: int, j: int, z: complex, fallback: str, pairs: bool = False
) -> tuple[float, float]:
    """e^{|z|^2/2} / N_j (see `_class_norm`) as num / den, both scaled by
    2^-h of `_class_norm` so neither leaves double range (for h = 0 they are
    those two factors bit for bit); with pairs=True num is squared too.
    A route summing the k coherent states on the ring weighs them
    num / (k den), which cancels down to the class amplitude. The k branches
    of the wavefunction kernel, of modulus up to pi^{-1/4} num / (k den), have
    exact turns (see `_ring_weights`) and phases of up to 2 pi rounded to
    about 2 pi eps, so they leave pi^{-1/4} 2 pi eps num / den (measured
    near the threshold: up to 0.23 of that at k <= 8). The k^2 ring pairs of a
    Wigner field take num / (k den)^2 / pi each and leave 2 eps num / den^2
    (measured: up to 2.2 eps num / (pi den^2) at k <= 8).
    DegenerateNorm, naming the fallback route, once that leaves worse than
    _RING_ACCURACY absolute accuracy.

    Where j! leaves double range by far (h << 0), num would too: its log
    is checked first, and the excess moves onto den as a further power of
    two. The bound compares num with den (den^2 with pairs=True), so it
    decides as it would in exact arithmetic, and a class that cancelled
    that far raises DegenerateNorm like any other; where num fits, nothing
    moves."""
    den, h = _class_norm(k, j, z)
    power = 2 if pairs else 1
    excess = power * (0.5 * abs(z) ** 2 - h * _LN2) - _LOG_MAX
    if excess > 0.0:
        shift = math.ceil((excess + _LOG_MARGIN) / (power * _LN2))
        h += shift
        den = math.ldexp(den, -shift)
    num = math.exp(power * (0.5 * abs(z) ** 2 - h * _LN2))
    # what the k^2 pairs and the k branches leave, in units of eps num / den^power
    spread = 2.0 if pairs else _QUARTIC_ROOT_PI * 2.0 * math.pi
    if spread * np.finfo(np.float64).eps * num > _RING_ACCURACY * den**power:
        raise DegenerateNorm(
            f"class ({k}, {j}) carries too little weight at z={z} for the ring "
            f"of coherent states, whose branches cancel to worse than "
            f"{_RING_ACCURACY:g} absolute accuracy; use {fallback}"
        )
    return num, den


def _ring_points(k: int, z: complex) -> np.ndarray:
    """The ring labels mu^l z, l < k, mu^l = e^{2 pi i l/k} read exactly from `states._turns`."""
    return np.array(_turns(k)) * z


def _ring_weights(k: int, j: int, z: complex, fallback: str) -> np.ndarray:
    """The ring's weights mu^{-jl} e^{-i j arg z} num / (k den) (see `_ring_norm`),
    turn l read from `states._turns` at -jl mod k, never a power of a rounded root."""
    num, den = _ring_norm(k, j, z, fallback)
    turns = np.array(_turns(k))[-j * np.arange(k) % k]
    return turns * np.exp(-1j * j * np.angle(z)) * num / (k * den)


@dataclass(frozen=True, eq=False)
class ScsSuperposition:
    """A class state written as sum_l weights[l] |mu^l z> over normalized
    coherent constituents on the ring. ValueError unless (k, j) is a class,
    z is finite and weights holds k finite entries."""

    k: int
    j: int
    z: complex
    weights: np.ndarray

    def __post_init__(self) -> None:
        k, j = _check_class(self.k, self.j)
        z, weights = complex(self.z), np.asarray(self.weights, dtype=np.complex128)
        if not cmath.isfinite(z):
            raise ValueError(f"ring label must be finite, got {z!r}")
        if weights.shape != (k,) or not np.all(np.isfinite(weights)):
            raise ValueError(f"weights must be {k} finite entries, got {self.weights!r}")
        for name, value in zip(("k", "j", "z", "weights"), (k, j, z, weights)):
            object.__setattr__(self, name, value)

    def constituents(self) -> np.ndarray:
        return _ring_points(self.k, self.z)

    def fock_vector(self, n_max: int = DEFAULT_N_MAX) -> FockVector:
        acc = np.zeros(_check_n_max(n_max), dtype=np.complex128)
        for w, label in zip(self.weights, self.constituents()):
            acc += w * build_mcs(MCSLabel(1, 0, label), n_max).coeffs
        return FockVector(acc)


def mcs_as_scs(k: int, j: int, z: complex) -> ScsSuperposition:
    """Decompose |z^k; k, j> into k coherent states at angles 2*pi*l/k.

    The weight of constituent l on normalized coherent states is
    mu^(-jl) e^(-i j arg z) e^(|z|^2/2) / (k N_j), with N_j the class norm
    of `_class_norm`. As z -> 0 the class norm vanishes for j > 0 and these
    weights grow until summing them cancels away the class amplitude; past
    1e-8 absolute accuracy DegenerateNorm is raised, and build_mcs serves
    those labels.
    """
    k, j = _check_class(k, j)
    z = complex(z)
    return ScsSuperposition(k=k, j=j, z=z, weights=_ring_weights(k, j, z, "build_mcs"))


def coherent_from_classes(k: int, z: complex, n_max: int = DEFAULT_N_MAX) -> FockVector:
    """Inverse direction: reassemble |z> from its k class projections.

    The class-j component enters with weight e^(i j arg z) N_j e^(-|z|^2/2),
    N_j the class norm, whose factors are rescaled by 2^h (see `_class_norm`);
    summing over j must reproduce the coherent state exactly.
    """
    k, _ = _check_class(k)
    z = complex(z)
    acc = np.zeros(_check_n_max(n_max), dtype=np.complex128)
    for j in range(k):
        c, h = _class_norm(k, j, z)
        w = np.exp(1j * j * np.angle(z)) * c * math.exp(-0.5 * abs(z) ** 2 + h * _LN2)
        acc += w * _ring_state(k, j, z, n_max).coeffs
    return FockVector(acc)


def _ring_state(k: int, j: int, z: complex, n_max: int) -> FockVector:
    """build_mcs of the class state with ring label z: eigenvalue z^k."""
    return build_mcs(MCSLabel(k, j, _power(complex(z), k)), n_max)


def mcs_wavefunction(
    k: int,
    j: int,
    z: complex,
    x_grid: np.ndarray,
    t: float = 0.0,
    method: str = "closed",
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """psi(x, t) of |z^k; k, j> on x_grid, as a complex array shaped like x_grid.

    closed: sum of k moving Gaussians, each with its branch phase
    exp(-i X_l P_l / 2) and the common energy phase exp(-it/2), aligned to
    the `build_mcs` global-phase convention. Exact for any k. Where the
    branches would cancel to worse than 1e-8 absolute accuracy (small |z|
    with j > 0) it raises DegenerateNorm; method="fock" serves those labels.

    fock: synthesize from the truncated coefficient vector instead. The two
    routes agree pointwise to machine precision when n_max covers the tail,
    which is the cross-check the verify suite runs.

    Either way this is the one-instant row of `density_movie`'s kernel.
    """
    if np.ndim(t):
        raise ValueError(f"mcs_wavefunction takes one time, got an array of shape {np.shape(t)};"
                         f" density_movie evolves over a grid of times")
    x_grid = np.asarray(x_grid, dtype=np.float64)
    return _amplitudes(k, j, z, x_grid, [t], method, n_max)[0].reshape(x_grid.shape)


def density_movie(
    k: int,
    j: int,
    z: complex,
    x_grid: np.ndarray,
    t_grid: np.ndarray | None = None,
    method: str = "closed",
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """|psi(x, t)|^2 on x_grid: a (len(t_grid), x_grid.size) array, a row per instant.

    t_grid defaults to one revival period 2*pi/k at 65 frames. Row i is
    `abs(mcs_wavefunction(k, j, z, x_grid, t=t_grid[i], method=method))**2`
    bit for bit, from the same kernel evaluated on the whole grid at once:
    on the closed route each frame is a rank-k sum of outer products of
    small per-branch factors over blocks of x, one matrix product per frame
    (see `_amplitudes`), on the Fock route one synthesis for all frames.
    Overflow when the movie would pass 2^26 entries.
    """
    density = np.abs(_amplitudes(k, j, z, x_grid, t_grid, method, n_max))
    return np.square(density, out=density)


def _amplitudes(
    k: int, j: int, z: complex, x: np.ndarray, t: np.ndarray | None, method: str, n_max: int
) -> np.ndarray:
    """psi on the (len(t), x.size) grid, x raveled; t=None is one revival
    period 2*pi/k at 65 instants. ValueError for a non-finite x or t,
    Overflow past 2^26 entries.

    fock: the eigenfunctions do not depend on time, so every row comes from
    one synthesis C @ Psi with C[t, n] = c_n e^{-i(n+1/2)t} (`_fock_rows`);
    Overflow when the largest phase (n_max - 1/2) max|t| leaves double range.

    closed: branch l of the ring is w_l e^{-(x-X_l)^2/2 + i P_l x}, with
    u_l = X_l + i P_l = sqrt2 z mu^l e^{-it} and row weight
    w_l = pi^{-1/4} v_l e^{-i X_l P_l / 2} e^{-it/2}, v_l the ring weight
    of `_ring_weights`.
    On the blocks x = x_b + d_r + delta of `_blocks` that branch factors as

        [w_l e^{-(x_b-X_l)^2/2 + i P_l x_b}] e^{d_r u_l} q e^{delta u_l},
        q = e^{-x_b e - e^2/2},  e = x - x_b,

    so each frame is q (S + delta S'), S = sum_l head_l (x) tail_l and
    S' = sum_l u_l head_l (x) tail_l, with e^{delta u} = 1 + delta u to
    first order (S' is skipped when delta is 0, as on a linspace grid with
    a binary step). Stacking the branches, S is the product of the frame's
    (nb, k) heads and (k, a) tails, one batched matmul
    (len(t), nb, k) @ (len(t), k, a) for all frames, and S' likewise with
    the heads times u. Head and tail each take one real exp and a cos/sin
    pair per entry, so a frame and branch costs 3(nb + a), about
    6 sqrt(n), of those calls instead of 3 per point. q depends on neither
    t nor l, so it is applied once, after the branches have cancelled.
    One-point blocks (a = 1) give back the per-point sum of k Gaussians.

    A movie row is bit for bit the single-instant wavefunction: every
    elementwise operation sees the same operands for that instant, and
    matmul runs the batch as one product per frame, each on C-contiguous
    heads and tails of the same shape, whether the batch holds one frame
    or many.
    """
    k, j = _check_class(k, j)
    if method not in ("closed", "fock"):
        raise ValueError(f"unknown method {method!r}")
    if t is None:
        t = np.linspace(0.0, 2.0 * np.pi / k, 65)
    t = np.asarray(t, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("position and time grids must be finite")
    _check_entries("movie entries (len(t) * x.size)", t.size * x.size)
    z = complex(z)

    if method == "fock":
        return _synthesize(_fock_rows(_ring_state(k, j, z, n_max).coeffs, t), x)

    weights = _QUARTIC_ROOT_PI * _ring_weights(k, j, z, "method='fock'")
    xb, d, e, delta = _blocks(x, math.sqrt(2.0) * abs(z))
    t = t[:, None, None]
    u = math.sqrt(2.0) * (_ring_points(k, z) * np.exp(-1j * t))  # (len(t), 1, k)
    mean_x, mean_p = u.real, u.imag
    w = weights * np.exp(-0.5j * (mean_x * mean_p + t))
    # every head is exactly 0 past |x| = 1e150; the clamp keeps (x - X)^2 and
    # P x from overflowing there and leaves every other block start alone
    x_head = xb.clip(-1e150, 1e150)[:, None]
    uneven = bool(delta.any())
    psi = slope = None
    # the heads of up to a branches at a time take no more room than psi
    group = min(k, e.shape[1])
    for lo in range(0, k, group):
        part = (..., slice(lo, lo + group))
        heads = _cis(np.abs(w[part]) * np.exp(-0.5 * (x_head - mean_x[part]) ** 2),
                     mean_p[part] * x_head + np.angle(w[part]))  # (len(t), nb, group)
        ux, up = mean_x[part].transpose(0, 2, 1), mean_p[part].transpose(0, 2, 1)
        tails = _cis(np.exp(ux * d), up * d)  # (len(t), group, a)
        psi = _accumulate(psi, heads @ tails)
        if uneven:
            slope = _accumulate(slope, (u[part] * heads) @ tails)
    if uneven:
        slope *= delta
        psi += slope
    psi *= np.exp(-xb[:, None] * e - 0.5 * e * e)
    return psi.reshape(t.size, e.size)[:, : x.size]


def _fock_rows(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The Fock route's (len(t), c.size) rows c_n e^{-i(n+1/2)t}, after
    `_check_phase`, phased on the occupied levels only (0 elsewhere, as c_n is)."""
    _check_phase(c.size, t)
    occupied = np.flatnonzero(c)
    rows = np.zeros((t.size, c.size), dtype=np.complex128)
    rows[:, occupied] = np.exp(-1j * np.outer(t, occupied + 0.5)) * c[occupied]
    return rows


def _accumulate(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    """total + part in place, or part itself as the first term."""
    return part if total is None else np.add(total, part, out=total)


def _cis(modulus: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """modulus e^{i phase} from one real cos/sin pair per entry."""
    out = np.empty(modulus.shape, dtype=np.complex128)
    np.multiply(modulus, np.cos(phase), out=out.real)
    np.multiply(modulus, np.sin(phase), out=out.imag)
    return out


def _blocks(x: np.ndarray, reach: float) -> tuple[np.ndarray, ...]:
    """Split a 1-d x into nb blocks of a points, x = x_b + d_r + delta.

    x_b is the first point of block b and d_r = r h, with h the mean step,
    so delta is how far the grid strays from a uniform lattice: 0 on a
    linspace grid with a binary step, a few ulp of max|x| on other linspace
    grids.
    Returns x_b (nb,), d (a,), and e = x - x_b and delta as (nb, a) arrays,
    whose padding past the end of x has e = d and delta = 0.

    a is about sqrt(x.size), capped so that a |h| max(|x|, reach, 1), which
    bounds the exponents of the tails e^{d u} and of q (see `_amplitudes`),
    stays within _BLOCK_EXPONENT. Grids of up to 2 points, and grids whose
    delta times that scale passes 2^-26 (where e^{delta u} = 1 + delta u
    would drop more than half an ulp), take a = 1: every point is a block
    of its own, with d = e = delta = 0.
    """
    n = x.size
    if n > 2:
        scale = max(float(np.max(np.abs(x))), reach, 1.0)
        h = (float(x[-1]) - float(x[0])) / (n - 1)
        a = math.isqrt(n)
        if h:
            a = min(a, int(_BLOCK_EXPONENT / (abs(h) * scale)))
        if a > 1:
            nb = -(-n // a)
            d = h * np.arange(a)
            lattice = np.tile(d, nb)
            e = lattice.copy()
            e[:n] = x - np.repeat(x[::a], a)[:n]
            delta = e - lattice
            if float(np.max(np.abs(delta))) * scale <= 2.0**-26:
                return x[::a], d, e.reshape(nb, a), delta.reshape(nb, a)
    flat = np.zeros((n, 1))
    return x, np.zeros(1), flat, flat
