"""Husimi Q function on a Bloch-sphere grid.

The overlap between the angular coherent state |theta, phi> and the
left/right Fock ket |k, N-k> is the conjugated spin-coherent amplitude
with single-atom arm amplitudes

    eta_l = (cos(theta/2) e^{+i phi/2} + sin(theta/2) e^{-i phi/2}) / sqrt2
    eta_r = (cos(theta/2) e^{+i phi/2} - sin(theta/2) e^{-i phi/2}) / sqrt2

The grid samples theta at cell centers, (i + 1/2) pi / n_theta, which
keeps the poles off the grid. In x = cos(theta) these are Chebyshev
nodes, so the theta weights are Fejer's first rule (L. Fejer, 1933),
exact for polynomials in cos(theta) of degree < n_theta; phi uses the
uniform 2 pi / n_phi rule, exact for e^{i m phi} with |m| < n_phi. A
spin-N/2 Q function holds spherical harmonics of degree <= N only, so
the sphere integral is exact up to roundoff once n_theta, n_phi > N.

Cost: q_grid builds the overlap rows a block of theta rows at a time
(theta rows * n_phi * (N+1) at most _BLOCK_ENTRIES, but at least one
theta row) and contracts each block before building the next.  A block
holds only the k of the support window W of the sources (below): the
log magnitudes, the phases, their exp, cos and sin and the complex rows
are all formed on W alone.  When W is partial, a block also builds only
the phi columns that hold a live point of one of its theta rows: a point
no source can reach (the point cut, below) reads 0 and costs no row.  The
rows are not normalized; q_grid divides each contracted point by their
squared norm s^N (below), one number per grid point.  The work is
built points * |W| complex entries, plus as many for a state (|rows C_W|^2)
and built points * |W|^2 for a density matrix (one matrix product
rows rho_WW, then a real row-wise dot with the rows); the cut itself
takes the rows' log magnitudes at three k per grid point, a block of
theta rows at a time (at most _BLOCK_ENTRIES / 3 points, about 240
bytes each while the block's bound is formed), so its memory beside
the mask, a byte per point, is that of one block.  A list of
sources that share one N shares each block: it is built once,
contracted with every source in turn and freed before the next build.
The live memory is one block plus one n_theta x n_phi result per source.
A block's arrays are formed in place, through out= buffers, so a build
holds at most four real arrays of |W| entries per point at once (the log
magnitudes, the second term of their sum and the phases; then the
magnitudes, the phases and the complex rows as two).  The block budget
keeps each of them cache-sized.  Every block contracts whole theta rows
in the same shapes, so the budget moves no bit of Q.  All of this is the
build of a grid at or below the band limit (next), which is the
requested grid itself unless that is finer than the band.

The band limit.  Q is a polynomial of degree <= N in the unit vector
(sin theta cos phi, sin theta sin phi, cos theta).  So along phi at fixed
theta it is a trigonometric polynomial of degree <= N, and so it is
along each great circle through the poles, t -> (t, phi_j) for t in
[0, pi) and (2 pi - t, phi_j + pi) for t in [pi, 2 pi).  2N + 1
equispaced samples fix such a polynomial (the sphere's sampling
theorem, Driscoll & Healy 1994), so N + 1 theta and 2N + 2 phi nodes fix
Q.  q_grid builds each axis at min(requested, band) nodes, n'_theta x
n'_phi, and resamples the built grid to the requested one by FFT:

- theta first.  Column j's nodes (i + 1/2) pi / n'_theta, followed by
  those of column j + n'_phi / 2 (at phi_j + pi) in reverse order, are the
  2 n'_theta equispaced nodes (m + 1/2) pi / n'_theta of one great
  circle.  The pairing needs an even n'_phi, so an odd n_phi <= 2N + 2
  leaves theta at n_theta too, and that grid is built as requested.  Each
  circle is resampled to 2 n_theta nodes and split back into its columns.
- then phi, along each theta row.

A row of n samples at the nodes (m + 1/2) 2 pi / n goes to n_out such
nodes through an rfft that keeps bins 0..N (n = 2N + 2 drops its Nyquist
bin, where Q has no weight), a factor e^(i pi m (1/n_out - 1/n)) n_out / n
for the two half-cell offsets, and an irfft to n_out.  numpy.fft is
loaded on first use, so `import dwsqueeze.cli` leaves it out.  The built
grid is internal: check_grid bounds only the requested one, and at
N = 2 the build is 3 x 6.  The build keeps its window, its point cut and
its blocks; on a partial window the requested grid's own cut points are
then set to exactly 0 (a full window has none).  The refusal of values
below -1e-10 and the clamp at 0 act on the returned values.  A grid that
is not finer than the band on either axis (pure_wide's 64 x 64 at
N = 2000) is built as requested and keeps its bits.  A list still builds
once, and its resampling is per source, so list and single calls agree
bit for bit as before.

The resampling's error.  In exact arithmetic the resampling returns Q
itself, so its error comes from the built values and its own rounding,
with cap = (N+1)/(4 pi) the largest Q:

- An axis resampled from n = 2N + 2 nodes maps the samples g_m to
  sum_m g_m K(t - t_m), K(s) = (1/n) sum_{|k| <= N} e^(iks).  As the 2N + 1
  frequencies are distinct mod n, sum_m K(t - t_m)^2 = (2N + 1)/n, so by
  Cauchy-Schwarz sum_m |K(t - t_m)| <= L = sqrt(2N + 1): an error of at
  most e in every input moves every output by at most L e.
- The built values sit within E = 3 u / (8 pi) + cap (g(N) + 4 (N + 4) u)
  of Q: the window moves Q by at most u / (4 pi) and the cut by
  u / (8 pi) (below), and the rows' rounding by at most the rest, with
  g(N) = (9 ln N! + 16 (N + 2)) u the norm gap (below).  To first order
  the rows' relative rounding enters Q as at most twice its size
  weighted by b_k; the norm paragraph bounds that for the log
  magnitudes, and the phases k arg eta_l + (N - k) arg eta_r round by
  O(N u) under the same weights, inside the N terms.  This is the bound
  the tests hold the direct build to against a numerically normalized
  oracle.
- An FFT of length n has a normwise relative error of at most
  c_n = 7 u log2 n (Higham, Accuracy and Stability of Numerical
  Algorithms, 2002, Thm 24.2, with accurate twiddle factors).  With
  inputs of magnitude at most G = 2 cap (every error here is far below
  cap), the rfft and the phase factor (6 u) put at most
  (c_n + 6 u) n_out G into the kept bins in 2-norm, which reach an output
  through at most 2N + 1 bins of the Hermitian spectrum, so by at most
  sqrt(2 (2N + 1)) (c_n + 6 u) G; the irfft's own rounding adds at most
  c_(n_out) sqrt(2 n_out) G, its normwise bound read as a max.  So one
  axis adds F(n, n_out) = G (sqrt(2 (2N + 1)) (c_n + 6 u) +
  sqrt(2 n_out) c_(n_out)).

So a theta step from 2 n'_theta to 2 n_theta circle nodes leaves the
values within L E + F(2 n'_theta, 2 n_theta) of Q, and a phi step from
e to L e + F(n'_phi, n_phi).  At N = 30 on 128 x 128 that is 1.1e5 cap u,
far above what is seen: on the three fig6_master-like states the
resampled values sit within 60 cap u of a direct build of the requested
grid (6.7e-15 of its maximum), and within 9.4 cap u at N <= 2.

The memory of a resampled grid is the build's, plus the irfft's padded
spectrum and its result, a complex and a real n_theta x n_phi array per
source at a time, beside the results.  One N = 30 state at the
MAX_GRID x MAX_GRID = 4097 x 4097 bound peaks at 269 MB under tracemalloc
and takes about 1 s, against 1359.7 MB and 28.7 s for the direct build
(one BLAS thread).

The row norm.  Row (i, j) holds R_k = binom(N,k)^(1/2) conj(eta_l^k
eta_r^(N-k)), so by the binomial theorem its squared norm over all k is

    sum_k binom(N,k) |eta_l|^(2k) |eta_r|^(2(N-k)) = s^N,
    s = |eta_l|^2 + |eta_r|^2,

which is 1 up to the rounding of eta.  q_grid forms it once per grid as
exp(N log s), so no pass over the k outside W is needed.

The support window W is the smallest range of k outside which each
source's weight w_k is at most eps * max_k w_k: w_k = |C_k| for a state,
w_k = sqrt(rho_kk) for a density matrix, and a list takes the smallest
range holding every source's window.  eps = u / (3 (N+1)^2), with
u = 2^-53 the unit roundoff, so dropping the k outside W moves any Q by
at most u / (4 pi).  A state is rho = C C^dagger, so one derivation
covers both.  With the unit-norm row r = R s^(-N/2) (sum |r_k|^2 = 1 by
the norm above), Q = (N+1)/(4 pi) s^-N sum_{k,k'} R_k rho_kk' R*_k'
= (N+1)/(4 pi) sum_{k,k'} r_k rho_kk' r*_k', and the dropped terms are
those with k or k' outside W.  For rho >= 0 of trace 1,
|rho_kk'| <= w_k w_k', every w_k <= 1 and |r_k| <= 1.  With
a = sum_{k in W} |r_k| w_k <= 1 (Cauchy-Schwarz: sum |r_k|^2 =
sum w_k^2 = 1) and b = sum_{k not in W} |r_k| w_k <= (N+1) eps <= 1, the
dropped terms sum to at most (a + b)^2 - a^2 = 2ab + b^2 <= 3 (N+1) eps,
and Q moves by at most 3 (N+1)^2 eps / (4 pi) = u / (4 pi).

The point cut.  On W, the same Cauchy-Schwarz step bounds the Q that
q_grid computes: a^2 <= sum_{k in W} |r_k|^2 sum_{k in W} w_k^2, and
|r_k|^2 = |R_k|^2 / s^N = binom(N,k) x^k (1-x)^(N-k) = b_k(x) is the
binomial pmf at x = |eta_l|^2 / s, so

    Q_W <= (N+1)/(4 pi) |W| max_{k in W} b_k(x)
         = (N+1)/(4 pi) |W| exp(2 max_{k in W} log|R_k| - N log s).

A point whose (N+1) |W| max_W b_k is at most u / 2 reads exactly 0,
which moves its Q by at most u / (8 pi); half of u leaves room for the
rounding of the bound, which is formed in logs (a few ulp of ln N!, a
relative 1e-11 at N = MAX_ATOMS).  b_k is log-concave in k with its mode
at floor((N+1) x), or one below, so the maximum over W sits at the mode
clamped to W, and the bound reads the rows' own log magnitudes log|R_k|
(spin_core._log_coherent_amplitudes, the one log-domain coherent
amplitude) at three k per point.  A full window holds the mode, where
b_k >= 1/(N+1) (the N+1 values sum to 1), so no point is cut and no
bound is formed: q_grid gives it an all-live mask, whose blocks build
every phi column.  The cut keeps every live point's bits: each entry of
a row is the same whatever the columns built, and each point contracts
its own row.  A live point is one whose bound is not at most u / 2, so a
nan bound keeps its point.  On the pure_wide conditional states of seeds
0, 3, 7 and 41 (N = 2000, 64 x 64, |W| about 610) 37 % of the points are
cut, and each was at most 8e-63 before.

The analytic norm against a numerical one.  A numerical norm sums the
squares of the computed entries, e^(2 L'_k) with L'_k = L_k + D_k the
computed log magnitude and L_k the exact one at the rounded eta.  So it
is s^N sum_k p_k e^(2 D_k), p_k = e^(2 L_k) / s^N the binomial weights,
and to first order it sits within 2 sum_k p_k |D_k| of s^N, relatively.
Only the log-binomials' rounding grows faster than N:

- 0.5 (lf_N - lf_k - lf_(N-k)) rounds by at most (e + u) ln N! for
  every k, as ln k! + ln (N-k)! <= ln N!; e <= 3.5 u bounds the log
  factorials' relative error (every n <= MAX_ATOMS, against 40-digit
  values: at most 3.3 u);
- the eta terms k log|eta_l| + (N-k) log|eta_r| and the two sums round
  relative to their size, which under p is the entropy bound
  N (x ln(1/x) + (1-x) ln(1/(1-x))) / 2 <= N ln 2 / 2, x = |eta_l|^2:
  they add at most 3.6 N u + u ln(N+1) / 2 to sum_k p_k |D_k|;
- the rounding of s (6 N u in s^N), of exp(N log s) and of a numerical
  norm's squares and sum ((N + 15) u) add the rest.

So |numerical / s^N - 1| <= (9 ln N! + 16 (N + 2)) u, and Q moves
relatively by as much.  Measured over 16 to 64 point grids the shift
sits under 2 u ln N! for 30 <= N <= 4096 (1.4e4 u at N = 2000, against
2.6e4 u), under 2 (N+1) (ln(N+1) + 1) u, the rounding floor of
perfbench's gate, and at 4 u for N <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    _UNIT_ROUNDOFF,
    MAX_ATOMS,
    AtomState,
    _log_coherent_amplitudes,
    _support_window,
)

MIN_GRID = 16
# the finest grid check_grid accepts in either direction (derived there)
MAX_GRID = MAX_ATOMS + 1

# Overlap entries per theta block of q_grid: 2^15 k-entries, 256 kB per real
# array, so a block's few arrays fit a core's 2 MB L2 cache.  In a sweep
# of 2^13..2^18 (BENCH_25.json) 2^15 was the fastest or tied at N = 30;
# the peak grows with the budget, and below 2^15 the per-block call
# overhead starts to show.
_BLOCK_ENTRIES = 1 << 15

# log of the point cut's threshold u / 2 (see the module docstring)
_LOG_CUT = math.log(_UNIT_ROUNDOFF / 2.0)


@dataclass
class QGrid:
    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def quadrature_sum(self) -> float:
        """Discrete sphere integral of Q (Fejer-I in theta, uniform in phi).

        Exact up to roundoff, hence 1, once n_theta and n_phi exceed N.
        """
        return float(np.sum(self.values * self.weights))


def _eta_pair(theta, phi):
    a = np.sin(np.asarray(theta) / 2.0) * np.exp(-0.5j * np.asarray(phi))
    b = np.cos(np.asarray(theta) / 2.0) * np.exp(0.5j * np.asarray(phi))
    rt2 = np.sqrt(2.0)
    return (b + a) / rt2, (b - a) / rt2


def _fejer_weights(thetas: np.ndarray) -> np.ndarray:
    """Fejer first-rule weights for the n nodes theta_j = (j + 1/2) pi / n.

    w_j = (2/n) [1 - 2 sum_{k=1}^{n//2} cos(2 k theta_j) / (4 k^2 - 1)]
    integrates f(cos theta) sin(theta) dtheta over [0, pi].
    """
    n = thetas.size
    k = np.arange(1, n // 2 + 1)
    terms = np.cos(2.0 * k[None, :] * thetas[:, None]) / (4.0 * k**2 - 1.0)
    return (2.0 / n) * (1.0 - 2.0 * terms.sum(axis=1))


def _overlap_matrix(
    n_atoms: int, thetas: np.ndarray, phis: np.ndarray, window: slice = slice(None)
) -> np.ndarray:
    """s^(N/2) <theta_i, phi_j | k> for the k of window, as (n_theta, n_phi, |W|).

    The rows are not normalized: their squared norm over all k = 0..N is
    s^N, s = |eta_l|^2 + |eta_r|^2 (see the module docstring), which
    q_grid divides out.  Each entry is the same whatever the window.
    """
    eta_l, eta_r = _eta_pair(thetas[:, None], phis[None, :])
    mag, phase = _log_coherent_amplitudes(eta_l, eta_r, n_atoms, window)
    np.exp(mag, out=mag)
    # m cos(phase) - i m sin(phase) is m exp(-i phase) bit for bit; cos and
    # sin are formed in the part of the row they scale, with no temporary
    rows = np.empty(phase.shape, dtype=complex)
    re, im = rows.real, rows.imag
    np.multiply(np.cos(phase, out=re), mag, out=re)
    np.multiply(np.sin(phase, out=im), mag, out=im)
    np.negative(im, out=im)
    return rows


def _live_points(n_atoms: int, window: slice, thetas: np.ndarray, phis: np.ndarray):
    """Mask of the live grid points, whose (N+1) |W| max_W b_k exceeds u / 2.

    thetas and phis are the grid's nodes, and window the sources' support
    window; the mask has the grid's (n_theta, n_phi) shape.

    b_k = |R_k|^2 / s^N is the binomial pmf at x = |eta_l|^2 / s, read off
    the rows' own log magnitudes log|R_k| from _log_coherent_amplitudes,
    so the bound is (N+1) |W| exp(2 max_W log|R_k| - N log s).  b_k is
    log-concave in k and peaks at floor((N+1) x) or one below it, so its
    maximum over W is at that mode clamped to W; the mode and its two
    neighbours are passed as an index array in the window slot, which
    covers a mode moved by the rounding of x.  x = 0 or 1 gives
    log|R_k| = -inf away from the matching end.

    The mask is formed a block of theta rows at a time, at most
    _BLOCK_ENTRIES // (3 n_phi) rows (but at least one), and the blocks
    are concatenated: each point's bound is its own, so the blocks move
    no bit, and the memory stays that of one block, about 240 bytes per
    point, beside the mask.
    """
    height = max(1, _BLOCK_ENTRIES // (3 * phis.size))
    if thetas.size > height:
        blocks = [thetas[i : i + height] for i in range(0, thetas.size, height)]
        return np.concatenate([_live_points(n_atoms, window, b, phis) for b in blocks])
    eta_l, eta_r = _eta_pair(thetas[:, None], phis[None, :])
    x_l = np.square(np.abs(eta_l))
    s = x_l + np.square(np.abs(eta_r))
    mode = np.floor((n_atoms + 1) * (x_l / s)).astype(int)[..., None]
    k = np.clip(mode + np.arange(-1, 2), window.start, window.stop - 1)
    log_mag, _ = _log_coherent_amplitudes(eta_l, eta_r, n_atoms, k)
    best = 2.0 * log_mag.max(axis=-1) - n_atoms * np.log(s)
    # written as `not <=`, so that a nan bound keeps its point
    return ~(best + math.log((n_atoms + 1) * (window.stop - window.start)) <= _LOG_CUT)


def check_grid(n_theta: int, n_phi: int):
    """Refuse a grid coarser than MIN_GRID or finer than MAX_GRID in either direction.

    The refusal is a ValueError.  MAX_GRID = MAX_ATOMS + 1: a spin-N/2 Q
    holds spherical harmonics of degree <= N only, so once n_theta,
    n_phi > N the grid integrates it exactly (the module docstring), and
    every state has N <= MAX_ATOMS.  A finer grid adds no accuracy, while
    _fejer_weights forms an n_theta x n_theta/2 matrix and q_grid a few
    n_theta x n_phi arrays.
    """
    if not (MIN_GRID <= n_theta <= MAX_GRID and MIN_GRID <= n_phi <= MAX_GRID):
        raise ValueError(f"grid sizes must be in [{MIN_GRID}, {MAX_GRID}]")


def _contraction(source, window: slice):
    """The block contraction rows over window -> |<theta, phi|source>|^2."""
    if isinstance(source, AtomState):
        amplitudes = source.amplitudes[window]
        return lambda rows: np.abs(rows @ amplitudes) ** 2
    rho = np.asarray(source, dtype=complex)[window, window]

    def contract(rows):
        # Re sum_l (row rho)_l conj(row_l) is the dot of the two as float pairs
        flat = rows.reshape(-1, rows.shape[-1])
        dots = np.einsum("ij,ij->i", (flat @ rho).view(float), flat.view(float))
        return dots.reshape(rows.shape[:2])

    return contract


def _nodes(n: int, span: float) -> np.ndarray:
    """The n cell-centered nodes (j + 1/2) span / n of [0, span)."""
    return (np.arange(n) + 0.5) * span / n


def _fft_resample(a: np.ndarray, n_out: int) -> np.ndarray:
    """Each row of a resampled from its n nodes to n_out, at degree (n - 1) // 2.

    A row holds n samples of a trigonometric polynomial of degree at most
    (n - 1) // 2 at the nodes (j + 1/2) 2 pi / n, and the result holds its
    values at the n_out nodes (j + 1/2) 2 pi / n_out.  Bin m of the rfft
    turns by the phase e^(i pi m (1/n_out - 1/n)) of the two half-cell
    offsets and scales by n_out / n; an even n drops its Nyquist bin.
    """
    from numpy import fft  # loaded on first use, not by import dwsqueeze.cli

    n = a.shape[-1]
    m = np.arange((n + 1) // 2)
    shift = np.exp(1j * np.pi * m * (1.0 / n_out - 1.0 / n)) * (n_out / n)
    return fft.irfft(fft.rfft(a)[..., : m.size] * shift, n_out)


def _resample(values: np.ndarray, n_theta: int, n_phi: int) -> np.ndarray:
    """Band-limited Q on a cell-centered grid no finer, resampled to n_theta x n_phi.

    theta first, along great circles through the poles: the theta nodes
    of column j, then those of column j + n/2 in reverse order (n the
    phi count, even wherever theta is resampled), are equispaced on one
    circle.  Then phi, along each theta row.  An axis that already has
    its requested count is left as it is.
    """
    if values.shape[0] < n_theta:
        half = values.shape[1] // 2
        circles = np.concatenate([values[:, :half], values[::-1, half:]]).T
        circles = _fft_resample(circles, 2 * n_theta).T
        values = np.concatenate([circles[:n_theta], circles[: n_theta - 1 : -1]], axis=1)
    return _fft_resample(values, n_phi) if values.shape[1] < n_phi else values


def q_grid(source, n_theta: int, n_phi: int) -> QGrid | list[QGrid]:
    """Q sampled on the cell-centered (theta, phi) grid.

    source is either an AtomState or a trace-1 density matrix, and gives
    one QGrid.  A list of sources that share one N gives a list of QGrid,
    in order: each theta block of overlap rows is built once, on the
    smallest window holding every source's, and contracted with every
    source.  Where a source's own window is that window its values are
    those of a call on it alone, bit for bit; otherwise they agree to the
    window's bound and rounding.  On a partial window, the points that no
    source can reach read exactly 0 (the point cut, in the module
    docstring); a full window's mask is all live, so it builds every
    point.  A list that mixes N is refused (ValueError) before any work.

    An axis finer than the band limit, N + 1 theta or 2N + 2 phi nodes, is
    built at the band limit and resampled by FFT to the nodes asked for
    (the band limit, in the module docstring); theta is resampled only
    when the built phi count is even.  The nodes and weights are those of
    the requested grid either way.
    """
    check_grid(n_theta, n_phi)
    sources = source if isinstance(source, list) else [source]
    sizes = {s.n_atoms if isinstance(s, AtomState) else len(s) - 1 for s in sources}
    if len(sizes) > 1:
        raise ValueError(f"q_grid sources mix atom numbers {sorted(sizes)}")
    if not sources:
        return []
    (n_atoms,) = sizes
    window = _support_window(sources, n_atoms)
    contractions = [_contraction(s, window) for s in sources]
    # the band limit: N + 1 theta and 2N + 2 phi nodes fix Q (the module
    # docstring); theta is coarsened only when the phi nodes pair into
    # great circles, which takes an even count
    built_phi = min(n_phi, 2 * n_atoms + 2)
    built_theta = n_theta if built_phi % 2 else min(n_theta, n_atoms + 1)
    thetas, phis = _nodes(built_theta, np.pi), _nodes(built_phi, 2.0 * np.pi)
    # a full window holds the mode of every b_k, whose maximum is then at
    # least 1/(N+1), so every point is live and no bound is formed
    full = window.stop - window.start == n_atoms + 1
    live = np.ones((built_theta, built_phi), bool)
    if not full:
        live = _live_points(n_atoms, window, thetas, phis)
    height = max(1, _BLOCK_ENTRIES // (built_phi * (n_atoms + 1)))
    values = [np.empty(live.shape) for _ in sources]
    for start in range(0, built_theta, height):
        block = slice(start, start + height)
        # only the phi columns with a live point in the block are built
        cols = np.flatnonzero(live[block].any(axis=0))
        if not cols.size:
            continue
        rows = _overlap_matrix(n_atoms, thetas[block], phis[cols], window)
        for out, contract in zip(values, contractions):
            out[block, cols] = contract(rows)
        del rows  # free this block before the next one is built
    eta_l, eta_r = _eta_pair(thetas[:, None], phis[None, :])
    # the rows' squared norm s^N, as exp(N log s)
    norm = np.exp(n_atoms * np.log(np.square(np.abs(eta_l)) + np.square(np.abs(eta_r))))
    for v in values:
        v[~live] = 0.0  # a cut point reads 0, whether its column was built or not
        v /= norm
        v *= (n_atoms + 1) / (4.0 * np.pi)
    values = [_resample(v, n_theta, n_phi) for v in values]
    thetas, phis = _nodes(n_theta, np.pi), _nodes(n_phi, 2.0 * np.pi)
    if live.shape != (n_theta, n_phi) and not full:  # the requested grid's own cut points
        live = _live_points(n_atoms, window, thetas, phis)
        for v in values:
            v[~live] = 0.0
    weights = np.outer(_fejer_weights(thetas), np.full(n_phi, 2.0 * np.pi / n_phi))
    grids = []
    for v in values:
        # only the density-matrix contraction and the resampling can round below zero
        if v.min() < -1e-10:
            raise ValueError(f"Q grid value {v.min()} below roundoff tolerance")
        np.maximum(v, 0.0, out=v)
        grids.append(QGrid(thetas, phis, v, weights))
    return grids if isinstance(source, list) else grids[0]
