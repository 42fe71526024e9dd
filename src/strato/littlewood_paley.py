"""Dyadic frequency decomposition, Besov norms, and paraproducts.

The radial low-pass profile is a fixed C-infinity bump: identically 1 for
|xi| <= 1/2, identically 0 for |xi| >= 1, with an exp(-1/x) mollifier ramp
between.  The annular profile is the difference of two dilates, supported
in 1/2 <= |xi| <= 2, and the dyadic family telescopes to an exact
partition of unity on every resolved frequency.

Inhomogeneous blocks run from q = -1 (the low-pass) up to a grid cutoff
q_max; homogeneous blocks extend downward to a box-scale floor q_low with
the zero mode discarded.

A block is zero beyond some column of the half spectrum and is inverted on
those columns only (the kernel's ``head_real``, bitwise equal to the full
inverse).  Its multiplier is evaluated on the columns the block reaches and
cut to its nonzero ones once per grid and ladder kind, in a bounded cache
that holds no grid or kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .grid import GridSpec, ScalarField, _Multipliers, derivative, lp_norm

__all__ = [
    "smooth_ramp",
    "lowpass_profile",
    "annulus_profile",
    "DyadicPartition",
    "BesovParams",
    "TimeSeries",
    "block",
    "block_norms",
    "besov_sum",
    "besov_norm",
    "bernstein_ratio",
    "bony_decompose",
    "time_besov_norm",
]


def smooth_ramp(x: np.ndarray) -> np.ndarray:
    """C-infinity monotone ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        a = np.exp(-1.0 / xm)
        b = np.exp(-1.0 / (1.0 - xm))
        out[mid] = a / (a + b)
    return out


def lowpass_profile(r: np.ndarray) -> np.ndarray:
    """Radial profile: 1 on r <= 1/2, 0 on r >= 1, smooth and monotone."""
    r = np.asarray(r, dtype=np.float64)
    return smooth_ramp(2.0 * (1.0 - r))


def annulus_profile(r: np.ndarray) -> np.ndarray:
    """Difference of low-pass dilates; supported in 1/2 <= r <= 2."""
    r = np.asarray(r, dtype=np.float64)
    return lowpass_profile(r / 2.0) - lowpass_profile(r)


@dataclass(frozen=True, eq=False)
class DyadicPartition:
    """Dyadic block multipliers bound to one grid.

    q_max leaves one guard block below the axis Nyquist wavenumber; q_low
    sits two octaves below the box scale, where annuli no longer contain
    any discrete frequency.
    """

    grid: GridSpec

    @cached_property
    def q_max(self) -> int:
        return math.floor(math.log2(self.grid.n * math.pi / (2.0 * self.grid.half_length))) - 1

    @cached_property
    def q_low(self) -> int:
        return -math.ceil(math.log2(self.grid.half_length)) - 2

    def kmag(self, cols: int | None = None) -> np.ndarray:
        """|k| on the grid's half-spectrum lattice, or on its first ``cols`` columns, built here and not
        on the kernel the grid shares."""
        n = self.grid.n
        ksq = _Multipliers(n, self.grid.half_length, np.fft.fftfreq(n, d=1.0 / n), np.fft.rfftfreq(n, d=1.0 / n)[:cols]).ksq
        return np.sqrt(ksq, out=ksq)

    def multiplier(self, q: int, homogeneous: bool = False, cols: int | None = None) -> np.ndarray:
        """Radial block multiplier on the grid's half-spectrum lattice, or on its first ``cols`` columns."""
        if q > self.q_max:
            raise ValueError(f"q={q} exceeds q_max={self.q_max}")
        if homogeneous:
            if q < self.q_low:
                raise ValueError(f"q={q} below q_low={self.q_low}")
        elif q < -1:
            raise ValueError(f"q={q} below the inhomogeneous floor -1")
        if q == -1 and not homogeneous:
            return lowpass_profile(self.kmag(cols))
        return annulus_profile(self.kmag(cols) * 2.0 ** (-q))

    def qs(self, homogeneous: bool = False) -> range:
        return range(self.q_low if homogeneous else -1, self.q_max + 1)


@lru_cache(maxsize=8)
def _ladder(n: int, half_length: float, homogeneous: bool) -> MappingProxyType:
    """q -> read-only copy of ``multiplier(q)`` cut to its columns up to the last nonzero one.  Block q
    vanishes for |k| >= 2^(q+1), so it is evaluated on the columns with k2 below that, plus one margin."""
    part = DyadicPartition(GridSpec(n, half_length))  # dropped on return, kernel and all
    heads = {}
    for q in part.qs(homogeneous):
        m = part.multiplier(q, homogeneous, math.ceil(2.0 ** (q + 1) * half_length / math.pi) + 1)
        heads[q] = m[:, : int(np.flatnonzero(m.any(axis=0)).max(initial=-1)) + 1].copy()
        heads[q].setflags(write=False)
    return MappingProxyType(heads)


def block(f: ScalarField, q: int, homogeneous: bool = False) -> ScalarField:
    """Dyadic frequency block of a field (q = -1 is the inhomogeneous low pass)."""
    m = _ladder(f.grid.n, f.grid.half_length, homogeneous).get(q)
    if m is None:
        DyadicPartition(f.grid).multiplier(q, homogeneous)  # off the ladder: raises its range error
    return ScalarField.from_head(f.grid, m * f.half_spectrum[:, : m.shape[1]])


@dataclass(frozen=True)
class BesovParams:
    """Regularity s, Lebesgue exponent p, summation exponent r."""

    s: float
    p: float = np.inf
    r: float = np.inf
    homogeneous: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not (self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (self.r >= 1.0):
            raise ValueError(f"r must be >= 1, got {self.r}")


def _lr(values: np.ndarray, r: float) -> float:
    if np.isinf(r):
        return float(np.max(values)) if len(values) else 0.0
    return float(np.sum(values**r) ** (1.0 / r))


def _block_weight(q: int, s: float, homogeneous: bool) -> float:
    # the inhomogeneous low pass carries unit weight, which keeps the
    # norm monotone in s; annular blocks carry the dyadic weight 2^(qs)
    if not homogeneous and q == -1:
        return 1.0
    return 2.0 ** (q * s)


def block_norms(f: ScalarField, params: BesovParams) -> dict[int, float]:
    """Unweighted |block_q f|_Lp for every q on the ladder of params, in ladder order (0.0 for an empty block)."""
    g, half = f.grid, f.half_spectrum
    return {q: lp_norm(g._kernel.head_real(half[:, : m.shape[1]], m), params.p, g) if m.shape[1] else 0.0
            for q, m in _ladder(g.n, g.half_length, params.homogeneous).items()}


def besov_sum(norms: dict[int, float], params: BesovParams) -> float:
    """l^r sum of the block norms from ``block_norms``, each with its Besov weight."""
    return _lr(np.array([_block_weight(q, params.s, params.homogeneous) * n for q, n in norms.items()]), params.r)


def besov_norm(f: ScalarField, params: BesovParams) -> float:
    """Weighted summary 2^(qs) |block_q f|_Lp over the dyadic ladder, in l^r.

    The homogeneous variant discards the spatial mean and extends the
    ladder down to q_low; the inhomogeneous low-pass block enters with
    unit weight.
    """
    return besov_sum(block_norms(f, params), params)


def bernstein_ratio(f: ScalarField, q: int, p: float, b: float) -> tuple[float, float]:
    """Normalized derivative and integrability gains of one dyadic block.

    Returns ``(|grad block|_Lp / (2^q |block|_Lp),
    |block|_Lb * 2^(-2q(1/p-1/b)) / |block|_Lp)``.  Both sit in a fixed
    band [1/C, C] for any nonzero block; degenerate (zero) blocks are
    rejected.
    """
    if b < p:
        raise ValueError(f"need p <= b, got p={p}, b={b}")
    bf = block(f, q)
    base = lp_norm(bf, p)
    if base == 0.0:
        raise ValueError(f"block q={q} vanishes; Bernstein ratios undefined")
    g1, g2 = derivative(bf, 1), derivative(bf, 2)
    gmag = ScalarField(f.grid, np.hypot(g1.values, g2.values))
    deriv = lp_norm(gmag, p) / (2.0**q * base)
    gain = lp_norm(bf, b) * 2.0 ** (-2.0 * q * (1.0 / p - 1.0 / b)) / base
    return deriv, gain


def bony_decompose(u: ScalarField, v: ScalarField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Split the pointwise product uv into two paraproducts and a remainder.

    Returns (T_u v, T_v u, R).  Inputs must be band-limited two octaves
    below q_max, so that every block product stays on the resolved ladder
    and the three pieces recompose the pointwise product exactly.
    """
    if u.grid != v.grid:
        raise ValueError("operands must share a grid")
    part = DyadicPartition(u.grid)
    band = 2.0 ** (part.q_max - 2)
    outside = part.kmag() > band
    for name, f in (("u", u), ("v", v)):
        spec = np.abs(f.half_spectrum)
        top = spec.max()
        if top > 0.0 and spec[outside].max() > 1.0e-10 * top:
            raise ValueError(
                f"{name} has frequency content above |k| = 2^(q_max-2) = {band:g}"
            )
    qs = list(part.qs())
    bu = [block(u, q).values for q in qs]
    bv = [block(v, q).values for q in qs]
    # running low-pass sums: S[i] = sum of blocks strictly below ladder slot i-1
    zero = np.zeros_like(u.values)
    su = [zero]
    for arr in bu[:-1]:
        su.append(su[-1] + arr)
    sv = [zero]
    for arr in bv[:-1]:
        sv.append(sv[-1] + arr)
    t_uv = zero.copy()
    t_vu = zero.copy()
    rem = zero.copy()
    for i in range(len(qs)):
        lo_u = su[i - 1] if i >= 1 else zero
        lo_v = sv[i - 1] if i >= 1 else zero
        t_uv += lo_u * bv[i]
        t_vu += lo_v * bu[i]
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(qs):
                rem += bu[i] * bv[j]
    g = u.grid
    return ScalarField(g, t_uv), ScalarField(g, t_vu), ScalarField(g, rem)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled trajectory of one scalar field on a fixed grid."""

    times: np.ndarray
    fields: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or len(t) != len(self.fields):
            raise ValueError("times and fields must align")
        if len(t) >= 2 and not np.all(np.diff(t) > 0.0):
            raise ValueError("times must be strictly increasing")
        grids = {f.grid for f in self.fields}
        if len(grids) > 1:
            raise ValueError("all fields must share a grid")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fields", tuple(self.fields))

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def grid(self) -> GridSpec:
        return self.fields[0].grid


def _time_lbeta(values: np.ndarray, times: np.ndarray, beta: float) -> float:
    if np.isinf(beta):
        return float(np.max(values))
    return float(np.trapezoid(values**beta, times) ** (1.0 / beta))


def time_besov_norm(series: TimeSeries, beta: float, params: BesovParams) -> tuple[float, float]:
    """Mixed space-time norms of a sampled trajectory.

    Returns ``(tilde, plain)``: the block-wise norm (time integration
    inside the l^r sum) and the plain norm (Besov norm first, time
    integration outside).  Time integrals use the trapezoidal rule on the
    sample instants; beta = inf takes the running sup.
    """
    if not (beta >= 1.0):
        raise ValueError(f"beta must be >= 1 or inf, got {beta}")
    norms = [block_norms(f, params) for f in series.fields]
    per_block = np.array([list(d.values()) for d in norms]).T
    weights = np.array([_block_weight(q, params.s, params.homogeneous) for q in norms[0]])
    tilde_terms = np.array([_time_lbeta(row, series.times, beta) for row in per_block])
    tilde = _lr(weights * tilde_terms, params.r)
    plain_t = np.array([_lr(weights * per_block[:, j], params.r) for j in range(len(series))])
    plain = _time_lbeta(plain_t, series.times, beta)
    return tilde, plain
