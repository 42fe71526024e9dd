"""Closed-form heat evolution of the unit circular patch.

With advection switched off by radial symmetry, the patch vorticity under
viscosity mu at time t is the 2D heat kernel convolved with the disc
indicator.  Everything reduces to one radial integral

    w(tau, r) = (1/(2 tau)) int_0^1 s exp(-(r^2+s^2)/(4 tau)) I0(r s/(2 tau)) ds

with tau = mu t.  The integrand is computed in overflow-safe form through the
exponentially scaled Bessel function, substituting u = (s - r)/(2 sqrt(tau))
so the kernel peak at s = r becomes an O(1) Gaussian, and integrating with
panel-adaptive Gauss-Kronrod pairs: the n-point Gauss-Legendre rule and its
(2n+1)-point Kronrod extension share the n Gauss nodes, so each accuracy check
takes both sums from one set of integrand values.  Every check walks one
ladder of pairs, (G16, K33) up to (G128, K257), and stops at the first pair
whose sums agree.  The complementary mass (integral over s >= 1) gives 1 - w
directly, avoiding cancellation deep inside the patch.  One profile per tau
(and per rule, when a check escalates), kept in a bounded cache, serves every p.
Below tau = 1e-8 the layer at the rim is too thin for these rules, and the
profile and error functions refuse such a tau.  The velocity error integrates
Chebyshev models of the signed vorticity discrepancy on each side of the rim,
fitted at the first degree of 64, 128, 256, 512 that passes a probe check.

These profiles feed the L^p discrepancy integrals whose decay exponents
the package's acceptance suite pins: 1/(2p) for vorticity and
1/2 + 1/(2p) for velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "exact_vorticity",
    "patch_deficit",
    "vorticity_lp_error",
    "velocity_lp_error",
    "mass_defect",
    "similarity_deficit",
    "RateSeries",
    "FitResult",
    "fit_exponent",
    "truncation_radius",
]

# Gaussian cut in the scaled kernel variable: exp(-U^2) ~ 2.6e-38
_U_CUT = 9.3
_PANEL_EDGES = np.array([-_U_CUT, -6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0, _U_CUT])
# Gauss orders n of the (Gn, K(2n+1)) pairs that every adaptive check walks, coarsest first
_ORDERS = (16, 32, 64, 128)
# Smallest tau whose profiles keep the checks' 1e-13 against an independent Gauss-only route:
# the rim layer thins like sqrt(tau), and the two differ by 4e-14 at 1e-8, 5e-13 at 1e-9, 7e-12 at 1e-12
_TAU_MIN = 1.0e-8
# Chebyshev degrees of the velocity error's moment fits, coarsest first (scripts/velocity_ladder_scan.py)
_CHEB_DEGREES = (64, 128, 256, 512)


# Chebyshev coefficients of exp(-x) I0(x) on [0, 8] and of sqrt(x) exp(-x) I0(x) on (8, inf), from
# Cephes i0.c (S. L. Moshier, Methods and Programs for Mathematical Functions, 1989).
_I0E_A = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17, -2.43127984654795469359e-16,
    1.71539128555513303061e-15, -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12, -1.72682629144155570723e-11,
    9.67580903537323691224e-11, -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8, -2.67079385394061173391e-7,
    1.11738753912010371815e-6, -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4, -5.76375574538582365885e-4,
    1.63947561694133579842e-3, -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2, -9.49010970480476444210e-2,
    1.71620901522208775349e-1, -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)
_I0E_B = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18, 4.46562142029675999901e-17,
    3.46122286769746109310e-17, -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15, -9.55484669882830764870e-15,
    -4.15056934728722208663e-14, 1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12, -1.32158118404477131188e-11,
    -3.14991652796324136454e-11, 1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8, 2.04891858946906374183e-7,
    2.89137052083475648297e-6, 6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)


def _chbevl(y: np.ndarray, coefs: tuple) -> np.ndarray:
    """Cephes chbevl: the Clenshaw sum of a Chebyshev series at y/2, op for op: b0 = (y * b1 - b2) + c."""
    b0, b1, b2 = np.full_like(y, coefs[0]), np.zeros_like(y), np.empty_like(y)
    for c in coefs[1:]:
        b0, b1, b2 = b2, b0, b1  # in place into the dead buffer: fresh temporaries cost ~15 % more
        np.multiply(y, b1, out=b0)
        b0 -= b2
        b0 += c
    return 0.5 * (b0 - b2)


def i0e(x: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function exp(-|x|) I0(x), Cephes i0e bit for bit."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    small = x <= 8.0
    if small.any():
        out[small] = _chbevl(x[small] / 2.0 - 2.0, _I0E_A)
    if not small.all():
        big = x[~small]
        out[~small] = _chbevl(32.0 / big - 2.0, _I0E_B) / np.sqrt(big)
    return out


@lru_cache(maxsize=None)
def _kronrod(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1]: nodes, their weights, and the n-point
    Gauss weights of the odd nodes, which are the Gauss-Legendre nodes.

    Laurie's recurrence (Math. Comp. 66 (1997) 1133, as in Gautschi's r_kronrod) completes the
    Legendre Jacobi matrix to the Kronrod one.  Its eigenvalues are the nodes, and twice the
    squares of its eigenvectors' first components are the weights; both are then symmetrized."""
    b = np.zeros(2 * n + 1)  # the recurrence's b_k; its a_k all stay 0 for this symmetric weight
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0], b[k] = 2.0, k**2 / (4.0 * k**2 - 1.0)  # monic Legendre recurrence
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1 : n // 2 + 2] = s[: n // 2 + 1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    off = np.sqrt(b[1:])
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = b[0] * v[0] ** 2
    rule = ((x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0, np.polynomial.legendre.leggauss(n)[1])
    for arr in rule:
        arr.setflags(write=False)
    return rule


def truncation_radius(tau: float) -> float:
    """Outer radius beyond which profile mass is far below tolerance."""
    return 3.0 + 12.0 * math.sqrt(tau)


def _kernel_mass(tau: float, rs: np.ndarray, s_lo: float, s_hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """int_{s_lo}^{s_hi} s K_tau(r, s) ds for each r by the n-point Gauss and the (2n+1)-point
    Kronrod rule on each panel, both from one evaluation of the integrand at the Kronrod nodes."""
    root = math.sqrt(tau)
    rs = np.asarray(rs, dtype=np.float64)
    u_lo = np.maximum((s_lo - rs) / (2.0 * root), -_U_CUT)
    u_hi = (
        np.full_like(rs, _U_CUT)
        if math.isinf(s_hi)
        else np.minimum((s_hi - rs) / (2.0 * root), _U_CUT)
    )
    x, wk, wg = _kronrod(n)
    lo = np.maximum(u_lo, _PANEL_EDGES[:-1, None])  # a row per panel
    hi = np.minimum(u_hi, _PANEL_EDGES[1:, None])
    live = np.any(hi > lo, axis=1)  # a panel empty for every r would add (vals @ w) * 0.0 = +0.0 to both sums
    lo, hi = lo[live], hi[live]
    half = np.maximum(hi - lo, 0.0) / 2.0
    mid = (np.maximum(hi, lo) + lo) / 2.0
    nodes = mid[:, :, None] + half[:, :, None] * x
    s = np.maximum(rs[:, None] + 2.0 * root * nodes, 0.0)
    vals = s * np.exp(-nodes**2) * i0e(rs[:, None] * s / (2.0 * tau))  # one i0e call for every live panel
    gauss, kronrod = np.zeros_like(rs), np.zeros_like(rs)
    for v, h in zip(vals, half):
        gauss += (v[:, 1::2] @ wg) * h
        kronrod += (v @ wk) * h
    return gauss / root, kronrod / root


def _kernel_mass_adaptive(tau: float, rs: np.ndarray, s_lo: float, s_hi: float) -> np.ndarray:
    """The Kronrod sum of the first pair on the _ORDERS ladder whose sums agree to 1e-13, else of the last."""
    for n in _ORDERS:
        gauss, kronrod = _kernel_mass(tau, rs, s_lo, s_hi, n)
        if np.max(np.abs(kronrod - gauss)) <= 1.0e-13 * max(1.0, float(np.max(np.abs(kronrod)))):
            break
    return kronrod


def _check_tau(tau: float) -> None:
    if not (tau > 0.0 and np.isfinite(tau)):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if tau < _TAU_MIN:
        raise ValueError(f"tau must be >= {_TAU_MIN:g}, below which the rim layer is unresolved, got {tau}")


def _check_p(p: float) -> None:
    if not (1.0 <= p < math.inf):
        raise ValueError(f"p must be finite with p >= 1, got {p}")


def _check_ladder(taus: np.ndarray) -> None:
    """What fit_exponent needs of its abscissae: at least 6 points spanning two decades."""
    if len(taus) < 6:
        raise ValueError(f"need >= 6 ladder points, got {len(taus)}")
    if np.max(taus) / np.min(taus) < 99.0:
        raise ValueError("ladder must span at least two decades")


def exact_vorticity(tau: float, r: float | np.ndarray) -> float | np.ndarray:
    """Heat-evolved patch vorticity at scaled time tau and radius r >= 0."""
    _check_tau(tau)
    rs = np.asarray(r, dtype=np.float64)
    if np.any(rs < 0.0):
        raise ValueError("radius must be nonnegative")
    out = _kernel_mass_adaptive(tau, np.atleast_1d(rs), 0.0, 1.0)
    return float(out[0]) if np.isscalar(r) or rs.ndim == 0 else out.reshape(rs.shape)


def patch_deficit(tau: float, r: float | np.ndarray) -> float | np.ndarray:
    """1 - exact_vorticity, computed without cancellation (mass beyond the rim)."""
    _check_tau(tau)
    rs = np.asarray(r, dtype=np.float64)
    out = _kernel_mass_adaptive(tau, np.atleast_1d(rs), 1.0, math.inf)
    return float(out[0]) if np.isscalar(r) or rs.ndim == 0 else out.reshape(rs.shape)


def _layer_bounds(tau: float) -> tuple[float, float]:
    root = math.sqrt(tau)
    inner = max(0.0, 1.0 - 2.0 * root * _U_CUT)
    outer = 1.0 + min(2.0 * root * _U_CUT, truncation_radius(tau) - 1.0)
    return inner, outer


def _panel_profile(fn, a: float, b: float, n: int, pieces: int = 8) -> tuple:
    """Kronrod (2n+1)-nodes on equal pieces of [a, b] (a row each, none if b <= a), half-widths, fn of all nodes.

    The arrays are read-only: the cached profiles share them with every caller."""
    edges = np.linspace(a, b, pieces + 1 if b > a else 1)
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = ((edges[1:] + edges[:-1]) / 2.0)[:, None] + half[:, None] * _kronrod(n)[0]
    profile = (nodes, half, fn(nodes))
    for arr in profile:
        arr.setflags(write=False)
    return profile


def _by_row(fn):
    """fn called on one row of nodes at a time, so each piece keeps its own adaptive rule check."""
    return lambda nodes: np.array([fn(r) for r in nodes]).reshape(nodes.shape)


def _panel_quadrature(p: float, nodes: np.ndarray, half: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """int |f|^p 2 pi r dr over the panels by the Gauss and the Kronrod rule, from f's values at the Kronrod nodes."""
    _, wk, wg = _kronrod(nodes.shape[1] // 2)
    gauss = kronrod = 0.0
    for r, h, v in zip(nodes, half, values):
        f = v**p * 2.0 * np.pi * r
        gauss += float(f[1::2] @ wg) * h
        kronrod += float(f @ wk) * h
    return gauss, kronrod


def _adaptive_panel(profile, p: float) -> float:
    """(int |f|^p 2 pi r dr)^(1/p) over the two layer sides that profile(n) lists.  Each side
    walks the _ORDERS ladder and takes the Kronrod sum of the first pair whose sums agree to 1e-12,
    else of the last; profile(n) is built only for the orders some side reaches."""
    _check_p(p)
    total = 0.0
    for k in (0, 1):
        for n in _ORDERS:
            gauss, kronrod = _panel_quadrature(p, *profile(n)[k])
            if abs(kronrod - gauss) <= 1.0e-12 * max(1.0, abs(kronrod)):
                break
        total += kronrod
    return total ** (1.0 / p)


# Entry: 2 sides x (nodes, values: 8 x (2n+1) float64), 8 KiB at n = 16, 64 KiB at n = 128,
# so 4 MiB at most.  64 entries keep the n = 16 profiles of the 20 tau of criterion 01's ladders
# across its p loop, with room for the higher-order ones of the tau whose checks escalate.
@lru_cache(maxsize=64)
def _layer_profile(tau: float, n: int) -> tuple:
    """_panel_profile of the deficit inside the rim and of the profile beyond it."""
    inner, outer = _layer_bounds(tau)
    return (_panel_profile(_by_row(partial(patch_deficit, tau)), inner, 1.0, n),
            _panel_profile(_by_row(partial(exact_vorticity, tau)), 1.0, outer, n))


def vorticity_lp_error(tau: float, p: float) -> float:
    """L^p distance between the heat-evolved patch and the sharp indicator."""
    _check_tau(tau)
    return _adaptive_panel(partial(_layer_profile, tau), p)


def _chebyshev_fit(func, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev model of func on [a, b] and the model's integral from a.  The model is fitted at
    the first _CHEB_DEGREES degree that matches func to 1e-11 at 37 probe points, else at the last."""
    def on_panel(xi: np.ndarray) -> np.ndarray:
        return func(a + (b - a) * (xi + 1.0) / 2.0)

    probe = np.linspace(-0.97, 0.97, 37)
    exact = on_panel(probe)  # once, for every degree the ladder tries
    for deg in _CHEB_DEGREES:
        raw = _cheb.chebinterpolate(on_panel, deg)
        if np.max(np.abs(_cheb.chebval(probe, raw) - exact)) <= 1.0e-11:
            break
    return raw, _cheb.chebint(raw, m=1, lbnd=-1.0, scl=(b - a) / 2.0)


@lru_cache(maxsize=64)
def _signed_moment_panels(tau: float) -> tuple:
    """Chebyshev models of r * (w(tau, r) - indicator) on the two layer panels, each by ``_chebyshev_fit``
    at the first degree of _CHEB_DEGREES (64, 128, 256, 512) that passes its probe check, else at 512.

    Returns (inner, 1.0, coef0, moment0, outer, coef1, moment1) where moment
    coefficients integrate the model from each panel's left edge.
    """
    inner, outer = _layer_bounds(tau)
    c0, m0 = _chebyshev_fit(lambda r: -r * patch_deficit(tau, r), inner, 1.0)
    c1, m1 = _chebyshev_fit(lambda r: r * exact_vorticity(tau, r), 1.0, outer)
    return inner, 1.0, c0, m0, outer, c1, m1


def _running_moment(tau: float, r: np.ndarray) -> np.ndarray:
    """M(r) = int_0^r (w(tau, s) - indicator(s)) s ds, vectorized."""
    inner, one, c0, m0, outer, c1, m1 = _signed_moment_panels(tau)
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    in0 = (r > inner) & (r <= one)
    if np.any(in0):
        xi = 2.0 * (r[in0] - inner) / (one - inner) - 1.0
        out[in0] = _cheb.chebval(xi, m0)
    m_at_one = float(_cheb.chebval(1.0, m0))
    in1 = r > one
    if np.any(in1):
        xi = 2.0 * np.minimum(r[in1], outer) / (outer - one) - (outer + one) / (outer - one)
        out[in1] = m_at_one + _cheb.chebval(xi, m1)
    return out


def mass_defect(tau: float) -> float:
    """Net signed mass of the profile discrepancy; zero up to quadrature error."""
    _check_tau(tau)
    _, _, _, m0, outer, _, m1 = _signed_moment_panels(tau)
    total = float(_cheb.chebval(1.0, m0)) + float(_cheb.chebval(1.0, m1))
    return 2.0 * np.pi * total


def velocity_lp_error(tau: float, p: float) -> float:
    """L^p distance between the corresponding azimuthal velocity profiles.

    The velocity discrepancy at radius r is |M(r)|/r with M the running
    signed mass of the vorticity discrepancy; mass conservation makes it
    vanish outside the smoothing layer.
    """
    _check_tau(tau)
    return _adaptive_panel(partial(_speed_profile, tau), p)


# Room for one tau's profiles at all four _ORDERS, the most a tau can hold: strato rankine
# loops p inside tau.  A cache the size of _layer_profile's would pin up to 4 MiB of heap.
@lru_cache(maxsize=4)
def _speed_profile(tau: float, n: int) -> tuple:
    """_panel_profile of the velocity discrepancy |M(r)|/r on each side of the rim."""
    inner, outer = _layer_bounds(tau)

    def speed(r: np.ndarray) -> np.ndarray:
        return np.divide(np.abs(_running_moment(tau, r)), r, out=np.zeros_like(r), where=r > 0.0)

    return tuple(_panel_profile(speed, a, b, n) for a, b in ((inner, 1.0), (1.0, outer)))


def similarity_deficit(tau: float, radius: float | np.ndarray) -> float | np.ndarray:
    """Vorticity discrepancy in self-similar coordinates, inside the patch.

    At scaled radius x (unscaled r = sqrt(tau) x, x <= 1/sqrt(tau)) the
    discrepancy magnitude is exactly the patch deficit; it stays bounded
    away from zero on the annulus just inside the rim.
    """
    _check_tau(tau)
    if tau > 1.0:
        raise ValueError(f"similarity window requires tau <= 1, got {tau}")
    x = np.asarray(radius, dtype=np.float64)
    if np.any(x < 0.0) or np.any(x > 1.0 / math.sqrt(tau) * (1.0 + 1.0e-12)):
        raise ValueError("similarity radius must lie in [0, 1/sqrt(tau)]")
    out = patch_deficit(tau, np.minimum(np.atleast_1d(x) * math.sqrt(tau), 1.0))
    return float(out[0]) if np.isscalar(radius) or x.ndim == 0 else out.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class RateSeries:
    """Error ladder against scaled time, with its theoretical exponent."""

    quantity: str
    p: float
    taus: np.ndarray
    errors: np.ndarray
    reference_exponent: float | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.taus, dtype=np.float64)
        e = np.asarray(self.errors, dtype=np.float64)
        if t.ndim != 1 or t.shape != e.shape:
            raise ValueError("taus and errors must be matching 1-d arrays")
        if np.any(t <= 0.0) or np.any(e <= 0.0):
            raise ValueError("rate fits need positive abscissae and errors")
        object.__setattr__(self, "taus", t)
        object.__setattr__(self, "errors", e)


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    c_lower: float
    c_upper: float
    reference_exponent: float


def fit_exponent(series: RateSeries) -> FitResult:
    """Least-squares decay exponent of an error ladder plus sandwich constants.

    Requires at least 6 points spanning two decades.  The sandwich
    constants bracket error / tau^theta at the series' reference exponent
    (the fitted slope if none was declared).
    """
    t, e = series.taus, series.errors
    _check_ladder(t)
    lx, ly = np.log(t), np.log(e)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = len(t) - 2
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if dof > 0 else 0.0
    theta = series.reference_exponent if series.reference_exponent is not None else float(slope)
    ratios = e / t**theta
    return FitResult(
        slope=float(slope),
        stderr=float(stderr),
        c_lower=float(np.min(ratios)),
        c_upper=float(np.max(ratios)),
        reference_exponent=float(theta),
    )
