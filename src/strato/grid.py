"""Doubly periodic grid and the spectral operator kernel.

Fields live on the square [-L, L)^2 sampled on an n x n uniform mesh with
n a power of two.  Wavenumbers are integer multiples of pi/L.  Every
spectral operator (derivatives, Biot-Savart, inverse Laplacian, heat
propagator, dyadic blocks, the solver march) acts on real half spectra
through one kernel per grid size, shared by the equal grids that are
alive and built on first use.  The kernel has one inverse transform for
its three spectrum layouts (a 2/3 band, a column head, a whole half
spectrum), and the Biot-Savart velocity, its gradient and the dealiased
transport term v . grad f are each written once, there; the march keeps
its state on the band, and the L2 norm of a band's inverse is a sum over
the band (discrete Parseval), with no transform.  The zero mode of any
inverse-Laplacian style operator is gauged to zero.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import numpy.fft as _fft

__all__ = [
    "GridSpec",
    "ScalarField",
    "VelocityField",
    "derivative",
    "laplacian",
    "biot_savart",
    "dx1_inv_laplacian",
    "lp_norm",
    "heat_propagate",
    "grad_tensor_magnitude",
    "velocity_gradient_sup",
    "sample_at",
]


def rfft2(values: np.ndarray) -> np.ndarray:
    """Real half spectrum of a 2-d array: ``rfft`` along axis 1, then ``fft`` along axis 0 in place."""
    half = _fft.rfft(values, axis=1)
    return _fft.fft(half, axis=0, out=half)


def _is_pow2(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform n x n mesh on [-half_length, half_length)^2.

    Parameters
    ----------
    n : int
        Points per side, a power of two, at least 16.
    half_length : float
        Half the box side; the fundamental wavenumber is pi/half_length.
    """

    n: int
    half_length: float = 8.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or not _is_pow2(int(self.n)) or self.n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {self.n!r}")
        if not (self.half_length > 0.0 and np.isfinite(self.half_length)):
            raise ValueError(f"half_length must be positive and finite, got {self.half_length!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "half_length", float(self.half_length))

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        """1-d array of the n cell-corner coordinates, identical per axis."""
        return -self.half_length + self.dx * np.arange(self.n)

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (x1 along axis 0, x2 along axis 1)."""
        x = self.nodes
        return x[:, None], x[None, :]

    def __reduce__(self):
        # the two fields only: an unpickled grid looks its kernel up where it lands
        return GridSpec, (self.n, self.half_length)

    @cached_property
    def _kernel(self) -> _HalfKernel:
        """The one kernel of all live grids equal to this one; it dies with the last of them."""
        key = (self.n, self.half_length)
        with _kernels_lock:
            kern = _kernels.get(key)
            if kern is None:
                kern = _kernels[key] = _HalfKernel(*key)
        return kern


_kernels: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # (n, half_length) -> kernel
_kernels_lock = threading.Lock()


class _Multipliers:
    """Fourier multipliers on the modes m1 (rows) x m2 (columns) of an n-point grid, each built on first use.

    ``ik1`` and ``ik2`` differentiate (their unpaired Nyquist entries are
    zero, which is what taking the real part does to an odd multiplier on
    the full complex spectrum), ``ksq`` is |k|^2, and ``v1`` and ``v2`` map
    vorticity to Biot-Savart velocity (zero mode gauged to 0).  Every entry
    depends on its own mode alone, so the multipliers of a subset of modes
    are bitwise those of the full lattice cut to it.  An array is published
    only once built, so threads that touch one first together may both build
    it, but none sees it half built.
    """

    def __init__(self, n: int, half_length: float, m1: np.ndarray, m2: np.ndarray):
        self.n, self.half_length = n, half_length
        self.m1, self.m2 = m1[:, None], m2[None, :]
        self.k1, self.k2 = (np.pi / half_length) * self.m1, (np.pi / half_length) * self.m2

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def ik1(self) -> np.ndarray:
        return 1j * np.where(np.abs(self.m1) == self.n // 2, 0.0, self.k1)

    @cached_property
    def ik2(self) -> np.ndarray:
        return 1j * np.where(self.m2 == self.n // 2, 0.0, self.k2)

    @cached_property
    def v1(self) -> np.ndarray:
        return self.ik2 * self._inv_ksq()

    @cached_property
    def v2(self) -> np.ndarray:
        return -self.ik1 * self._inv_ksq()

    def _inv_ksq(self) -> np.ndarray:
        inv = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=inv, where=self.ksq != 0.0)
        return inv


class _HalfKernel(_Multipliers):
    """The multipliers of one grid size on the real half spectrum, its transforms and its velocity operators.

    Arrays broadcast against ``rfft2`` output of shape (n, n/2 + 1).  A
    spectrum comes in one of three layouts, told apart by its row count: a
    2/3 band (2b + 1 rows m1 = 0..b, -b..-1, columns m2 = 0..b, b = n // 3),
    which the 2/3 dealiasing rule keeps and whose multipliers ``band`` holds;
    a column head (n rows, the first columns of a half spectrum that is zero
    beyond them); or a whole half spectrum, the head of every column.  The
    constructor builds index data alone; a multiplier is built on first use,
    so heat and Besov work never builds ``v1``/``v2`` and the march never
    builds a full-size one.
    """

    def __init__(self, n: int, half_length: float):
        super().__init__(n, half_length, _fft.fftfreq(n, d=1.0 / n), _fft.rfftfreq(n, d=1.0 / n))
        self.half_shape = (n, n // 2 + 1)
        self.rows, self.cols = np.r_[0 : n // 3 + 1, n - n // 3 : n], n // 3 + 1

    @cached_property
    def band(self) -> _Multipliers:
        return _Multipliers(self.n, self.half_length, self.m1[self.rows, 0], self.m2[0, : self.cols])

    def cut(self, half: np.ndarray) -> np.ndarray:
        """The band of a half spectrum that is zero outside it."""
        return half[self.rows, : self.cols]

    def in_band(self, half: np.ndarray) -> bool:
        """Whether a half spectrum is zero outside the band, as march samples and their blends are."""
        b = self.cols - 1
        return not (np.any(half[b + 1 : -b]) or np.any(half[:, b + 1 :]))

    def _ops(self, x: np.ndarray) -> _Multipliers:
        """The multipliers on the modes of x, a band or a whole half spectrum."""
        return self if len(x) == self.n else self.band

    def spread(self, x: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
        """The half spectrum that is x, or ``m * x`` given m, on the modes of x and zero elsewhere.

        A whole half spectrum without m is returned as it is; otherwise the product is written
        straight into the zero buffer, one block of rows at a time.
        """
        if x.shape == self.half_shape:
            return x if m is None else m * x
        half = np.zeros(self.half_shape, dtype=x.dtype if m is None else np.result_type(m, x))
        b, cols = self.cols - 1, x.shape[1]
        for r in (slice(None),) if len(x) == self.n else (slice(0, b + 1), slice(-b, None)):  # band rows 0..b, -b..-1
            if m is None:
                half[r, :cols] = x[r]
            else:
                np.multiply(np.broadcast_to(m, x.shape)[r], x[r], out=half[r, :cols])
        return half

    def inverse(self, x: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
        """Grid values of ``spread(x, m)``, bitwise ``irfft2`` of it; the column pass skips the zero columns."""
        half = self.spread(x, m)  # x itself only if x is a whole half spectrum, which is not transformed in place
        half = _fft.ifft(x, axis=0) if half is x else self._columns(_fft.ifft, half, x.shape[1])
        return _fft.irfft(half, self.n, axis=1)

    def l2_norm(self, x: np.ndarray, *ms: np.ndarray) -> float:
        """The midpoint-rule L2 norm of the field (``inverse(x, m)`` for m in ms), or of ``inverse(x)``, from x alone.

        By the discrete Parseval identity the sum over the grid of |inverse(x, m)|^2 is the sum of w |m x|^2
        over the modes of x, divided by n^2, with w = 1 on column 0 and 2 on the columns whose conjugate
        mirrors the half spectrum leaves out.  So x must hold no Nyquist column, as a band does; the
        identity also takes column 0 to be Hermitian, as the spectrum of real values is.
        """
        if x.shape[1] > self.n // 2:
            raise ValueError("l2_norm needs a spectrum without the Nyquist column, such as a 2/3 band")
        total = 0.0
        for m in ms or (None,):
            sq = np.abs(x if m is None else m * x)
            sq *= sq
            total += 2.0 * float(sq.sum()) - float(sq[:, 0].sum())
        return float(np.sqrt(total) * (2.0 * self.half_length / self.n) / self.n)

    def velocity(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid values of the Biot-Savart velocity (v1, v2) of the vorticity spectrum x, a band or a whole half spectrum."""
        op = self._ops(x)
        return self.inverse(x, op.v1), self.inverse(x, op.v2)

    def gradient(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Grid values of d1 v1, d2 v1, d1 v2 and d2 v2 of the velocity of x, one at a time."""
        op = self._ops(x)
        for v in (op.v1, op.v2):
            s = v * x
            yield from (self.inverse(s, ik) for ik in (op.ik1, op.ik2))

    def advection(self, x: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """The band of the half spectrum of v . grad f, for f with spectrum x and v given by its grid values.

        The product is formed in place, one derivative grid at a time beside it.
        """
        op = self._ops(x)
        out = self.inverse(x, op.ik1)
        out *= v1
        d2 = self.inverse(x, op.ik2)
        d2 *= v2
        out += d2
        del d2
        return self.band_spectrum(out)

    def band_spectrum(self, values: np.ndarray) -> np.ndarray:
        """The band of ``rfft2(values)``, bitwise equal to ``cut(rfft2(values))``; only the band's columns are transformed."""
        return self.cut(self._columns(_fft.fft, _fft.rfft(values, axis=1)))

    def _columns(self, transform: Callable, half: np.ndarray, cols: int | None = None) -> np.ndarray:
        """half with the 1-d ``transform`` applied along axis 0 to its first ``cols`` columns (the band's), in place."""
        view = half[:, : self.cols if cols is None else cols]
        transform(view, axis=0, out=view)
        return half


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real scalar field on a :class:`GridSpec`; values are immutable.

    The real half spectrum (:func:`rfft2`) is computed on first access
    and cached.  Construct from grid values, via ``from_function``, or via
    ``from_spectrum`` from a spectrum in any of the kernel's layouts.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ScalarField":
        x1, x2 = grid.mesh
        return cls(grid, np.broadcast_to(fn(x1, x2), (grid.n, grid.n)).copy())

    @classmethod
    def from_spectrum(cls, grid: GridSpec, x: np.ndarray) -> "ScalarField":
        """The field whose half spectrum is the kernel's ``spread(x)``: x a 2/3 band, a column head or a whole half spectrum."""
        kern = grid._kernel
        f = cls(grid, kern.inverse(x))
        f.__dict__["half_spectrum"] = kern.spread(x)
        return f

    @cached_property
    def half_spectrum(self) -> np.ndarray:
        return rfft2(self.values)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True, eq=False)
class VelocityField:
    """Pair of scalar components on a shared grid."""

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("velocity components must share a grid")

    @property
    def grid(self) -> GridSpec:
        return self.u1.grid

    @cached_property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u1.values, self.u2.values)


def derivative(f: ScalarField, axis: int) -> ScalarField:
    """Spectral partial derivative along coordinate axis 1 or 2."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    kern = f.grid._kernel
    ik = kern.ik1 if axis == 1 else kern.ik2
    return ScalarField.from_spectrum(f.grid, ik * f.half_spectrum)


def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField.from_spectrum(f.grid, -f.grid._kernel.ksq * f.half_spectrum)


def biot_savart(omega: ScalarField) -> VelocityField:
    """Divergence-free velocity with the given vorticity (zero-mean gauge).

    In spectral form v1 = i k2 w / |k|^2, v2 = -i k1 w / |k|^2, so that the
    discrete curl d1 v2 - d2 v1 returns the input exactly on nonzero modes.
    A positive point blob spins counterclockwise.
    """
    g, kern = omega.grid, omega.grid._kernel
    h = omega.half_spectrum
    return VelocityField(ScalarField.from_spectrum(g, kern.v1 * h), ScalarField.from_spectrum(g, kern.v2 * h))


def dx1_inv_laplacian(rho: ScalarField) -> ScalarField:
    """The zero-order singular integral u with Delta u = d1 rho.

    Fourier multiplier -i k1 / |k|^2; the zero mode is gauged to zero.
    """
    return ScalarField.from_spectrum(rho.grid, rho.grid._kernel.v2 * rho.half_spectrum)


def lp_norm(f: ScalarField | np.ndarray, p: float, grid: GridSpec | None = None) -> float:
    """Lebesgue norm by the midpoint rule; p may be any real >= 1 or inf."""
    if isinstance(f, ScalarField):
        vals, g = f.values, f.grid
    else:
        if grid is None:
            raise ValueError("grid required when passing a bare array")
        vals, g = np.asarray(f), grid
    if not p >= 1.0:
        raise ValueError(f"p must satisfy p >= 1 or be +inf, got {p}")
    if np.isinf(p):  # max |v| with no |v| array; abs() turns the -0.0 of an all-zero field into 0.0
        return abs(max(float(vals.max()), -float(vals.min())))
    mag = np.abs(vals)
    mag **= p  # in place: one grid-sized temporary
    return float((np.sum(mag) * g.dx**2) ** (1.0 / p))


def heat_propagate(f: ScalarField, tau: float) -> ScalarField:
    """Apply the periodic heat semigroup exp(tau * Laplacian), tau >= 0."""
    if tau < 0.0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return ScalarField.from_spectrum(f.grid, np.exp(-tau * f.grid._kernel.ksq) * f.half_spectrum)


def grad_tensor_magnitude(v: VelocityField) -> ScalarField:
    """Pointwise Frobenius norm of the velocity gradient tensor."""
    parts = [derivative(v.u1, 1), derivative(v.u1, 2), derivative(v.u2, 1), derivative(v.u2, 2)]
    sq = sum(p.values**2 for p in parts)
    return ScalarField(v.grid, np.sqrt(sq))


def velocity_gradient_sup(omega: ScalarField) -> float:
    """sup-norm of the gradient tensor of the Biot-Savart velocity, bitwise that of ``grad_tensor_magnitude``."""
    return _gradient_sup(omega.grid._kernel, omega.half_spectrum)


def _gradient_sup(kern: _HalfKernel, x: np.ndarray) -> float:
    """sup of the Frobenius norm of the velocity gradient of the vorticity spectrum x, from its four components."""
    return float(np.sqrt(sum(d**2 for d in kern.gradient(x))).max())


def sample_at(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Evaluate a field at off-grid points: the exact trigonometric interpolant, at any batch size.

    ``points`` has shape (m, 2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != 2:
        raise ValueError(f"points must have shape (m, 2), got {pts.shape}")
    return _eval_at([f.half_spectrum], f.grid, pts)[0]


def _phase_basis(grid: GridSpec, pts: np.ndarray, band: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """e1 (m, n) and e2 (m, n/2 + 1): half spectrum h is ((e1 @ h) * e2).sum(axis=1).real / n**2 at pts.

    The fft coefficients expand f in exp(i k . (x + L)), so shift by L.  The unpaired
    Nyquist modes enter as cosines, which keeps the sum the same for a field and its
    transpose; the columns 0 < m2 < n/2 stand for their conjugate mirrors too.  A band b < n/2
    gives e1 (m, 2b + 1) on rows m1 = 0..b, -b..-1 and e2 (m, b + 1), for spectra zero beyond it.
    """
    n, half_length = grid.n, grid.half_length
    scale = np.pi / half_length
    if band is not None:
        e1, e2 = (np.exp(1j * np.outer(x + half_length, scale * np.arange(band + 1))) for x in pts.T)
        e2[:, 1:] *= 2.0
        return np.hstack([e1, e1[:, :0:-1].conj()]), e2
    e1 = np.exp(1j * np.outer(pts[:, 0] + half_length, scale * _fft.fftfreq(n, d=1.0 / n)))
    e2 = np.exp(1j * np.outer(pts[:, 1] + half_length, scale * _fft.rfftfreq(n, d=1.0 / n)))
    e1[:, n // 2] = e1[:, n // 2].real
    e2[:, n // 2] = e2[:, n // 2].real
    e2[:, 1 : n // 2] *= 2.0
    return e1, e2


_CHUNK = 512  # points per phase-basis contraction, which bounds its basis at (512, n) complex: 4 MiB at n = 512


def _chunked(evaluate: Callable[[np.ndarray], list[np.ndarray]], pts: np.ndarray) -> list[np.ndarray]:
    """evaluate(pts), run on slices of at most ``_CHUNK`` points and joined; one call for a batch that fits."""
    if len(pts) <= _CHUNK:
        return evaluate(pts)
    parts = [evaluate(pts[i : i + _CHUNK]) for i in range(0, len(pts), _CHUNK)]
    return [np.concatenate(p) for p in zip(*parts)]


def _eval_at(halves: list[np.ndarray], grid: GridSpec, pts: np.ndarray) -> list[np.ndarray]:
    """Evaluate several real half spectra at the same off-grid points by direct spectral summation,
    over one shared phase basis per chunk of points."""

    def contract(p: np.ndarray) -> list[np.ndarray]:
        e1, e2 = _phase_basis(grid, p)
        return [((e1 @ h) * e2).sum(axis=1).real / grid.n**2 for h in halves]

    return _chunked(contract, pts)
