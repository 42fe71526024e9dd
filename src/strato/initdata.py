"""Vortex patch initial data and companion structures.

A patch is a star-shaped region given by a polar boundary radius
function.  Rasterization is anti-aliased by subcell supersampling.  The
module also builds the geometric side-cars the anisotropic machinery
needs: a saturated level-set function vanishing on the patch boundary, a
tangent/complement vector-field pair, and a discretized boundary curve.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .conormal import BoundaryCurve, VectorFieldFamily, family_floor
from .grid import GridSpec, ScalarField, VelocityField, derivative, heat_propagate
from .littlewood_paley import smooth_ramp

__all__ = [
    "PatchSpec",
    "DensitySpec",
    "rasterize_patch",
    "bv_norm",
    "make_density",
    "initial_vector_family",
    "level_set_data",
    "boundary_curve",
]

_MARGIN_FRACTION = 0.25  # patches must keep this fraction of the box clear


def _refuse_nonfinite(spec) -> None:
    """Refuse a NaN or an infinity in a float field of a spec, or in an entry of a pair, naming the field."""
    for f in fields(spec):
        if f.type in ("float", "tuple[float, float]") and not np.all(np.isfinite(value := getattr(spec, f.name))):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PatchSpec:
    """Star-shaped patch described in polar form about its center.

    kind "disc": constant radius.  kind "ellipse": semi-axes ``axes``.
    kind "star": radius r0 * (1 + amplitude * sum_j 2^(-j(1+epsilon))
    cos(base_mode * 2^j * theta)) over ``octaves`` lacunary terms, so the
    declared boundary smoothness is Hoelder 1+epsilon as octaves grow.
    """

    kind: str = "disc"
    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    axes: tuple[float, float] = (2.0, 1.0)
    amplitude: float = 0.1
    base_mode: int = 5
    octaves: int = 1
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        _refuse_nonfinite(self)
        if self.kind not in ("disc", "ellipse", "star"):
            raise ValueError(f"unknown patch kind {self.kind!r}")
        if self.kind != "ellipse" and self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.kind == "ellipse" and min(self.axes) <= 0.0:
            raise ValueError("ellipse axes must be positive")
        if self.kind == "star":
            if not (0.0 < self.epsilon < 1.0):
                raise ValueError("epsilon must lie in (0, 1)")
            if self.octaves < 1 or self.base_mode < 1:
                raise ValueError("star needs octaves >= 1 and base_mode >= 1")
            if abs(self.amplitude) * self._lacunary_mass() >= 0.5:
                raise ValueError("star amplitude too large; boundary radius may vanish")

    def _lacunary_mass(self) -> float:
        return sum(2.0 ** (-j * (1.0 + self.epsilon)) for j in range(self.octaves))

    def boundary_radius(self, theta: np.ndarray) -> np.ndarray:
        """Polar boundary radius about the patch center."""
        theta = np.asarray(theta, dtype=np.float64)
        if self.kind == "disc":
            return np.full_like(theta, self.radius)
        if self.kind == "ellipse":
            a, b = self.axes
            return a * b / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
        acc = np.zeros_like(theta)
        for j in range(self.octaves):
            acc += 2.0 ** (-j * (1.0 + self.epsilon)) * np.cos(self.base_mode * 2**j * theta)
        return self.radius * (1.0 + self.amplitude * acc)

    @property
    def max_radius(self) -> float:
        if self.kind == "disc":
            return self.radius
        if self.kind == "ellipse":
            return max(self.axes)
        return self.radius * (1.0 + abs(self.amplitude) * self._lacunary_mass())

    @property
    def min_radius(self) -> float:
        if self.kind == "disc":
            return self.radius
        if self.kind == "ellipse":
            return min(self.axes)
        return self.radius * (1.0 - abs(self.amplitude) * self._lacunary_mass())


def _check_margin(extent: float, center: tuple[float, float], grid: GridSpec, what: str) -> None:
    clear = grid.half_length * (1.0 - _MARGIN_FRACTION)
    if max(abs(center[0]), abs(center[1])) + extent > clear:
        raise ValueError(
            f"{what} of extent {extent:.3g} at {center} leaks past the "
            f"required margin (needs {grid.half_length * _MARGIN_FRACTION:.3g} clear)"
        )


def rasterize_patch(spec: PatchSpec, grid: GridSpec, supersample: int = 8) -> ScalarField:
    """Indicator of the patch, each cell holding its covered subcell fraction."""
    if supersample < 1:
        raise ValueError("supersample must be >= 1")
    _check_margin(spec.max_radius, spec.center, grid, "patch")
    x1, x2 = np.broadcast_arrays(*grid.mesh)
    # subcells lie within dx / sqrt(2) of their cell centre, so only cells within
    # dx of the [min_radius, max_radius] annulus can be partly covered
    rho = np.hypot(x1 - spec.center[0], x2 - spec.center[1])
    out = (rho < spec.min_radius - grid.dx).astype(np.float64)
    band = (rho >= spec.min_radius - grid.dx) & (rho <= spec.max_radius + grid.dx)
    x1, x2 = x1[band], x2[band]
    acc = np.zeros(x1.shape)
    offs = (np.arange(supersample) + 0.5) / supersample - 0.5
    for o1 in offs:
        for o2 in offs:
            d1 = x1 + o1 * grid.dx - spec.center[0]
            d2 = x2 + o2 * grid.dx - spec.center[1]
            if spec.kind == "ellipse":
                a, b = spec.axes
                inside = (d1 / a) ** 2 + (d2 / b) ** 2 < 1.0
            else:
                rr = np.hypot(d1, d2)
                inside = rr < spec.boundary_radius(np.arctan2(d2, d1))
            acc += inside
    out[band] = acc / supersample**2
    return ScalarField(grid, out)


def _boundary_samples(spec: PatchSpec, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta grid, boundary radius, and its spectral theta-derivative."""
    theta = 2.0 * np.pi * np.arange(m) / m
    r = spec.boundary_radius(theta)
    modes = np.fft.fftfreq(m, d=1.0 / m)
    half = np.fft.rfft(r)  # r is real: the full spectrum is the half one and its conjugate mirror
    dr = np.fft.ifft(1j * modes * np.concatenate([half, half[1 : (m + 1) // 2][::-1].conj()])).real
    return theta, r, dr


def bv_norm(spec: PatchSpec, quadrature_points: int = 1 << 14) -> float:
    """Area plus perimeter of the patch (total variation of its indicator)."""
    theta, r, dr = _boundary_samples(spec, quadrature_points)
    dtheta = 2.0 * np.pi / quadrature_points
    area = 0.5 * float(np.sum(r**2)) * dtheta
    perimeter = float(np.sum(np.sqrt(r**2 + dr**2))) * dtheta
    return area + perimeter


@dataclass(frozen=True)
class DensitySpec:
    """Initial density profile: constant, gaussian, or compact bump."""

    kind: str = "gaussian"
    amplitude: float = 0.1
    width: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        _refuse_nonfinite(self)
        if self.kind not in ("constant", "gaussian", "bump"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind != "constant" and self.width <= 0.0:
            raise ValueError("width must be positive")


def make_density(spec: DensitySpec, grid: GridSpec) -> ScalarField:
    """Sample the density profile on the grid."""
    if spec.kind == "constant":
        return ScalarField(grid, np.full((grid.n, grid.n), spec.amplitude))
    # effective support: hard radius for the bump, five sigmas for the gaussian
    extent = spec.width if spec.kind == "bump" else 5.0 * spec.width
    _check_margin(extent, spec.center, grid, "density profile")
    x1, x2 = grid.mesh
    rsq = (x1 - spec.center[0]) ** 2 + (x2 - spec.center[1]) ** 2
    if spec.kind == "gaussian":
        return ScalarField(grid, spec.amplitude * np.exp(-rsq / (2.0 * spec.width**2)))
    s2 = rsq / spec.width**2
    vals = np.zeros_like(rsq)
    inside = s2 < 1.0
    with np.errstate(divide="ignore"):
        vals[inside] = spec.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return ScalarField(grid, vals)


def _polar_parts(spec: PatchSpec, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x1, x2 = grid.mesh
    d1 = x1 - spec.center[0]
    d2 = x2 - spec.center[1]
    return d1, d2, np.hypot(d1, d2)


def level_set_data(spec: PatchSpec, grid: GridSpec) -> tuple[ScalarField, ScalarField, ScalarField, ScalarField]:
    """Level-set function for the patch boundary plus its gradient and cutoff.

    Returns ``(f0, g1, g2, chi)``: a saturated signed boundary coordinate
    vanishing on the patch edge, its two gradient components, and a smooth
    cutoff equal to 1 in the inner half of the boundary tube and 0 outside
    the tube.  For disc and ellipse the gradient is analytic; for star
    patches the sampled level set gets one mollification pass at scale
    2 dx and a spectral gradient.
    """
    tube = 0.2 * spec.min_radius
    d1, d2, rr = _polar_parts(spec, grid)
    if spec.kind == "disc":
        base = (rr**2 - spec.radius**2) / (2.0 * spec.radius)
        sech2 = 1.0 / np.cosh(base / tube) ** 2
        f0 = tube * np.tanh(base / tube)
        g1 = sech2 * d1 / spec.radius
        g2 = sech2 * d2 / spec.radius
    elif spec.kind == "ellipse":
        a, b = spec.axes
        scale = min(a, b)
        base = ((d1 / a) ** 2 + (d2 / b) ** 2 - 1.0) * scale / 2.0
        sech2 = 1.0 / np.cosh(base / tube) ** 2
        f0 = tube * np.tanh(base / tube)
        g1 = sech2 * d1 * scale / a**2
        g2 = sech2 * d2 * scale / b**2
    else:
        theta = np.arctan2(d2, d1)
        base = rr - spec.boundary_radius(theta)
        raw = ScalarField(grid, tube * np.tanh(base / tube))
        smoothed = heat_propagate(raw, (2.0 * grid.dx) ** 2 / 2.0)
        f0 = smoothed.values
        g1 = derivative(smoothed, 1).values
        g2 = derivative(smoothed, 2).values
    chi = smooth_ramp((tube - np.abs(f0)) / (0.5 * tube))
    return (
        ScalarField(grid, f0),
        ScalarField(grid, g1),
        ScalarField(grid, g2),
        ScalarField(grid, chi),
    )


def initial_vector_family(spec: PatchSpec, grid: GridSpec, epsilon: float = 0.5) -> VectorFieldFamily:
    """Tangent/complement vector-field pair adapted to the patch boundary.

    Member 0 rotates the level-set gradient by 90 degrees, so it is
    tangent to every level line; member 1 is the first coordinate
    direction faded out inside the boundary tube.  The pair covers the
    plane: degenerate families are rejected.
    """
    f0, g1, g2, chi = level_set_data(spec, grid)
    member0 = VelocityField(ScalarField(grid, -g2.values), ScalarField(grid, g1.values))
    member1 = VelocityField(ScalarField(grid, 1.0 - chi.values), ScalarField(grid, np.zeros((grid.n, grid.n))))
    fam = VectorFieldFamily(members=(member0, member1), epsilon=epsilon, level_set=f0)
    floor = family_floor(fam)
    if floor < 1.0e-3:
        raise ValueError(f"vector family is degenerate: pointwise floor {floor:.3g} < 1e-3")
    return fam


def boundary_curve(spec: PatchSpec, m: int = 256) -> BoundaryCurve:
    """Sample the patch boundary at m uniform polar parameters."""
    theta, r, dr = _boundary_samples(spec, m)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    pts = np.stack([spec.center[0] + r * cos_t, spec.center[1] + r * sin_t], axis=1)
    tan = np.stack([dr * cos_t - r * sin_t, dr * sin_t + r * cos_t], axis=1)
    return BoundaryCurve(params=theta, points=pts, tangents=tan)
