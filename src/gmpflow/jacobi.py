"""Jacobi matrices: windows, measures, resolvents, kappa vectors.

Windows are finite runs of three-term recurrence coefficients b(n)
(diagonal) and a(n) > 0, where a(n) couples the sites n-1 and n.  A
two-sided window splits at the scalar index -1 | 0 into halves J_- and
J_+ joined by a(0); the half-line resolvent functions

    r_+(z) = <(J_+ - z)^{-1} e_0, e_0>,
    r_-(z) = <(J_- - z)^{-1} e_{-1}, e_{-1}>

drive the angle function phi(c) = arctan r_+(c) and its kappa vector

    kappa_c = (J - c)^{-1} (a(0) sin(phi) e_{-1} + cos(phi) e_0),

which is zero on the left half and cos(phi) (J_+ - c)^{-1} e_0 on the
right, of squared norm phi'(c): phi and that part come off one half-line
solve (``angle_plus``).  r_- and the left half's vectors are those of the
``reflected`` window; a vector that reaches the window's ends is refused
(``check_ends``).
Resolvents, at real z only, are O(n) tridiagonal solves; the spectrum
enters only through ``spectrum_near``, the eigenvalues within a radius
of a point, which one LAPACK call counts and bisects.  Every coefficient
is small enough to square, which keeps the norm bound and the spectral
diameter finite.  The dense matrix is never formed: the pairing identity
applies J - J' as a band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import (
    NumericalError,
    SingularMatrixError,
    SpectrumProximityError,
    ValidationError,
    WindowError,
    check,
    check_entries,
    check_integer,
    read_numbers,
)

SPECTRUM_MIN_DIST = 1e-6
END_WEIGHT_TOL = 2e-7
# ``lanczos`` steps that always project (estimates from step 1 cost digits)
LANCZOS_FULL_STEPS = 32


@dataclass(frozen=True)
class JacobiWindow:
    """Coefficients a(n) > 0 and b(n) for n = n_min..n_max, finite numbers
    small enough to square (``check_entries``), and an integer n_min.

    a(n) couples the sites n-1 and n, so a(n_min) refers to a bond that
    leaves the window; it is stored to keep halves attachable.
    """

    a: np.ndarray
    b: np.ndarray
    n_min: int = 0

    def __post_init__(self):
        a, b = check_entries({"a": self.a, "b": self.b}, "{key}[{0}]")
        if a.ndim != 1 or b.ndim != 1 or a.size != b.size or a.size < 1:
            raise ValidationError("a and b must be 1-d arrays of equal length")
        vars(self).update(a=a, b=b, n_min=check_integer(self.n_min, "n_min"))  # frozen
        if np.any(a <= 0.0):
            raise ValidationError("all a(n) must be positive")

    @property
    def size(self) -> int:
        return self.b.size

    @property
    def n_max(self) -> int:
        return self.n_min + self.size - 1

    def pos(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise WindowError(f"site {n} outside [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    def a_at(self, n: int) -> float:
        return float(self.a[self.pos(n)])

    def b_at(self, n: int) -> float:
        return float(self.b[self.pos(n)])

    def norm_bound(self) -> float:
        return float(np.max(np.abs(self.b))) + 2.0 * float(np.max(self.a))

    def reflected(self) -> "JacobiWindow":
        """The same operator with site n sent to -1 - n; a(0) stays the bond
        across the split, so the right half of it is the left half."""
        a_ref = np.concatenate(([1.0], self.a[:0:-1]))
        return JacobiWindow(a_ref, self.b[::-1], n_min=-1 - self.n_max)

    def to_json(self) -> dict:
        return {
            "n_min": self.n_min,
            "a": self.a.tolist(),
            "b": self.b.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "JacobiWindow":
        return cls(read_numbers(data, "a[]"), read_numbers(data, "b[]"),
                   read_numbers(data, "n_min", int))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many point masses; unit total mass."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points, weights = check_entries({"points": self.points, "weights": self.weights},
                                        "{key}[{0}]")
        if points.ndim != 1 or weights.ndim != 1 or points.size != weights.size:
            raise ValidationError("points and weights must match in length")
        if points.size < 1:
            raise ValidationError("measure needs at least one point")
        vars(self).update(points=points, weights=weights)  # frozen: bypass __setattr__
        if np.any(np.diff(points) <= 0.0):
            raise ValidationError("points must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValidationError("weights must be positive")
        check(lambda _: f"total mass {np.sum(weights)} differs from 1 by",
              abs(np.sum(weights) - 1.0), 1e-12, ValidationError)

    @property
    def n_points(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class KappaVector:
    """Defect-direction vector with its angle phi(c), in the coordinates of
    the window it was taken on, zero on the sites < 0; ``vec`` is read-only."""

    phi: float
    vec: np.ndarray

    def __post_init__(self):
        vars(self)["vec"], = check_entries({"vec": self.vec}, "{key}[{0}]")  # frozen

    @property
    def norm_sq(self) -> float:
        return float(self.vec @ self.vec)


def _half_line_solve(window: JacobiWindow, z: float, site: int = 0) -> np.ndarray:
    """(J_{>=site} - z)^{-1} e_site on the sites site..n_max, in place."""
    i = window.pos(site)
    return numkit.solve_tridiagonal(window.b[i:], window.a[i + 1 :], np.eye(1, window.size - i)[0], z)


def lanczos(band, start, depth: int) -> JacobiWindow:
    """Recurrence coefficients b(0..k) and a(1..k), k <= depth, at a unit
    start vector, of the symmetric banded matrix with row i's entries
    i - h..i + h in ``band[i]`` (``gmp.band_rows``), by Lanczos with partial
    reorthogonalization (H. D. Simon, Math. Comp. 42, 1984), which keeps
    the basis semi-orthogonal.

    Vector k lies on the leading (k + 1) * grow rows, grow = max(h, 1 +
    the index of the start's last nonzero entry).  Each vector is stored
    with h zeros on either side, so step k's product is one ``vecdot`` of
    the leading (k + 2) * grow band rows with its row windows; the first
    ``LANCZOS_FULL_STEPS`` project the image against every earlier vector
    over those rows (``project_out``).  Later steps take the three-term
    residual and update Simon's signed estimates of the new vector's dot
    products with vectors j <= k, om'(k) = 0.6 eps n max|band| / a(k+1) and

        a(k+1) om'(j) = a(j) om(j-1) + (b(j) - b(k)) om(j) + a(j+1) om(j+1)
                        - a(k) om_prev(j) +- (0.3 eps a(j+1) + 0.3 eps a(k)),

    whose first three terms are one product of the rows (a(j), b(j) - b(k),
    a(j+1)), kept as the a(j) are made, with the windows om(j-1..j+1) of a
    padded om.  Where max |om'| > eps**0.6, that step and the next project
    instead, which resets om' to eps.  The run stops at k < depth if the
    next norm is <= 1e-13 * max(1, max|band|): the Krylov space is spent.
    a(0) is the placeholder 1.0.  b(k) and a(k) are kept as floats, and the
    estimate's rounding term and each new vector go into buffers made once.
    """
    band = np.ascontiguousarray(band, dtype=float)  # vecdot rounds otherwise on a reversed view
    n, h, scale = start.size, band.shape[1] // 2, float(np.max(np.abs(band)))
    grow = max(h, int(np.max(np.flatnonzero(start), initial=-1)) + 1)
    tiny, eps = 1e-13 * max(1.0, scale), float(np.finfo(float).eps)
    r_eps, om_new, trigger = 0.3 * eps, 0.6 * eps * n * scale, eps**0.6  # Simon's terms
    padded = np.zeros((depth + 1, n + 2 * h))
    basis = padded[:, h : h + n]
    basis[0] = start
    around = np.lib.stride_tricks.sliding_window_view(padded, 2 * h + 1, axis=1)
    bs, a_out = np.empty(depth + 1), np.ones(depth + 1)
    # the estimates of steps k - 1, k, k + 1 at k % 3, om(j) in slot j + 1
    om = np.full((3, depth + 3), eps)
    windows = np.lib.stride_tricks.sliding_window_view(om, 3, axis=1)
    # row j: a(j) (0 at j = 0, so slot 0 is never read), b(j) - b(k), a(j+1)
    coef, rounding, term = np.zeros((depth + 1, 3)), np.empty(depth + 1), np.empty(depth + 1)
    again, ak = False, 1.0  # the last step projected on its estimate; a(k)
    for k in range(depth + 1):
        rows = min(n, (k + 2) * grow)
        vec = basis[k, :rows]
        image = np.vecdot(band[:rows], around[k, :rows])
        bs[k] = bk = float(vec @ image)
        if k == depth:
            break
        prev, cur, nxt = om[(k - 1) % 3], om[k % 3], om[(k + 1) % 3]
        cur[k + 1] = 1.0
        project, again = k < LANCZOS_FULL_STEPS or again, False
        if not project:
            w = image - bk * vec - ak * basis[k - 1, :rows]
            norm = math.sqrt(w @ w)
            np.subtract(bs[:k], bk, out=coef[:k, 1])
            s = np.vecdot(coef[:k], windows[k % 3, :k]) - ak * prev[1 : k + 1]
            np.add(rounding[:k], r_eps * ak, out=term[:k])
            s += np.copysign(term[:k], s, out=term[:k])
            np.divide(s, max(norm, tiny), out=nxt[1 : k + 1])
            nxt[k + 1] = om_new / max(norm, tiny)
            project = again = norm <= tiny or abs(nxt[1 : k + 2]).max() > trigger
        if project:
            w = numkit.project_out(basis[: k + 1, :rows], image)
            norm = math.sqrt(w @ w)
            nxt[1 : k + 2] = eps
        if norm <= tiny:
            return JacobiWindow(a_out[: k + 1], bs[: k + 1], 0)
        a_out[k + 1] = coef[k, 2] = coef[k + 1, 0] = ak = norm
        rounding[k] = r_eps * norm
        np.divide(w, norm, out=basis[k + 1, :rows])
    return JacobiWindow(a_out, bs, 0)


def lanczos_from_measure(measure: DiscreteMeasure, depth: int) -> JacobiWindow:
    """Three-term recurrence coefficients of the measure's orthonormal
    polynomials, b(0..depth) and a(1..depth): ``lanczos`` on the points as
    a band of halfwidth 0, from the root weights.  a(0) is the placeholder 1.0.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if depth >= measure.n_points:
        raise ValidationError(
            f"measure with {measure.n_points} points supports depth "
            f"< {measure.n_points}, got {depth}"
        )
    x = measure.points
    win = lanczos(x[:, None], np.sqrt(measure.weights), depth)
    if win.size <= depth:
        raise NumericalError(
            f"recurrence broke down at step {win.size}; "
            "measure support is numerically too small"
        )
    return win


def spectrum_near(window: JacobiWindow, x: float, radius: float) -> np.ndarray:
    """Eigenvalues of the window's tridiagonal matrix in (x - radius,
    x + radius], a range that always holds the doubles next to x.

    One LAPACK ``stebz`` call with RANGE='V' counts them by Sturm sequences
    and bisects only those it finds, on the matrix scaled by a power of two
    near its largest coupling (if above 1): the pivot floor stays below the
    pivots, and O(1) couplings next to entries near 1e154 stay above the
    splitting threshold.  Scaling back is exact.  Each eigenvalue found is
    bisected to the last bit of the scaled x, where LAPACK's default is eps
    times the matrix norm, so its distance from x is right also next to
    entries near 1e154; the count does not depend on the tolerance.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    off = window.a[1:]
    scale = math.ldexp(1.0, math.frexp(np.max(off, initial=1.0))[1] - 1)
    x, r = float(x) / scale, radius / scale
    span = (min(x - r, math.nextafter(x, -math.inf)), max(x + r, math.nextafter(x, math.inf)))
    return eigvalsh_tridiagonal(window.b / scale, off / scale, select="v",
                                select_range=span, tol=math.ulp(x)) * scale


def angle_plus(window: JacobiWindow, c: float) -> tuple[float, np.ndarray]:
    """phi(c) = arctan r_+(c) in (-pi/2, pi/2] and kappa's part on the sites
    0..n_max, off x = (J_+ - c)^{-1} e_0, r_+ = x_0: the part is cos(phi) x,
    taken as x / hypot(1, x_0) so that no square overflows.  phi = pi/2 only
    when that solve finds c on J_+'s spectrum; there the part is J_+'s
    eigenvector (1, -a(1) y), y = (J_{>=1} - c)^{-1} e_1, regular by strict
    interlacing.  The part's squared norm is phi'(c)."""
    try:
        x = _half_line_solve(window, c)
    except SingularMatrixError:
        y = _half_line_solve(window, c, 1)
        return math.pi / 2.0, np.r_[1.0, -window.a_at(1) * y]
    return math.atan(x[0]), x / math.hypot(1.0, x[0])


def check_ends(vec: np.ndarray, what: str, sites: int = 1) -> None:
    """Refuse, as a WindowError led by ``what``, a vector of the window
    whose end weight, its largest entry on the outermost ``sites`` sites
    at either end over its largest entry, exceeds ``END_WEIGHT_TOL``: the
    window is too short for it, and what is read from it is off by up to
    a few times the weight squared."""
    mag = np.abs(vec)
    ends = max(np.max(mag[:sites]), np.max(mag[-sites:]))
    check(f"{what}: end weight", ends / np.max(mag), END_WEIGHT_TOL, WindowError)


def kappa(window: JacobiWindow, c: float) -> KappaVector:
    """Kappa vector at c and phi(c), ``angle_plus``'s part placed on the
    sites >= 0, refused, with the distance, when an eigenvalue lies within
    1e-6 of c (``spectrum_near``), or when the window is too short for it
    (``check_ends`` on its end entries)."""
    if window.n_min > -1 or window.n_max < 0:
        raise WindowError("kappa needs a two-sided window around -1 | 0")
    near = spectrum_near(window, c, SPECTRUM_MIN_DIST)
    if near.size:
        dist = float(np.min(np.abs(near - c)))
        raise SpectrumProximityError(f"c = {c} is within {dist:.2e} of the window spectrum")
    phi, part = angle_plus(window, c)
    vec = np.zeros(window.size)
    vec[window.pos(0) :] = part
    check_ends(vec, f"window too short for the kappa vector at c = {c}")
    return KappaVector(phi=phi, vec=vec)


def kappa_pairing(
    window: JacobiWindow, other: JacobiWindow, c: float
) -> tuple[float, float]:
    """Both sides of <(J - J') kappa_c, kappa'_c> = sin(phi' - phi), with
    J - J' applied as its tridiagonal band in O(n)."""
    if window.n_min != other.n_min or window.size != other.size:
        raise WindowError("windows must be aligned for the pairing")
    kap = kappa(window, c)
    kap_other = kappa(other, c)
    diff = (window.b - other.b, window.a[1:] - other.a[1:])
    lhs = float(kap_other.vec @ numkit.banded_matvec(diff, kap.vec))
    rhs = math.sin(kap_other.phi - kap.phi)
    return lhs, rhs


def check_eta(eta: float) -> None:
    """The weight base of ``dist_eta`` lies in (0, 1)."""
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"eta must lie in (0, 1), got {eta}")


def dist_eta(b: np.ndarray, b_tilde: np.ndarray, eta: float) -> float:
    """Geometrically weighted distance sqrt(sum |b-b~|^2 eta^{2n}) of two
    sequences of one length."""
    check_eta(eta)
    b = np.asarray(b, dtype=float)
    b_tilde = np.asarray(b_tilde, dtype=float)
    if b.size != b_tilde.size:
        raise ValidationError(f"dist_eta needs sequences of one length, got {b.size} "
                              f"and {b_tilde.size}")
    diff = b - b_tilde
    return float(np.sqrt(np.sum(diff**2 * eta ** (2.0 * np.arange(b.size)))))
