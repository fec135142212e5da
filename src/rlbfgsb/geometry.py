"""Geometry of the search space: a box times an optional Riemannian manifold.

The optimization domain is the product of a Euclidean hypercube
``D = [l_1, u_1] x ... x [l_n, u_n]`` (bounds may be infinite) with an
optional Riemannian manifold ``M``.  Points carry one array per factor;
tangent vectors are packed (see below).  Either factor may be empty: a pure
box problem uses ``manifold=None``, a pure manifold problem uses a
zero-length box.

Three concrete manifolds are provided:

- :class:`Sphere` -- unit vectors in ``R^d`` with the exact exponential map,
  logarithm, and parallel transport along great circles.
- :class:`Stiefel` -- ``k x r`` matrices with orthonormal rows, QR retraction
  and projection-based vector transport.
- :class:`SpecialOrthogonal` -- rotation matrices, sharing the Stiefel
  machinery (the QR retraction preserves the determinant-one component).

The box factor is flat: retraction is translation and transport is the
identity.  :meth:`Geometry.project_tangent_cone` zeroes the tangent
components that point out of the box at active bounds
(:meth:`Geometry.outward`), leaving the manifold part untouched.

Every metric is the embedded Euclidean one, so a tangent is one flat array,
:attr:`ProductTangent.data`: the box coordinates, then the raveled manifold
part, with the two factors as views into it.  The inner product is one dot
product, and :meth:`Geometry.unpack` wraps a flat vector as a tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxBounds",
    "GeometryError",
    "Geometry",
    "Manifold",
    "ProductPoint",
    "ProductTangent",
    "Sphere",
    "SpecialOrthogonal",
    "Stiefel",
]


_NO_INDEX = np.zeros(0, dtype=np.intp)


class GeometryError(ValueError):
    """Raised when a geometric operation leaves its domain of validity."""


# ---------------------------------------------------------------------------
# Box bounds


@dataclass(frozen=True)
class BoxBounds:
    """Componentwise bounds ``lower <= x <= upper``; entries may be infinite.

    Lower bounds live in ``[-inf, inf)`` and upper bounds in ``(-inf, inf]``.
    A zero-length box is valid and denotes an absent Euclidean factor.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if (lower == np.inf).any() or (upper == -np.inf).any():
            raise ValueError("lower bounds must be < +inf and upper bounds > -inf")
        if (lower > upper).any():
            raise ValueError("lower bounds must not exceed upper bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "n", lower.shape[0])  # read on every geometry call

    def clamp(self, x: np.ndarray) -> np.ndarray:
        """Clip ``x`` componentwise into ``[lower, upper]``, with the bits of ``np.clip``."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            raise ValueError(f"expected vector of length {self.n}, got shape {x.shape}")
        return np.minimum(np.maximum(x, self.lower), self.upper, out=np.empty(x.shape))

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def violation(self, x: np.ndarray) -> float:
        """Largest bound breach of ``x`` (0.0 when feasible)."""
        if self.n == 0:
            return 0.0
        x = np.asarray(x, dtype=float)
        below = np.where(np.isfinite(self.lower), self.lower - x, -np.inf)
        above = np.where(np.isfinite(self.upper), x - self.upper, -np.inf)
        return float(max(0.0, np.max(below), np.max(above)))

    @staticmethod
    def unbounded(n: int) -> "BoxBounds":
        return BoxBounds(np.full(n, -np.inf), np.full(n, np.inf))

    @staticmethod
    def empty() -> "BoxBounds":
        return BoxBounds(np.zeros(0), np.zeros(0))


# ---------------------------------------------------------------------------
# Points and tangent vectors on the product


@dataclass
class ProductPoint:
    """A point ``(x_D, p_M)``: box coordinates plus an optional manifold part."""

    euclidean: np.ndarray
    manifold: np.ndarray | None = None

    def __post_init__(self):
        self.euclidean = np.atleast_1d(np.asarray(self.euclidean, dtype=float))
        if self.manifold is not None:
            self.manifold = np.asarray(self.manifold, dtype=float)

    def copy(self) -> "ProductPoint":
        m = None if self.manifold is None else self.manifold.copy()
        return ProductPoint(self.euclidean.copy(), m)

    def _layout(self) -> tuple[int, int]:
        n = self.euclidean.shape[0]
        return n, n + (0 if self.manifold is None else self.manifold.size)


class ProductTangent:
    """A tangent vector ``(v_D, X_M)`` at some product point, stored packed.

    :attr:`data` is one flat array: the box coordinates, then the raveled
    manifold part.  :attr:`euclidean` and :attr:`manifold` are views into it,
    built on each access, so writes through them reach ``data``.
    """

    __slots__ = ("data", "_n", "_shape")

    def __init__(self, euclidean, manifold=None):
        eu = np.atleast_1d(np.asarray(euclidean, dtype=float))
        self.data = np.concatenate([eu] if manifold is None else [eu, np.ravel(manifold)])
        self._n = eu.shape[0]
        self._shape = None if manifold is None else np.shape(manifold)

    @classmethod
    def _wrap(cls, data: np.ndarray, n: int, shape: tuple[int, ...] | None) -> "ProductTangent":
        """A tangent over the flat ``data`` itself, without copying it."""
        x = cls.__new__(cls)
        x.data, x._n, x._shape = data, n, shape
        return x

    @property
    def euclidean(self) -> np.ndarray:
        return self.data[: self._n]

    @property
    def manifold(self) -> np.ndarray | None:
        return None if self._shape is None else self.data[self._n :].reshape(self._shape)

    def __repr__(self) -> str:
        return f"ProductTangent(euclidean={self.euclidean!r}, manifold={self.manifold!r})"

    def _layout(self) -> tuple[int, int]:
        return self._n, self.data.size

    def copy(self) -> "ProductTangent":
        return self._wrap(self.data.copy(), self._n, self._shape)

    def __add__(self, other: "ProductTangent") -> "ProductTangent":
        return self._wrap(self.data + other.data, self._n, self._shape)

    def __sub__(self, other: "ProductTangent") -> "ProductTangent":
        return self._wrap(self.data - other.data, self._n, self._shape)

    def __mul__(self, a: float) -> "ProductTangent":
        return self._wrap(a * self.data, self._n, self._shape)

    __rmul__ = __mul__

    def __neg__(self) -> "ProductTangent":
        return self * -1.0


# ---------------------------------------------------------------------------
# Manifold factors


def _qf(a: np.ndarray) -> np.ndarray:
    """Q factor of the reduced QR decomposition, sign-fixed so diag(R) > 0."""
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.swapaxes(-1, -2)) / 2.0


class Manifold:
    """Operations a manifold factor must supply to the product geometry.

    Points and tangents are arrays of shape :attr:`shape`.  The metric is the
    one induced by the Euclidean embedding (the plain Frobenius dot product),
    so the product geometry evaluates it itself.  ``transport`` and
    ``project_tangent`` also accept tangents with leading batch axes, and
    ``transport`` takes ``q = retract(p, x)`` when the caller already has it.

    :attr:`isometric` declares that ``transport`` is an isometry of the
    tangent space: ``<T u, T v> = <u, v>`` for all tangents ``u, v`` at ``p``.
    The L-BFGS memory then keeps its Gram matrix, scaling and middle matrix
    across a transport instead of recomputing them, so set it only for a
    transport that preserves inner products up to roundoff.
    """

    #: Conservative bound on the usable step length (injectivity radius).
    max_stepsize: float = np.inf
    #: ``transport`` is an isometry of the tangent space.
    isometric: bool = False
    #: Array shape of a point or tangent vector.
    shape: tuple[int, ...] = ()

    def retract(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse_retract(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def transport(self, p: np.ndarray, x: np.ndarray, v: np.ndarray, q=None) -> np.ndarray:
        raise NotImplementedError

    def project_tangent(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def membership_residual(self, p: np.ndarray) -> float:
        raise NotImplementedError

    def tangency_residual(self, p: np.ndarray, x: np.ndarray) -> float:
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def random_tangent(self, p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class Sphere(Manifold):
    """Unit sphere ``S^{d-1}`` embedded in ``R^d``; exact geodesic operations."""

    max_stepsize = math.pi
    isometric = True  # parallel transport

    def __init__(self, ambient_dim: int):
        if ambient_dim < 2:
            raise ValueError("sphere needs ambient dimension >= 2")
        self.ambient_dim = int(ambient_dim)
        self.shape = (self.ambient_dim,)

    def retract(self, p, x):
        theta = float(np.linalg.norm(x))
        if theta == 0.0:
            return p.copy()
        return math.cos(theta) * p + math.sin(theta) / theta * x

    def inverse_retract(self, p, q):
        c = float(np.clip(np.dot(p, q), -1.0, 1.0))
        if c <= -1.0 + 1e-12:
            raise GeometryError("logarithm undefined for antipodal points")
        u = q - c * p
        nu = float(np.linalg.norm(u))
        if nu < 1e-15:
            return np.zeros_like(p)
        return math.acos(c) * u / nu

    def transport(self, p, x, v, q=None):
        # Parallel transport along the geodesic t -> exp_p(t x); q is not needed.
        theta = float(np.linalg.norm(x))
        if theta == 0.0:
            return v.copy()
        u = x / theta
        return v + np.multiply.outer(v @ u, (math.cos(theta) - 1.0) * u - math.sin(theta) * p)

    def project_tangent(self, p, v):
        return v - np.multiply.outer(v @ p, p)

    def membership_residual(self, p):
        return abs(float(np.linalg.norm(p)) - 1.0)

    def tangency_residual(self, p, x):
        return abs(float(np.dot(p, x)))

    def random_point(self, rng):
        v = rng.standard_normal(self.ambient_dim)
        return v / np.linalg.norm(v)

    def random_tangent(self, p, rng):
        return self.project_tangent(p, rng.standard_normal(self.ambient_dim))


def _qr_inverse_retract_cols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Invert the QR retraction for orthonormal-columns matrices.

    Finds the tangent ``v`` at ``x`` with ``qf(x + v) = y`` by solving
    ``A R + (A R)^T = 2 I`` (``A = x^T y``) for an upper-triangular ``R``
    with positive diagonal, then ``v = y R - x``.  ``R`` is solved one column
    at a time: column ``j`` satisfies the leading ``j + 1`` rows of the
    equation, ``A[:j+1, :j+1] r = [-(A R)[j, :j], 1]``, whose right-hand side
    involves only the earlier columns (Kaneko, Fiori and Tanaka, 2013).
    """
    k = x.shape[1]
    a = x.T @ y
    if abs(np.linalg.det(a)) < 1e-12:
        raise GeometryError("points outside the retraction's invertibility region")
    r = np.zeros((k, k))
    for j in range(k):
        rhs = np.append(-(a[j] @ r[:, :j]), 1.0)
        try:
            r[: j + 1, j] = np.linalg.solve(a[: j + 1, : j + 1], rhs)
        except np.linalg.LinAlgError:
            raise GeometryError("points outside the retraction's invertibility region") from None
    if np.any(np.diag(r) <= 0):
        raise GeometryError("points outside the retraction's invertibility region")
    return y @ r - x


class Stiefel(Manifold):
    """Matrices ``W`` of shape ``k x r`` with orthonormal rows (``W W^T = I``).

    Retraction is the QR retraction (applied to the transpose, which has
    orthonormal columns); vector transport projects onto the tangent space
    at the target point.
    """

    max_stepsize = math.pi

    def __init__(self, k: int, r: int):
        if not 1 <= k <= r:
            raise ValueError("Stiefel(k, r) requires 1 <= k <= r")
        self.k = int(k)
        self.r = int(r)
        self.shape = (self.k, self.r)

    def retract(self, p, x):
        return _qf((p + x).T).T

    def inverse_retract(self, p, q):
        return _qr_inverse_retract_cols(p.T, q.T).T

    def transport(self, p, x, v, q=None):
        return self.project_tangent(self.retract(p, x) if q is None else q, v)

    def project_tangent(self, p, v):
        return v - _sym(v @ p.T) @ p

    def membership_residual(self, p):
        return float(np.max(np.abs(p @ p.T - np.eye(self.k))))

    def tangency_residual(self, p, x):
        return float(np.max(np.abs(_sym(x @ p.T))))

    def random_point(self, rng):
        return _qf(rng.standard_normal((self.r, self.k))).T

    def random_tangent(self, p, rng):
        return self.project_tangent(p, rng.standard_normal((self.k, self.r)))


class SpecialOrthogonal(Stiefel):
    """Rotation matrices ``SO(r)``: orthogonal with determinant one.

    The QR retraction keeps the determinant-one component: a tangent step
    ``Q Omega`` (skew ``Omega``) gives ``det(Q + Q Omega) = det(I + Omega) > 0``.
    """

    def __init__(self, r: int):
        if r < 2:
            raise ValueError("SO(r) requires r >= 2")
        super().__init__(r, r)

    def membership_residual(self, p):
        ortho = float(np.max(np.abs(p.T @ p - np.eye(self.r))))
        return max(ortho, abs(float(np.linalg.det(p)) - 1.0))

    def random_point(self, rng):
        q = _qf(rng.standard_normal((self.r, self.r)))
        if np.linalg.det(q) < 0:
            q = q.copy()
            q[:, 0] = -q[:, 0]
        return q


# ---------------------------------------------------------------------------
# Product geometry


@dataclass(frozen=True)
class Geometry:
    """Product of a box with an optional manifold, under the product metric."""

    box: BoxBounds
    manifold: Manifold | None = None

    # -- validation helpers

    def _check(self, *items: ProductPoint | ProductTangent) -> None:
        """Raise unless each point or tangent has exactly this geometry's factors."""
        n = self.box.n
        width = n if self.manifold is None else n + math.prod(self.manifold.shape)
        for x in items:
            xn, xwidth = x._layout()
            if xn != n:
                raise ValueError(f"{type(x).__name__} has {xn} box coordinates, expected {n}")
            if xwidth != width:
                raise ValueError(f"{type(x).__name__} manifold part does not match the geometry")

    # -- metric

    def inner(self, p: ProductPoint, x: ProductTangent, y: ProductTangent) -> float:
        self._check(x, y)
        return float(x.data @ y.data)

    def norm(self, p: ProductPoint, x: ProductTangent) -> float:
        # max(nan, 0.0) is nan: a NaN tangent must not read as zero length.
        return math.sqrt(max(self.inner(p, x, x), 0.0))

    # -- retraction machinery

    def retract(self, p: ProductPoint, x: ProductTangent) -> ProductPoint:
        """Move from ``p`` along ``x``.

        The box part is the translation ``p + x``; callers guarantee
        feasibility of the step, and the clamp below only absorbs
        floating-point drift so iterates never leave the box.
        """
        self._check(p, x)
        eu = self.box.clamp(p.euclidean + x.euclidean) if self.box.n else p.euclidean.copy()
        m = None
        if self.manifold is not None:
            m = self.manifold.retract(p.manifold, x.manifold)
        return ProductPoint(eu, m)

    def inverse_retract(self, p: ProductPoint, q: ProductPoint) -> ProductTangent:
        self._check(p, q)
        m = None
        if self.manifold is not None:
            m = self.manifold.inverse_retract(p.manifold, q.manifold)
        return ProductTangent(q.euclidean - p.euclidean, m)

    def transport(
        self, p: ProductPoint, x: ProductTangent, rows: np.ndarray, q: ProductPoint | None = None
    ) -> None:
        """In place, carry the packed tangents ``rows[..., :]`` to ``q = retract(p, x)``.

        Pass ``q`` when it is known, so that it is not retracted again.  Box
        columns stay; the manifold parts of all rows move in one batched call.
        """
        if self.manifold is not None:
            part = rows[..., self.box.n :]
            batch = part.reshape(part.shape[:-1] + self.manifold.shape)
            target = None if q is None else q.manifold
            moved = self.manifold.transport(p.manifold, x.manifold, batch, target)
            part[...] = moved.reshape(part.shape)

    def bound_faces(self, p: ProductPoint) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the box coordinates of ``p`` on their lower and on their upper bound."""
        if not self.box.n:
            return _NO_INDEX, _NO_INDEX
        x = p.euclidean
        return (x == self.box.lower).nonzero()[0], (x == self.box.upper).nonzero()[0]

    @staticmethod
    def outward(faces: tuple[np.ndarray, np.ndarray], x: ProductTangent) -> np.ndarray:
        """Sorted indices, among the :meth:`bound_faces`, of box components of ``x`` leaving."""
        lower, upper = faces
        if not (lower.size or upper.size):
            return lower
        v = x.euclidean  # a fixed coordinate is on both faces, and leaves by at most one
        out = np.concatenate((lower[v[lower] < 0.0], upper[v[upper] > 0.0]))
        out.sort()
        return out

    def project_tangent_cone(self, p: ProductPoint, x: ProductTangent) -> ProductTangent:
        """Zero the box components pointing out of the box at active bounds (:meth:`outward`)."""
        self._check(p, x)
        out = x.copy()
        out.euclidean[self.outward(self.bound_faces(p), x)] = 0.0
        return out

    def max_stepsize(self, p: ProductPoint | None = None) -> float:
        """Largest safe step along any direction (minimum over the factors)."""
        return np.inf if self.manifold is None else float(self.manifold.max_stepsize)

    def unpack(self, v: np.ndarray) -> ProductTangent:
        """The tangent whose :attr:`ProductTangent.data` is the flat ``v``, not a copy."""
        shape = None if self.manifold is None else self.manifold.shape
        return ProductTangent._wrap(v, self.box.n, shape)

    # -- constructors and checks

    def zero_tangent(self, p: ProductPoint) -> ProductTangent:
        m = None if self.manifold is None else np.zeros_like(p.manifold)
        return ProductTangent(np.zeros(self.box.n), m)

    def random_point(self, rng: np.random.Generator) -> ProductPoint:
        lo = np.where(np.isfinite(self.box.lower), self.box.lower, -2.0)
        hi = np.where(np.isfinite(self.box.upper), self.box.upper, 2.0)
        hi = np.maximum(hi, lo)
        eu = lo + (hi - lo) * rng.random(self.box.n)
        m = None if self.manifold is None else self.manifold.random_point(rng)
        return ProductPoint(eu, m)

    def random_tangent(self, p: ProductPoint, rng: np.random.Generator) -> ProductTangent:
        eu = rng.standard_normal(self.box.n)
        m = None
        if self.manifold is not None:
            m = self.manifold.random_tangent(p.manifold, rng)
        return ProductTangent(eu, m)

    def is_feasible(self, p: ProductPoint) -> bool:
        """Exactly inside the box, and on the manifold to within ``1e-8``."""
        self._check(p)
        ok = self.box.contains(p.euclidean)
        if ok and self.manifold is not None:
            ok = self.manifold.membership_residual(p.manifold) <= 1e-8
        return ok

    def membership_residual(self, p: ProductPoint) -> float:
        res = self.box.violation(p.euclidean)
        if self.manifold is not None:
            res = max(res, self.manifold.membership_residual(p.manifold))
        return res

    def tangency_residual(self, p: ProductPoint, x: ProductTangent) -> float:
        if self.manifold is None:
            return 0.0
        return self.manifold.tangency_residual(p.manifold, x.manifold)
