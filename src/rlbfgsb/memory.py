"""Limited-memory BFGS operator in compact form over packed product tangents.

The Hessian approximation is never materialized.  It is represented by up to
``capacity`` stored pairs ``(s_i, y_i)`` (step and gradient difference, both
tangent at the current iterate), a positive scaling ``theta``, and a small
``2 mu x 2 mu`` "middle matrix" ``M``:

    <X, H[Y]> = theta <X, Y> - W(X)^T  M  W(Y)

with the coefficient map ``W(X) = [<y_i, X>; theta <s_i, X>]`` (the y-half
first, then the theta-scaled s-half).
``M`` is the inverse of the block matrix ``[[-D, L^T], [L, Q]]`` where
``D = diag(<s_i, y_i>)``, ``Q = theta [<s_i, s_j>]`` and ``L`` is the strictly
lower triangular part of ``[<s_i, y_j>]``.  The inverse is assembled from the
inverse of the Schur complement ``Q + L D^{-1} L^T``, which is symmetric
positive definite whenever the pairs pass the curvature test; its extreme
eigenvalues decide whether ``M`` is usable.

The pairs are the rows of two ``(mu, N)`` arrays ``S`` and ``Y`` of packed
tangents (:attr:`ProductTangent.data`), oldest first.  The Gram blocks are
``S S^T`` and ``S Y^T``.  :class:`LbfgsMemory` alone knows the coefficient
layout: :meth:`~LbfgsMemory.coefficients` maps a flat tangent to
``W X = [Y X.data; theta S X.data]``, :meth:`~LbfgsMemory.basis_coefficients`
gives column ``b`` of ``W`` (the coefficients of the basis vector ``e_b``),
and :meth:`~LbfgsMemory.bilinear` evaluates ``a^T M b``.  An empty memory
maps everything to the empty vector, so ``<X, H[Y]>`` is ``theta <X, Y>``.

The inverse operator ``B = H^{-1}`` is applied with the classical two-loop
recursion seeded with ``(1/theta) Id``; by the standard duality of the BFGS
and inverse-BFGS updates the two representations are exact inverses of each
other, which the test-suite checks against dense oracles.

Between outer iterations the pairs, the step and the old gradient (in a
spare row) are carried to the accepted point by vector transport: the
identity on the box, one batched call for the manifold columns.  Pairs whose
curvature ``<s, y> >= eps ||y||^2`` the transport destroys are discarded,
which keeps the operator positive definite; :func:`make_pair` forms the new
pair from the spare row.  Transport leaves ``M`` stale; the following
:meth:`LbfgsMemory.push` rebuilds it once, and any read before that does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Geometry, ProductPoint, ProductTangent

__all__ = ["LbfgsMemory", "MemoryPair", "SingularMiddleMatrix", "make_pair"]

# Cutoff on the 2-norm condition number of the Schur complement above which
# the middle matrix is declared unusable.
_COND_LIMIT = 1e14


class SingularMiddleMatrix(RuntimeError):
    """Middle-matrix factorization failed; the caller should reset the memory."""


@dataclass(frozen=True)
class MemoryPair:
    """A copy of one stored update pair, tangent at the current iterate."""

    s: ProductTangent
    y: ProductTangent
    sy: float


def make_pair(
    geom: Geometry, memory: "LbfgsMemory", grad_new: ProductTangent
) -> tuple[ProductTangent, ProductTangent]:
    """``s = T(step)`` and ``y = grad_new - T(grad_old)`` from the last transport.

    Both are tangent at the new point, where ``grad_new`` must already live;
    ``s`` copies the carried row and ``y`` is one difference of flat vectors.
    """
    step, grad_old = memory.carried
    return geom.unpack(step.copy()), geom.unpack(grad_new.data - grad_old)


class LbfgsMemory:
    """FIFO store of curvature pairs plus the derived compact-form data."""

    def __init__(self, capacity: int = 10, curvature_eps: float = 1e-8):
        if capacity < 1:
            raise ValueError("memory capacity must be >= 1")
        if curvature_eps <= 0:
            raise ValueError("curvature_eps must be positive")
        self.capacity = int(capacity)
        self.curvature_eps = float(curvature_eps)
        self.theta = 1.0
        self._geom: Geometry | None = None
        # _rows[i] is the pair (s_i, y_i); the first _size rows are live, and
        # row _size carries the step and old gradient through transport.
        self._rows = np.zeros((self.capacity + 1, 2, 0))
        self._sy = np.zeros(self.capacity)
        self._size = 0
        self._middle = np.zeros((0, 0))
        self._stale = False  # pairs or theta changed since _middle was built

    @property
    def size(self) -> int:
        return self._size

    @property
    def S(self) -> np.ndarray:
        """Stored steps as packed rows, oldest first (a view)."""
        return self._rows[: self._size, 0]

    @property
    def Y(self) -> np.ndarray:
        """Stored gradient differences as packed rows, oldest first (a view)."""
        return self._rows[: self._size, 1]

    @property
    def carried(self) -> np.ndarray:
        """Step and old gradient as the last :meth:`transport` moved them (a view)."""
        return self._rows[self._size]

    @property
    def sy(self) -> np.ndarray:
        """Curvatures ``<s_i, y_i>`` (a view)."""
        return self._sy[: self._size]

    @property
    def pairs(self) -> list[MemoryPair]:
        """Copies of the stored pairs as product tangents, oldest first."""
        return [
            MemoryPair(self._geom.unpack(s.copy()), self._geom.unpack(y.copy()), float(sy))
            for s, y, sy in zip(self.S, self.Y, self.sy)
        ]

    def reset(self) -> None:
        """Drop all pairs and fall back to the identity scaling."""
        self._size = 0
        self.theta = 1.0
        self._middle = np.zeros((0, 0))
        self._stale = False

    # ------------------------------------------------------------------
    # Updates

    def _passes_curvature(self, sy, yy):
        return (yy > 0.0) & (sy >= self.curvature_eps * yy)

    def _fit(self, geom: Geometry, width: int) -> None:
        """Size the rows for packed tangents of ``width``; a new width drops all pairs."""
        if self._rows.shape[2] != width:
            self._rows = np.zeros((self.capacity + 1, 2, width))
            self._size = 0
        self._geom = geom

    def push(
        self, geom: Geometry, p: ProductPoint, s: ProductTangent, y: ProductTangent
    ) -> bool:
        """Admit ``(s.data, y.data)``; returns False when the curvature test rejects it.

        On acceptance they are copied into the rows, the oldest pair is
        evicted if the memory is full, the scaling becomes ``<y, y> / <s, y>``
        of the new pair, and the middle matrix is rebuilt.  A rejection
        rebuilds it only when a preceding :meth:`transport` left it stale.
        Either rebuild raises :class:`SingularMiddleMatrix` when the pairs are
        numerically singular.
        """
        sv, yv = s.data, y.data
        sy, yy = float(sv @ yv), float(yv @ yv)
        if not self._passes_curvature(sy, yy):
            if self._stale:
                self._refresh_middle()
            return False
        self._fit(geom, sv.size)
        if self._size == self.capacity:
            self._rows[:-1] = self._rows[1:]
            self._sy[:-1] = self._sy[1:]
            self._size -= 1
        self._rows[self._size] = sv, yv
        self._sy[self._size] = sy
        self._size += 1
        self.theta = yy / sy
        self._refresh_middle()
        return True

    def transport(
        self,
        geom: Geometry,
        p_old: ProductPoint,
        step: ProductTangent,
        grad_old: ProductTangent,
        p_new: ProductPoint | None = None,
    ) -> int:
        """Carry the pairs, ``step`` and ``grad_old`` to ``p_new = retract(p_old, step)``.

        ``step`` and ``grad_old`` move in the spare row, in the same batched
        call, and stay readable as :attr:`carried` until the next
        :meth:`push`; pass ``p_new`` when it is known, so it is not retracted
        again.  Pairs whose curvature the transport destroys are discarded;
        returns how many were dropped.  The scaling is reset from the newest
        survivor, and the middle matrix is left stale for :meth:`push` (or a
        read) to rebuild, so pairs that are numerically singular only until
        ``push`` evicts or adds one raise no :class:`SingularMiddleMatrix`.
        """
        sv = step.data
        self._fit(geom, sv.size)
        n = self._size
        self._rows[n] = sv, grad_old.data
        geom.transport(p_old, step, self._rows[: n + 1], p_new)
        if not n or geom.manifold is None:
            return 0
        S, Y = self.S, self.Y
        sy = np.einsum("ij,ij->i", S, Y)
        yy = np.einsum("ij,ij->i", Y, Y)
        keep = np.flatnonzero(self._passes_curvature(sy, yy))
        dropped = n - keep.size
        if dropped:
            self._rows[: keep.size + 1] = self._rows[np.append(keep, n)]
        self._size = keep.size
        self._sy[: keep.size] = sy[keep]
        self.theta = float(yy[keep[-1]] / sy[keep[-1]]) if keep.size else 1.0
        self._stale = True
        return dropped

    # ------------------------------------------------------------------
    # Compact representation

    def _refresh_middle(self) -> None:
        """Rebuild the middle matrix from the stored pairs and ``theta``.

        The Schur complement counts as singular when it is not finite, not
        positive definite, or its condition number exceeds ``_COND_LIMIT``.
        It is symmetric, so that number is the ratio of its extreme
        eigenvalues, taken from one symmetric eigenvalue solve rather than
        a singular value decomposition.  A cheaper Cholesky pivot ratio is
        only a lower bound and can miss the cutoff by orders of magnitude.
        """
        mu = self._size
        if mu == 0:
            self._middle = np.zeros((0, 0))
            self._stale = False
            return
        S, Y, d = self.S, self.Y, self.sy
        q = self.theta * (S @ S.T)
        low = np.tril(S @ Y.T, -1)

        # Inverse of [[-D, L^T], [L, Q]] from the inverse of the Schur
        # complement Q + L D^{-1} L^T.
        ld = low / d[None, :]
        schur = q + ld @ (d[:, None] * ld.T)
        eigs = np.linalg.eigvalsh(schur) if np.all(np.isfinite(schur)) else None
        if eigs is None or not eigs[0] > 0.0 or eigs[-1] > _COND_LIMIT * eigs[0]:
            raise SingularMiddleMatrix(
                "middle matrix is numerically singular; memory must be reset"
            )
        schur_inv = np.linalg.inv(schur)
        top_right = ld.T @ schur_inv
        middle = np.empty((2 * mu, 2 * mu))
        middle[:mu, :mu] = top_right @ ld
        middle[np.arange(mu), np.arange(mu)] -= 1.0 / d
        middle[:mu, mu:] = top_right
        middle[mu:, :mu] = top_right.T
        middle[mu:, mu:] = schur_inv
        self._middle = (middle + middle.T) / 2.0
        self._stale = False

    def _current_middle(self) -> np.ndarray:
        if self._stale:
            self._refresh_middle()
        return self._middle

    def middle_matrix(self) -> np.ndarray:
        """The ``2 mu x 2 mu`` inverse block matrix (a copy)."""
        return self._current_middle().copy()

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """``W v = [Y v; theta S v]`` for the flat tangent ``v``; empty without pairs."""
        if not self._size:
            return np.zeros(0)
        return np.concatenate([self.Y @ v, self.theta * (self.S @ v)])

    def basis_coefficients(self, b: int) -> np.ndarray:
        """Column ``b`` of ``W``: the coefficients of the basis vector ``e_b``."""
        if not self._size:
            return np.zeros(0)
        return np.concatenate([self.Y[:, b], self.theta * self.S[:, b]])

    def bilinear(self, a: np.ndarray, b: np.ndarray) -> float:
        """``a^T M b`` for two coefficient vectors."""
        return float(a @ self._current_middle() @ b)

    def pairing(
        self, geom: Geometry, p: ProductPoint, x: ProductTangent, y: ProductTangent
    ) -> float:
        """The Hessian-form value ``<x, H[y]>``; symmetric in its arguments."""
        wx = self.coefficients(x.data)
        wy = wx if y is x else self.coefficients(y.data)
        return self.theta * float(x.data @ y.data) - self.bilinear(wx, wy)

    def basis_diag(self, b: int, n: int | None = None) -> float:
        """``<e_b, H[e_b]>`` for the box basis vector ``e_b``, without forming it."""
        if n is not None and not 0 <= b < n:
            raise IndexError(f"box coordinate {b} out of range [0, {n})")
        if b < 0:
            raise IndexError("box coordinate must be nonnegative")
        w = self.basis_coefficients(b)
        return self.theta - self.bilinear(w, w)

    # ------------------------------------------------------------------
    # Inverse operator

    def apply_inverse(
        self,
        geom: Geometry,
        p: ProductPoint,
        x: ProductTangent,
        free_mask: np.ndarray | None = None,
    ) -> ProductTangent:
        """Apply ``B = H^{-1}`` to ``x`` by the two-loop recursion.

        With ``free_mask`` (a boolean vector over the box coordinates, True
        for free ones) the recursion runs within the tangent space of the
        active boundary face: masked-out components of ``x`` and of every
        stored pair are treated as zero, pairs whose curvature does not
        survive on the face are skipped, and the scaling is taken from
        the newest surviving pair (1 when none survives).  This keeps the
        operator positive definite on the face, so the result is a descent
        direction there whenever ``x`` is the projected negative gradient.
        Without a mask every coordinate is free.  The result wraps a new
        flat vector.
        """
        w = np.ones(x.data.size)
        if free_mask is not None:
            w[: geom.box.n] = free_mask
        q = w * x.data
        if not self._size:
            return geom.unpack((1.0 / self.theta) * q)
        S, Y = self.S, self.Y
        sy = np.einsum("ij,ij,j->i", S, Y, w)
        yy = np.einsum("ij,ij,j->i", Y, Y, w)
        usable = np.flatnonzero(self._passes_curvature(sy, yy))
        theta = yy[usable[-1]] / sy[usable[-1]] if usable.size else 1.0

        alphas = np.empty(self._size)
        for i in usable[::-1]:
            alphas[i] = (S[i] @ q) / sy[i]
            q -= alphas[i] * Y[i]
            q *= w
        r = (1.0 / theta) * q
        for i in usable:
            r += (alphas[i] - (Y[i] @ r) / sy[i]) * S[i]
            r *= w
        return geom.unpack(r)
