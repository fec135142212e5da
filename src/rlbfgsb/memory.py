"""Limited-memory BFGS operator in compact form over packed product tangents.

The Hessian approximation is never materialized.  It is represented by up to
``capacity`` stored pairs ``(s_i, y_i)`` (step and gradient difference, both
tangent at the current iterate), kept as the interleaved rows
``s_0, y_0, s_1, y_1, ...`` of one ``(2 mu, N)`` block ``X`` of packed tangents
(:attr:`ProductTangent.data`), oldest first (``S`` and ``Y`` are its even and
odd rows), a positive scaling ``theta``, and two ``2 mu x 2 mu`` matrices
indexed like the rows of ``X``:

    H = theta I - X^T M X,        B = H^{-1} = gamma I + X^T K X.

The middle matrix ``M`` is the inverse of the block matrix
``[[-D, L^T], [L, theta S S^T]]`` of Byrd, Nocedal and Schnabel (1994)
(``D = diag(<s_i, y_i>)``, ``L`` the strictly lower triangular part of
``[<s_i, y_j>]``), its y-half and s-half interleaved like ``X`` and ``theta``
folded into its s rows and columns; :meth:`~LbfgsMemory.middle_matrix` maps
it back to that block order.  It is assembled from the inverse of the Schur
complement ``theta S S^T + L D^{-1} L^T``, which is symmetric positive
definite whenever the pairs pass the curvature test; its extreme eigenvalues
decide whether ``M`` is usable.  Updates only mark ``M`` stale; its first
read after them rebuilds it.  So the coefficients of a flat tangent ``v``
are ``X v`` (:meth:`~LbfgsMemory.coefficients`), those of the basis vector
``e_b`` are column ``b`` of ``X`` (:meth:`~LbfgsMemory.basis_coefficients`),
:meth:`~LbfgsMemory.bilinear` evaluates ``a^T M b``, and an empty memory
maps everything to the empty vector.

``B`` has ``gamma = 1 / theta`` and a kernel ``K`` made of ``R^{-1}``,
``D`` and ``Y Y^T`` with ``R = triu(S Y^T)``; it is the exact inverse of the
Hessian form, which the test-suite checks against dense oracles.  ``K`` is
never assembled: a free face applies it as a few small products with a
cached ``R^{-1}``.  :meth:`~LbfgsMemory.push` borders that cache with the new
pair's column (column-by-column triangular inversion), an eviction keeps its
trailing block (the inverse of the trailing block of ``R``), ``reset``
empties it, and a transport that recomputes the Gram matrix (one that is not
an isometry) marks it stale, so the next free face rebuilds it with one
inversion.  On a face with box coordinates masked out ``B`` is the exact
inverse of ``H`` restricted to the face, one solve of a ``2 mu x 2 mu``
system: one model on every face.

Every inner product between stored rows is read from a cached Gram matrix
``X X^T``.  Its part over the box columns is cached too, because transport,
the identity on the box, leaves it unchanged.  The two are stacked, so one
store updates both: a transport by an isometry (the box alone, or a
manifold whose :attr:`~rlbfgsb.geometry.Manifold.isometric` is set) keeps
them, any other transport recomputes only the manifold columns' products,
:meth:`~LbfgsMemory.push` adds only the new pair's rows and columns, and an
eviction shifts these small matrices, not the rows.  The
rows live in a window of ``2 capacity + 1`` slots: an eviction only advances
the window's start, so ``X`` stays one contiguous block, and the live block
is copied back to the front once every ``capacity + 1`` evictions.

Between outer iterations the pairs, the step and the old gradient (in the
slot after the newest pair) are carried to the accepted point by vector
transport: the identity on the box, one batched call for the manifold
columns.  An isometric transport changes no curvature, so the pairs, the
scaling and the middle matrix stand.  After any other transport, pairs that
fail the curvature test (``<s, y> > 0`` and ``<s, y> >= eps ||y||^2``) are
discarded, which keeps the operator positive definite.  :func:`make_pair`
forms the new pair from the carried slot.
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
        # Slot _start + i holds the pair (s_i, y_i) for i < _size; the slot
        # after the newest pair carries the step and old gradient through
        # transport.  _flat views the slots as the interleaved rows of X.
        self._allocate(0)
        self._start = 0
        self._size = 0
        # Gram matrices of X over the box columns and over all columns,
        # stacked so that one store updates both; the leading 2 _size rows
        # and columns are live, the next two take a candidate pair.
        self._grams = np.zeros((2,) + (2 * self.capacity + 2,) * 2)
        self._gram_box, self._gram = self._grams
        self._strict_lower = np.tri(self.capacity, k=-1, dtype=bool)
        self._upper = ~self._strict_lower
        self._stale = True  # pairs or theta changed since _middle was built
        # R^{-1} for R = triu(S Y^T); the leading _size rows and columns are
        # live, the next row and column take a candidate pair.  Its strictly
        # lower part stays zero: every store keeps the block triangular.
        self._r_inv = np.zeros((self.capacity + 1, self.capacity + 1))
        self._r_inv_stale = False  # the Gram matrix changed since _r_inv was built
        self.inverse_coefficients = np.zeros(0)  # X r for the last result r of apply_inverse

    @property
    def size(self) -> int:
        return self._size

    @property
    def _live(self) -> np.ndarray:
        """The interleaved rows ``s_0, y_0, s_1, ...`` of the stored pairs (a view)."""
        return self._flat[2 * self._start : 2 * (self._start + self._size)]

    @property
    def S(self) -> np.ndarray:
        """Stored steps as packed rows, oldest first (a view)."""
        return self._live[0::2]

    @property
    def Y(self) -> np.ndarray:
        """Stored gradient differences as packed rows, oldest first (a view)."""
        return self._live[1::2]

    @property
    def carried(self) -> np.ndarray:
        """Step and old gradient as the last :meth:`transport` moved them (a view)."""
        return self._rows[self._start + self._size]

    @property
    def sy(self) -> np.ndarray:
        """Curvatures ``<s_i, y_i>``, read off the Gram matrix (a view)."""
        return self._gram.diagonal(1)[: 2 * self._size : 2]

    @property
    def _yy(self) -> np.ndarray:
        """Squared norms ``<y_i, y_i>``, read off the Gram matrix (a view)."""
        return self._gram.diagonal()[1 : 2 * self._size : 2]

    @property
    def pairs(self) -> list[MemoryPair]:
        """Copies of the stored pairs as product tangents, oldest first."""
        return [
            MemoryPair(self._geom.unpack(s.copy()), self._geom.unpack(y.copy()), float(sy))
            for s, y, sy in zip(self.S, self.Y, self.sy)
        ]

    def reset(self) -> None:
        """Drop all pairs and fall back to the identity scaling."""
        self._start = 0
        self._size = 0
        self.theta = 1.0
        self._stale = True
        self._r_inv_stale = False  # an empty R^{-1} is current

    # ------------------------------------------------------------------
    # Updates

    def _passes_curvature(self, sy, yy):
        # sy > 0 also rejects a pair whose curvature_eps * yy underflows to 0
        return (yy > 0.0) & (sy > 0.0) & (sy >= self.curvature_eps * yy)

    def _fit(self, geom: Geometry, width: int) -> None:
        """Size the rows for packed tangents of ``width``; a new width resets the memory."""
        if self._rows.shape[2] != width:
            self._allocate(width)
            self.reset()
        self._geom = geom

    def _allocate(self, width: int) -> None:
        self._rows = np.zeros((2 * self.capacity + 1, 2, width))
        self._flat = self._rows.reshape(2 * len(self._rows), width)

    def push(
        self, geom: Geometry, p: ProductPoint, s: ProductTangent, y: ProductTangent
    ) -> bool:
        """Admit ``(s.data, y.data)``; returns False when the curvature test rejects it.

        The pair is written to the slot after the newest one, and its Gram
        row and column are formed there, so its curvature is read off the
        Gram matrix.  On acceptance the oldest pair is evicted if the memory
        is full, the scaling becomes ``<y, y> / <s, y>`` of the new pair, and
        the middle matrix is marked stale; the next read rebuilds it.  A
        current ``R^{-1}`` gains the new column ``-R^{-1} r / rho`` over the
        diagonal entry ``1 / rho``, with ``r = [<s_i, y>]`` from the new Gram
        column and ``rho = <s, y>``; a stale one stays stale.
        """
        self._fit(geom, s.data.size)
        m, slot = 2 * self._size, self._start + self._size
        self._rows[slot, 0], self._rows[slot, 1] = s.data, y.data
        x = self._flat[2 * self._start : 2 * slot + 2]
        nb = geom.box.n
        col = np.empty((2, m + 2, 2))  # the new columns of the box and the full Gram
        col[0] = x[:, :nb] @ x[m:, :nb].T
        col[1] = col[0] + x[:, nb:] @ x[m:, nb:].T
        col[:, m + 1, 0] = col[:, m, 1]  # one value for <s, y>, so the Grams stay symmetric
        self._grams[:, : m + 2, m : m + 2] = col
        self._grams[:, m : m + 2, : m + 2] = col.transpose(0, 2, 1)
        sy, yy = col[1, m, 1], col[1, m + 1, 1]
        if not self._passes_curvature(sy, yy):
            return False
        if not self._r_inv_stale:
            mu, inv_sy = self._size, 1.0 / float(sy)
            r_inv = self._r_inv
            r_inv[:mu, mu] = (r_inv[:mu, :mu] @ col[1, 0:m:2, 1]) * -inv_sy
            r_inv[mu, mu] = inv_sy
        self._size += 1
        if self._size > self.capacity:
            self._evict()
        self.theta = float(yy / sy)
        self._stale = True
        return True

    def _evict(self) -> None:
        """Drop the oldest pair by advancing the window; rewind it when it runs out."""
        self._start += 1
        self._size -= 1
        k = 2 * self._size
        self._grams[:, :k, :k] = self._grams[:, 2 : k + 2, 2 : k + 2]
        if not self._r_inv_stale:
            n = self._size
            self._r_inv[:n, :n] = self._r_inv[1 : n + 1, 1 : n + 1]
        if self._start + self._size == self._rows.shape[0]:
            self._rows[: self._size] = self._rows[self._start :]
            self._start = 0

    def transport(
        self,
        geom: Geometry,
        p_old: ProductPoint,
        step: ProductTangent,
        grad_old: ProductTangent,
        p_new: ProductPoint | None = None,
    ) -> int:
        """Carry the pairs, ``step`` and ``grad_old`` to ``p_new = retract(p_old, step)``.

        ``step`` and ``grad_old`` move in the slot after the newest pair, in
        the same batched call, and stay readable as :attr:`carried` until the
        next :meth:`push`; pass ``p_new`` when it is known, so it is not
        retracted again; returns how many pairs were dropped.  The box is
        moved by the identity; when the manifold's transport is isometric
        too (:attr:`Manifold.isometric`), every inner product between rows
        survives it, so the Gram matrix, the curvatures, the scaling and the
        middle matrix are kept as they are and nothing is dropped.
        Otherwise the manifold part of the Gram matrix is recomputed, pairs
        whose curvature the transport destroys are discarded, the scaling is
        reset from the newest survivor, and the middle matrix and ``R^{-1}``
        are marked stale; the next read of each rebuilds it.
        """
        self._fit(geom, step.data.size)
        n, lo = self._size, self._start
        self._rows[lo + n, 0], self._rows[lo + n, 1] = step.data, grad_old.data
        geom.transport(p_old, step, self._rows[lo : lo + n + 1], p_new)
        if not n or geom.manifold is None or geom.manifold.isometric:
            return 0
        m = 2 * n
        xm = self._live[:, geom.box.n :]
        self._gram[:m, :m] = self._gram_box[:m, :m] + xm @ xm.T
        sy, yy = self.sy, self._yy
        keep = np.flatnonzero(self._passes_curvature(sy, yy))
        self.theta = float(yy[keep[-1]] / sy[keep[-1]]) if keep.size else 1.0
        dropped = n - keep.size
        if dropped:
            self._rows[lo : lo + keep.size + 1] = self._rows[lo + np.append(keep, n)]
            idx = (2 * keep[:, None] + np.arange(2)).ravel()  # the rows s_i, y_i of X
            self._grams[:, : idx.size, : idx.size] = self._grams[:, idx[:, None], idx]
        self._size = keep.size
        self._stale = self._r_inv_stale = True
        return dropped

    # ------------------------------------------------------------------
    # Compact representation

    def _current_middle(self) -> np.ndarray:
        """The middle matrix; the one place that builds it, from the Gram matrix and ``theta``.

        The build raises :class:`SingularMiddleMatrix` when the Schur
        complement is not finite, not positive definite, or its condition
        number, the ratio of its extreme eigenvalues from one symmetric
        eigenvalue solve, exceeds ``_COND_LIMIT``.  A cheaper Cholesky pivot
        ratio is only a lower bound and can miss the cutoff by orders of
        magnitude.
        """
        if not self._stale:
            return self._middle
        mu = self._size
        if mu == 0:
            self._middle, self._stale = np.zeros((0, 0)), False
            return self._middle
        gram = self._gram[: 2 * mu, : 2 * mu]
        d = self.sy
        q = self.theta * gram[0::2, 0::2]
        low = np.where(self._strict_lower[:mu, :mu], gram[0::2, 1::2], 0.0)

        # Inverse of [[-D, L^T], [L, Q]] from the inverse of the Schur
        # complement Q + L D^{-1} L^T.
        ld = low / d[None, :]
        schur = q + ld @ (d[:, None] * ld.T)
        eigs = np.linalg.eigvalsh(schur) if np.isfinite(schur).all() else None
        if eigs is None or not eigs[0] > 0.0 or eigs[-1] > _COND_LIMIT * eigs[0]:
            raise SingularMiddleMatrix(
                "middle matrix is numerically singular; memory must be reset"
            )
        schur_inv = np.linalg.inv(schur)
        top_right = ld.T @ schur_inv
        theta = self.theta
        middle = np.empty((2 * mu, 2 * mu))  # indexed like the rows of X
        middle[1::2, 1::2] = top_right @ ld - np.diag(1.0 / d)
        middle[1::2, 0::2] = theta * top_right
        middle[0::2, 1::2] = theta * top_right.T
        middle[0::2, 0::2] = theta * theta * schur_inv
        self._middle = (middle + middle.T) / 2.0
        self._stale = False
        return self._middle

    def middle_matrix(self) -> np.ndarray:
        """The inverse of ``[[-D, L^T], [L, theta S S^T]]`` in that block order (a new array).

        The only adapter from ``M``: the y-half first, ``theta`` divided out.
        """
        middle = self._current_middle()
        order = np.r_[1 : len(middle) : 2, 0 : len(middle) : 2]
        scale = np.where(order % 2, 1.0, 1.0 / self.theta)
        return middle[order][:, order] * np.outer(scale, scale)

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """``X v`` for the flat tangent ``v``; empty without pairs."""
        if not self._size:
            return np.zeros(0)
        return self._live @ v

    def basis_coefficients(self, b) -> np.ndarray:
        """Column ``b`` of ``X``, the coefficients of ``e_b`` (a view), or the columns ``b``."""
        if not self._size:
            return np.zeros((0,) + np.shape(b))
        return self._live[:, b]

    def rows_and_middle(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """``X`` (a view) and ``M`` for a reader of many columns; ``width`` wide without pairs."""
        if not self._size:
            return np.zeros((0, width)), np.zeros((0, 0))
        return self._live, self._current_middle()

    def bilinear(self, a: np.ndarray, b: np.ndarray) -> float:
        """``a^T M b`` for two coefficient vectors, formed as ``(a^T M) b``."""
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

    @np.errstate(all="ignore")  # a non-finite result raises below
    def apply_inverse(
        self,
        geom: Geometry,
        p: ProductPoint,
        x: ProductTangent,
        active: np.ndarray | None = None,
    ) -> ProductTangent:
        """Apply ``B = H^{-1}`` to ``x`` in compact form.

        On a free face ``B = gamma I + X^T K X`` with ``gamma = 1 / theta``;
        with ``R = triu(S Y^T)``, the s-s block of ``K`` is
        ``R^{-T} (D + gamma Y Y^T) R^{-1}``, the s-y block ``-gamma R^{-T}``,
        its transpose the y-s block, and the y-y block zero (Byrd, Nocedal
        and Schnabel, 1994, Theorem 2.2).  ``K`` is not formed: with
        ``w = X q`` and ``u = R^{-1} w_s``, the coefficients ``K w`` are
        ``R^{-T} (D u + gamma Y Y^T u - gamma w_y)`` on the s rows and
        ``-gamma u`` on the y rows, read with the cached ``R^{-1}`` (see
        :meth:`push`), so no free face factors anything unless a transport
        has marked that cache stale; then it is rebuilt by one inversion.
        With ``active``, sorted indices of box coordinates, masking some out,
        ``B`` is the exact inverse of ``Z^T H Z``, the Hessian form on the
        face of the others and the manifold part, and the masked-out
        components of ``x`` and of the result are zero.  By Woodbury,
        ``B q = (q + X_F^T (theta N - F)^{-1} X q) / theta`` with
        ``N = M^{-1}`` and the face Gram matrix ``F = X_F X_F^T``; the system
        is read off the cached Gram matrix: y-y block ``-theta D - Y Y^T``,
        s-y block ``-R`` and s-s block ``S_A S_A^T`` over the active columns
        (Byrd, Lu, Nocedal and Zhu, 1995, section 5).  ``Z^T H Z`` is positive
        definite whenever ``H`` is, so the result descends on the face when
        ``x`` is the projected negative gradient.  On either face a singular
        system or a non-finite result raises :class:`SingularMiddleMatrix`,
        and no warning.  The result ``r`` wraps a new vector; ``X r`` is left in
        :attr:`inverse_coefficients`, formed from the products above in ``O(mu^2)``:
        ``gamma w + G c`` (``G = X X^T``, ``c = K w``) on a free face with a box
        (without one, no breakpoint is walked and nothing reads it: None), and
        ``(w + F z) / theta`` (``z`` the face solve) on a masked one.
        """
        q = x.data
        free = active is None or not len(active)
        if not free:
            q = q.copy()
            q[active] = 0.0
        if not self._size:
            self.inverse_coefficients = np.zeros(0)
            return geom.unpack((1.0 / self.theta) * q)
        rows, mu = self._live, self._size
        gram = self._gram[: 2 * mu, : 2 * mu]
        sy, yy = gram[0::2, 1::2], gram[1::2, 1::2]
        w = rows @ q
        if free:
            gamma = float(sy[-1, -1] / yy[-1, -1])
            if self._r_inv_stale:
                self._r_inv[:mu, :mu] = np.linalg.inv(np.where(self._upper[:mu, :mu], sy, 0.0))
                self._r_inv_stale = False
            r_inv = self._r_inv[:mu, :mu]
            u = r_inv @ w[0::2]
            c = np.empty(2 * mu)
            c[0::2] = (sy.diagonal() * u + gamma * (yy @ u) - gamma * w[1::2]) @ r_inv
            c[1::2] = -gamma * u
            r = gamma * q + c @ rows
            if not np.isfinite(r).all():
                raise SingularMiddleMatrix("free-face inverse is not finite; memory must be reset")
            self.inverse_coefficients = gamma * w + c @ gram if geom.box.n else None
            return geom.unpack(r)
        upper = np.where(self._upper[:mu, :mu], sy, 0.0)
        cols = rows[:, active]
        system = cols @ cols.T
        face = gram - system  # F = X_F X_F^T
        system[0::2, 1::2] -= upper
        system[1::2, 0::2] -= upper.T
        system[1::2, 1::2] -= yy + np.diag(self.theta * sy.diagonal())
        try:
            z = np.linalg.solve(system, w)
            r = z @ rows
            r += q
            r /= self.theta
            if not np.isfinite(r).all():
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            raise SingularMiddleMatrix("face system is singular; memory must be reset") from None
        r[active] = 0.0
        self.inverse_coefficients = (w + face @ z) / self.theta
        return geom.unpack(r)
