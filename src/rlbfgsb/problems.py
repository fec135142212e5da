"""Benchmark problems with analytic Riemannian gradients.

Three families:

- six classical bound-constrained test functions (Branin, six-hump camel,
  and four Hock-Schittkowski problems) on pure boxes;
- amplitude-limited blind source separation: reconstructed sources in a box,
  unmixing matrix on a Stiefel manifold, with a log-cosh non-Gaussianity
  penalty;
- bounded-variance common principal components: a shared rotation on SO(r)
  plus per-class diagonal variances in a box, fit by Gaussian maximum
  likelihood.

Synthetic instance generators are deterministic under a seed, and a small
CSV loader turns any class-labelled numeric table into a CPC instance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    BoxBounds,
    Geometry,
    ProductPoint,
    ProductTangent,
    SpecialOrthogonal,
    Stiefel,
)

__all__ = [
    "BssInstance",
    "CpcInstance",
    "Problem",
    "bss_problem",
    "cpc_problem",
    "euclidean_suite",
    "load_class_csv",
    "synth_bss",
    "synth_cpc",
]


@dataclass
class Problem:
    """Cost and Riemannian gradient bound to a product geometry."""

    geometry: Geometry
    cost: Callable[[ProductPoint], float]
    gradient: Callable[[ProductPoint], ProductTangent]
    name: str = ""
    reference_objective: Optional[float] = None
    initial_point: Optional[ProductPoint] = None


# ---------------------------------------------------------------------------
# Classical box-constrained test functions


def _box_problem(name, lower, upper, cost, grad, x0, ref):
    geom = Geometry(BoxBounds(np.asarray(lower, float), np.asarray(upper, float)))

    def cost_fn(p: ProductPoint) -> float:
        return float(cost(p.euclidean))

    def grad_fn(p: ProductPoint) -> ProductTangent:
        return ProductTangent(np.asarray(grad(p.euclidean), float))

    return Problem(
        geometry=geom,
        cost=cost_fn,
        gradient=grad_fn,
        name=name,
        reference_objective=ref,
        initial_point=ProductPoint(np.asarray(x0, float)),
    )


def _branin():
    a = 5.1 / (4.0 * math.pi**2)
    b = 5.0 / math.pi
    c = 10.0 * (1.0 - 1.0 / (8.0 * math.pi))

    def cost(x):
        r = x[1] - a * x[0] ** 2 + b * x[0] - 6.0
        return r**2 + c * np.cos(x[0]) + 10.0

    def grad(x):
        r = x[1] - a * x[0] ** 2 + b * x[0] - 6.0
        return [2.0 * r * (-2.0 * a * x[0] + b) - c * np.sin(x[0]), 2.0 * r]

    return _box_problem(
        "BRANIN", [-5.0, 0.0], [10.0, 15.0], cost, grad, [2.5, 7.5], 0.3978873577297384
    )


def _camel6():
    def cost(x):
        x1, x2 = x
        return (4.0 - 2.1 * x1**2 + x1**4 / 3.0) * x1**2 + x1 * x2 + (-4.0 + 4.0 * x2**2) * x2**2

    def grad(x):
        x1, x2 = x
        return [
            8.0 * x1 - 8.4 * x1**3 + 2.0 * x1**5 + x2,
            x1 - 8.0 * x2 + 16.0 * x2**3,
        ]

    return _box_problem(
        "CAMEL6", [-3.0, -1.5], [3.0, 1.5], cost, grad, [1.1, 1.1], -1.031628453489877
    )


def _hs4():
    def cost(x):
        return (x[0] + 1.0) ** 3 / 3.0 + x[1]

    def grad(x):
        return [(x[0] + 1.0) ** 2, 1.0]

    return _box_problem(
        "HS4", [1.0, 0.0], [np.inf, np.inf], cost, grad, [1.125, 0.125], 8.0 / 3.0
    )


def _hs5():
    def cost(x):
        return np.sin(x[0] + x[1]) + (x[0] - x[1]) ** 2 - 1.5 * x[0] + 2.5 * x[1] + 1.0

    def grad(x):
        c = np.cos(x[0] + x[1])
        return [c + 2.0 * (x[0] - x[1]) - 1.5, c - 2.0 * (x[0] - x[1]) + 2.5]

    ref = -(math.sqrt(3.0) / 2.0 + math.pi / 3.0)  # about -1.9132
    return _box_problem("HS5", [-1.5, -3.0], [4.0, 3.0], cost, grad, [0.0, 0.0], ref)


def _hs38():
    # Colville function on [-10, 10]^4, minimum 0 at (1, 1, 1, 1).
    def cost(x):
        x1, x2, x3, x4 = x
        return (
            100.0 * (x2 - x1**2) ** 2
            + (1.0 - x1) ** 2
            + 90.0 * (x4 - x3**2) ** 2
            + (1.0 - x3) ** 2
            + 10.1 * ((x2 - 1.0) ** 2 + (x4 - 1.0) ** 2)
            + 19.8 * (x2 - 1.0) * (x4 - 1.0)
        )

    def grad(x):
        x1, x2, x3, x4 = x
        return [
            -400.0 * x1 * (x2 - x1**2) - 2.0 * (1.0 - x1),
            200.0 * (x2 - x1**2) + 20.2 * (x2 - 1.0) + 19.8 * (x4 - 1.0),
            -360.0 * x3 * (x4 - x3**2) - 2.0 * (1.0 - x3),
            180.0 * (x4 - x3**2) + 20.2 * (x4 - 1.0) + 19.8 * (x2 - 1.0),
        ]

    return _box_problem(
        "HS38", [-10.0] * 4, [10.0] * 4, cost, grad, [-3.0, -1.0, -3.0, -1.0], 0.0
    )


def _hs45():
    def cost(x):
        return 2.0 - float(np.prod(x)) / 120.0

    def grad(x):
        g = np.empty(5)
        for i in range(5):
            g[i] = -np.prod(np.delete(x, i)) / 120.0
        return g

    return _box_problem(
        "HS45",
        [0.0] * 5,
        [1.0, 2.0, 3.0, 4.0, 5.0],
        cost,
        grad,
        [0.5, 1.0, 1.5, 2.0, 2.5],
        1.0,
    )


def euclidean_suite() -> list[Problem]:
    """The six classical box-constrained test problems, with standard starts."""
    return [_branin(), _camel6(), _hs4(), _hs5(), _hs38(), _hs45()]


# ---------------------------------------------------------------------------
# Amplitude-limited blind source separation


@dataclass
class BssInstance:
    """Observed mixtures plus the model parameters of the separation problem.

    ``sources``/``mixing`` keep the ground truth when the instance is
    synthetic; they play no role in the objective.
    """

    X: np.ndarray  # r x n observed mixtures
    lam: float
    amplitude: float
    k: int
    r: int
    n: int
    sources: Optional[np.ndarray] = None
    mixing: Optional[np.ndarray] = None

    def __post_init__(self):
        self.X = np.asarray(self.X, float)
        if self.X.shape != (self.r, self.n):
            raise ValueError(f"X must be {self.r} x {self.n}, got {self.X.shape}")
        if self.k > self.r:
            raise ValueError("number of sources k must not exceed sensors r")
        if self.lam < 0 or self.amplitude <= 0:
            raise ValueError("need lam >= 0 and amplitude > 0")


def _log_cosh(s: np.ndarray) -> np.ndarray:
    # log(cosh(s)) = |s| + log1p(exp(-2|s|)) - log 2: logaddexp(s, -s)'s stable form
    a = np.abs(s)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def bss_problem(instance: BssInstance, init_seed: int = 0) -> Problem:
    """Separation problem on ``box(+-A)^{k n} x Stiefel(k, r)``.

    The box part stores the reconstructed sources ``S`` (a ``k x n`` matrix,
    flattened row-major); the manifold part is the unmixing matrix ``W`` with
    orthonormal rows.  Cost is ``1/2 ||S - W X||^2 - lam * sum log cosh(S)``.
    """
    k, r, n = instance.k, instance.r, instance.n
    a = instance.amplitude
    lam = instance.lam
    xmat = instance.X
    manifold = Stiefel(k, r)
    geom = Geometry(
        BoxBounds(np.full(k * n, -a), np.full(k * n, a)), manifold
    )

    def cost(p: ProductPoint) -> float:
        s = p.euclidean.reshape(k, n)
        resid = s - p.manifold @ xmat
        return 0.5 * float(np.sum(resid**2)) - lam * float(np.sum(_log_cosh(s)))

    def gradient(p: ProductPoint) -> ProductTangent:
        s = p.euclidean.reshape(k, n)
        w = p.manifold
        resid = s - w @ xmat
        grad_s = resid - lam * np.tanh(s)
        grad_w = manifold.project_tangent(w, -resid @ xmat.T)
        return ProductTangent(grad_s.ravel(), grad_w)

    rng = np.random.default_rng(init_seed)
    w0 = manifold.random_point(rng)
    s0 = np.clip(w0 @ xmat, -a, a)
    x0 = ProductPoint(s0.ravel(), w0)

    return Problem(geometry=geom, cost=cost, gradient=gradient, name="BSS", initial_point=x0)


def synth_bss(
    k: int,
    r: int,
    n: int,
    amplitude: float,
    seed: int,
    lam: float = 0.1,
    noise: float = 0.01,
) -> BssInstance:
    """Random separation instance: bounded uniform sources, orthonormal mixing.

    The mixing matrix has orthonormal columns, so its transpose is a feasible
    unmixing matrix; observations get additive Gaussian noise of scale
    ``noise * amplitude``.
    """
    if min(k, r, n) < 1 or k > r:
        raise ValueError("need 1 <= k <= r and n >= 1")
    rng = np.random.default_rng(seed)
    sources = amplitude * (2.0 * rng.random((k, n)) - 1.0)
    mixing, _ = np.linalg.qr(rng.standard_normal((r, k)))
    x = mixing @ sources + noise * amplitude * rng.standard_normal((r, n))
    return BssInstance(
        X=x, lam=lam, amplitude=amplitude, k=k, r=r, n=n, sources=sources, mixing=mixing
    )


# ---------------------------------------------------------------------------
# Bounded-variance common principal components


@dataclass
class CpcInstance:
    """Per-class sample covariances with shared-component structure."""

    covariances: list[np.ndarray]
    weights: np.ndarray  # per-class sample counts n_i
    d_min: float = 0.1
    d_max: float = 10.0
    name: str = "CPC"

    def __post_init__(self):
        self.covariances = [np.asarray(s, float) for s in self.covariances]
        self.weights = np.asarray(self.weights, float)
        if len(self.covariances) < 1:
            raise ValueError("need at least one class covariance")
        r = self.covariances[0].shape[0]
        for s in self.covariances:
            if s.shape != (r, r):
                raise ValueError("all covariances must be square of equal size")
            if np.max(np.abs(s - s.T)) > 1e-10:
                raise ValueError("covariance matrices must be symmetric (within 1e-10)")
        if len(self.weights) != len(self.covariances) or np.any(self.weights <= 0):
            raise ValueError("weights must be positive, one per class")
        if not 0 < self.d_min < self.d_max:
            raise ValueError("need 0 < d_min < d_max")

    @property
    def r(self) -> int:
        return self.covariances[0].shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.covariances)


def cpc_problem(instance: CpcInstance) -> Problem:
    """Shared-rotation variance fit on ``box[d_min, d_max]^{k r} x SO(r)``.

    The box part holds the per-class diagonal variances ``D_i`` (flattened
    class by class); the manifold part is the common component matrix ``Q``.
    Cost is ``sum_i n_i (sum_j log d_ij + sum_j (Q^T S_i Q)_jj / d_ij)``.
    """
    r = instance.r
    if r < 2:
        raise ValueError("CPC needs at least two features")
    covs = instance.covariances
    weights = instance.weights
    nc = instance.n_classes
    manifold = SpecialOrthogonal(r)
    geom = Geometry(
        BoxBounds(np.full(nc * r, instance.d_min), np.full(nc * r, instance.d_max)),
        manifold,
    )

    def cost(p: ProductPoint) -> float:
        d = p.euclidean.reshape(nc, r)
        q = p.manifold
        total = 0.0
        for i in range(nc):
            diag = np.einsum("jk,jk->k", q, covs[i] @ q)  # (Q^T S_i Q)_jj
            total += weights[i] * float(np.sum(np.log(d[i]) + diag / d[i]))
        return total

    def gradient(p: ProductPoint) -> ProductTangent:
        d = p.euclidean.reshape(nc, r)
        q = p.manifold
        grad_d = np.empty_like(d)
        grad_q = np.zeros((r, r))
        for i in range(nc):
            sq = covs[i] @ q
            diag = np.einsum("jk,jk->k", q, sq)  # (Q^T S_i Q)_jj
            grad_d[i] = weights[i] * (1.0 / d[i] - diag / d[i] ** 2)
            grad_q += 2.0 * weights[i] * sq / d[i][None, :]
        return ProductTangent(grad_d.ravel(), manifold.project_tangent(q, grad_q))

    # Spectral start: eigenbasis of the pooled covariance, det fixed to +1,
    # variances clipped into the box.
    pooled = sum(w * s for w, s in zip(weights, covs)) / float(np.sum(weights))
    _, q0 = np.linalg.eigh(pooled)
    if np.linalg.det(q0) < 0:
        q0 = q0.copy()
        q0[:, 0] = -q0[:, 0]
    d0 = np.empty((nc, r))
    for i in range(nc):
        d0[i] = np.clip(np.diag(q0.T @ covs[i] @ q0), instance.d_min, instance.d_max)
    x0 = ProductPoint(d0.ravel(), q0)

    return Problem(
        geometry=geom, cost=cost, gradient=gradient, name=instance.name, initial_point=x0
    )


def synth_cpc(
    r: int,
    classes: int,
    samples_per_class: int,
    seed: int,
    planted_q: Optional[np.ndarray] = None,
    jitter: float = 0.0,
    d_min: float = 0.1,
    d_max: float = 10.0,
) -> CpcInstance:
    """Random CPC instance, optionally with an exactly shared eigenbasis.

    With ``planted_q`` the covariances are ``Q Lambda_i Q^T`` plus symmetric
    jitter, with random positive diagonals clipped into ``[d_min, d_max]``;
    without it they are sample covariances of Gaussian data.
    """
    if r < 2 or classes < 1 or samples_per_class < 2:
        raise ValueError("need r >= 2, classes >= 1, samples_per_class >= 2")
    rng = np.random.default_rng(seed)
    covs = []
    if planted_q is not None:
        q = np.asarray(planted_q, float)
        if q.shape != (r, r):
            raise ValueError(f"planted_q must be {r} x {r}")
        for _ in range(classes):
            lam = np.clip(0.5 + 4.5 * rng.random(r), d_min, d_max)
            s = q @ np.diag(lam) @ q.T
            if jitter > 0:
                noise = rng.standard_normal((r, r))
                s = s + jitter * (noise + noise.T) / 2.0
            covs.append((s + s.T) / 2.0)
    else:
        for _ in range(classes):
            x = rng.standard_normal((r, samples_per_class))
            scale = 0.5 + 2.0 * rng.random(r)
            x = x * scale[:, None]
            covs.append(x @ x.T / samples_per_class)
    weights = np.full(classes, float(samples_per_class))
    return CpcInstance(covariances=covs, weights=weights, d_min=d_min, d_max=d_max)


def load_class_csv(
    path: str,
    class_column: str,
    feature_columns: Optional[Sequence[str]] = None,
    d_min: float = 0.1,
    d_max: float = 10.0,
) -> CpcInstance:
    """CPC instance from a class-labelled CSV table.

    Rows are grouped by the value of ``class_column``; each group's features
    are mean-centered and turned into the sample covariance
    ``S_i = X_i X_i^T / n_i``.  Without ``feature_columns`` every other
    column is used and must parse as a number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = list(reader.fieldnames)
        if class_column not in header:
            raise ValueError(f"{path}: class column {class_column!r} not in header {header}")
        if feature_columns is None:
            feature_columns = [c for c in header if c != class_column]
        else:
            missing = [c for c in feature_columns if c not in header]
            if missing:
                raise ValueError(f"{path}: feature columns {missing} not in header")
        if len(feature_columns) < 2:
            raise ValueError(f"{path}: need at least 2 feature columns")

        groups: dict[str, list[list[float]]] = {}
        for line_no, row in enumerate(reader, start=2):
            values = []
            for col in feature_columns:
                cell = row.get(col)
                if cell is None or cell.strip() == "":
                    raise ValueError(f"{path}:{line_no}: missing value in column {col!r}")
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: non-numeric value {cell!r} in column {col!r}"
                    ) from None
            label = row.get(class_column)
            if label is None or label.strip() == "":
                raise ValueError(f"{path}:{line_no}: missing class label")
            groups.setdefault(label, []).append(values)

    if len(groups) < 2:
        raise ValueError(f"{path}: need at least 2 classes, found {len(groups)}")
    covs, weights = [], []
    for label in sorted(groups):
        rows = np.asarray(groups[label], float)
        if rows.shape[0] < 2:
            raise ValueError(f"{path}: class {label!r} has fewer than 2 rows")
        centered = rows - rows.mean(axis=0)
        x = centered.T  # features x samples
        covs.append(x @ x.T / rows.shape[0])
        weights.append(rows.shape[0])
    return CpcInstance(
        covariances=covs,
        weights=np.asarray(weights, float),
        d_min=d_min,
        d_max=d_max,
        name=f"CPC[{path}]",
    )
