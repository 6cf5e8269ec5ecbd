"""Nonnegativity penalties and penalized composite objectives.

The infeasibility measure is the elementwise l1 distance to the nonnegative
cone. Its proximal map and Moreau envelope have entrywise closed forms, which
gives a smooth penalty; the squared Frobenius distance to the cone is the
alternative quadratic penalty. ``gamma == 0`` is the sentinel that selects the
quadratic penalty throughout.

``penalty_terms`` is the one place where either penalty's value and gradient
are computed, and ``PenaltyObjective`` the one composite that records them:
the penalty driver and the augmented Lagrangian in ``driver`` both go
through it.
"""

from __future__ import annotations

import abc

import numpy as np


def nonneg_violation(x) -> float:
    """Sum of negative parts: the elementwise l1 distance to the nonnegative cone."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.maximum(0.0, -x)))


def penalty_terms(x, gamma: float) -> tuple[float, np.ndarray]:
    """Value and gradient of the penalty selected by gamma, computed together.

    ``gamma > 0``: the Moreau envelope of the l1 violation. Entries in
    [-gamma, 0] contribute x^2 / (2 gamma), entries below -gamma contribute
    -x - gamma/2, nonnegative entries contribute nothing; the gradient is
    (x - prox(x)) / gamma, entrywise in [-1, 0]. The envelope is C^1,
    minorizes the violation, and shares its zero set. It is the Huber
    function of the negative part, computed in that form: with
    c = min(max(x, -gamma), 0) the value is (<c, x> - <c, c> / 2) / gamma
    and the gradient is c / gamma.

    ``gamma == 0``: the squared Frobenius distance to the cone,
    sum(min(x, 0)^2), with gradient 2 min(x, 0).

    Raises:
        ValueError: if gamma is negative or NaN.
    """
    x = np.asarray(x, dtype=float)
    if gamma == 0:
        neg = np.minimum(x, 0.0)
        return float((neg**2).sum()), 2.0 * neg
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    c = np.minimum(np.maximum(x, -gamma), 0.0)
    cf = c.ravel()
    return float((cf.dot(x.ravel()) - 0.5 * cf.dot(cf)) / gamma), c / gamma


class Objective(abc.ABC):
    """A smooth objective over n x r matrices: value plus Euclidean gradient.

    A subclass defines ``value_and_gradient``, the solvers' only evaluation
    call; ``value`` and ``gradient`` are its parts. Lipschitz constants are
    never required; the solvers use line searches instead. ``hessian_vec``
    defaults to a forward difference of the gradient and is consumed only by
    diagnostics; subclasses override it where an exact form is cheap.
    """

    @abc.abstractmethod
    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and gradient at one point, computed together."""

    def value(self, x: np.ndarray) -> float:
        return self.value_and_gradient(x)[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(x)[1]

    def hessian_vec(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        step = 1e-5 * (1.0 + float(np.linalg.norm(x)))
        return (self.gradient(x + step * h) - self.gradient(x)) / step


class PenaltyObjective(Objective):
    """The composite f + rho * penalty as a plain smooth objective.

    ``gamma > 0`` selects the Moreau-envelope penalty, ``gamma == 0`` the
    quadratic penalty. ``rho == 0`` is allowed and reduces the composite to
    the bare objective. A subclass may take the penalty elsewhere by
    overriding ``_penalty``, as the augmented Lagrangian in ``driver`` does.

    ``last`` records the parts of the latest evaluation, the tuple
    (x, f(x), grad f(x), p(x), grad p(x)). Since p does not depend on rho,
    an outer driver passes the record of one subproblem's solution to the
    next subproblem, whose first evaluation at that read-only array then
    calls neither f nor the penalty kernel. Records are keyed by array
    identity, and only a read-only array (such as a ``StiefelPoint``'s) is
    trusted not to have changed since.
    """

    def __init__(self, f: Objective, rho: float, gamma: float, last: tuple | None = None):
        if not rho >= 0:
            raise ValueError(f"rho must be nonnegative, got {rho}")
        if not gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        self.f = f
        self.rho = rho
        self.gamma = gamma
        self.last = last

    # perfbench/tracer.py wraps these in the class's own namespace
    value, gradient = Objective.value, Objective.gradient

    def _penalty(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The penalty's value and gradient at x."""
        return penalty_terms(x, self.gamma)

    def parts(self, x: np.ndarray) -> tuple:
        """The record (x, f(x), grad f(x), p(x), grad p(x)), reused from
        ``last`` when that was taken at this read-only array."""
        last = self.last
        if last is None or last[0] is not x or x.flags.writeable:
            fv, fg = self.f.value_and_gradient(x)
            last = self.last = (x, fv, fg, *self._penalty(x))
        return last

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        _, fv, fg, pv, pg = self.parts(x)
        return fv + self.rho * pv, fg + self.rho * pg
