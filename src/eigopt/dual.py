"""Vector forward-mode automatic differentiation on numpy arrays.

A `Dual` pairs an array of primal values with a tangent array carrying one
extra trailing axis of fixed width d, one slot per design dimension.  All
arithmetic follows the chain rule exactly.  Functions in this module
(`exp`, `log`, `logsumexp`, ...) accept either a Dual or a plain array, so
model code can be written once and run with or without derivative tracking.

Duals are immutable values and safe to share across threads.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Dual",
    "lift_design",
    "grad_check",
    "exp",
    "log",
    "absolute",
    "dsum",
    "dmean",
    "logsumexp",
    "stack",
    "concatenate",
    "value_of",
    "tangent_of",
]


def _full(tangent: np.ndarray, value: np.ndarray, width: int) -> np.ndarray:
    """Broadcast a tangent to exactly value.shape + (width,)."""
    target = value.shape + (width,)
    if tangent.shape == target:
        return tangent
    extra = len(target) - tangent.ndim
    if extra > 0:
        tangent = tangent.reshape((1,) * extra + tangent.shape)
    return np.broadcast_to(tangent, target)


class Dual:
    """Primal values plus tangents with respect to d design components.

    value has an arbitrary shape S; tangent has shape exactly S + (d,).
    Tangent widths must agree between operands; plain numbers and arrays act
    as constants with zero tangent.
    """

    __slots__ = ("value", "tangent")

    # Opt out of numpy ufunc dispatch so `ndarray op Dual` defers to the
    # reflected Dual operator instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, value, tangent):
        value = np.asarray(value, dtype=float)
        tangent = np.asarray(tangent, dtype=float)
        if tangent.ndim < 1:
            raise ValueError("tangent must have a trailing width axis")
        np.broadcast_shapes(value.shape, tangent.shape[:-1])
        self.value = value
        self.tangent = _full(tangent, value, tangent.shape[-1])

    @classmethod
    def _raw(cls, value, tangent) -> "Dual":
        out = object.__new__(cls)
        out.value = value
        out.tangent = tangent
        return out

    @property
    def width(self) -> int:
        return self.tangent.shape[-1]

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __float__(self) -> float:
        return float(self.value)

    def __getitem__(self, key) -> "Dual":
        # Basic indexing only (ints/slices/None): the trailing tangent axis
        # is untouched because the key never consumes it.
        return Dual._raw(self.value[key], self.tangent[key])

    def __repr__(self) -> str:
        return f"Dual(value={self.value!r}, tangent={self.tangent!r})"

    # -- arithmetic -------------------------------------------------------

    def _parts(self, other):
        """Split an operand into (value, tangent-or-None) with width check."""
        if isinstance(other, Dual):
            if other.width != self.width:
                raise ValueError(
                    f"tangent width mismatch: {self.width} vs {other.width}"
                )
            return other.value, other.tangent
        return np.asarray(other, dtype=float), None

    def __add__(self, other):
        v, t = self._parts(other)
        val = self.value + v
        if t is None:
            return Dual._raw(val, _full(self.tangent, val, self.width))
        return Dual._raw(val, self.tangent + t)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        v, t = self._parts(other)
        val = self.value - v
        if t is None:
            return Dual._raw(val, _full(self.tangent, val, self.width))
        return Dual._raw(val, self.tangent - t)

    def __rsub__(self, other):
        v = np.asarray(other, dtype=float)
        val = v - self.value
        return Dual._raw(val, _full(-self.tangent, val, self.width))

    def __neg__(self):
        return Dual._raw(-self.value, -self.tangent)

    def __mul__(self, other):
        v, t = self._parts(other)
        if t is None:
            return Dual._raw(self.value * v, self.tangent * v[..., None])
        return Dual._raw(
            self.value * v, self.tangent * v[..., None] + t * self.value[..., None]
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        v, t = self._parts(other)
        if np.any(v == 0.0):
            raise ZeroDivisionError("division by zero primal value")
        if t is None:
            return Dual._raw(self.value / v, self.tangent / v[..., None])
        val = self.value / v
        tan = (self.tangent - t * val[..., None]) / v[..., None]
        return Dual._raw(val, tan)

    def __abs__(self):
        # Subgradient convention: sign(0) == 0, so the tangent at a kink is 0.
        return Dual._raw(
            np.abs(self.value), self.tangent * np.sign(self.value)[..., None]
        )


def value_of(x) -> np.ndarray:
    """Primal value of a Dual, or the array itself."""
    return x.value if isinstance(x, Dual) else np.asarray(x, dtype=float)


def tangent_of(x, width: int | None = None) -> np.ndarray:
    """Tangent of a Dual, or zeros for a plain array (width required)."""
    if isinstance(x, Dual):
        return x.tangent
    if width is None:
        raise ValueError("width required for plain arrays")
    v = np.asarray(x, dtype=float)
    return np.zeros(v.shape + (width,))


def lift_design(values) -> Dual:
    """Seed a design vector for differentiation: tangent is the identity.

    Component k of the result has value values[k] and the k-th standard
    basis vector as its tangent.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("design must be a 1-D vector")
    if not np.all(np.isfinite(values)):
        raise ValueError("design values must be finite")
    return Dual(values, np.eye(values.size))


def exp(x):
    if not isinstance(x, Dual):
        return np.exp(x)
    val = np.exp(x.value)
    return Dual._raw(val, x.tangent * val[..., None])


def log(x):
    if not isinstance(x, Dual):
        return np.log(x)
    if np.any(x.value <= 0.0):
        raise ValueError("log of non-positive primal value")
    return Dual._raw(np.log(x.value), x.tangent / x.value[..., None])


def absolute(x):
    if not isinstance(x, Dual):
        return np.abs(x)
    return abs(x)


def _value_axis(axis, ndim):
    if axis is None:
        return None
    axis = axis if axis >= 0 else axis + ndim
    if not 0 <= axis < ndim:
        raise ValueError(f"axis {axis} out of range for {ndim}-d value")
    return axis


def dsum(x, axis=None):
    if not isinstance(x, Dual):
        return np.sum(x, axis=axis)
    ax = _value_axis(axis, x.ndim)
    if ax is None:
        return Dual._raw(x.value.sum(), x.tangent.reshape(-1, x.width).sum(axis=0))
    return Dual._raw(x.value.sum(axis=ax), x.tangent.sum(axis=ax))


def dmean(x, axis=None):
    if not isinstance(x, Dual):
        return np.mean(x, axis=axis)
    n = x.value.size if axis is None else x.value.shape[_value_axis(axis, x.ndim)]
    return dsum(x, axis=axis) * (1.0 / n)


def logsumexp(x, axis=-1):
    """Stable log-sum-exp along `axis`; -inf entries contribute nothing.

    For Duals the tangent is the softmax-weighted combination of entry
    tangents.  Raises if all entries along the axis are -inf.
    """
    v = value_of(x)
    m = np.max(v, axis=axis, keepdims=True)
    if np.any(np.isneginf(m)):
        raise ValueError("logsumexp of all -inf entries")
    w = np.exp(v - m)
    s = np.sum(w, axis=axis)
    val = np.squeeze(m, axis=axis) + np.log(s)
    if not isinstance(x, Dual):
        return val
    ax = _value_axis(axis, x.ndim)
    weights = w / np.expand_dims(s, ax)
    tan = np.sum(x.tangent * weights[..., None], axis=ax)
    return Dual._raw(val, tan)


def _common_width(xs: Sequence) -> int | None:
    widths = {x.width for x in xs if isinstance(x, Dual)}
    if len(widths) > 1:
        raise ValueError(f"operands must share one tangent width, got {widths}")
    return widths.pop() if widths else None


def stack(xs: Sequence, axis: int = 0):
    width = _common_width(xs)
    vals = [value_of(x) for x in xs]
    if width is None:
        return np.stack(vals, axis=axis)
    tans = [tangent_of(x, width) for x in xs]
    ndim = vals[0].ndim + 1
    ax = axis if axis >= 0 else axis + ndim
    return Dual._raw(np.stack(vals, axis=ax), np.stack(tans, axis=ax))


def concatenate(xs: Sequence, axis: int = -1):
    """Concatenate parts of equal ndim along a value axis."""
    width = _common_width(xs)
    vals = [value_of(x) for x in xs]
    if width is None:
        return np.concatenate(vals, axis=axis)
    if len({v.ndim for v in vals}) != 1:
        raise ValueError("concatenate requires parts of equal ndim")
    tans = [tangent_of(x, width) for x in xs]
    ax = _value_axis(axis, vals[0].ndim)
    return Dual._raw(np.concatenate(vals, axis=ax), np.concatenate(tans, axis=ax))


def grad_check(
    f: Callable,
    values,
    h: float | None = None,
) -> float:
    """Max relative error between the dual gradient of f and central differences.

    f must accept either a lifted Dual design or a plain vector and return a
    scalar (Dual in the first case).  Per-component steps default to
    1e-5 * (1 + |x_k|).
    """
    values = np.asarray(values, dtype=float)
    out = f(lift_design(values))
    if not isinstance(out, Dual) or out.value.shape != ():
        raise ValueError("f must return a scalar Dual for a lifted design")
    dual_grad = out.tangent
    worst = 0.0
    for k in range(values.size):
        hk = h if h is not None else 1e-5 * (1.0 + abs(values[k]))
        lo = values.copy()
        hi = values.copy()
        lo[k] -= hk
        hi[k] += hk
        fd = (float(f(hi)) - float(f(lo))) / (2.0 * hk)
        err = abs(dual_grad[k] - fd) / (abs(fd) + 1e-12)
        worst = max(worst, err)
    return worst
