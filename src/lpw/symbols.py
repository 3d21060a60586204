"""Symbols a(x, xi) and their quantization on the periodic lattice.

A symbol acts on a field through

    (A f)(x) = sum_xi a(x, xi) fhat(xi) exp(i x.xi).

Frequency multipliers get an exact fast path; separable symbols
sum_t b_t(x) c_t(xi) cost one transform per term, and a multiplication
operator b(x) is the one-term separable symbol b(x) * 1.  The direct
quantization sum, O(M^2) in the lattice size M, is kept only as the
correctness oracle at small N.  Nyquist modes of the input are cleared on
every application (the asymmetric mode breaks reality symmetry under
differentiation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, SpectralField, _abs2, _inverse, center_distance
from .smooth import ramp_down

_LOG_DOUBLE_MAX = 700.0  # ln(1.8e308), overflow guard for |xi|^m


@dataclass(frozen=True)
class Symbol:
    """Symbol of declared order in one of three forms, each applied by a
    fast path.

    kind:
      multiplier        a = c(xi),   xi_func(*xi_components)
      separable         a = sum_t b_t(x) c_t(xi), terms = ((b, c), ...); a
                        multiplication operator b(x) is the term (b, 1)
      matrix_multiplier matrix-valued c(xi), matrix_func(grid) -> (out, in, *shape)
    """

    order: float
    kind: str
    name: str = ""
    xi_func: object = None
    terms: tuple = ()
    matrix_func: object = None

    def eval_xy(self, xs: tuple, xis: tuple) -> np.ndarray:
        """Evaluate a(x, xi) on mutually broadcastable coordinate arrays."""
        if self.kind == "multiplier":
            return np.asarray(self.xi_func(*xis)) + np.zeros(np.broadcast_shapes(
                *(np.shape(a) for a in xs + xis)))
        if self.kind == "separable":
            out = None
            for bx, cxi in self.terms:
                term = np.asarray(bx(*xs)) * np.asarray(cxi(*xis))
                out = term if out is None else out + term
            return out
        raise ValueError(f"eval_xy unsupported for kind {self.kind!r}")

    @property
    def is_multiplier(self) -> bool:
        return self.kind in ("multiplier", "matrix_multiplier")


def multiplier(order: float, xi_func, name: str = "") -> Symbol:
    return Symbol(order=order, kind="multiplier", name=name, xi_func=xi_func)


def _ones(*axes) -> np.ndarray:
    """Ones of the broadcast shape of the coordinate arrays `axes`."""
    return np.ones(np.broadcast_shapes(*(np.shape(a) for a in axes)))


def multiplication(b, name: str = "") -> Symbol:
    """The multiplication operator by b(*xs): the one-term separable symbol b(x) * 1."""
    return separable(0.0, [(b, _ones)], name)


def separable(order: float, terms, name: str = "") -> Symbol:
    terms = tuple(terms)
    if not 1 <= len(terms) <= 8:
        raise ValueError(f"separable symbol {name!r} has {len(terms)} terms; 1..8 allowed")
    return Symbol(order=order, kind="separable", name=name, terms=terms)


def matrix_multiplier(order: float, matrix_func, name: str = "") -> Symbol:
    return Symbol(order=order, kind="matrix_multiplier", name=name, matrix_func=matrix_func)


def zero_symbol(order: float = 0.0, name: str = "zero") -> Symbol:
    return multiplier(order, lambda *xis: np.zeros(np.broadcast_shapes(*(np.shape(a) for a in xis))), name)


def _check_finite(vals: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"symbol {name!r} is not finite on this lattice (overflow, or 1/0)")
    return vals


def _overflow_guard(sym: Symbol, grid: GridSpec) -> None:
    ximax = math.sqrt(grid.dim * (grid.points_per_axis // 2) ** 2)  # the lattice corner's |xi|
    if abs(sym.order) * math.log(1.0 + ximax) > _LOG_DOUBLE_MAX:
        raise ValueError(
            f"symbol order {sym.order} overflows double range at |xi|={ximax:.0f}"
        )


def apply(sym: Symbol, f: SpectralField) -> SpectralField:
    """Apply the operator with symbol `sym` to `f` (pure; Nyquist cleared)."""
    grid = f.grid
    _overflow_guard(sym, grid)
    f = f.without_nyquist()

    if sym.kind == "multiplier":
        vals = _check_finite(np.asarray(sym.xi_func(*grid.xi_axes)), sym.name)
        vals = np.broadcast_to(vals, grid.shape)
        return SpectralField(grid, freq=f.coefficients * vals)

    if sym.kind == "separable":
        c = f.coefficients
        out = np.zeros_like(c)
        for bx, cxi in sym.terms:
            cv = _check_finite(np.asarray(cxi(*grid.xi_axes)), sym.name)
            # 1/b at a zero of b is inf (nan for a complex b), rejected here
            with np.errstate(divide="ignore", invalid="ignore"):
                bv = _check_finite(np.asarray(bx(*grid.x_axes)), sym.name)
            out += _inverse(c * cv) * np.broadcast_to(bv, grid.shape)
        return SpectralField(grid, phys=out)

    if sym.kind == "matrix_multiplier":
        mat = _check_finite(np.asarray(sym.matrix_func(grid)), sym.name)
        n_in = mat.shape[1]
        if f.ncomp != n_in:
            raise ValueError(f"symbol {sym.name!r} expects {n_in} components, got {f.ncomp}")
        c = f.coefficients
        out = np.einsum("oi...,i...->o...", mat, c)
        return SpectralField(grid, freq=out)

    raise ValueError(f"unknown symbol kind {sym.kind!r}")


def quantize_direct(sym: Symbol, f: SpectralField) -> SpectralField:
    """Direct quantization sum over the lattice: the O(N^2n) oracle path.

    Produces the same result as any fast path (same math, different
    association), so it can certify multiplier / separable applications.
    """
    grid = f.grid
    _overflow_guard(sym, grid)
    f = f.without_nyquist()
    M = grid.npoints

    xi_flat = [np.broadcast_to(a, grid.shape).ravel() for a in grid.xi_axes]
    x_flat = [np.broadcast_to(a, grid.shape).ravel() for a in grid.x_axes]
    chat = f.coefficients.reshape(f.ncomp, M)

    chunk = max(1, min(M, (1 << 27) // (16 * M)))  # kernel blocks of about 128 MiB
    out = np.zeros((f.ncomp, M), dtype=np.complex128)
    xs = tuple(x[:, None] for x in x_flat)
    for start in range(0, M, chunk):
        sl = slice(start, start + chunk)
        xis = tuple(x[None, sl] for x in xi_flat)
        phase = np.zeros((M, len(range(*sl.indices(M)))), dtype=np.float64)
        for xc, kc in zip(xs, xis):
            phase = phase + xc * kc
        kernel = sym.eval_xy(xs, xis) * np.exp(1j * phase)
        _check_finite(kernel, sym.name)
        out += np.einsum("xk,ck->cx", kernel, chat[:, sl])
    return SpectralField(grid, phys=out.reshape((f.ncomp,) + grid.shape))


# -- built-in symbols -----------------------------------------------------


def _abs_xi(*xis):
    return np.sqrt(_abs2(*xis))


def _masked_inverse(e, mask) -> np.ndarray:
    """mask / e where mask != 0, else 0: the inverse of the symbol values e
    on the support of mask, where a zero of e divides by 1."""
    safe = np.where(e == 0, 1.0, e)
    return np.where(mask != 0, mask / safe, 0.0)


def laplacian_symbol() -> Symbol:
    return multiplier(2.0, lambda *xis: -(_abs_xi(*xis) ** 2), "laplacian")


def bilaplacian_symbol() -> Symbol:
    return multiplier(4.0, lambda *xis: _abs_xi(*xis) ** 4, "bilaplacian")


def fractional_laplacian_symbol(s: float) -> Symbol:
    return multiplier(2.0 * s, lambda *xis: _abs_xi(*xis) ** (2.0 * s), f"fractional_laplacian:{s}")


def grad_symbol(axis: int) -> Symbol:
    return multiplier(1.0, lambda *xis: 1j * xis[axis], f"grad:{axis}")


def _ixi_stack(grid: GridSpec) -> np.ndarray:
    """The frequency vector i*xi, shape (n, *shape)."""
    return np.stack([np.broadcast_to(1j * a, grid.shape) for a in grid.xi_axes])


def divergence_symbol() -> Symbol:
    """Vector field to scalar: the (1, n) row i*xi^T."""
    return matrix_multiplier(1.0, lambda grid: _ixi_stack(grid)[np.newaxis], "div")


def gradient_symbol() -> Symbol:
    """Scalar field to vector: the (n, 1) column i*xi, divergence transposed."""
    return matrix_multiplier(1.0, lambda grid: _ixi_stack(grid)[:, np.newaxis], "grad_vector")


def leray_projector() -> Symbol:
    """Order-0 matrix multiplier projecting onto divergence-free fields.

    I - xi xi^T / |xi|^2 away from the origin, identity at xi = 0 (the mean
    flow is already divergence free).  Needs dim >= 2.
    """

    def matrix_func(g: GridSpec):
        if g.dim < 2:
            raise ValueError("divergence-free projection needs dim >= 2")
        n = g.dim
        abs2 = g.xi_abs2()
        denom = np.where(abs2 > 0, abs2, 1.0)
        mat = np.zeros((n, n) + g.shape)
        for c in range(n):
            for d in range(n):
                mat[c, d] = (1.0 if c == d else 0.0) - np.broadcast_to(
                    g.xi_axes[c] * g.xi_axes[d], g.shape
                ) / denom
        return mat

    return matrix_multiplier(0.0, matrix_func, "leray")


# -- registry -------------------------------------------------------------


def _axis(spec: str, text: str, dim: int) -> int:
    """The axis `text` names, which must be an integer in [0, dim)."""
    if text not in [str(a) for a in range(dim)]:
        raise ValueError(f"symbol {spec!r}: axis {text!r} is not an integer in [0, {dim})")
    return int(text)


def _finite(spec: str, text: str, what: str) -> float:
    """The number `text`; it and its double (orders 2s, bump supports 2r) must be finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(2.0 * value):
        raise ValueError(f"symbol {spec!r}: {what} {text!r} is not a finite number")
    return value


def _power_of_abs_xi(spec: str, text: str, what: str) -> float:
    """The finite number `text` as a power of |xi|; a negative power, infinite
    at xi = 0, is rejected."""
    value = _finite(spec, text, what)
    if value < 0.0:
        raise ValueError(f"symbol {spec!r}: {what} {text!r} is negative, "
                         "so the symbol is infinite at xi = 0")
    return value


def _center_bump(radius, *xs):
    return ramp_down(center_distance(*xs), radius, 2.0 * radius)


_SEP_X_OF_AXIS = {"cos": np.cos, "sin": np.sin, "twoplussin": lambda t: 2.0 + np.sin(t)}


def _sep_x(spec: str, xpart: str, dim: int):
    head, _, arg = xpart.partition(":")
    if xpart == "one":
        return _ones
    if head in _SEP_X_OF_AXIS:
        fn, a = _SEP_X_OF_AXIS[head], _axis(spec, arg, dim)
        return lambda *xs: fn(xs[a])
    if head == "bump":
        radius = _finite(spec, arg, "bump radius")
        if radius <= 0.0:
            raise ValueError(f"symbol {spec!r}: bump radius {arg!r} is not positive")
        return lambda *xs: _center_bump(radius, *xs)
    raise ValueError(f"symbol {spec!r}: unknown spatial part {xpart!r}")


def _sep_xi(spec: str, xipart: str, dim: int):
    head, _, arg = xipart.partition(":")
    if xipart == "one":
        return 0.0, _ones
    if head == "pow":
        m = _finite(spec, arg, "order")
        return m, lambda *xis: (1.0 + _abs_xi(*xis) ** 2) ** (m / 2.0)
    if head == "abspow":
        m = _power_of_abs_xi(spec, arg, "order")
        return m, lambda *xis: _abs_xi(*xis) ** m
    if head == "ixi":
        a = _axis(spec, arg, dim)
        return 1.0, lambda *xis: 1j * xis[a]
    raise ValueError(f"symbol {spec!r}: unknown frequency part {xipart!r}")


def _parse_separable(body: str, dim: int) -> Symbol:
    """Grammar: term(+term)*, term = <xpart>*<xipart>.

    xpart:  one | cos:<axis> | sin:<axis> | twoplussin:<axis> | bump:<radius>
    xipart: one | pow:<m> | abspow:<m> | ixi:<axis>
    Example: "sep:twoplussin:0*pow:2" is (2+sin x_0)(1+|xi|^2).
    """
    spec = f"sep:{body}"
    orders, terms = [], []
    for raw in body.split("+"):
        xpart, _, xipart = raw.partition("*")
        if not xipart:
            raise ValueError(f"symbol {spec!r}: term {raw!r} needs <xpart>*<xipart>")
        bx = _sep_x(spec, xpart, dim)
        m, cxi = _sep_xi(spec, xipart, dim)
        orders.append(m)
        terms.append((bx, cxi))
    return separable(max(orders), terms, name=spec)


def resolve_symbol(name: str, dim: int = 4) -> Symbol:
    """Look up a registry symbol by CLI name, for fields on dim-dimensional
    grids (by default the largest dimension a GridSpec takes).

    Every number in the name is parsed here: axes must be integers in
    [0, dim), orders finite, and bump radii finite and positive.  A malformed
    name raises ValueError naming it; an unknown one raises KeyError.
    """
    if name == "laplacian":
        return laplacian_symbol()
    if name == "bilaplacian":
        return bilaplacian_symbol()
    if name == "div":
        return divergence_symbol()
    if name == "leray":
        return leray_projector()
    head, _, arg = name.partition(":")
    if head == "fractional_laplacian":
        return fractional_laplacian_symbol(_power_of_abs_xi(name, arg, "exponent"))
    if head == "grad":
        return grad_symbol(_axis(name, arg, dim))
    if head == "sep":
        return _parse_separable(arg, dim)
    raise KeyError(f"unknown symbol name {name!r}")
