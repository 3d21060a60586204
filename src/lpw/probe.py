"""End-to-end regularity probe.

Manufactures a small-data solution of a model equation L u + P(V(u) Q u) = f
on the torus, localizes it with a smooth cutoff, pushes it through the
parametrix pipeline, measures the dyadic decay sequence a_k = 2^(sigma k)
||P_k u||_r, and compares the fitted decay gain against the closed-form
theoretical gain.

Manufactured solutions are smooth, so their measured gain exceeds any finite
theoretical gain; the probe checks the machinery end to end, not the sharp
rough-data statement (no rough exact solutions exist at desk scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exponents import GainReport, RegularityParams, check_params, compute_gains
from .grid import (GridSpec, SpectralField, _abs2, _inverse, _norm, _pad_half, _padded_shape,
                   _padded_size, _pair_product_fine, field_from_padded, grid_product, l2_norm,
                   padded_physical, random_field)
from .iteration import (DecaySequence, IterationParams, convolution_majorant,
                        decay_bound, delta_cap, hypothesis_holds)
from .lp import LPPartition, build_partition, shell_norms
from .paraproduct import _zone_reports
from .psido import fit_log2_slope, split_elliptic
from .smooth import ramp_down
from . import symbols as sym
from .symbols import Symbol, _matrix_rows, apply


# -- equations ---------------------------------------------------------------


@dataclass
class EquationSpec:
    """A model equation with its exponent data and nonlinearity structure.

    `params` takes the orders alpha, beta, gamma from L, P and Q, and
    `gains` is their exponent pipeline: construction raises ValueError,
    naming the data and every failed hypothesis, before any field work.
    `coefficient(u)` produces the field V(u) occupying the rough-coefficient
    slot; `nonlinearity(V, u)` evaluates P(V Q u) and is built from P and Q.
    """

    kind: str
    n: int
    s: float
    p: float
    ncomp: int
    amplitude: float
    L: Symbol
    P: Symbol
    Q: Symbol
    coefficient: object
    forcing_projector: object = None
    params: RegularityParams = field(init=False)
    gains: GainReport = field(init=False)
    nonlinearity: object = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        self.params = RegularityParams(n=self.n, alpha=self.L.order, beta=self.P.order,
                                       gamma=self.Q.order, s=self.s, p=self.p)
        self.gains = compute_gains(self.params)
        self.nonlinearity = _quadratic_term(self.P, self.Q)


def _quadratic_term(P: Symbol, Q: Symbol):
    """Dealiased (V, u) -> P(V Q u), with Q applied to each component of u.

    V contracts against each component's Q-output when the counts match
    ((V.grad) u) and broadcasts otherwise.  Each Q-output is moved into its
    rows of the padded Q u, a half spectrum, as soon as it is made, and
    dropped, so no coarse stack of them is made.  The products are formed in
    the padded Q u's samples; only a product wider than its Q-output goes to
    a fresh array, so the shared padded V is never written.  A one-component
    V against a one-component u and a matrix multiplier Q (gjms: Lambda^3 u
    against grad u) takes `_broadcast_products` instead.
    """

    def nonlinearity(V: SpectralField, u: SpectralField) -> SpectralField:
        grid, M = u.grid, _padded_size(u.grid.points_per_axis)
        if V.ncomp == u.ncomp == 1 and Q.kind == "matrix_multiplier":
            return apply(P, SpectralField(grid, freq=_broadcast_products(
                V, _matrix_rows(Q, u), M)))
        pv = padded_physical(V)
        rows = None
        for c in range(u.ncomp):
            q = apply(Q, u.component(c)).coefficients
            width = q.shape[0]
            if rows is None:
                rows = np.zeros(_padded_shape(u.ncomp * width, grid.points_per_axis, M,
                                              grid.dim), dtype=np.complex128)
            _pad_half(q, M, out=rows[c * width:(c + 1) * width])
            del q
        pq = _inverse(rows, out=np.empty((len(rows),) + (M,) * grid.dim))
        del rows
        pq = pq.reshape((u.ncomp, -1) + pq.shape[1:])
        fine = [_pair_product_fine(pv, w) for w in pq]
        del pv  # free the padded V before the transform back
        k = fine[0].shape[0]  # in place, the products fill each Q-output's leading k slots
        fine = (pq[:, :k] if k <= pq.shape[1] else np.stack(fine)).reshape((-1,) + pq.shape[2:])
        coarse = field_from_padded(grid, fine)
        del fine, pq  # free the padded buffer before P is applied
        return apply(P, coarse)

    return nonlinearity


def _broadcast_products(V: SpectralField, rows, M: int) -> np.ndarray:
    """The coefficients of the dealiased products of the one-component V with
    each one-component field the iterator `rows` yields, stacked in order.

    One row at a time is padded to the M-point grid, let go, transformed,
    multiplied in place with V's samples as the first operand and
    truncated back (`field_from_padded`), and its product's coefficients
    kept: one padded row is alive beside the padded V, never the padded
    stack, and no row is formed before its turn.  The values equal the
    stacked product's bit for bit.
    """
    pv, products = padded_physical(V), []
    for row in rows:
        half = _pad_half(row.coefficients, M)
        del row  # each row's coefficients go before its transform
        pw = _inverse(half, out=np.empty((1,) + (M,) * V.grid.dim))
        del half
        products.append(field_from_padded(V.grid, _pair_product_fine(pv, pw)).coefficients)
        del pw  # each padded product goes before the next row is made
    del pv
    return np.concatenate(products)


def _ns_spec(n: int, s: float, p: float, amplitude: float) -> EquationSpec:
    L = sym.multiplier(2.0, _abs2, "neg_laplacian")
    P = sym.leray_projector()
    gradv = sym.gradient_symbol()
    return EquationSpec(
        kind="stationary-navier-stokes", n=n, s=s, p=p, ncomp=n, amplitude=amplitude,
        L=L, P=P, Q=gradv, coefficient=lambda u: u,
        forcing_projector=lambda f: apply(P, f),
    )


def _biharmonic_spec(n: int, s: float, p: float, amplitude: float) -> EquationSpec:
    L = sym.bilaplacian_symbol()
    P = sym.multiplier(2.0, lambda *xis: (1j * xis[0]) ** 2, "d11")
    Q = sym.grad_symbol(0)
    return EquationSpec(
        kind="biharmonic4d-toy", n=n, s=s, p=p, ncomp=1, amplitude=amplitude,
        L=L, P=P, Q=Q, coefficient=lambda u: apply(Q, u),
    )


def _gjms_spec(n: int, s: float, p: float, amplitude: float) -> EquationSpec:
    # leading part |xi|^n; conformal-power coefficient reduced to the first
    # integer power when (n-2)/3 is fractional
    L = sym.multiplier(float(n), lambda *xis: _abs2(*xis) ** (n / 2.0), "halfpower_laplacian")
    P = sym.divergence_symbol()
    gradv = sym.gradient_symbol()
    lam3 = sym.fractional_laplacian_symbol(1.5)
    return EquationSpec(
        kind="gjms-toy", n=n, s=s, p=p, ncomp=1, amplitude=amplitude,
        L=L, P=P, Q=gradv, coefficient=lambda u: apply(lam3, u),
    )


_EQUATIONS = {
    # kind -> (builder, {n: default (s, p)})
    "stationary-navier-stokes": (_ns_spec, {2: (1.0, 4.0), 4: (1.0, 2.0)}),
    "biharmonic4d-toy": (_biharmonic_spec, {2: (2.0, 1.5), 4: (2.0, 2.0)}),
    "gjms-toy": (_gjms_spec, {3: (1.5, 2.0)}),
}
_ALIASES = {"ns": "stationary-navier-stokes", "biharmonic": "biharmonic4d-toy",
            "gjms": "gjms-toy"}


def equation_spec(kind: str, n: int | None = None, s: float | None = None,
                  p: float | None = None, amplitude: float = 1e-2) -> EquationSpec:
    """Build a model equation; defaults re-derive passing data per dimension."""
    name = _ALIASES.get(kind, kind)
    if name not in _EQUATIONS:
        raise KeyError(f"unknown equation kind {kind!r}")
    build, table = _EQUATIONS[name]
    if n is None:
        n = min(table)
    if n not in table and (s is None or p is None):
        raise ValueError(f"{name} has no default data for n={n}; pass s and p")
    s0, p0 = table.get(n, (None, None))
    s = s0 if s is None else s
    p = p0 if p is None else p
    return build(n, s, p, amplitude)


def custom_equation(n: int, L_name: str, P_name: str, Q_name: str,
                    s: float, p: float, amplitude: float = 1e-2) -> EquationSpec:
    """Custom scalar equation from registry symbols, with V(u) = u; alpha,
    beta and gamma are the orders of L, P and Q.  A name malformed for
    dimension n raises ValueError before any field work."""
    return EquationSpec(
        kind="custom", n=n, s=s, p=p, ncomp=1, amplitude=amplitude,
        L=sym.resolve_symbol(L_name, n), P=sym.resolve_symbol(P_name, n),
        Q=sym.resolve_symbol(Q_name, n), coefficient=lambda u: u,
    )


# -- manufactured solutions ----------------------------------------------------


_TARGET_SLOPE = 0.6  # intended decay of 2^(sigma k)||P_k u||_r per shell


def smooth_forcing(eq: EquationSpec, grid: GridSpec, seed: int) -> SpectralField:
    """Mean-zero band-limited forcing with ||f||_2 = amplitude.

    The radial profile is the power law (1+|xi|)^-g with g chosen so the
    linearized solution's weighted shell sequence 2^(sigma k)||P_k u||
    decays at a uniform target rate: steep enough to clear the theoretical
    gain, shallow enough to stay above the localization smear floor.  A
    smoother forcing would make the probe measure the cutoff instead of the
    solution.
    """
    g_pow = eq.gains.params.sigma + grid.dim / 2.0 - eq.params.alpha + _TARGET_SLOPE
    f = random_field(grid, seed, ncomp=eq.ncomp, band=grid.points_per_axis / 4,
                     radial_profile=lambda r: (1.0 + r) ** (-g_pow))
    if eq.forcing_projector is not None:
        f = eq.forcing_projector(f)
    nrm = l2_norm(f)
    if nrm == 0:
        raise ValueError("degenerate forcing draw")
    return f * (eq.amplitude / nrm)


def _check_multiplier(L: Symbol) -> None:
    """Raise unless L is a pure multiplier, which the manufacture inverts."""
    if L.kind != "multiplier":
        raise ValueError("manufacture needs a pure-multiplier leading operator")


def _inverse_multiplier(L: Symbol) -> Symbol:
    _check_multiplier(L)

    def inv(*xis, _f=L.xi_func):
        vals = np.asarray(_f(*xis))
        return sym._masked_inverse(vals, vals != 0)

    return sym.multiplier(-L.order, inv, name=f"{L.name}:inverse")


@dataclass
class ManufacturedSolution:
    u: SpectralField
    forcing: SpectralField
    residual: float
    iterations: int


def _residual(eq: EquationSpec, u: SpectralField, nl: SpectralField,
              forcing: SpectralField) -> float:
    """||L u + nl - f||_2 / ||f||_2, given nl = P(V(u) Q u)."""
    den = l2_norm(forcing)
    return l2_norm(apply(eq.L, u) + nl - forcing) / (den if den > 0 else 1.0)


def equation_residual(eq: EquationSpec, u: SpectralField,
                      forcing: SpectralField) -> float:
    """Fresh relative residual ||L u + P(V(u) Q u) - f||_2 / ||f||_2.

    Absolute for an identically-zero forcing.
    """
    return _residual(eq, u, eq.nonlinearity(eq.coefficient(u), u), forcing)


def manufactured_solution(eq: EquationSpec, grid: GridSpec,
                          seed: int = 7) -> ManufacturedSolution:
    """Small-data fixed-point solve of L u + P(V(u) Q u) = f to residual 1e-11.

    Plain iteration u <- L^{-1}(f - P(V(u) Q u)) on mean-zero fields.  Data
    too large for the small-data solve raise ValueError: a residual that grows
    over five successive iterates, or no contraction within 300 iterates.
    Each iterate's nonlinearity serves both its residual and the next update.
    """
    max_iter = 300
    forcing = smooth_forcing(eq, grid, seed)
    Linv = _inverse_multiplier(eq.L)
    u = apply(Linv, forcing)
    nl = eq.nonlinearity(eq.coefficient(u), u)
    res_prev = math.inf
    growth = 0
    for it in range(1, max_iter + 1):
        u = apply(Linv, forcing - nl)
        del nl  # the last iterate's nonlinearity goes before the next is made
        if eq.forcing_projector is not None:
            u = eq.forcing_projector(u)
        nl = eq.nonlinearity(eq.coefficient(u), u)
        res = _residual(eq, u, nl, forcing)
        if res <= 1e-11:
            return ManufacturedSolution(u, forcing, res, it)
        growth = growth + 1 if res > res_prev else 0
        if growth >= 5:
            raise ValueError(
                f"fixed-point iteration diverging (residual {res:.3e} after {it} its); "
                "reduce the amplitude")
        res_prev = res
    raise ValueError(f"no contraction to 1e-11 within {max_iter} iterations "
                     f"(residual {res:.3e})")


# -- localization ----------------------------------------------------------------


def _check_rho(rho: float) -> None:
    """Raise unless the plateau radius rho lies in (0, pi/4)."""
    if not 0.0 < rho < math.pi / 4.0:
        raise ValueError(f"rho must lie in (0, pi/4), got {rho}")


def cutoff_field(grid: GridSpec, rho: float) -> SpectralField:
    """Smooth radial plateau cutoff: 1 inside B_rho, 0 outside B_2rho.

    Centered at the cell midpoint so the support never wraps.
    """
    _check_rho(rho)
    return SpectralField(grid, phys=ramp_down(grid.center_distance, rho, 2.0 * rho))


def localize(u: SpectralField, rho: float) -> SpectralField:
    """Multiply by the plateau cutoff (raw grid product: supports stay exact)."""
    return grid_product(cutoff_field(u.grid, rho), u)


# -- decay measurement -------------------------------------------------------------


@dataclass
class DecayReport:
    """Fitted decay of a_k = 2^(sigma k) ||P_k u||_r over a shell window."""

    sigma: float
    r: float
    window: tuple
    a_k: tuple
    fit_ks: tuple
    epsilon_measured: float
    epsilon_theory: float
    tolerance: float
    fit_residual: float
    dropped: tuple
    passed: bool

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma, "r": self.r, "window": list(self.window),
            "a_k": [float(v) for v in self.a_k], "fit_ks": list(self.fit_ks),
            "epsilon_measured": self.epsilon_measured,
            "epsilon_theory": self.epsilon_theory,
            "tolerance": self.tolerance, "fit_residual": self.fit_residual,
            "dropped": list(self.dropped), "passed": self.passed,
        }


def _check_window(window: tuple, jmax: int) -> None:
    """Raise unless the fit window sits inside [2, jmax-2] and spans 4 shells."""
    lo, hi = window
    if not (2 <= lo and hi <= jmax - 2):
        raise ValueError(f"window {window} must sit inside [2, {jmax - 2}]")
    if hi - lo + 1 < 4:
        raise ValueError(f"window {window} shorter than 4 shells")


def dyadic_decay_report(norms: np.ndarray, r: float, sigma: float, window: tuple,
                        part: LPPartition, epsilon_theory: float) -> DecayReport:
    """Fit the decay of a_k = 2^(sigma k) norms_k over the window, where
    norms holds the L^r norm of every shell 0..jmax."""
    tolerance = 0.1  # passes when the measured gain is within 0.1 of the theory's
    _check_window(window, part.jmax)
    lo, hi = window
    ks = np.arange(part.jmax + 1, dtype=float)
    a = (2.0 ** (sigma * ks)) * norms
    fit = fit_log2_slope(range(lo, hi + 1), a[lo:hi + 1])
    eps_meas = -fit.slope
    return DecayReport(
        sigma=sigma, r=r, window=(lo, hi), a_k=tuple(float(v) for v in a),
        fit_ks=fit.ks, epsilon_measured=eps_meas, epsilon_theory=epsilon_theory,
        tolerance=tolerance, fit_residual=fit.max_residual, dropped=fit.dropped,
        passed=bool(eps_meas >= epsilon_theory - tolerance),
    )


# -- full pipeline --------------------------------------------------------------


@dataclass
class ProbeReport:
    kind: str
    grid: tuple
    rho: float
    gains: GainReport
    residual: float
    delta: float
    decay: DecayReport
    zone_reports: tuple
    mainline: dict
    majorant: dict
    iteration: dict
    bootstrap_recheck: DecayReport | None
    passed: bool

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "grid": {"dim": self.grid[0], "points_per_axis": self.grid[1]},
            "rho": self.rho,
            "params": self.gains.as_dict(),
            "gains": {"epsilon": self.gains.epsilon, "theta": self.gains.theta,
                      "q": self.gains.q},
            "residual": self.residual,
            "delta": self.delta,
            "a_k": list(self.decay.a_k),
            "fit": self.decay.as_dict(),
            "zone_reports": [z.as_dict() for z in self.zone_reports],
            "mainline": self.mainline,
            "majorant": self.majorant,
            "iteration": self.iteration,
            "bootstrap_recheck": None if self.bootstrap_recheck is None
            else self.bootstrap_recheck.as_dict(),
            "pass": self.passed,
        }


def run_probe(eq: EquationSpec, grid: GridSpec, rho: float = 0.75,
              seed: int = 7) -> ProbeReport:
    """Execute the full probe and assemble the report.

    Raises ValueError before the partition is built if the decay window is
    too short, the amplitude is 0, rho lies outside (0, pi/4), or L is not a
    pure multiplier or not elliptic (data failing the structural hypotheses
    cannot make an EquationSpec).  The default
    cutoff uses the widest admissible transition: at desk resolutions a
    narrow transition under-resolves and the decay fit then measures the
    cutoff's spectral tail instead of the solution (narrow cutoffs need
    finer grids: the same probe passes at rho = pi/8 once N >= 1024).
    """
    if grid.dim != eq.params.n:
        raise ValueError(f"grid dim {grid.dim} != equation dimension {eq.params.n}")
    gains = eq.gains
    sigma, r, theta = gains.params.sigma, gains.params.r, gains.theta
    window = (2, grid.jmax - 2)
    if window[1] - window[0] + 1 < 4:
        # 4 shells need jmax = log2(N) - 1 >= window[0] + 5
        raise ValueError(f"grid {grid.dim},{grid.points_per_axis} gives the decay window "
                         f"{window}, shorter than 4 shells; the smallest grid whose window "
                         f"(2, jmax - 2) spans 4 shells has {2 ** (window[0] + 6)} points "
                         "per axis")
    if eq.amplitude == 0.0:
        raise ValueError(f"amplitude must be positive, got {eq.amplitude}: "
                         "a zero forcing leaves nothing to measure")
    _check_rho(rho)
    _check_multiplier(eq.L)
    es = split_elliptic(eq.L, grid)  # symbols only: no field work yet
    B = es.parametrix()
    part = build_partition(grid)

    sol = manufactured_solution(eq, grid, seed)
    # every later step reads the localized fields' coefficients only, so each
    # is kept as a field of coefficients once they are formed
    u_loc = SpectralField(grid, freq=localize(sol.u, rho).coefficients)
    # the coefficient is cut with the doubled-plateau window, clamped to the
    # admissible parameter range when 2*rho exceeds it
    V_both = localize(eq.coefficient(sol.u), min(2.0 * rho, math.pi / 4.0 * 0.999))
    V_loc = SpectralField(grid, freq=V_both.coefficients)
    # delta = ||V_loc||_q, read with both representations held: from the
    # coefficients at q = 2, from the samples otherwise
    delta = _norm(V_both, gains.params.q)
    del V_both
    residual = sol.residual
    del sol  # u and the forcing are not read again

    # pieces of the inverted localized equation:
    # u_loc = B(F_loc) - B P(V_loc Q u_loc) - B M u_loc + (I - B E) u_loc
    # Each piece gives its L^r shell sequence and its share of the sum
    # (taken in that order) as soon as it is formed, and is then dropped.
    mainline = {}

    def piece(name, fld):
        mainline[name] = shell_norms(part, fld, [r])[0][0].tolist()
        return fld

    nl = eq.nonlinearity(V_loc, u_loc)
    recon = piece("forcing_side", apply(B, apply(eq.L, u_loc) + nl))  # F_loc = L u_loc + nl
    recon = recon - piece("main_term", apply(B, nl))
    del nl
    recon = recon - piece("ball_remainder", apply(B, apply(es.M, u_loc)))
    recon = recon + piece("parametrix_defect",
                          u_loc.without_nyquist() - apply(B, apply(es.E, u_loc)))
    identity_err = l2_norm(recon - u_loc.without_nyquist()) / l2_norm(u_loc)
    del recon
    better = replace(eq.params, s=gains.params.s, p=gains.params.p + gains.epsilon)
    g2 = compute_gains(better) if check_params(better).ok else None
    # the one split of u_loc: the L^r norms for the mainline and the fit, the
    # L^r2 norms for the bootstrap recheck and, for a scalar equation, the
    # zone reports' du and c_rho = ||u_loc||_{sigma,r}
    u_norms, u_smooth = shell_norms(part, u_loc, [r] if g2 is None else [r, g2.params.r],
                                    [(sigma, r)] if eq.ncomp == 1 else [])
    u_seq = u_norms[0]
    mainline["u_loc"] = u_seq.tolist()
    mainline["identity_error"] = identity_err

    zone_ks = list(range(max(5, part.jmax - 4), part.jmax))[:4]
    if eq.ncomp == 1:
        zone_u, du, c_rho = u_loc, u_seq, u_smooth[0]
    else:  # a vector equation's zone reports read its first component, split on its own
        zone_u = u_loc.component(0)
        (du,), (c_rho,) = shell_norms(part, zone_u, [r], [(sigma, r)])
    zone_reports = _zone_reports(V_loc, zone_u, eq.Q, zone_ks, gains.params, part, du,
                                 c_rho, delta)

    decay = dyadic_decay_report(u_seq, r, sigma, window, part, gains.epsilon)
    a = DecaySequence(np.asarray(decay.a_k))

    consts = [c for z in zone_reports for c in z.constants
              if c is not None and math.isfinite(c)]
    C0delta = delta * (max(consts) if consts else 1.0)
    # the majorant's convolution part, then the least Crho lifting it over a
    conv = convolution_majorant(a, theta, C0delta, 0.0).values
    tail = 2.0 ** (-theta * np.arange(len(a), dtype=float))
    lo, hi = window
    crho_fit = float(np.max((a.values - conv)[lo:hi + 1] / tail[lo:hi + 1]))
    crho_fit = max(crho_fit, 1e-300)
    majorant = {"theta": theta, "C0delta": C0delta, "Crho": crho_fit}

    eps_it = theta / 2.0
    cap = delta_cap(eps_it)
    iteration: dict = {"eps": eps_it, "delta": C0delta, "delta_cap": cap,
                       "admissible": bool(0.0 < C0delta < cap)}
    if iteration["admissible"]:
        scaled = DecaySequence(a.values / crho_fit)
        ip = IterationParams(eps=eps_it, delta=C0delta, S=lo)
        holds, first_bad = hypothesis_holds(scaled, ip)
        iteration["holds"] = bool(holds)
        iteration["first_violation"] = first_bad
        if holds:
            iteration["M"] = decay_bound(scaled, ip)

    recheck = None if g2 is None else dyadic_decay_report(
        u_norms[1], g2.params.r, g2.params.sigma, window, part, g2.epsilon)

    passed = bool(decay.passed and residual <= 1e-10)
    return ProbeReport(
        kind=eq.kind, grid=(grid.dim, grid.points_per_axis), rho=rho,
        gains=gains, residual=residual, delta=delta, decay=decay,
        zone_reports=tuple(zone_reports), mainline=mainline, majorant=majorant,
        iteration=iteration, bootstrap_recheck=recheck, passed=passed,
    )
