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

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exponents import GainReport, RegularityParams, check_params, compute_gains
from .grid import (GridSpec, SpectralField, _pair_product_fine, field_from_padded,
                   grid_product, lp_norm, padded_physical, random_field)
from .iteration import (DecaySequence, IterationParams, convolution_majorant,
                        decay_bound, delta_cap, hypothesis_holds, two_sided_kernel)
from .lp import DyadicNormSequence, LPPartition, build_partition, dyadic_norm_sequence
from .paraproduct import zone_estimate_report
from .psido import fit_log2_slope, parametrix, split_elliptic
from .smooth import ramp_down
from . import symbols as sym
from .symbols import Symbol, apply


# -- equations ---------------------------------------------------------------


@dataclass
class EquationSpec:
    """A model equation with its exponent data and nonlinearity structure.

    `nonlinearity(V, u)` evaluates P(V Q u); `coefficient(u)` produces the
    field V(u) occupying the rough-coefficient slot.
    """

    kind: str
    params: RegularityParams
    ncomp: int
    amplitude: float
    L: Symbol
    P: Symbol
    Q: Symbol
    coefficient: object
    nonlinearity: object
    forcing_projector: object = None


def _quadratic_term(P: Symbol, Q: Symbol):
    """Dealiased (V, u) -> P(V Q u), with Q applied to each component of u.

    V contracts against each component's Q-output when the counts match
    ((V.grad) u) and broadcasts otherwise.
    """

    def nonlinearity(V: SpectralField, u: SpectralField) -> SpectralField:
        qu = np.concatenate([apply(Q, u.component(c)).coefficients
                             for c in range(u.ncomp)])
        pv = padded_physical(V)
        pq = padded_physical(SpectralField(u.grid, freq=qu))
        pq = pq.reshape((u.ncomp, -1) + pq.shape[1:])
        fine = np.concatenate([_pair_product_fine(pv, w) for w in pq])
        del pv, pq  # free the padded factors before the transform back
        return apply(P, field_from_padded(u.grid, fine))

    return nonlinearity


def _ns_spec(n: int, s: float, p: float, amplitude: float) -> EquationSpec:
    L = sym.multiplier(2.0, lambda *xis: sum(np.asarray(a) ** 2 for a in xis),
                       "neg_laplacian")
    P = sym.leray_projector()
    gradv = sym.gradient_symbol()
    return EquationSpec(
        kind="stationary-navier-stokes",
        params=RegularityParams(n=n, alpha=2.0, beta=0.0, gamma=1.0, s=s, p=p),
        ncomp=n, amplitude=amplitude, L=L, P=P, Q=gradv,
        coefficient=lambda u: u,
        nonlinearity=_quadratic_term(P, gradv),
        forcing_projector=lambda f: apply(P, f),
    )


def _biharmonic_spec(n: int, s: float, p: float, amplitude: float) -> EquationSpec:
    L = sym.bilaplacian_symbol()
    P = sym.multiplier(2.0, lambda *xis: (1j * xis[0]) ** 2, "d11")
    Q = sym.grad_symbol(0)
    return EquationSpec(
        kind="biharmonic4d-toy",
        params=RegularityParams(n=n, alpha=4.0, beta=2.0, gamma=1.0, s=s, p=p),
        ncomp=1, amplitude=amplitude, L=L, P=P, Q=Q,
        coefficient=lambda u: apply(Q, u),
        nonlinearity=_quadratic_term(P, Q),
    )


def _gjms_spec(n: int, s: float, p: float, amplitude: float) -> EquationSpec:
    # leading part |xi|^n; conformal-power coefficient reduced to the first
    # integer power when (n-2)/3 is fractional
    L = sym.multiplier(float(n), lambda *xis: sum(np.asarray(a) ** 2 for a in xis) ** (n / 2.0),
                       "halfpower_laplacian")
    P = sym.divergence_symbol()
    gradv = sym.gradient_symbol()
    lam3 = sym.fractional_laplacian_symbol(1.5)
    return EquationSpec(
        kind="gjms-toy",
        params=RegularityParams(n=n, alpha=float(n), beta=1.0, gamma=1.0, s=s, p=p),
        ncomp=1, amplitude=amplitude, L=L, P=P, Q=gradv,
        coefficient=lambda u: apply(lam3, u),
        nonlinearity=_quadratic_term(P, gradv),
    )


_DEFAULT_DATA = {
    # kind -> {n: (s, p)}
    "stationary-navier-stokes": {2: (1.0, 4.0), 4: (1.0, 2.0)},
    "biharmonic4d-toy": {2: (2.0, 1.5), 4: (2.0, 2.0)},
    "gjms-toy": {3: (1.5, 2.0)},
}


def equation_spec(kind: str, n: int | None = None, s: float | None = None,
                  p: float | None = None, amplitude: float = 1e-2) -> EquationSpec:
    """Build a model equation; defaults re-derive passing data per dimension."""
    aliases = {"ns": "stationary-navier-stokes", "stationary-navier-stokes":
               "stationary-navier-stokes", "biharmonic": "biharmonic4d-toy",
               "biharmonic4d-toy": "biharmonic4d-toy", "gjms": "gjms-toy",
               "gjms-toy": "gjms-toy"}
    if kind not in aliases:
        raise KeyError(f"unknown equation kind {kind!r}")
    kind = aliases[kind]
    table = _DEFAULT_DATA[kind]
    if n is None:
        n = min(table)
    if n not in table and (s is None or p is None):
        raise ValueError(f"{kind} has no default data for n={n}; pass s and p")
    s0, p0 = table.get(n, (None, None))
    s = s0 if s is None else s
    p = p0 if p is None else p
    if kind == "stationary-navier-stokes":
        eq = _ns_spec(n, s, p, amplitude)
    elif kind == "biharmonic4d-toy":
        eq = _biharmonic_spec(n, s, p, amplitude)
    else:
        eq = _gjms_spec(n, s, p, amplitude)
    rep = check_params(eq.params)
    if not rep.ok:
        raise ValueError(f"{kind} data (n={n}, s={s}, p={p}) violates: "
                         + ", ".join(rep.violations))
    return eq


def custom_equation(n: int, L_name: str, P_name: str, Q_name: str,
                    alpha: float, beta: float, gamma: float,
                    s: float, p: float, amplitude: float = 1e-2) -> EquationSpec:
    """Custom scalar equation from registry symbols, with V(u) = u."""
    L = sym.resolve_symbol(L_name)
    P = sym.resolve_symbol(P_name)
    Q = sym.resolve_symbol(Q_name)
    eq = EquationSpec(
        kind="custom",
        params=RegularityParams(n=n, alpha=alpha, beta=beta, gamma=gamma, s=s, p=p),
        ncomp=1, amplitude=amplitude, L=L, P=P, Q=Q,
        coefficient=lambda u: u, nonlinearity=_quadratic_term(P, Q),
    )
    rep = check_params(eq.params)
    if not rep.ok:
        raise ValueError("custom equation violates: " + ", ".join(rep.violations))
    return eq


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
    gains = compute_gains(eq.params)
    g_pow = gains.params.sigma + grid.dim / 2.0 - eq.params.alpha + _TARGET_SLOPE
    f = random_field(grid, seed, ncomp=eq.ncomp, band=grid.points_per_axis / 4,
                     radial_profile=lambda r: (1.0 + r) ** (-g_pow))
    if eq.forcing_projector is not None:
        f = eq.forcing_projector(f)
    nrm = lp_norm(f, 2)
    if nrm == 0:
        raise ValueError("degenerate forcing draw")
    return f * (eq.amplitude / nrm)


def _inverse_multiplier(L: Symbol) -> Symbol:
    if L.kind != "multiplier":
        raise ValueError("manufacture needs a pure-multiplier leading operator")

    def inv(*xis, _f=L.xi_func):
        vals = np.asarray(_f(*xis))
        safe = np.where(vals == 0, 1.0, vals)
        return np.where(vals == 0, 0.0, 1.0 / safe)

    return sym.multiplier(-L.order, inv, name=f"{L.name}:inverse")


@dataclass
class ManufacturedSolution:
    u: SpectralField
    forcing: SpectralField
    residual: float
    iterations: int
    update_norms: tuple


def _residual(eq: EquationSpec, u: SpectralField, nl: SpectralField,
              forcing: SpectralField) -> float:
    """||L u + nl - f||_2 / ||f||_2, given nl = P(V(u) Q u)."""
    den = lp_norm(forcing, 2)
    return lp_norm(apply(eq.L, u) + nl - forcing, 2) / (den if den > 0 else 1.0)


def equation_residual(eq: EquationSpec, u: SpectralField,
                      forcing: SpectralField) -> float:
    """Fresh relative residual ||L u + P(V(u) Q u) - f||_2 / ||f||_2.

    Absolute for an identically-zero forcing.
    """
    return _residual(eq, u, eq.nonlinearity(eq.coefficient(u), u), forcing)


def manufactured_solution(eq: EquationSpec, grid: GridSpec, seed: int = 7,
                          tol: float = 1e-11, max_iter: int = 300,
                          forcing: SpectralField | None = None) -> ManufacturedSolution:
    """Small-data fixed-point solve of L u + P(V(u) Q u) = f.

    Plain iteration u <- L^{-1}(f - P(V(u) Q u)) on mean-zero fields; raises
    if the residual grows over five successive iterates (non-contraction).
    Each iterate's nonlinearity serves both its residual and the next update.
    """
    if forcing is None:
        forcing = smooth_forcing(eq, grid, seed)
    Linv = _inverse_multiplier(eq.L)
    u = apply(Linv, forcing)
    nl = eq.nonlinearity(eq.coefficient(u), u)
    updates = []
    res_prev = math.inf
    growth = 0
    for it in range(1, max_iter + 1):
        u_next = apply(Linv, forcing - nl)
        if eq.forcing_projector is not None:
            u_next = eq.forcing_projector(u_next)
        updates.append(lp_norm(u_next - u, 2))
        u = u_next
        nl = eq.nonlinearity(eq.coefficient(u), u)
        res = _residual(eq, u, nl, forcing)
        if res <= tol:
            return ManufacturedSolution(u, forcing, res, it, tuple(updates))
        growth = growth + 1 if res > res_prev else 0
        if growth >= 5:
            raise RuntimeError(
                f"fixed-point iteration diverging (residual {res:.3e} after {it} its); "
                "reduce the amplitude")
        res_prev = res
    raise RuntimeError(f"no contraction to {tol} within {max_iter} iterations "
                       f"(residual {res:.3e})")


# -- localization ----------------------------------------------------------------


def cutoff_field(grid: GridSpec, rho: float) -> SpectralField:
    """Smooth radial plateau cutoff: 1 inside B_rho, 0 outside B_2rho.

    Centered at the cell midpoint so the support never wraps.
    """
    if not 0.0 < rho < math.pi / 4.0:
        raise ValueError(f"rho must lie in (0, pi/4), got {rho}")
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


def _check_window(window: tuple, part: LPPartition) -> None:
    """Raise unless the fit window sits inside [2, jmax-2] and spans 4 shells."""
    lo, hi = window
    if not (2 <= lo and hi <= part.jmax - 2):
        raise ValueError(f"window {window} must sit inside [2, {part.jmax - 2}]")
    if hi - lo + 1 < 4:
        raise ValueError(f"window {window} shorter than 4 shells")


def dyadic_decay_report(seq: DyadicNormSequence, sigma: float, window: tuple,
                        part: LPPartition, epsilon_theory: float,
                        tolerance: float = 0.1) -> DecayReport:
    """Fit the decay of a_k = 2^(sigma k) seq_k over the window (seq: every shell)."""
    _check_window(window, part)
    lo, hi = window
    r = seq.r
    ks = np.arange(part.jmax + 1, dtype=float)
    a = (2.0 ** (sigma * ks)) * seq.values
    fit = fit_log2_slope(range(lo, hi + 1), a[lo:hi + 1], floor=1e-14)
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

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), sort_keys=True, indent=1)
                              + "\n")


def run_probe(eq: EquationSpec, grid: GridSpec, rho: float = 0.75,
              seed: int = 7, tolerance: float = 0.1,
              fit_window: tuple | None = None,
              with_bootstrap_recheck: bool = True) -> ProbeReport:
    """Execute the full probe and assemble the report.

    Raises ValueError (named violations) if the equation data fails the
    structural hypotheses before any field work starts.  The default
    cutoff uses the widest admissible transition: at desk resolutions a
    narrow transition under-resolves and the decay fit then measures the
    cutoff's spectral tail instead of the solution (narrow cutoffs need
    finer grids: the same probe passes at rho = pi/8 once N >= 1024).
    """
    if grid.dim != eq.params.n:
        raise ValueError(f"grid dim {grid.dim} != equation dimension {eq.params.n}")
    gains = compute_gains(eq.params)
    part = build_partition(grid)
    sigma, r, theta = gains.params.sigma, gains.params.r, gains.theta
    window = (2, part.jmax - 2) if fit_window is None else tuple(fit_window)
    _check_window(window, part)

    sol = manufactured_solution(eq, grid, seed)
    u_loc = localize(sol.u, rho)
    V_full = eq.coefficient(sol.u)
    # the coefficient is cut with the doubled-plateau window, clamped to the
    # admissible parameter range when 2*rho exceeds it
    eta2 = cutoff_field(grid, min(2.0 * rho, math.pi / 4.0 * 0.999))
    V_loc = grid_product(eta2, V_full)
    delta = lp_norm(V_loc, gains.q)

    es = split_elliptic(eq.L, grid, C2=4.0)
    B = parametrix(es.E, grid, C2=4.0)

    # pieces of the inverted localized equation:
    # u_loc = B(F_loc) - B P(V_loc Q u_loc) - B M u_loc + (I - B E) u_loc
    Lu = apply(eq.L, u_loc)  # first: caches u_loc's coefficients for the nonlinearity
    nl = eq.nonlinearity(V_loc, u_loc)
    F_loc, main_term = Lu + nl, apply(B, nl)
    del Lu, nl  # not used again; lowers the peak memory of the stages below
    bf = apply(B, F_loc)
    bm = apply(B, apply(es.M, u_loc))
    defect = u_loc.without_nyquist() - apply(B, apply(es.E, u_loc))
    recon = bf - main_term - bm + defect
    identity_err = lp_norm(recon - u_loc.without_nyquist(), 2) / lp_norm(u_loc, 2)
    u_seq = dyadic_norm_sequence(part, u_loc, r)  # serves the mainline and the fit
    mainline = {name: dyadic_norm_sequence(part, fld, r).values.tolist()
                for name, fld in (("main_term", main_term), ("forcing_side", bf),
                                  ("ball_remainder", bm), ("parametrix_defect", defect))}
    mainline["u_loc"] = u_seq.values.tolist()
    mainline["identity_error"] = identity_err

    zone_ks = list(range(max(5, part.jmax - 4), part.jmax))[:4]
    u_zone = u_loc if eq.ncomp == 1 else u_loc.component(0)
    zone_reports = [zone_estimate_report(V_loc, u_zone, eq.Q, k, gains.params, part)
                    for k in zone_ks]

    decay = dyadic_decay_report(u_seq, sigma, window, part, gains.epsilon, tolerance)
    a = DecaySequence(np.asarray(decay.a_k))

    consts = [z.as_dict()["zone"][zn]["constant"]
              for z in zone_reports for zn in ("I+II", "III", "IV")]
    consts = [c for c in consts if c is not None and math.isfinite(c)]
    C0delta = delta * (max(consts) if consts else 1.0)
    conv0 = two_sided_kernel(len(a), theta) @ a.values
    tail = 2.0 ** (-theta * np.arange(len(a), dtype=float))
    lo, hi = window
    crho_fit = float(np.max((a.values - C0delta * conv0)[lo:hi + 1] / tail[lo:hi + 1]))
    crho_fit = max(crho_fit, 1e-300)
    maj = convolution_majorant(a, theta, C0delta, crho_fit)
    maj_ok = bool(np.all(a.values[lo:hi + 1] <= maj.values[lo:hi + 1] * (1 + 1e-12)))
    majorant = {"theta": theta, "C0delta": C0delta, "Crho": crho_fit,
                "holds_on_window": maj_ok}

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

    recheck = None
    if with_bootstrap_recheck:
        better = RegularityParams(
            n=eq.params.n, alpha=eq.params.alpha, beta=eq.params.beta,
            gamma=eq.params.gamma, s=gains.params.s,
            p=gains.params.p + gains.epsilon)
        rep2 = check_params(better)
        if rep2.ok:
            g2 = compute_gains(better)
            recheck = dyadic_decay_report(dyadic_norm_sequence(part, u_loc, g2.params.r),
                                          g2.params.sigma, window, part, g2.epsilon,
                                          tolerance)

    passed = bool(decay.passed and sol.residual <= 1e-10)
    return ProbeReport(
        kind=eq.kind, grid=(grid.dim, grid.points_per_axis), rho=rho,
        gains=gains, residual=sol.residual, delta=delta, decay=decay,
        zone_reports=tuple(zone_reports), mainline=mainline, majorant=majorant,
        iteration=iteration, bootstrap_recheck=recheck, passed=passed,
    )
