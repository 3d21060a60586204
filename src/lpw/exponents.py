"""Exponent bookkeeping for the critical-regularity estimates.

Closed-form arithmetic only: hypothesis checking for the operator-order /
integrability window, the critical exponent, the lifted smoothness pair
(sigma, r), the five auxiliary integrability exponents, the zone III and IV
branches and transfer exponents, and the decay gains epsilon and theta.
Everything is deterministic and re-evaluates exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RegularityParams:
    """Dimension, operator orders (alpha, beta, gamma), data (s, p), lift (sigma, r)."""

    n: int
    alpha: float
    beta: float
    gamma: float
    s: float
    p: float
    sigma: float | None = None
    r: float | None = None

    @property
    def nu(self) -> float:
        return self.alpha - self.beta

    @property
    def q(self) -> float:
        return critical_exponent(self.n, self.alpha, self.beta, self.gamma)

    def lifted(self) -> "RegularityParams":
        if self.sigma is None or self.r is None:
            return lift_parameters(self)
        return self


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    checks: tuple

    @property
    def violations(self) -> tuple:
        return tuple(c.name for c in self.checks if not c.ok)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
            "violations": list(self.violations),
        }


def check_hypotheses(n, alpha, beta, gamma, s, p) -> HypothesisReport:
    """Evaluate the structural hypotheses literally; failures are data.

    orders-nonnegative   alpha, beta, gamma >= 0
    order-gap            alpha > beta + gamma
    smoothness-upper     s <= alpha - beta
    smoothness-lower     s >= gamma
    criticality-upper    s - n/p < gamma
    criticality-lower    s - n/p > alpha - beta - n
    integrability-range  1 < p < inf
    """
    d = s - n / p
    checks = (
        HypothesisCheck("orders-nonnegative", alpha >= 0 and beta >= 0 and gamma >= 0,
                        f"alpha={alpha}, beta={beta}, gamma={gamma}"),
        HypothesisCheck("order-gap", alpha > beta + gamma,
                        f"alpha={alpha} vs beta+gamma={beta + gamma}"),
        HypothesisCheck("smoothness-upper", alpha - beta >= s,
                        f"s={s} vs alpha-beta={alpha - beta}"),
        HypothesisCheck("smoothness-lower", s >= gamma, f"s={s} vs gamma={gamma}"),
        HypothesisCheck("criticality-upper", d < gamma, f"s-n/p={d} vs gamma={gamma}"),
        HypothesisCheck("criticality-lower", d > alpha - beta - n,
                        f"s-n/p={d} vs alpha-beta-n={alpha - beta - n}"),
        HypothesisCheck("integrability-range", 1.0 < p < math.inf, f"p={p}"),
    )
    return HypothesisReport(ok=all(c.ok for c in checks), checks=checks)


def check_params(params: RegularityParams) -> HypothesisReport:
    return check_hypotheses(params.n, params.alpha, params.beta, params.gamma,
                            params.s, params.p)


def _require_hypotheses(params: RegularityParams) -> None:
    """Raise ValueError naming every structural hypothesis params fail."""
    rep = check_params(params)
    if not rep.ok:
        raise ValueError(f"hypotheses fail: {', '.join(rep.violations)}")


def critical_exponent(n, alpha, beta, gamma) -> float:
    """q = n / (alpha - beta - gamma), the borderline integrability of V."""
    gap = alpha - beta - gamma
    if gap <= 0:
        raise ValueError(f"order gap alpha-beta-gamma must be positive, got {gap}")
    q = n / gap
    if q <= 1.0:
        raise ValueError(f"critical exponent q={q} not in (1, inf)")
    return q


def lift_parameters(params: RegularityParams) -> RegularityParams:
    """Choose the lifted pair (sigma, r): midpoint sigma, scaling-matched r.

    sigma is the midpoint of (max(gamma, s), min(alpha-beta, s+1)); r keeps
    sigma - n/r = s - n/p.  The degenerate case s = alpha - beta (allowed by
    the hypotheses but leaving no room above s) is first lowered along the
    scaling line: s -> s - eta with eta = min(1/4, (s-gamma)/2) and p adjusted
    so s - n/p is preserved.
    """
    _require_hypotheses(params)
    n, s, p = params.n, params.s, params.p
    nu = params.nu
    if abs(s - nu) <= 1e-12:
        eta = min(0.25, (s - params.gamma) / 2.0)
        s_new = s - eta
        inv_p_new = (n / p - eta) / n
        if inv_p_new <= 0:
            raise ValueError("cannot lower smoothness along the scaling line")
        params = replace(params, s=s_new, p=1.0 / inv_p_new)
        s, p = params.s, params.p
    lo = max(params.gamma, s)
    hi = min(nu, s + 1.0)
    if hi <= lo:
        raise ValueError(f"empty admissible interval ({lo}, {hi}) for sigma")
    sigma = 0.5 * (lo + hi)
    r = n / (sigma - s + n / p)
    if not 1.0 < r < math.inf:
        raise ValueError(f"lifted integrability r={r} not in (1, inf)")
    return replace(params, sigma=sigma, r=r)


@dataclass(frozen=True)
class BootstrapExponents:
    """The five auxiliary integrability exponents of the linear reduction.

    1/p1 = 1/p + nu/n - s/n, 1/p2 = 1/p - s/n, p3 = p1,
    1/p4 = 1/p1 - 1/n, p5 = q.  An exponent whose reciprocal is <= 0 is
    supercritical (the function lands in every local L^t); it is reported as
    inf and flagged degenerate rather than rejected.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    p5: float
    degenerate: tuple
    inconsistent: tuple

    @property
    def values(self) -> tuple:
        return (self.p1, self.p2, self.p3, self.p4, self.p5)

    def as_dict(self) -> dict:
        return {
            "p1": self.p1, "p2": self.p2, "p3": self.p3, "p4": self.p4, "p5": self.p5,
            "degenerate": list(self.degenerate), "inconsistent": list(self.inconsistent),
        }


def bootstrap_exponents(params: RegularityParams) -> BootstrapExponents:
    _require_hypotheses(params)
    n, s, p = params.n, params.s, params.p
    nu = params.nu
    inv = {
        "p1": 1.0 / p + nu / n - s / n,
        "p2": 1.0 / p - s / n,
        "p3": 1.0 / p + nu / n - s / n,
        "p4": 1.0 / p + nu / n - s / n - 1.0 / n,
        "p5": 1.0 / params.q,
    }
    vals, degenerate, inconsistent = {}, [], []
    for name, iv in inv.items():
        if iv <= 0.0:
            vals[name] = math.inf
            degenerate.append(name)
        else:
            vals[name] = 1.0 / iv
            if vals[name] <= 1.0:
                inconsistent.append(name)
    return BootstrapExponents(
        p1=vals["p1"], p2=vals["p2"], p3=vals["p3"], p4=vals["p4"], p5=vals["p5"],
        degenerate=tuple(sorted(degenerate)), inconsistent=tuple(sorted(inconsistent)),
    )


def epsilon_gain(params: RegularityParams) -> float:
    """Dyadic decay gain: min{1, alpha-beta-sigma, gamma-sigma+n/r}."""
    params = params.lifted()
    eps = min(1.0, params.nu - params.sigma,
              params.gamma - params.sigma + params.n / params.r)
    if eps <= 0.0:
        raise ValueError(f"nonpositive gain {eps}: invalid lifted parameters")
    return eps


def zone_branches(params: RegularityParams) -> tuple:
    """The zone III and IV branches: ("r>=q" | "r<q", "r>=q'" | "r<q'")."""
    r, q = params.lifted().r, params.q
    return ("r>=q" if r >= q else "r<q",
            "r>=q'" if 1.0 / r + 1.0 / q <= 1.0 else "r<q'")


def zone_transfers(params: RegularityParams) -> dict:
    """The zone III and IV transfer exponents on both branches, keyed by the
    branch names of `zone_branches`; "r<q" is the lift -alpha+beta+sigma."""
    params = params.lifted()
    n, r, sigma = params.n, params.r, params.sigma
    lift = -params.alpha + params.beta + sigma
    return {
        "r>=q": sigma - params.gamma - n / r,
        "r<q": lift,
        "r>=q'": sigma - params.gamma,
        "r<q'": lift + n * (1.0 - 1.0 / r),
    }


def theta_exponent(params: RegularityParams) -> float:
    """Master-inequality decay rate: 90% of the admissible strict minimum.

    theta must lie strictly below the magnitudes of all four zone-transfer
    exponents (`zone_transfers`) and below the gain epsilon; taking 90% of
    the minimum keeps it reproducible and away from the boundary.
    """
    t = zone_transfers(params)
    bound = min(-t["r>=q"], -t["r<q"], t["r>=q'"], t["r<q'"], epsilon_gain(params))
    if bound <= 0.0:
        raise ValueError(f"nonpositive admissible minimum {bound} for theta")
    return 0.9 * bound


@dataclass(frozen=True)
class GainReport:
    """Everything the decay probe needs: lifted pair, gains, and exponents."""

    params: RegularityParams
    q: float
    epsilon: float
    theta: float
    bootstrap: BootstrapExponents
    lowered: bool

    def as_dict(self) -> dict:
        p = self.params
        return {
            "n": p.n, "alpha": p.alpha, "beta": p.beta, "gamma": p.gamma,
            "s": p.s, "p": p.p, "sigma": p.sigma, "r": p.r,
            "q": self.q, "epsilon": self.epsilon, "theta": self.theta,
            "bootstrap": self.bootstrap.as_dict(),
            "lowered": self.lowered,
        }


def compute_gains(params: RegularityParams) -> GainReport:
    """Full exponent pipeline: check, lift, bootstrap, gains."""
    _require_hypotheses(params)
    lifted = params.lifted()
    lowered = lifted.s != params.s
    return GainReport(
        params=lifted,
        q=lifted.q,
        epsilon=epsilon_gain(lifted),
        theta=theta_exponent(lifted),
        bootstrap=bootstrap_exponents(lifted),
        lowered=lowered,
    )
