"""Independent computations in plain numpy, made apart from `lpw`.

Nothing here imports `lpw`.  Transforms go through the untouched numpy
originals, so they never add to the transform counts.  The conventions are
the documented ones: the torus [0, 2pi)^n, the integer lattice in FFT layout,
coefficients fftn(f) / N^n, Nyquist modes cleared before every operator, and
the dyadic ring profiles telescoped from one exp(-1/t) ramp.

Each `check_*` function takes plain arrays or report dicts and returns the
list of what is wrong with them; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from fftcount import RAW


# -- lattice, profiles, transforms -------------------------------------------


def frequencies(N: int) -> np.ndarray:
    return np.concatenate([np.arange(0, N // 2), np.arange(-N // 2, 0)]).astype(float)


def lattice(dim: int, N: int) -> list:
    return np.meshgrid(*([frequencies(N)] * dim), indexing="ij")


def nyquist_mask(dim: int, N: int) -> np.ndarray:
    return np.any(np.stack(lattice(dim, N)) == -(N // 2), axis=0)


def _step(t):
    t = np.asarray(t, dtype=float)
    out = (t >= 1.0).astype(float)
    mid = (t > 0.0) & (t < 1.0)
    a = np.exp(-1.0 / t[mid])
    b = np.exp(-1.0 / (1.0 - t[mid]))
    out[mid] = a / (a + b)
    return out


def _psi(r):
    return _step((5.0 / 3.0 - r) / (5.0 / 3.0 - 6.0 / 5.0))


def _ring_count(N: int) -> int:
    """J + 1 profiles: the cap, shells 1..J-1 and the top shell, J = log2(N)-1."""
    return int(round(math.log2(N)))


def ring_profile(dim: int, N: int, j: int) -> np.ndarray:
    """Profile j: the cap, a shell, or the top shell absorbing the band."""
    r = np.sqrt(sum(a * a for a in lattice(dim, N)))
    top = _ring_count(N) - 1
    if j == 0:
        return _psi(r)
    if j == top:
        return 1.0 - _psi(r / 2.0 ** (top - 1))
    return _psi(r / 2.0**j) - _psi(r / 2.0 ** (j - 1))


def ring_profiles(dim: int, N: int) -> list:
    return [ring_profile(dim, N, j) for j in range(_ring_count(N))]


def physical(coeffs: np.ndarray) -> np.ndarray:
    axes = tuple(range(1, coeffs.ndim))
    return RAW.ifftn(coeffs, axes=axes) * np.prod(coeffs.shape[1:])


def lp_norm(values: np.ndarray, p: float) -> float:
    """Normalized-measure L^p norm of the pointwise modulus over components."""
    mod = np.sqrt(np.sum(np.abs(values) ** 2, axis=0))
    if p == math.inf:
        return float(mod.max())
    return float(np.mean(mod**p) ** (1.0 / p))


def l2(coeffs: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))


def padded_product(a: np.ndarray, b: np.ndarray, contract: bool = False) -> np.ndarray:
    """Coefficients of a*b on the same lattice, exact by 3/2 zero padding.

    `a` and `b` carry a leading component axis; scalars broadcast, and with
    `contract` matching components are summed (a dot product).
    """
    dim, N = a.ndim - 1, a.shape[-1]
    M = 3 * N // 2
    idx = frequencies(N).astype(int) % M
    place = (slice(None),) + np.ix_(*([idx] * dim))

    def fine(c):
        big = np.zeros((c.shape[0],) + (M,) * dim, dtype=complex)
        big[place] = c
        return RAW.ifftn(big, axes=tuple(range(1, dim + 1))) * M**dim

    prod = fine(a) * fine(b)
    if contract:
        prod = prod.sum(axis=0, keepdims=True)
    return (RAW.fftn(prod, axes=tuple(range(1, dim + 1))) / M**dim)[place]


# -- zones ----------------------------------------------------------------------


def product_shell(V: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """P_k(V w) of scalar fields from the own padded product and ring profile."""
    return padded_product(V, w) * ring_profile(V.ndim - 1, V.shape[-1], k)


def check_cover(V, w, k, outputs: dict, tol: float = 1e-10) -> list:
    """Every zone-split total and reference must equal the own P_k(V w).

    The error scale is ||V||_2 ||w||_inf, as in the package's own gate.
    """
    ref = product_shell(V, w, k)
    scale = lp_norm(physical(V), 2) * lp_norm(physical(w), math.inf)
    bad = []
    for name, coeffs in outputs.items():
        err = l2(coeffs - ref) / scale
        if not err <= tol:
            bad.append(f"k={k} {name}: {err:.3e} from the own product shell")
    return bad


def check_zone_reports(V, q: float, r: float, reports: list,
                       spread_limit: float = 10.0) -> list:
    """Branch flags from the sign conditions, delta = ||V||_q, finite sides.

    The I+II and III constants must stay within `spread_limit` across k.
    """
    bad = []
    want_iii = "r>=q" if r >= q else "r<q"
    want_iv = "r>=q'" if 1.0 / r + 1.0 / q <= 1.0 else "r<q'"
    delta = lp_norm(physical(V), q)
    for rep in reports:
        if (rep["branch_flags"]["III"], rep["branch_flags"]["IV"]) != (want_iii, want_iv):
            bad.append(f"k={rep['k']}: branches {rep['branch_flags']}")
        if not abs(rep["delta"] - delta) <= 1e-12 * delta:
            bad.append(f"k={rep['k']}: delta {rep['delta']!r} vs own {delta!r}")
        for zone, est in rep["zone"].items():
            if not (math.isfinite(est["lhs"]) and est["lhs"] >= 0.0
                    and math.isfinite(est["rhs"]) and est["rhs"] > 0.0):
                bad.append(f"k={rep['k']} zone {zone}: sides {est['lhs']!r}, {est['rhs']!r}")
    for zone in ("I+II", "III"):
        consts = [rep["zone"][zone]["constant"] for rep in reports]
        if not all(c is not None and c > 0.0 for c in consts):
            bad.append(f"zone {zone}: constants {consts}")
        elif max(consts) / min(consts) > spread_limit:
            bad.append(f"zone {zone}: spread {max(consts) / min(consts):.3g}")
    return bad


# -- probe ------------------------------------------------------------------------


def _clear_nyquist(c: np.ndarray) -> np.ndarray:
    c = c.copy()
    c[:, nyquist_mask(c.ndim - 1, c.shape[-1])] = 0.0
    return c


def ns_residual(u: np.ndarray, f: np.ndarray) -> float:
    """||-Lap u + Leray((u.grad) u) - f||_2 / ||f||_2 for a 2-D or 3-D velocity."""
    n, N = u.shape[0], u.shape[-1]
    xi = lattice(n, N)
    u = _clear_nyquist(u)
    grads = np.stack([1j * xi[d] * u[c] for c in range(n) for d in range(n)])
    adv = np.stack([
        padded_product(u, grads[c * n:(c + 1) * n], contract=True)[0] for c in range(n)
    ])
    adv = _clear_nyquist(adv)
    k2 = sum(a * a for a in xi)
    safe = np.where(k2 > 0, k2, 1.0)
    dot = sum(xi[d] * adv[d] for d in range(n))
    leray = np.stack([adv[c] - xi[c] * dot / safe for c in range(n)])
    res = k2 * u + leray - f
    return l2(res) / l2(f)


def biharmonic_residual(u: np.ndarray, f: np.ndarray) -> float:
    """||Lap^2 u + d_0^2((d_0 u)^2) - f||_2 / ||f||_2."""
    N, dim = u.shape[-1], u.ndim - 1
    xi = lattice(dim, N)
    u = _clear_nyquist(u)
    du = 1j * xi[0] * u
    prod = _clear_nyquist(padded_product(du, du))
    k2 = sum(a * a for a in xi)
    res = k2 * k2 * u - xi[0] ** 2 * prod - f
    return l2(res) / l2(f)


def closed_form(n, alpha, beta, gamma, s, p) -> dict:
    """q, the lifted (sigma, r) and epsilon from the paper's formulas.

    sigma is the midpoint of (max(gamma, s), min(alpha-beta, s+1)) and r keeps
    sigma - n/r = s - n/p; when s = alpha - beta, s is first lowered by
    min(1/4, (s-gamma)/2) along the scaling line.
    """
    nu = alpha - beta
    if abs(s - nu) <= 1e-12:
        eta = min(0.25, (s - gamma) / 2.0)
        s, p = s - eta, n / (n / p - eta)
    sigma = 0.5 * (max(gamma, s) + min(nu, s + 1.0))
    r = n / (sigma - s + n / p)
    return {"q": n / (alpha - beta - gamma), "sigma": sigma, "r": r,
            "epsilon": min(1.0, nu - sigma, gamma - sigma + n / r)}


def check_probe(report: dict, data: tuple, residual: float,
                tol: float = 1e-10) -> list:
    """Own residual, closed-form exponents, and the measured gain against them."""
    bad = []
    if not residual <= tol:
        bad.append(f"own residual {residual:.3e} > {tol}")
    want = closed_form(*data)
    got = report["params"]
    for key in ("q", "sigma", "r", "epsilon"):
        if not math.isclose(got[key], want[key], rel_tol=1e-12):
            bad.append(f"{key} {got[key]!r} vs closed form {want[key]!r}")
    fit = report["fit"]
    lo, hi = fit["window"]
    ks = [k for k in range(lo, hi + 1) if report["a_k"][k] > 1e-14]
    slope = np.polyfit(ks, np.log2([report["a_k"][k] for k in ks]), 1)[0]
    if not abs(-slope - fit["epsilon_measured"]) <= 1e-9:
        bad.append(f"fit {fit['epsilon_measured']!r} vs own refit {-slope!r}")
    if not fit["epsilon_measured"] >= want["epsilon"] - 0.1:
        bad.append(f"measured gain {fit['epsilon_measured']:.4f} < "
                   f"closed form {want['epsilon']:.4f} - 0.1")
    if not report["pass"]:
        bad.append("probe report does not pass")
    return bad


# -- calculus ----------------------------------------------------------------------


def check_partition(profiles: list, tol: float = 1e-14) -> list:
    """The package's ring profiles equal the own ones and sum to 1."""
    dim, N = profiles[0].ndim, profiles[0].shape[0]
    own = ring_profiles(dim, N)
    bad = []
    if len(own) != len(profiles):
        return [f"{len(profiles)} profiles, expected {len(own)}"]
    dev = float(np.max(np.abs(sum(profiles) - 1.0)))
    if not dev <= tol:
        bad.append(f"profiles sum to 1 only within {dev:.3e}")
    diff = max(float(np.max(np.abs(a - b))) for a, b in zip(profiles, own))
    if not diff <= 1e-13:
        bad.append(f"profiles differ from the own ones by {diff:.3e}")
    return bad


def check_bernstein(packets: list, js: list, report: dict, tol: float = 0.15) -> list:
    """Own ||f||_inf/||f||_2 slope over shells is n/2 and matches the report."""
    dim = packets[0].ndim - 1
    ratios = []
    for c in packets:
        vals = physical(c)
        ratios.append(lp_norm(vals, math.inf) / lp_norm(vals, 2))
    slope = float(np.polyfit(js, np.log2(ratios), 1)[0])
    bad = []
    if not abs(slope - dim / 2.0) <= tol:
        bad.append(f"Bernstein slope {slope:.4f}, expected {dim / 2.0}")
    if not abs(slope - report["slope"]) <= 1e-9:
        bad.append(f"report slope {report['slope']!r} vs own {slope!r}")
    return bad


def check_commutator(left: np.ndarray, right: np.ndarray, report: dict) -> list:
    """P_k A - A P_k vanishes for a multiplier A; the report's fast path says 0."""
    bad = []
    err = l2(left - right) / max(l2(left), 1e-300)
    if not err <= 1e-14:
        bad.append(f"multiplier commutator {err:.3e}")
    if report["multiplier_commutator"] != 0.0:
        bad.append(f"report multiplier commutator {report['multiplier_commutator']!r}")
    for label, fit in report["slopes"].items():
        kept = [(k, v) for k, v in zip(report["ks"], fit["values"]) if v > 1e-14]
        slope = float(np.polyfit([k for k, _ in kept], np.log2([v for _, v in kept]), 1)[0])
        if not (abs(slope - fit["slope"]) <= 1e-9 and slope <= fit["limit"]):
            bad.append(f"{label}: slope {fit['slope']!r}, own {slope!r}, "
                       f"limit {fit['limit']}")
    return bad


def check_spreads(report: dict, key: str, limit: float = 10.0) -> list:
    """Recomputed max/min spread per symbol is finite and within `limit`."""
    bad = []
    for name, res in report["symbols"].items():
        vals = res[key]
        if not all(math.isfinite(v) and v > 0.0 for v in vals):
            bad.append(f"{name}: values {vals}")
        elif not max(vals) / min(vals) <= limit:
            bad.append(f"{name}: spread {max(vals) / min(vals):.3g}")
    return bad


def direct_quantization(terms: list, coeffs: np.ndarray) -> np.ndarray:
    """sum_xi sum_t b_t(x) c_t(xi) fhat(xi) exp(i x.xi), Nyquist cleared.

    `terms` holds (b, c) pairs of callables on coordinate arrays.
    """
    dim, N = coeffs.ndim - 1, coeffs.shape[-1]
    coeffs = _clear_nyquist(coeffs)
    xi = [a.ravel() for a in lattice(dim, N)]
    grid = 2.0 * np.pi * np.arange(N) / N
    x = [a.ravel() for a in np.meshgrid(*([grid] * dim), indexing="ij")]
    phase = sum(np.outer(xa, ka) for xa, ka in zip(x, xi))
    kernel = sum(np.outer(b(*x), c(*xi)) for b, c in terms) * np.exp(1j * phase)
    out = kernel @ coeffs.reshape(coeffs.shape[0], -1).T
    return out.T.reshape(coeffs.shape)


def check_quantization(terms: list, coeffs: np.ndarray, applied: np.ndarray,
                       tol: float = 1e-12) -> list:
    ref = direct_quantization(terms, coeffs)
    err = l2(applied - ref) / l2(ref)
    return [] if err <= tol else [f"fast path {err:.3e} from the direct sum"]
