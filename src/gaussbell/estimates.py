"""Desk-scale checks of the main weighted estimates in the Gauss model.

Three quantitative surfaces:

  * the bilinear space-time embedding: the integral of
    |grad_bar P_t f| |grad_bar P_t g| t dgamma dt against
    20 * q2 * ||f||_w * ||g||_{w^{-1}},
  * the weighted Riesz operator norm on the truncated Hermite subspace
    against 80 * q2,
  * the representation identity pairing the Riesz transform with the
    time-derivative of the one-form Poisson flow.

q2 values are grid lower bounds, which only tightens the inequalities
being checked.  Time integrals are truncated at a point T with an
explicit analytic tail certificate instead of adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .gauss import (
    FlowGrid,
    HermiteFunction,
    OneForm,
    WeightSpec,
    default_flow_grid,
    default_quad_order,
    exterior_derivative,
    generator_eigenvalues,
    gh_rule,
    hermite_design,
    q2_characteristic,
    riesz_apply,
    semigroup_apply,
    truncate_weight,
    weighted_inner,
)

TAIL_TARGET = 1e-8
TRUNCATION_LADDER = (2, 4, 8, 16, 32)

CSV_HEADER = "param,q2_lower,weighted_norm,bound_ratio,trunc_n,q2_trunc"


class EstimateError(ValueError):
    """An estimate check could not be formed from its inputs."""


@dataclass(frozen=True)
class EmbeddingResult:
    lhs: float
    bound: float
    ratio: float
    t_truncation: float
    tail_estimate: float
    q2_lower: float
    f_norm: float
    g_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NormResult:
    """Largest generalized singular value of the coefficient shift.

    weighted_norm is a lower bound of the true weighted operator norm
    (restriction to the truncated subspace).
    """

    weighted_norm: float
    q2: float
    bound_ratio: float
    subspace_dim: int

    def as_dict(self) -> dict:
        return asdict(self)


def _composite_gauss_legendre(t_max: float):
    """Composite Gauss-Legendre rule on [0, t_max]: unit panels, 16 nodes each."""
    panels = max(1, int(math.ceil(t_max)))
    edges = np.linspace(0.0, t_max, panels + 1)
    xg, wg = np.polynomial.legendre.leggauss(16)
    ts = []
    ws = []
    for a, b in zip(edges[:-1], edges[1:]):
        ts.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * wg)
    return np.concatenate(ts), np.concatenate(ws)


def _flow_parts(h: HermiteFunction, xg: np.ndarray):
    """Design at the x-nodes, Poisson rates and decay envelope of one flow.

    The envelope C(x) bounds |grad_bar P_t h|(x) <= e^{-t} C(x): every
    active mode decays at least like e^{-t}.
    """
    c = np.abs(h.array)
    design = hermite_design(h.order, xg)
    rates = np.sqrt(generator_eigenvalues(h))
    envelope = (design[:, :-1] @ (c * np.sqrt(np.arange(len(c))))[1:]
                + design @ (c * rates))
    return design, rates, envelope


def _space_time_gradient(coeffs: np.ndarray, eigenvalues: np.ndarray,
                         design: np.ndarray, t: np.ndarray):
    """|grad_bar| of a Poisson flow on the x-nodes for every t.

    coeffs are basis coefficients, eigenvalues the per-slot decay rates
    (sqrt(n) for functions, sqrt(m+1) for one-forms); design holds
    orthonormal basis values at the x-nodes.  The spatial derivative uses
    hhat_k' = sqrt(k) hhat_{k-1}.
    """
    k = np.arange(len(coeffs))
    decay = np.exp(-np.multiply.outer(t, eigenvalues))          # (T, n)
    spatial = design[:, :-1] @ ((decay * coeffs * np.sqrt(k)).T[1:])    # (X, T)
    temporal = design @ ((decay * coeffs * eigenvalues).T)              # (X, T)
    return np.sqrt(spatial**2 + temporal**2)


def bilinear_lhs(f: HermiteFunction, g: OneForm, w: WeightSpec,
                 grid: FlowGrid | None = None,
                 q2_value: float | None = None) -> EmbeddingResult:
    """Space-time bilinear integral and its weighted bound.

    f must lie in the range of the generator (zero constant coefficient).
    The t-integral runs over [0, T] with T chosen so that the analytic
    e^{-2t} tail envelope stays below TAIL_TARGET; the certificate is
    returned as tail_estimate.  Pass q2_value to reuse a characteristic
    already computed on the same grid.
    """
    if abs(f.coeffs[0]) > 0:
        raise EstimateError("f must have zero constant coefficient "
                            "(range of the generator)")
    grid = default_flow_grid() if grid is None else grid
    xg, wg = gh_rule(default_quad_order(w))
    q2 = q2_characteristic(w, grid).value if q2_value is None else q2_value
    f_norm = math.sqrt(max(weighted_inner(f, f, w), 0.0))
    g_norm = math.sqrt(max(weighted_inner(g, g, w.inverse()), 0.0))
    if not f.array.any() or not g.array.any():
        return EmbeddingResult(0.0, 0.0, 0.0, 0.0, 0.0, q2, f_norm, g_norm)

    design_f, eig_f, env_f = _flow_parts(f, xg)
    design_g, eig_g, env_g = _flow_parts(g, xg)
    x_const = float(np.dot(wg, env_f * env_g))
    t_max = 10.0
    while x_const * math.exp(-2 * t_max) * (t_max / 2 + 0.25) > TAIL_TARGET:
        t_max += 2.0
    tail = x_const * math.exp(-2 * t_max) * (t_max / 2 + 0.25)

    ts, tw = _composite_gauss_legendre(t_max)
    grad_f = _space_time_gradient(f.array, eig_f, design_f, ts)      # (X, T)
    grad_g = _space_time_gradient(g.array, eig_g, design_g, ts)
    space = wg @ (grad_f * grad_g)                              # (T,)
    lhs = float(np.dot(tw * ts, space))

    bound = 20.0 * q2 * f_norm * g_norm
    ratio = lhs / bound if bound > 0 else math.inf
    return EmbeddingResult(lhs, bound, ratio, t_max, tail, q2, f_norm, g_norm)


def weighted_riesz_norm(w: WeightSpec, n_dim: int,
                        grid: FlowGrid | None = None,
                        q2_value: float | None = None) -> NormResult:
    """Largest weighted singular value of the Riesz shift on span{hhat_1..hhat_N}.

    The norm is the largest ||D0 v|| / ||D1 v||, where D1 holds hhat_1..hhat_N
    and D0 the shifted family hhat_0..hhat_{N-1} at the Gauss-Hermite nodes,
    both scaled by sqrt(quadrature weight * w).  With D1 = QR it is the
    largest singular value of R^{-T} D0^T.  Working on the design instead of
    the Gram matrices' eigenproblem B v = lambda A v keeps the condition
    number unsquared (Van Loan 1976).

    With K nodes, N must stay below K for a constant weight (hhat_N
    vanishes at every node when N equals K), and at most K/2 otherwise:
    then every Gram integrand hhat_m hhat_n times the degree-(K-1) Taylor
    polynomial of the weight stays within the rule's exact degree 2K-1.
    The Gram matrix A = D1^T D1 must also pass a Cholesky test.
    """
    if n_dim < 2:
        raise EstimateError("subspace dimension must be >= 2")
    xg, wg = gh_rule(default_quad_order(w))
    n_max = len(xg) - 1 if w.kind == "const" else len(xg) // 2
    if n_dim > n_max:
        raise EstimateError(f"subspace dimension must be at most {n_max} for this "
                            f"weight on {len(xg)} quadrature nodes")
    design = hermite_design(n_dim, xg)                      # (X, N+1)
    weight = wg * w(xg)
    gram = design.T @ (design * weight[:, None])            # (N+1, N+1)
    if not np.all(np.isfinite(gram)):
        raise EstimateError("Gram matrix overflowed; raise the quadrature order")
    a = gram[1:, 1:]
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise EstimateError(
            "weighted Gram matrix is not positive definite at this "
            "quadrature order; raise the order or lower N") from exc
    scaled = design * np.sqrt(weight)[:, None]
    r = np.linalg.qr(scaled[:, 1:], mode="r")
    norm = float(np.linalg.norm(np.linalg.solve(r.T, scaled[:, :-1].T), 2))
    if q2_value is None:
        q2_value = q2_characteristic(w, grid or default_flow_grid()).value
    return NormResult(norm, q2_value, norm / (80.0 * q2_value), n_dim)


def representation_check(n: int) -> dict:
    """Pairing <R hhat_n, hhat_{n-1} dx> against the space-time flow integral.

    lhs is the direct inner product; rhs is 4 int <d P_t f, d/dt P_t g> t dt
    computed coefficientwise in t-quadrature.  The two agree in absolute
    value; the signed values are both reported.
    """
    if n < 1:
        raise EstimateError("n must be >= 1")
    f = HermiteFunction.basis(n)
    g = OneForm.basis(n - 1)
    lhs = weighted_inner(riesz_apply(f), g, WeightSpec.constant(1.0))

    t_max = 20.0
    ts, tw = _composite_gauss_legendre(t_max)
    eig_g = np.sqrt(generator_eigenvalues(g))

    def integrand(t):
        df = exterior_derivative(semigroup_apply(f, t)).array
        dt_g = -eig_g * np.exp(-eig_g * t) * g.array
        m = min(len(df), len(dt_g))
        return float(np.dot(df[:m], dt_g[:m]))

    vals = np.array([integrand(t) for t in ts])
    rhs = 4.0 * float(np.dot(tw * ts, vals))
    # |integrand| <= n e^{-2 t sqrt(n)}; tail of 4 int t e^{-2 sqrt(n) t}
    root = math.sqrt(n)
    tail = 4.0 * n * math.exp(-2 * root * t_max) * (
        t_max / (2 * root) + 1 / (4 * n))
    return {"lhs": float(lhs), "rhs": rhs,
            "abs_gap": abs(abs(lhs) - abs(rhs)), "t_truncation": t_max,
            "tail_bound": tail}


def _family_weight(family: str, param: float) -> WeightSpec:
    if family == "exp":
        return WeightSpec.exp_linear(param)
    if family == "const":
        return WeightSpec.constant(param)
    raise EstimateError(f"unknown weight family {family!r}; use exp or const")


def sweep_report(family: str, params, n_dim: int = 32,
                 grid: FlowGrid | None = None) -> list:
    """Weight-family sweep: q2, weighted norm, and the TRUNCATION_LADDER levels.

    Emits one row per (param, ladder level) with the columns of
    CSV_HEADER.  The asserted properties (bound_ratio <= 1, nondecreasing
    ladders) are left to sweep_problems.
    """
    params = [float(p) for p in params]
    if params != sorted(params):
        raise EstimateError("params must be sorted ascending")
    grid = default_flow_grid() if grid is None else grid
    rows = []
    for p in params:
        w = _family_weight(family, p)
        q2 = q2_characteristic(w, grid).value
        res = weighted_riesz_norm(w, n_dim, grid=grid, q2_value=q2)
        for level in TRUNCATION_LADDER:
            q2t = q2_characteristic(truncate_weight(w, level), grid).value
            rows.append({"param": p, "q2_lower": q2, "weighted_norm":
                         res.weighted_norm, "bound_ratio": res.bound_ratio,
                         "trunc_n": level, "q2_trunc": q2t})
    return rows


def sweep_problems(rows) -> list:
    """Violations of the asserted sweep properties, empty when clean."""
    problems = []
    by_param: dict = {}
    for r in rows:
        by_param.setdefault(r["param"], []).append(r)
        if r["bound_ratio"] > 1.0:
            problems.append(f"bound_ratio {r['bound_ratio']} > 1 "
                            f"at param {r['param']}")
    for p, group in by_param.items():
        prev = -math.inf
        for r in sorted(group, key=lambda r: r["trunc_n"]):
            if r["q2_trunc"] < prev * (1 - 1e-9):
                problems.append(f"truncation ladder not monotone at "
                                f"param {p}, n {r['trunc_n']}")
            prev = r["q2_trunc"]
    return sorted(set(problems))


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r['param']:g},{r['q2_lower']!r},{r['weighted_norm']!r},"
                     f"{r['bound_ratio']!r},{r['trunc_n']},{r['q2_trunc']!r}")
    return "\n".join(lines) + "\n"
