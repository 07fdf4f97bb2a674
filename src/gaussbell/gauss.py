"""Hermite spectral model of the Gauss space on the real line.

Functions and one-forms are finite vectors of coefficients in the
orthonormal probabilists' Hermite basis hhat_n = h_n / sqrt(n!), which
diagonalizes the Ornstein-Uhlenbeck operator L = d^2/dx^2 - x d/dx with
L hhat_n = -n hhat_n.  On one-forms the weighted Hodge Laplacian acts
with eigenvalue -(m+1) on slot m, the unique action compatible with
d P_t = P_t d on the exterior derivative.

Semigroups act diagonally on coefficients; the pointwise Poisson flow of
a weight is computed through the subordination identity

    P_t = pi^{-1/2} * int_0^inf u^{-1/2} e^{-u} exp((t^2/4u) L) du

whose heat steps, the Mehler averages

    e^{sL} f(x) = int f(x e^{-s} + sqrt(1 - e^{-2s}) y) dgamma(y),

are closed forms for every weight.  The u-integral uses a trapezoid rule
in ln u; weighted inner products and the validation paths use
Gauss-Hermite nodes; all rules are cached.  Weights are symbolic:
constants, exponential-linear e^{ax} with |a| <= 2, and two-sided
truncations clamping to [1/n, n].
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

#: Gauss-Hermite order for unweighted integrals
QUAD_UNWEIGHTED = 80
#: Gauss-Hermite order for exponential / truncated weights
QUAD_WEIGHTED = 160
#: node count of the subordination rule
SUBORDINATION_ORDER = 512
#: subordination nodes of flow_inequality_suite's shared kernels
FLOW_SUITE_ORDER = 256
#: largest admissible |a| in exponential-linear weights
EXP_A_MAX = 2.0

_SQRT_PI = math.sqrt(math.pi)
#: subordination nodes per block of poisson_step_quadrature: with 80
#: Gauss-Hermite nodes a block's temporaries stay in cache, where
#: whole-grid ones would not.  A power of two, so that each block starts
#: a row group of the BLAS matrix-vector kernel where the whole array
#: would, which keeps the sums bit-identical to the unblocked ones.
_S_BLOCK = 128
#: relative gap (a few ulps) within which q2_characteristic's arg-max
#: counts a mirror node as tied
_MIRROR_TIE = 8 * np.finfo(float).eps


class QuadratureError(ValueError):
    """Quadrature produced a non-finite value (order too low for the weight)."""


class ModelError(ValueError):
    """Invalid input to the Gauss-space model."""


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gh_rule(order: int):
    """Probabilists' Gauss-Hermite rule; weights sum to 1 (gamma-average)."""
    if order < 2:
        raise ModelError("quadrature order must be >= 2")
    x, w = np.polynomial.hermite_e.hermegauss(order)
    return x, w / math.sqrt(2 * math.pi)


@lru_cache(maxsize=16)
def subordination_rule(order: int):
    """Nodes u_0 = 0 < u_1 < ... and probability weights for u ~ Gamma(1/2).

    A trapezoid rule in z = ln u: order - 1 equispaced nodes on [-75, 4]
    with weights h sqrt(u) e^{-u} / sqrt(pi).  The integrand is analytic
    and decays doubly exponentially at both ends, so the rule converges
    geometrically.  The node u = 0 carries the mass erf(sqrt(u_1)) of
    [0, u_1]; all weights are normalized to sum to 1.
    """
    if order < 3:
        raise ModelError("subordination order must be >= 3")
    z, h = np.linspace(-75.0, 4.0, order - 1, retstep=True)
    u = np.exp(z)
    w = np.concatenate(([math.erf(math.sqrt(u[0]))], h * np.sqrt(u) * np.exp(-u) / _SQRT_PI))
    return np.concatenate(([0.0], u)), w / w.sum()


laguerre_rule = subordination_rule     # the name perfbench/ calls


def subordination_nodes(t: float, gl_order: int):
    """Heat times s_j and probability weights w_j with P_t = sum w_j e^{s_j L}.

    s_0 = inf (u = 0) for t > 0: that heat step is the Gaussian mean.
    """
    if t < 0:
        raise ModelError("t must be >= 0")
    u, w = subordination_rule(gl_order)
    with np.errstate(divide="ignore"):
        return (t * t / (4.0 * u) if t > 0 else np.zeros_like(u)), w


# ---------------------------------------------------------------------------
# Hermite basis
# ---------------------------------------------------------------------------

def _hermite_values(n: int, x: np.ndarray):
    """Yield hhat_0(x) .. hhat_n(x) by the normalized three-term recurrence,
    which stays stable at large n and |x|.  It runs in place in three buffers,
    so a yielded array is overwritten two steps later."""
    prev, curr, nxt = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    yield curr
    for k in range(n):
        np.multiply(x, curr, out=nxt)
        np.multiply(prev, math.sqrt(k), out=prev)
        nxt -= prev
        nxt /= math.sqrt(k + 1)
        prev, curr, nxt = curr, nxt, prev
        yield curr


def hermite_eval(n: int, x):
    """Orthonormal Hermite hhat_n(x) = h_n(x)/sqrt(n!)."""
    if n < 0:
        raise ModelError("n must be >= 0")
    x = np.asarray(x, dtype=float)
    for curr in _hermite_values(n, x):
        pass
    return curr if x.ndim else float(curr)


def hermite_design(nmax: int, x) -> np.ndarray:
    """Matrix of orthonormal values hhat_0..hhat_nmax at x, shape x.shape + (nmax+1,)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (nmax + 1,))
    for k, curr in enumerate(_hermite_values(nmax, x)):
        out[..., k] = curr
    return out


@dataclass(frozen=True)
class HermiteFunction:
    """A function sum_n c_n hhat_n with finitely many coefficients."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.coeffs))
        if not c:
            raise ModelError("a Hermite expansion needs at least one coefficient")
        if not all(math.isfinite(v) for v in c):
            raise ModelError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def basis(cls, n: int) -> "HermiteFunction":
        """hhat_n (or hhat_n dx for a OneForm), with n + 1 coefficients."""
        return cls((0.0,) * n + (1.0,))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x):
        return hermite_design(self.order, x) @ self.array


class OneForm(HermiteFunction):
    """A one-form (sum_m b_m hhat_m) dx; eval gives the dx-component at x.

    It stores its coefficients like a function; only the semigroup, under
    which slot m has the eigenvalue m+1 of -L, and weighted_inner tell the
    two apart.
    """


def exterior_derivative(f: HermiteFunction) -> OneForm:
    """d(hhat_n) = sqrt(n) hhat_{n-1} dx, coefficientwise."""
    c = f.array
    if len(c) == 1:
        return OneForm((0.0,))
    out = np.sqrt(np.arange(1, len(c))) * c[1:]
    return OneForm(tuple(out))


def riesz_apply(f: HermiteFunction) -> OneForm:
    """Riesz transform d (-L)^{-1/2}: hhat_n -> hhat_{n-1} dx, hhat_0 -> 0.

    Constants are annihilated (they span the kernel of -L); on the rest
    the coefficient vector shifts down one slot, which is an isometry on
    the orthogonal complement of the constants.
    """
    c = f.array
    if len(c) == 1:
        return OneForm((0.0,))
    return OneForm(tuple(c[1:]))


def generator_eigenvalues(obj) -> np.ndarray:
    """Eigenvalue of -L per coefficient slot: n on functions, m+1 on one-form slot m.

    Slot m of a one-form carries the eigenvalue -(m+1) of the Hodge
    Laplacian; the Poisson rates are the square roots.
    """
    return np.arange(len(obj.coeffs)) + isinstance(obj, OneForm)


def semigroup_apply(obj: HermiteFunction, t: float):
    """Poisson semigroup, diagonal on coefficients.

    c_n -> e^{-t sqrt(n)} c_n on functions and b_m -> e^{-t sqrt(m+1)} b_m
    on one-forms: the rates are the square roots of generator_eigenvalues.
    """
    if t < 0:
        raise ModelError("t must be >= 0")
    rate = np.sqrt(generator_eigenvalues(obj))
    return type(obj)(tuple(obj.array * np.exp(-rate * t)))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """Symbolic strictly positive weight: constant, e^{ax}, or a clamp.

    kind is "const" (param = c > 0), "exp" (param = a, |a| <= EXP_A_MAX)
    or "trunc" (param = level n >= 1, inner a WeightSpec); truncation
    clamps values to [1/n, n].
    """

    kind: str
    param: float
    inner: "WeightSpec | None" = None

    def __post_init__(self):
        if self.kind == "const":
            if not (self.param > 0 and math.isfinite(self.param)):
                raise ModelError("constant weight needs c > 0")
        elif self.kind == "exp":
            if not math.isfinite(self.param):
                raise ModelError("exp weight needs finite a")
            if abs(self.param) > EXP_A_MAX:
                raise ModelError(
                    f"|a| = {abs(self.param)} exceeds the quadrature "
                    f"reliability bound {EXP_A_MAX}")
        elif self.kind == "trunc":
            if self.inner is None:
                raise ModelError("truncation needs an inner weight")
            if self.param < 1 or self.param != int(self.param):
                raise ModelError("truncation level must be an integer >= 1")
        else:
            raise ModelError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def constant(cls, c: float) -> "WeightSpec":
        return cls("const", float(c))

    @classmethod
    def exp_linear(cls, a: float) -> "WeightSpec":
        return cls("exp", float(a))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            return np.full_like(x, self.param)
        if self.kind == "exp":
            return np.exp(self.param * x)
        return np.clip(self.inner(x), 1.0 / self.param, self.param)

    def inverse(self) -> "WeightSpec":
        """Pointwise reciprocal; commutes with the symmetric clamp band."""
        if self.kind == "const":
            return WeightSpec.constant(1.0 / self.param)
        if self.kind == "exp":
            return WeightSpec.exp_linear(-self.param)
        return truncate_weight(self.inner.inverse(), int(self.param))

    def to_string(self) -> str:
        if self.kind == "const":
            return f"const:c={self.param!r}"
        if self.kind == "exp":
            return f"exp:a={self.param!r}"
        return f"trunc:n={int(self.param)}:{self.inner.to_string()}"

    @classmethod
    def parse(cls, text: str) -> "WeightSpec":
        """Parse the grammar const:c=<v> | exp:a=<v> | trunc:n=<k>:<inner>."""
        text = text.strip()
        try:
            if text.startswith("const:c="):
                return cls.constant(float(text[len("const:c="):]))
            if text.startswith("exp:a="):
                return cls.exp_linear(float(text[len("exp:a="):]))
            if text.startswith("trunc:n="):
                head, sep, inner = text[len("trunc:n="):].partition(":")
                if not sep:
                    raise ModelError(f"truncation needs an inner weight: {text!r}")
                return truncate_weight(cls.parse(inner), int(head))
        except ModelError:
            raise
        except ValueError as exc:       # a malformed number
            raise ModelError(f"cannot parse weight {text!r}") from exc
        raise ModelError(f"cannot parse weight {text!r}")


def truncate_weight(w: WeightSpec, n: int) -> WeightSpec:
    """Two-sided truncation clamping w to [1/n, n]."""
    return WeightSpec("trunc", float(n), w)


def default_quad_order(w: WeightSpec) -> int:
    return QUAD_UNWEIGHTED if w.kind == "const" else QUAD_WEIGHTED


def weighted_inner(u, v, w: WeightSpec) -> float:
    """Gauss-Hermite approximation of int u v w dgamma on default_quad_order(w) nodes.

    Exact up to rounding when u*v*w is a polynomial of degree below twice
    the node count (constant weights).  u and v must be both functions or
    both one-forms.
    """
    if isinstance(u, OneForm) != isinstance(v, OneForm):
        raise ModelError("weighted_inner needs two functions or two one-forms")
    x, wt = gh_rule(default_quad_order(w))
    vals = u.eval(x) * v.eval(x) * w(x)
    out = float(np.dot(wt, vals))
    if not math.isfinite(out):
        raise QuadratureError("weighted inner product overflowed; raise the order")
    return out


# ---------------------------------------------------------------------------
# pointwise flows
# ---------------------------------------------------------------------------

def _mehler_points(x, s, gx):
    """Mehler points x e^{-s} + sqrt(1 - e^{-2s}) y, x and s broadcast, y = gx last."""
    return (x * np.exp(-s))[..., None] \
        + np.sqrt(np.maximum(1 - np.exp(-2 * s), 0.0))[..., None] * gx


def heat_weight(w: WeightSpec, x, s):
    """e^{sL} w at x in closed form, broadcasting x and s.

    A chain of clamps is one clamp at its smallest level n; a clamped
    constant stays constant.  For e^{ax} the step averages e^V over
    V ~ N(m, sig^2), m = a x e^{-s}, sig^2 = a^2 (1 - e^{-2s}): unclamped
    it is exp(m + sig^2/2); clamped, with k = ln n and E[e^V; V < c] =
    exp(m + sig^2/2 + log Phi((c - m)/sig - sig)), E clip(e^V, 1/n, n) =
    Phi((-k - m)/sig)/n + n Phi((m - k)/sig) + E[e^V; V < k] - E[e^V; V < -k].
    Every term is at most n, so the value is finite for any x; at sig = 0
    (s = 0 or a = 0) the step is w(x).
    """
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ModelError("s must be >= 0")
    n = math.inf
    while w.kind == "trunc":
        n = min(n, w.param)
        w = w.inner
    if w.kind == "const":
        return np.full(np.broadcast(x, s).shape, min(max(w.param, 1.0 / n), n))
    a = w.param
    if n == math.inf:
        return np.exp(a * (x * np.exp(-s)) + a * a * (1 - np.exp(-2 * s)) / 2)
    from scipy.special import log_ndtr, ndtr   # here: keeps `import gaussbell` light

    m = a * (x * np.exp(-s))
    sig = abs(a) * np.sqrt(-np.expm1(-2 * s))
    k = math.log(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        lo, hi = (-k - m) / sig, (k - m) / sig
        mean = m + sig * sig / 2
        val = (ndtr(lo) / n + n * ndtr(-hi) + np.exp(mean + log_ndtr(hi - sig))
               - np.exp(mean + log_ndtr(lo - sig)))
    return np.where(sig > 0, val, np.clip(np.exp(m), 1.0 / n, n))


def _poisson_batch(w: WeightSpec, xs: np.ndarray, t: float, gl_order: int) -> np.ndarray:
    """P_t w = sum_j w_j e^{s_j L} w at the points xs, each heat step in closed form."""
    xs = np.asarray(xs, dtype=float)
    if w.kind == "const":
        # exact: the subordination weights sum to 1 only up to rounding
        return np.full(xs.shape, w.param)
    s, wj = subordination_nodes(t, gl_order)
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow -> inf/nan -> the caller rejects non-finite output
        return heat_weight(w, xs[..., None], s) @ wj


def poisson_weight(w: WeightSpec, x: float, t: float,
                   quad_order: int = SUBORDINATION_ORDER) -> float:
    """P_t w (x): subordinated Poisson flow of a weight at one point.

    quad_order is the node count of the u-rule; the heat steps are closed
    forms, so 512 nodes are converged to rounding for every weight.
    """
    if not t > 0:
        raise ModelError("t must be > 0")
    val = float(_poisson_batch(w, np.array([x]), t, quad_order)[0])
    if not math.isfinite(val):
        raise QuadratureError("Poisson flow overflowed; weight grows too fast")
    return val


def heat_step_quadrature(n: int, x, s, quad_order: int) -> np.ndarray:
    """e^{sL} hhat_n at x via the Mehler average (validation path).

    The integrand is a degree-n polynomial, so Gauss-Hermite with
    quad_order > n/2 reproduces e^{-ns} hhat_n(x) to rounding.
    """
    gx, gw = gh_rule(quad_order)
    pts = _mehler_points(np.asarray(x, dtype=float), np.asarray(s, dtype=float), gx)
    return hermite_eval(n, pts) @ gw


def poisson_step_quadrature(n: int, x, t: float, gl_order: int,
                            gh_order: int) -> np.ndarray:
    """P_t hhat_n at x via subordination + Mehler quadrature (validation path).

    The heat steps are taken over blocks of _S_BLOCK subordination nodes,
    then summed over all nodes at once; every value equals the whole-array
    evaluation bit for bit.
    """
    x = np.asarray(x, dtype=float)
    s, wj = subordination_nodes(t, gl_order)
    heat = np.empty(x.shape + s.shape)
    for j in range(0, s.size, _S_BLOCK):
        heat[..., j:j + _S_BLOCK] = heat_step_quadrature(
            n, x[..., None], s[j:j + _S_BLOCK], gh_order)
    return heat @ wj


def discrete_poisson_kernel(xs, t: float, gl_order: int, gh_order: int):
    """The discrete probability measure representing P_t at the points xs.

    Returns (pts, mass, s) with pts of shape (len(xs), J, K), mass (J, K)
    summing to 1, and the subordination times s of shape (J,).  Evaluating
    sum mass * f(pts) gives the same value as the quadrature Poisson flow;
    using one shared kernel for several integrands preserves the exact
    Cauchy-Schwarz structure of flow inequalities at the discrete level.
    """
    xs = np.asarray(xs, dtype=float)
    s, wj = subordination_nodes(t, gl_order)
    gx, gw = gh_rule(gh_order)
    return _mehler_points(xs[..., None], s, gx), wj[:, None] * gw[None, :], s


def _suite_integrands(pts, fs, gs, ws, order):
    """The suite's integrands at the Mehler points pts, in a fixed order.

    f for each f, g for each g, then per weight w, w^{-1}, f^2 w for each
    f and g^2 w^{-1} for each g.  A generator, so that each array is
    summed and dropped before the next one is made.
    """
    design = hermite_design(order, pts)
    fvals = [design[..., :f.order + 1] @ f.array for f in fs]
    gvals = [design[..., :g.order + 1] @ g.array for g in gs]
    yield from fvals
    yield from gvals
    for w in ws:
        wv = w(pts)
        wiv = w.inverse()(pts)
        yield wv
        yield wiv
        for fv in fvals:
            yield fv * fv * wv
        for gv in gvals:
            yield gv * gv * wiv


def flow_inequality_suite(fs, gs, ws, x_nodes, t_nodes) -> dict:
    """Worst pointwise margins of the flow inequalities over a grid.

    Each P_t is FLOW_SUITE_ORDER subordination nodes times QUAD_UNWEIGHTED
    Gauss-Hermite nodes.

    Checked, for every grid node (x, t), every f in fs, g in gs, w in ws:

      a) P_t f(x)^2      <= P_t(f^2 w)(x) * P_t(w^{-1})(x)
      b) d P_t f          = P_t (d f)           (coefficients, exact)
      c) |heat_t g|(x)    <= heat_t |g|(x)      (one-form vs scalar heat)
      d) |P_t g(x)|^2     <= P_t(|g|^2 w^{-1})(x) * P_t(w)(x)
      product) P_t(w)(x) * P_t(w^{-1})(x) >= 1

    What the suite certifies: a), c), d) and product) are Cauchy-Schwarz
    and triangle inequalities, so they hold for any positive kernel of
    unit mass; evaluating every flow in a), d) and product) against one
    shared discrete kernel per (x, t) (the one discrete_poisson_kernel
    returns) keeps them true at the discrete level, and their margins can
    only be negative through rounding.  They test the discretization's
    positivity and the arithmetic, not the accuracy of P_t.  b) is an
    exact identity between coefficient vectors.

    Summation order: for each x row, each integrand is summed over the
    Gauss-Hermite axis first, one value per subordination node s_j; the
    (x, s_j) sums are then contracted with the subordination weights w_j
    (with w_j e^{-s_j} for the one-form flow of g).  The order is fixed,
    so the margins do not depend on how the work is blocked.

    Returns {"a": m, "c": m, "d": m, "product": m, "b_gap": gap} with m
    the minimal margin per item (positive = inequality held everywhere)
    and b_gap the largest coefficient discrepancy in b).
    """
    xs = np.asarray(x_nodes, dtype=float)
    worst = {"a": math.inf, "c": math.inf, "d": math.inf, "product": math.inf,
             "b_gap": 0.0}
    order = max((h.order for h in (*fs, *gs)), default=0)
    nf, ng = len(fs), len(gs)
    per_w = 2 + nf + ng
    gx, gw = gh_rule(QUAD_UNWEIGHTED)
    for t in t_nodes:
        s, wj = subordination_nodes(t, FLOW_SUITE_ORDER)
        sums = np.empty((nf + ng + len(ws) * per_w, xs.size, s.size))
        for i, x in enumerate(xs):
            pts = _mehler_points(x, s, gx)
            for q, vals in enumerate(_suite_integrands(pts, fs, gs, ws, order)):
                sums[q, i] = vals @ gw
        flows = sums @ wj
        # one-forms flow with the extra factor e^{-s} of the rate shift m -> m+1
        p_gvecs = sums[nf:nf + ng] @ (wj * np.exp(-s))
        for p_w, p_winv, *rest in flows[nf + ng:].reshape(len(ws), per_w, xs.size):
            worst["product"] = min(worst["product"],
                                   float(np.min(p_w * p_winv - 1.0)))
            for p_f, p_f2w in zip(flows[:nf], rest[:nf]):
                worst["a"] = min(worst["a"],
                                 float(np.min(p_f2w * p_winv - p_f**2)))
            for p_gvec, p_g2winv in zip(p_gvecs, rest[nf:]):
                worst["d"] = min(worst["d"],
                                 float(np.min(p_g2winv * p_w - p_gvec**2)))
        # c) single Mehler step: scalar heat of |g| dominates the one-form heat
        hpts = _mehler_points(xs, t, gx)
        for g in gs:
            hv = g.eval(hpts)
            lhs = math.exp(-t) * np.abs(hv @ gw)
            rhs = np.abs(hv) @ gw
            worst["c"] = min(worst["c"], float(np.min(rhs - lhs)))
        # b) exact diagonal identity
        for f in fs:
            lhs = exterior_derivative(semigroup_apply(f, t)).array
            rhs = semigroup_apply(exterior_derivative(f), t).array
            worst["b_gap"] = max(worst["b_gap"],
                                 float(np.max(np.abs(lhs - rhs), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# the Poisson-A2 characteristic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowGrid:
    """Space-time grid over which the flow characteristic is maximized."""

    x_nodes: tuple
    t_nodes: tuple

    def __post_init__(self):
        xs = tuple(float(v) for v in self.x_nodes)
        ts = tuple(float(v) for v in self.t_nodes)
        if len(xs) == 0 or len(ts) == 0:
            raise ModelError("grid must be nonempty")
        if any(t <= 0 for t in ts):
            raise ModelError("t nodes must be positive")
        if list(ts) != sorted(ts):
            raise ModelError("t nodes must be increasing")
        if any(abs(a + b) > 1e-12 for a, b in zip(xs, reversed(xs))):
            raise ModelError("x nodes must be symmetric about 0")
        object.__setattr__(self, "x_nodes", xs)
        object.__setattr__(self, "t_nodes", ts)


#: flow_grid's settings for the default grid; the a2 subcommand's defaults too
FLOW_GRID_DEFAULTS = {"x_max": 8.0, "x_step": 0.25, "t_min": 1e-3,
                      "t_max": 32.0, "t_nodes": 40}


def flow_grid(x_max: float, x_step: float, t_min: float, t_max: float,
              t_nodes: int) -> FlowGrid:
    """x from -x_max to x_max in steps of x_step; t_nodes t log-spaced in [t_min, t_max]."""
    try:
        xs = np.arange(-x_max, x_max + 1e-9, x_step)
    except ValueError as exc:       # more x nodes than an array can hold
        raise ModelError(str(exc)) from exc
    ts = np.logspace(math.log10(t_min), math.log10(t_max), t_nodes)
    return FlowGrid(tuple(xs), tuple(ts))


def default_flow_grid() -> FlowGrid:
    """The grid of FLOW_GRID_DEFAULTS."""
    return flow_grid(**FLOW_GRID_DEFAULTS)


@dataclass(frozen=True)
class Q2Result:
    """Grid lower bound of the flow characteristic, with its arg-max node.

    value includes the analytic t -> infinity limit
    (int w dgamma)(int w^{-1} dgamma); argmax_t is math.inf when the limit
    dominates every grid node.  argmax_x is the non-negative node when its
    mirror -x ties the maximum within _MIRROR_TIE.  min_product is the
    smallest product seen on the grid (the flow product is never below 1
    for a true semigroup, and the discrete kernel inherits that by
    Cauchy-Schwarz).
    """

    value: float
    argmax_x: float | None
    argmax_t: float
    limit: float
    min_product: float
    node_count: int
    below_one_count: int

    def as_dict(self) -> dict:
        d = asdict(self)
        return {"q2_lower": d.pop("value"), **d}


def q2_characteristic(w: WeightSpec, grid: FlowGrid | None = None) -> Q2Result:
    """Maximum of P_t(w)(x) P_t(w^{-1})(x) over the grid and the t limit.

    Any finite computation undershoots the true supremum, so the value is
    a certified lower bound only.
    """
    grid = default_flow_grid() if grid is None else grid
    winv = w.inverse()
    xs = np.asarray(grid.x_nodes)
    best = -math.inf
    arg = (None, math.inf)
    min_product = math.inf
    below_one = 0
    for t in grid.t_nodes:
        p = _poisson_batch(w, xs, t, SUBORDINATION_ORDER)
        pinv = _poisson_batch(winv, xs, t, SUBORDINATION_ORDER)
        prod = p * pinv
        if not np.all(np.isfinite(prod)):
            raise QuadratureError("Poisson flow overflowed on the grid")
        i = int(np.argmax(prod))
        if prod[i] > best:
            best = float(prod[i])
            # the x grid is symmetric; report the non-negative node when its
            # mirror ties the maximum (the product is even in x whenever
            # w(-x) = 1/w(x), and then differs between x and -x by rounding)
            mirror = len(xs) - 1 - i
            if xs[i] < 0 and prod[mirror] >= best * (1.0 - _MIRROR_TIE):
                i = mirror
            arg = (float(xs[i]), float(t))
        min_product = min(min_product, float(prod.min()))
        below_one += int(np.sum(prod < 1.0 - 1e-10))
    limit = float(heat_weight(w, 0.0, math.inf) * heat_weight(winv, 0.0, math.inf))
    if limit > best:
        best = limit
        arg = (None, math.inf)
    return Q2Result(best, arg[0], arg[1], limit, min_product,
                    len(xs) * len(grid.t_nodes), below_one)
