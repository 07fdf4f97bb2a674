"""Numerical certification of the Bellman function properties.

This module samples the domain D_Q, builds finite-difference Hessians,
and checks pointwise:

  * size:      0 <= B_Q <= 80 (Z + H),
  * concavity: dX^T (-d^2 B_Q) dX >= (4/Q) |d zeta| |d eta| off the
               singular set Pi (finite differences, relative exclusion
               band around Pi),
  * sign:      the radial profile is nonincreasing in nu = |eta|.

B_Q is affine in Z and H, so the Hessians are those of the block
(zeta, eta, r, s) alone.  A Hessian row is skipped, with its reason
counted, when it lies in the Pi band (near_pi), or when no step above the
float64 noise floor keeps its stencil inside D_Q and resolves its
curvature (stencil_unfit) or keeps it on one branch of B43's critical
parameter (stencil_crosses_pi).

The same machinery certifies the auxiliary-function bounds (five size
bounds, five 2x2 Hessian inequalities) on an (r, s) grid, evaluates the
mollified function by seeded Monte Carlo, and aggregates everything into
a VerificationReport.

Randomness is always drawn from numpy's PCG64 generator; every entry
point takes an explicit seed and two runs with the same configuration
produce identical reports up to the timestamp.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import __version__, bellman
from .bellman import (
    DomainError,
    QContext,
    _split_columns,
    aux_hessian_rhs,
    aux_raw,
    aux_size_bound,
    beta_values,
    bq_batch,
    components_batch,
    pi_distance_batch,
)
from .report import CheckResult, Measurement, VerificationReport

# Margin by which sampled points stay strictly inside D_Q.
SAMPLING_DELTA = 1e-3

# Tolerance models (relative to 1 + |B_Q| unless stated otherwise).
SIZE_TOL = 1e-10
SIGN_TOL = 1e-6
HESSIAN_TOL = 1e-4
AUX_SIZE_TOL = 1e-12         # rounding allowance on the exact size bounds
AUX_HESSIAN_TOL = 1e-6       # absolute finite-difference slack
MAX_HALVINGS = 8
HESSIAN_CHUNK = 4096         # rows per FD Hessian batch; bounds the stencil memory

# Central second differences of B carry rounding noise ~ eps*(1+|B|)/(4h^2).
# Steps below this floor would drown the HESSIAN_TOL slack in float64 noise,
# so stencils that only fit with smaller steps are skipped, like the ball
# exits that force the halvings in the first place.
STEP_NOISE_FLOOR = math.sqrt(np.finfo(float).eps / (0.4 * HESSIAN_TOL))

_GOLDEN_BRACKET = (1e-8, 1e8)
_GOLDEN_ITERS = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of a verification run (defaults are the documented ones)."""

    q_list: tuple = (1.0, 2.0, 10.0, 100.0)
    samples_per_q: int = 1000
    eta_dim: int = 1
    seed: int = 0
    fd_step: float = 1e-4
    pi_exclusion: float = 1e-3
    directions_per_point: int = 64
    mollify_eps: float = 0.0
    mc_samples: int = 0
    aux_grid_n: int = 40

    def __post_init__(self):
        if self.samples_per_q < 1:
            raise DomainError("samples_per_q must be >= 1")
        if not (0 < self.fd_step < math.inf):
            raise DomainError("fd_step must be finite and > 0")
        # a relative band of width >= 1 around K/Q contains 0: it no longer localizes Pi
        if not (0 < self.pi_exclusion < 1):
            raise DomainError("pi_exclusion must be in (0, 1)")
        if self.eta_dim < 1:
            raise DomainError("eta_dim must be >= 1")
        if not (0 <= self.mollify_eps < math.inf):
            raise DomainError("mollify_eps must be finite and >= 0")
        if self.directions_per_point < 0:
            raise DomainError("directions_per_point must be >= 0")
        if self.mc_samples < 0:
            raise DomainError("mc_samples must be >= 0")
        if self.mollify_eps > 0 and self.mc_samples < 1:
            raise DomainError("mollify_eps > 0 needs mc_samples >= 1")
        if self.aux_grid_n < 1:
            raise DomainError("aux_grid_n must be >= 1")
        if not (0 <= int(self.seed) < 2**63):
            raise DomainError("seed must be a nonnegative 64-bit integer")
        for q in self.q_list:
            QContext(q, self.eta_dim)

    def as_dict(self) -> dict:
        return {**asdict(self), "q_list": list(self.q_list)}


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def _snap_product(r: np.ndarray, s: np.ndarray, u: np.ndarray):
    """Nudge s (then r) by ulps until r*s == u exactly, elementwise.

    Needed when the rs-interval degenerates to a single value: membership
    in the domain is exact, and a rounded product one ulp off the target
    would fall outside.  One-ulp moves of s move the product by about one
    ulp of u, so a few steps always land.
    """
    for target in (s, r):
        for _ in range(8):
            p = r * s
            if np.array_equal(p, u):
                return r, s
            target[p > u] = np.nextafter(target[p > u], 0.0)
            target[p < u] = np.nextafter(target[p < u], np.inf)
    bad = r * s != u
    # last resort: balanced split, exact for u = 1
    r[bad] = np.sqrt(u[bad])
    s[bad] = u[bad] / r[bad]
    return r, s


def sample_columns(q: float, eta_dim: int, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw `count` points strictly inside D_Q as an (count, 5+eta_dim) array.

    Construction: rs uniform in [1+delta, Q-delta] (rs = 1 exactly when the
    interval degenerates), split into r, s by a log-uniform factor in
    [1e-2, 1e2]; Z and H log-uniform in [1e-3, 1e3]; zeta uniform with
    zeta^2 <= (1-delta) Z r; eta a uniform direction times a uniform
    magnitude with <eta,eta> <= (1-delta) H s.
    """
    d = SAMPLING_DELTA
    lo, hi = 1.0 + d, q - d
    degenerate = hi <= lo
    if degenerate:
        u = np.full(count, (1.0 + q) / 2.0)
    else:
        u = rng.uniform(lo, hi, count)
    f = 10.0 ** rng.uniform(-2.0, 2.0, count)
    r = np.sqrt(u) * f
    s = np.sqrt(u) / f
    if degenerate:
        # the slab has no width: the product must hit its value exactly
        r, s = _snap_product(r, s, u)
    z = 10.0 ** rng.uniform(-3.0, 3.0, count)
    h = 10.0 ** rng.uniform(-3.0, 3.0, count)
    zeta = rng.uniform(-1.0, 1.0, count) * np.sqrt((1 - d) * z * r)
    direction = rng.normal(size=(count, eta_dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    mag = rng.uniform(0.0, 1.0, count) * np.sqrt((1 - d) * h * s)
    eta = direction * mag[:, None]
    return np.column_stack([z, h, zeta, eta, r, s])


def in_domain_batch(x: np.ndarray, q: float) -> np.ndarray:
    """Exact membership test for an (n, 5+eta_dim) coordinate array."""
    z, h, zeta, eta2, r, s = _split_columns(x)
    u = r * s
    return ((z >= 0) & (h >= 0) & (r > 0) & (s > 0)
            & (zeta**2 <= z * r) & (eta2 <= h * s)
            & (u >= 1.0) & (u <= q))


# ---------------------------------------------------------------------------
# finite-difference Hessian
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _stencil_template(nb: int):
    """Offsets (in units of the per-coordinate step) and index arrays.

    Layout: [center] + [+2e_i, -2e_i for each i] + [the four cross points
    (++, +-, -+, --) for each pair i<j, in np.triu_indices order].  Returns
    (offsets, diag, pairs, cross): diag[i] = (plus, minus), pairs = (i, j)
    from np.triu_indices(nb, 1) and cross[p] = (pp, pm, mp, mm) of pair p.
    """
    eye = np.eye(nb)
    pairs = np.triu_indices(nb, 1)
    p = np.arange(pairs[0].size)
    cross_offsets = np.zeros((p.size, 4, nb))
    cross_offsets[p, :, pairs[0]] = (1, 1, -1, -1)
    cross_offsets[p, :, pairs[1]] = (1, -1, 1, -1)
    offsets = np.concatenate([np.zeros((1, nb)),
                              np.stack([2 * eye, -2 * eye], axis=1).reshape(-1, nb),
                              cross_offsets.reshape(-1, nb)])
    diag = 1 + np.arange(2 * nb).reshape(nb, 2)
    cross = 1 + 2 * nb + np.arange(4 * p.size).reshape(p.size, 4)
    return offsets, diag, pairs, cross


def _assemble_hessians(f: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Assemble (m, nb, nb) Hessians from stencil values (m, n_stencil) and steps (m, nb)."""
    m, nb = steps.shape
    _, diag, (i, j), cross = _stencil_template(nb)
    hess = np.empty((m, nb, nb))
    d = np.arange(nb)
    hess[:, d, d] = (f[:, diag[:, 0]] - 2 * f[:, :1] + f[:, diag[:, 1]]) / (4 * steps ** 2)
    hess[:, i, j] = hess[:, j, i] = (f[:, cross[:, 0]] - f[:, cross[:, 1]] - f[:, cross[:, 2]]
                                     + f[:, cross[:, 3]]) / (4 * steps[:, i] * steps[:, j])
    return hess


def fd_hessian_batch(x: np.ndarray, q: float, h: float):
    """Central-difference Hessians of B_Q's (zeta, eta, r, s) block for every row of x.

    Every component of B_Q is Z + H minus a function of (zeta, eta, r, s),
    so B_Q is affine in Z and H: only the nb = dim - 2 block coordinates
    (columns 2 onward) are differenced, and the Hessians are (n, nb, nb),
    NaN in the rows left unfitted.  The step in block coordinate i is
    h * max(1, |x_i|).  Every stencil point must lie in D_Q and on the
    centre's branch of B43's critical parameter (the branch changes on Pi,
    where B_Q is not twice differentiable); otherwise the step is halved,
    up to MAX_HALVINGS times.  Halvings stop early once the step falls
    under STEP_NOISE_FLOOR, where float64 cancellation noise would exceed
    the concavity tolerance.  A row whose stencil fits but whose block
    diagonal differences to exactly 0.0 has a curvature below the
    stencil's float64 resolution; smaller steps only add noise, so it is
    left unfitted.  Each level evaluates B_Q and the branch of its
    in-domain stencil points in one pass.  Returns (hessians, used_h,
    fitted, crosses_pi); crosses_pi marks the unfitted rows whose last
    stencil lay in D_Q but spanned two branches.
    """
    x = np.asarray(x, dtype=float)
    n, dim = x.shape
    nb = dim - 2
    offsets = _stencil_template(nb)[0]
    k = len(offsets)
    hess = np.full((n, nb, nb), np.nan)
    used_h = np.full(n, np.nan)
    fitted = np.zeros(n, dtype=bool)
    crosses_pi = np.zeros(n, dtype=bool)
    # at Q <= 1 the slab 1 <= rs <= Q has no width: the +-2 e_r stencil
    # points move rs off 1 to both sides, so no stencil fits at any step
    remaining = np.arange(n if q > 1.0 else 0)
    for level in range(MAX_HALVINGS + 1):
        if remaining.size == 0:
            break
        hcur = h * 0.5**level
        if hcur < STEP_NOISE_FLOOR and level > 0:
            break
        xr = x[remaining]
        steps = hcur * np.maximum(1.0, np.abs(xr[:, 2:]))     # (m, nb)
        # column-major stencil (coordinate, row, stencil point), so that
        # every coordinate column of the flattened points is contiguous
        pts = np.empty((dim, remaining.size, k))
        pts[:2] = xr.T[:2, :, None]
        np.multiply(steps.T[:, :, None], offsets.T[:, None, :], out=pts[2:])
        pts[2:] += xr.T[2:, :, None]
        ok = in_domain_batch(pts.reshape(dim, -1).T, q).reshape(-1, k).all(axis=1)
        # compress keeps the selection C-ordered, so the reshape is a view
        comps, branch = bellman._components(pts.compress(ok, axis=1).reshape(dim, -1).T, q)
        straddles = (branch.reshape(-1, k) != branch[::k, None]).any(axis=1)
        crossing = np.zeros_like(ok)
        crossing[ok] = straddles
        crosses_pi[remaining] = crossing
        ok &= ~crossing
        if ok.any():
            fvals = bellman._weighted_sum(*comps).reshape(-1, k)[~straddles]
            block = _assemble_hessians(fvals, steps[ok])
            resolved = block.diagonal(0, 1, 2).all(axis=1)    # no exact 0.0 curvature
            idx = remaining[ok][resolved]
            hess[idx] = block[resolved]
            used_h[idx] = hcur
            fitted[idx] = True
            remaining = remaining[~ok]
    return hess, used_h, fitted, crosses_pi


def hessian_directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """+-e_i for the dim - 2 block axes (zeta, eta, r, s), then `count` random unit vectors."""
    eye = np.eye(dim)[2:]
    coords = np.concatenate([eye, -eye], axis=0)
    rand = rng.normal(size=(count, dim))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    return np.concatenate([coords, rand], axis=0)


def hessian_margins(hess: np.ndarray, directions: np.ndarray, q: float):
    """Concavity slack min over directions of dX^T(-H)dX - (4/Q)|dzeta||deta|.

    hess holds fd_hessian_batch's (zeta, eta, r, s) blocks: B_Q is affine
    in Z and H, so only the directions' block parts enter, and the forms
    are one matmul of the flattened blocks against the flattened outer
    products of those parts.  Also returns the minimal ratio form/rhs
    over directions with rhs > 0 (the empirically observed concavity
    constant relative to 4/Q).
    """
    d = directions[:, 2:]
    nb = d.shape[1]
    outer = (d[:, :, None] * d[:, None, :]).reshape(-1, nb * nb)
    forms = -(hess.reshape(-1, nb * nb) @ outer.T)
    dzeta = np.abs(d[:, 0])
    deta = np.linalg.norm(d[:, 1:-2], axis=1)
    rhs = (4.0 / q) * dzeta * deta
    margins = (forms - rhs[None, :]).min(axis=1)
    pos = rhs > 1e-12
    if pos.any():
        ratios = (forms[:, pos] / rhs[None, pos]).min(axis=1)
    else:
        ratios = np.full(hess.shape[0], np.inf)
    return margins, ratios


# ---------------------------------------------------------------------------
# sign (monotonicity in nu) check
# ---------------------------------------------------------------------------

def sign_forward_diff_batch(x: np.ndarray, q: float, h: float):
    """One-sided d/dnu of the radial profile; returns (fd, fits).

    Forward step h*(1+nu); evaluated only where (nu+step)^2 <= H s keeps
    the stepped point inside the radial domain.  B_Q is even in zeta and
    eta (it reads zeta^2, |zeta| and |eta|^2), so bq_batch on the rows
    (Z, H, |zeta|, nu, r, s) is the radial profile.
    """
    z, hh, zeta, eta2, r, s = _split_columns(x)
    nu = np.sqrt(eta2)
    step = h * (1.0 + nu)
    fits = (nu + step) ** 2 <= hh * s
    fd = np.full(x.shape[0], np.nan)
    if fits.any():
        rows = np.column_stack([c[fits] for c in (z, hh, np.abs(zeta), nu, r, s)])
        b0 = bq_batch(rows, q)
        rows[:, 3] += step[fits]
        fd[fits] = (bq_batch(rows, q) - b0) / step[fits]
    return fd, fits


# ---------------------------------------------------------------------------
# B43 golden-section reference
# ---------------------------------------------------------------------------

def b43_reference_batch(x: np.ndarray, q: float) -> np.ndarray:
    """B43 by direct golden-section maximization of the inner objective.

    Independent of the critical-parameter closed form: maximizes
    beta(a) = zeta^2/(r + aK/Q) + eta^2/(s + K/(Qa)) over log a on
    _GOLDEN_BRACKET and returns Z + H - max beta.  beta has a single
    stationary point in a, so golden section on log a applies.
    """
    x = np.asarray(x, dtype=float)
    lo = np.full(x.shape[0], math.log(_GOLDEN_BRACKET[0]))
    hi = np.full(x.shape[0], math.log(_GOLDEN_BRACKET[1]))
    for _ in range(_GOLDEN_ITERS):
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        fc = beta_values(x, q, np.exp(c))
        fd_ = beta_values(x, q, np.exp(d))
        keep_right = fc < fd_          # maximum is to the right of c
        lo = np.where(keep_right, c, lo)
        hi = np.where(keep_right, hi, d)
    beta_max = beta_values(x, q, np.exp(0.5 * (lo + hi)))
    return x[:, 0] + x[:, 1] - beta_max


# ---------------------------------------------------------------------------
# per-row verdicts
# ---------------------------------------------------------------------------

def _directions(ctx: QContext, cfg: SuiteConfig) -> np.ndarray:
    """The suite's Hessian directions for ctx.q."""
    rng = _rng(np.random.SeedSequence([cfg.seed, int(1e6 * ctx.q), 1]))
    return hessian_directions(ctx.dim, cfg.directions_per_point, rng)


def _row_verdicts(x: np.ndarray, q: float, cfg: SuiteConfig,
                  directions: np.ndarray) -> dict:
    """Size, sign and Hessian verdicts for every row of x.

    b (B_Q) and unweighted (the plain sum B1 + ... + B43) come from one
    component evaluation.  Margins are pre-tolerance slacks normalized by
    1 + |B_Q| (size by 1 + Z + H), +inf where the check was skipped; the
    *_fail arrays apply the documented tolerances.  Rows near Pi get no Hessian; the others
    are differenced HESSIAN_CHUNK rows at a time, and a row is skipped as
    stencil_unfit or stencil_crosses_pi when no step above the noise
    floor keeps its stencil in D_Q with a resolved curvature, or on one
    B43 branch.
    """
    n = x.shape[0]
    comps = components_batch(x, q)
    b = bellman._weighted_sum(*comps.T)
    zh = x[:, 0] + x[:, 1]
    scale_b = 1.0 + np.abs(b)

    fd, sign_fits = sign_forward_diff_batch(x, q, cfg.fd_step)
    near_pi = pi_distance_batch(x, q) <= cfg.pi_exclusion
    hess_margin = np.full(n, np.inf)
    ratios = np.full(n, np.inf)
    stencil_unfit = np.zeros(n, dtype=bool)
    crosses_pi = np.zeros(n, dtype=bool)
    eligible = np.flatnonzero(~near_pi)
    for start in range(0, eligible.size, HESSIAN_CHUNK):
        idx = eligible[start:start + HESSIAN_CHUNK]
        hess, _, fitted, crosses = fd_hessian_batch(x[idx], q, cfg.fd_step)
        stencil_unfit[idx[~fitted & ~crosses]] = True
        crosses_pi[idx[crosses]] = True
        if fitted.any():
            sub = idx[fitted]
            margins, ratios_sub = hessian_margins(hess[fitted], directions, q)
            hess_margin[sub] = margins / scale_b[sub]
            ratios[sub] = ratios_sub
    return {
        "b": b,
        "unweighted": comps.sum(axis=1),
        "size_margin": np.minimum(b, bellman.SIZE_CONSTANT * zh - b) / (1.0 + zh),
        "size_fail": ((b < -SIZE_TOL * (1.0 + zh))
                      | (b > bellman.SIZE_CONSTANT * zh * (1.0 + SIZE_TOL) + SIZE_TOL)),
        "sign_fits": sign_fits,
        "sign_margin": np.where(sign_fits, -fd / scale_b, np.inf),
        "sign_fail": sign_fits & (fd > SIGN_TOL * scale_b),
        "near_pi": near_pi,
        "stencil_unfit": stencil_unfit,
        "stencil_crosses_pi": crosses_pi,
        "hessian_margin": hess_margin,
        "hessian_fail": hess_margin < -HESSIAN_TOL,
        "deriv_ratio": ratios,
    }


# ---------------------------------------------------------------------------
# auxiliary-function certificates
# ---------------------------------------------------------------------------

_AUX_DIRECTIONS = np.column_stack([
    np.cos(2 * np.pi * np.arange(16) / 16),
    np.sin(2 * np.pi * np.arange(16) / 16),
])


def aux_margins_batch(r: np.ndarray, s: np.ndarray, q: float, h: float):
    """Size and Hessian slacks of all five auxiliary functions, batched.

    The closed forms are smooth on r, s > 0, so finite-difference stencils
    may step slightly off the slab 1 <= rs <= Q; the size bounds are only
    meaningful (and only checked) at the nodes themselves.  Returns
    {kind: (size_margin, hessian_margin)} with size margins normalized by
    1 + bound and Hessian margins absolute.  The step h must be finite and > 0.
    """
    if not 0 < h < math.inf:
        raise DomainError(f"finite-difference step must be finite and > 0, got {h}")
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    hr = h * np.maximum(1.0, r)
    hs = h * np.maximum(1.0, s)
    out = {}
    for kind in bellman.AUX_KINDS:
        f0 = aux_raw(kind, r, s, q)
        bound = aux_size_bound(kind, r, s, q)
        size_margin = np.minimum(f0, bound - f0) / (1.0 + bound)

        hrr = (aux_raw(kind, r + 2 * hr, s, q) - 2 * f0
               + aux_raw(kind, r - 2 * hr, s, q)) / (4 * hr * hr)
        hss = (aux_raw(kind, r, s + 2 * hs, q) - 2 * f0
               + aux_raw(kind, r, s - 2 * hs, q)) / (4 * hs * hs)
        hrs = (aux_raw(kind, r + hr, s + hs, q) - aux_raw(kind, r + hr, s - hs, q)
               - aux_raw(kind, r - hr, s + hs, q)
               + aux_raw(kind, r - hr, s - hs, q)) / (4 * hr * hs)
        worst = np.full(r.shape, np.inf)
        for vr, vs in _AUX_DIRECTIONS:
            form = -(hrr * vr * vr + 2 * hrs * vr * vs + hss * vs * vs)
            worst = np.minimum(worst, form - aux_hessian_rhs(kind, r, s, vr, vs))
        out[kind] = (size_margin, worst)
    return out


def aux_grid_nodes(q: float, n: int):
    """(r, s) nodes covering the slab: r log-spaced, rs linear in the slab.

    r spans [1e-2, 1e2] and rs spans [1 + SAMPLING_DELTA, Q - SAMPLING_DELTA].
    For Q = 1 the slab degenerates to rs = 1 and every rs-row sits on it.
    """
    if n < 1:
        raise DomainError("grid size n must be >= 1")
    r = np.logspace(-2.0, 2.0, n)
    lo, hi = 1.0 + SAMPLING_DELTA, q - SAMPLING_DELTA
    if hi <= lo:
        u = np.full(n, (1.0 + q) / 2.0)
    else:
        u = np.linspace(lo, hi, n)
    rg, ug = np.meshgrid(r, u, indexing="ij")
    rg = rg.ravel()
    sg = ug.ravel() / rg
    return rg, sg


def run_aux_grid(ctx: QContext, n: int, h: float, label: str) -> list:
    """The aux_size and aux_hessian checks of the n-by-n slab grid, worst kind per node."""
    rg, sg = aux_grid_nodes(ctx.q, n)
    margins = aux_margins_batch(rg, sg, ctx.q, h)
    size_worst, hess_worst = np.min(list(margins.values()), axis=0)

    def where(i):
        return {"r": float(rg[i]), "s": float(sg[i])}

    return [_check(f"aux_size[{label}]", size_worst, size_worst < -AUX_SIZE_TOL, 0, where),
            _check(f"aux_hessian[{label}]", hess_worst, hess_worst < -AUX_HESSIAN_TOL,
                   0, where)]


# ---------------------------------------------------------------------------
# mollified evaluation
# ---------------------------------------------------------------------------

def mollify_eval(x, ctx: QContext, eps: float, mc: int, seed) -> float:
    """Seeded Monte-Carlo mollification of the radial profile at one point.

    x is one (5+eta_dim,) row (Z, H, zeta, eta..., r, s) of D_Q.  Averages
    B_Q over the bump psi(u) = exp(-1/(1-|u|^2)) supported in the unit
    ball of R^6, scaled by eps and self-normalized by the sampled psi
    mass.  The radial profile extends evenly in zeta and nu; the eps-ball
    must stay inside the (even) radial domain, otherwise the input is
    rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (ctx.dim,):
        raise DomainError(f"point has shape {x.shape}, expected ({ctx.dim},)")
    if not in_domain_batch(x[None, :], ctx.q)[0]:
        raise DomainError("point lies outside D_Q")
    if eps < 0:
        raise DomainError("eps must be >= 0")
    if mc < 1:
        raise DomainError("mc must be >= 1")
    z, h, zeta, eta2, r, s = _split_columns(x[None, :])
    base = np.concatenate([z, h, np.abs(zeta), np.sqrt(eta2), r, s])
    if eps == 0.0:
        return float(bq_batch(base[None, :], ctx.q)[0])

    rng = _rng(seed)
    direction = rng.normal(size=(mc, 6))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(0.0, 1.0, mc) ** (1.0 / 6.0)
    u = direction * radius[:, None]
    pts = base[None, :] - eps * u

    if not in_domain_batch(pts, ctx.q).all():
        raise DomainError("eps-ball exits the radial domain; reduce eps or "
                          "move the point inward")
    with np.errstate(divide="ignore", over="ignore"):
        norm2 = np.sum(u * u, axis=1)
        psi = np.exp(-1.0 / np.maximum(1.0 - norm2, 1e-300))
    vals = bq_batch(pts, ctx.q)
    return float(np.dot(psi, vals) / psi.sum())


def _mollify_probe_points(q: float, eps: float, eta_dim: int) -> np.ndarray:
    """A few interior rows (Z, H, zeta, nu, 0..., r, s) whose eps-ball comfortably fits in D_Q."""
    if q < 1.0 + 8.0 * eps + 1e-9:
        return np.empty((0, 5 + eta_dim))
    pts = []
    u_mid = (1.0 + q) / 2.0
    for zscale, frac in ((2.0, 0.3), (10.0, 0.0), (5.0, 0.6)):
        r = math.sqrt(u_mid)
        s = math.sqrt(u_mid)
        z = max(zscale, 4 * eps)
        h = z
        zeta = frac * math.sqrt(0.25 * z * r)
        nu = frac * math.sqrt(0.25 * h * s)
        pts.append((z, h, zeta, nu) + (0.0,) * (eta_dim - 1) + (r, s))
    return np.array(pts)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def _check(name: str, margin: np.ndarray, fail: np.ndarray, skipped: int,
           where) -> CheckResult:
    """A check over one margin per case; the worst case is the first arg-min.

    where(i) gives the location of case i.  The worst margin and its
    location are None when no margin is finite (every case skipped).
    """
    i = int(np.argmin(margin))
    done = bool(np.isfinite(margin[i]))
    return CheckResult(name=name, count=margin.size, failures=int(fail.sum()),
                       skipped=skipped, worst_margin=float(margin[i]) if done else None,
                       argmax_location=where(i) if done else None)


def _run_q(q: float, cfg: SuiteConfig, checks: list, measurements: list) -> None:
    ctx = QContext(q, cfg.eta_dim)
    label = f"Q={q:g}"
    x = sample_columns(q, cfg.eta_dim, cfg.samples_per_q, _rng(np.random.SeedSequence([cfg.seed, int(1e6 * q)])))
    v = _row_verdicts(x, q, cfg, _directions(ctx, cfg))
    zh = x[:, 0] + x[:, 1]

    def at(i):
        return {"point": x[i].tolist()}

    checks.append(_check(f"size[{label}]", v["size_margin"], v["size_fail"], 0, at))
    ratio = v["b"] / zh
    measurements.append(Measurement(
        name=f"observed_size_sup[{label}]", value=float(np.max(ratio)),
        location=at(int(np.argmax(ratio)))))

    # unweighted six-bound (recorded, not asserted)
    us = v["unweighted"]
    um = np.minimum(us, 6.0 * zh - us) / (1.0 + zh)
    iu = int(np.argmin(um))
    measurements.append(Measurement(
        name=f"unweighted_six_bound_min_margin[{label}]",
        value=float(um[iu]), location=at(iu)))

    checks.append(_check(f"sign[{label}]", v["sign_margin"], v["sign_fail"],
                         int((~v["sign_fits"]).sum()), at))
    reasons = {key: int(v[key].sum())
               for key in ("near_pi", "stencil_unfit", "stencil_crosses_pi")}
    skipped = sum(reasons.values())
    checks.append(_check(f"hessian[{label}]", v["hessian_margin"], v["hessian_fail"],
                         skipped, at))
    if skipped:
        measurements.append(Measurement(
            name=f"hessian_skip_reasons[{label}]", value=skipped, location=reasons))
    min_ratio = float(v["deriv_ratio"].min())
    if math.isfinite(min_ratio):
        measurements.append(Measurement(
            name=f"min_deriv_ratio[{label}]", value=min_ratio))

    # auxiliary certificates on the slab grid
    checks.extend(run_aux_grid(ctx, cfg.aux_grid_n, cfg.fd_step, label))

    # mollified size bound (only when configured)
    if cfg.mollify_eps > 0:
        probes = _mollify_probe_points(q, cfg.mollify_eps, cfg.eta_dim)
        fails = 0
        margin = math.inf
        gap = 0.0
        for k, pt in enumerate(probes):
            val = mollify_eval(pt, ctx, cfg.mollify_eps, cfg.mc_samples,
                               np.random.SeedSequence([cfg.seed, int(1e6 * q), 2, k]))
            bound = bellman.SIZE_CONSTANT * (1 + cfg.mollify_eps) * (pt[0] + pt[1])
            margin = min(margin, val, bound - val)
            if not (0 <= val <= bound):
                fails += 1
            gap = max(gap, abs(val - bq_batch(pt[None, :], q)[0]))
        checks.append(CheckResult(
            name=f"mollify_bound[{label}]", count=len(probes), failures=fails,
            skipped=0, worst_margin=float(margin) if len(probes) else None))
        if len(probes):
            measurements.append(Measurement(
                name=f"mollify_max_gap[{label}]", value=float(gap)))


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    """Full verification sweep over cfg.q_list; deterministic given cfg."""
    checks: list = []
    measurements: list = []
    for q in cfg.q_list:
        _run_q(float(q), cfg, checks, measurements)
    return VerificationReport(
        tool_version=__version__,
        config_echo={"subcommand": "verify-bellman", **cfg.as_dict()},
        checks=checks,
        measurements=measurements,
    )
