import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import gaussbell
from gaussbell.gauss import (
    FLOW_SUITE_ORDER,
    QUAD_UNWEIGHTED,
    QUAD_WEIGHTED,
    FlowGrid,
    HermiteFunction,
    ModelError,
    OneForm,
    QuadratureError,
    WeightSpec,
    default_flow_grid,
    discrete_poisson_kernel,
    exterior_derivative,
    gh_rule,
    heat_step_quadrature,
    heat_weight,
    hermite_design,
    hermite_eval,
    flow_inequality_suite,
    poisson_step_quadrature,
    poisson_weight,
    q2_characteristic,
    riesz_apply,
    semigroup_apply,
    subordination_nodes,
    subordination_rule,
    truncate_weight,
    weighted_inner,
)
from gaussbell.gauss import _poisson_batch

H0 = HermiteFunction.basis(0)
H1 = HermiteFunction.basis(1)
W1 = WeightSpec.constant(1.0)
WEXP = WeightSpec.exp_linear(1.0)

SMALL_GRID = FlowGrid(
    x_nodes=tuple(np.arange(-4.0, 4.0 + 1e-9, 1.0)),
    t_nodes=tuple(np.logspace(-2, math.log10(8.0), 8)),
)


# ---------------------------------------------------------------------------
# Hermite basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,x,expected", [
    (2, 2.0, 3.0),          # x^2 - 1
    (0, 0.7, 1.0),
    (5, 0.0, 0.0),
    (3, 1.5, 1.5**3 - 3 * 1.5),
])
def test_hermite_values(n, x, expected):
    """expected is h_n(x); hermite_eval returns hhat_n = h_n / sqrt(n!)."""
    assert hermite_eval(n, x) == pytest.approx(
        expected / math.sqrt(math.factorial(n)), rel=1e-14)


def _hermite_design_reference(nmax, x):
    """The normalized recurrence with a fresh array per step."""
    prev, curr = np.zeros_like(x), np.ones_like(x)
    out = [curr]
    for k in range(nmax):
        prev, curr = curr, (x * curr - math.sqrt(k) * prev) / math.sqrt(k + 1)
        out.append(curr)
    return np.stack(out, axis=-1)


def test_hermite_orthonormal_scaling():
    """hermite_eval's in-place recurrence gives the design's hhat_n, also at large n and |x|,
    and both equal the allocating recurrence bit for bit."""
    x = np.linspace(-30.0, 30.0, 601)
    for n in (4, 17, 40):
        assert np.allclose(hermite_eval(n, x), hermite_design(n, x)[:, n],
                           rtol=1e-12, atol=0.0)
    rng = np.random.default_rng(5)
    for shape, n in (((256, 80), 3), ((160,), 32), ((5, 128, 80), 12), ((100001,), 40)):
        x = 4.0 * rng.normal(size=shape)
        ref = _hermite_design_reference(n, x)
        assert np.array_equal(hermite_design(n, x), ref)
        assert np.array_equal(hermite_eval(n, x), ref[..., n])
    assert hermite_eval(4, 1.3) == pytest.approx(
        (1.3**4 - 6 * 1.3**2 + 3) / math.sqrt(24), rel=1e-13)


def test_hermite_orthonormality_under_quadrature():
    x, w = gh_rule(60)
    design = hermite_design(12, x)
    gram = design.T @ (design * w[:, None])
    assert np.allclose(gram, np.eye(13), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 20), x=st.floats(-10, 10))
def test_hermite_recurrence_consistency(n, x):
    # sqrt(n+1) hhat_{n+1} = x hhat_n - sqrt(n) hhat_{n-1}
    if n >= 1:
        lhs = math.sqrt(n + 1) * hermite_eval(n + 1, x)
        rhs = x * hermite_eval(n, x) - math.sqrt(n) * hermite_eval(n - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)


# ---------------------------------------------------------------------------
# semigroups, Riesz, derivative
# ---------------------------------------------------------------------------

def test_semigroup_examples():
    """Poisson rates are sqrt(n) on functions and sqrt(m+1) on one-forms."""
    h4 = HermiteFunction.basis(4)
    assert semigroup_apply(h4, 0.5).coeffs[4] == pytest.approx(
        math.exp(-1.0), rel=1e-15)            # e^{-0.5 sqrt(4)}
    assert semigroup_apply(h4, 0.0).coeffs == h4.coeffs
    assert semigroup_apply(H0, 9.0).coeffs == (1.0,)  # Markovian
    g = OneForm.basis(3)
    assert semigroup_apply(g, 1.0).coeffs[3] == \
        pytest.approx(math.exp(-2.0), rel=1e-15)
    assert semigroup_apply(OneForm.basis(0), 9.0).coeffs[0] == \
        pytest.approx(math.exp(-9.0), rel=1e-15)


def test_semigroup_rejects_negative_time():
    with pytest.raises(ModelError):
        semigroup_apply(H1, -0.1)


def test_oneform_constructors_keep_type():
    g = OneForm.basis(2)
    assert type(g) is OneForm and g.coeffs == (0.0, 0.0, 1.0)
    assert type(semigroup_apply(g, 1.0)) is OneForm
    assert type(exterior_derivative(H1)) is OneForm
    assert type(HermiteFunction.basis(2)) is HermiteFunction
    assert type(semigroup_apply(H1, 1.0)) is HermiteFunction


@settings(max_examples=60, deadline=None)
@given(t1=st.floats(0, 3), t2=st.floats(0, 3),
       kind=st.sampled_from([HermiteFunction, OneForm]))
def test_semigroup_composition(t1, t2, kind):
    f = kind((0.5, -1.0, 2.0, 0.25))
    once = semigroup_apply(f, t1 + t2)
    twice = semigroup_apply(semigroup_apply(f, t1), t2)
    assert np.allclose(once.array, twice.array, rtol=1e-12, atol=1e-15)


def test_riesz_shift_and_kernel():
    assert riesz_apply(H1).coeffs == (1.0,)
    assert riesz_apply(H0).coeffs == (0.0,)


def test_riesz_isometry_off_constants():
    f = HermiteFunction((0.3, 1.0, -2.0, 0.5, 0.1))
    assert np.linalg.norm(riesz_apply(f).array) == pytest.approx(
        float(np.linalg.norm(f.array[1:])), rel=1e-15)


def test_exterior_derivative_intertwines_poisson():
    """d P_t f = P_t d f to machine precision (fixes the one-form action)."""
    f = HermiteFunction((0.2, 1.0, -0.7, 0.0, 0.9))
    for t in (0.1, 1.0, 7.5):
        lhs = exterior_derivative(semigroup_apply(f, t)).array
        rhs = semigroup_apply(exterior_derivative(f), t).array
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# weighted inner products
# ---------------------------------------------------------------------------

def test_weighted_inner_examples():
    assert weighted_inner(H1, H1, W1) == pytest.approx(1.0, abs=1e-14)
    assert weighted_inner(H1, HermiteFunction.basis(2), W1) == \
        pytest.approx(0.0, abs=1e-14)
    assert weighted_inner(H0, H0, WEXP) == pytest.approx(
        math.exp(0.5), rel=1e-13)


def test_weighted_inner_validation():
    with pytest.raises(ModelError):
        weighted_inner(H0, OneForm.basis(0), W1)
    with pytest.raises(ModelError):
        gh_rule(1)
    # an empty expansion has no order: refused before any quadrature sees it
    for kind in (HermiteFunction, OneForm):
        with pytest.raises(ModelError):
            kind(())


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_clamp_examples():
    w = truncate_weight(WEXP, 2)
    assert w(5.0) == 2.0
    assert w(0.0) == 1.0
    wc = truncate_weight(WeightSpec.constant(1.0), 7)
    assert np.all(wc(np.linspace(-5, 5, 11)) == 1.0)


def test_weight_positivity_and_bounds():
    with pytest.raises(ModelError):
        WeightSpec.constant(0.0)
    with pytest.raises(ModelError):
        WeightSpec.exp_linear(2.5)
    with pytest.raises(ModelError):
        truncate_weight(WEXP, 0)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(-2.0, 2.0), n=st.integers(1, 64),
       x=st.floats(-20, 20))
def test_weight_inverse_commutes_with_clamp(a, n, x):
    w = truncate_weight(WeightSpec.exp_linear(a), n)
    assert w.inverse()(x) == pytest.approx(1.0 / w(x), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["const", "exp", "trunc"]),
       v=st.floats(-2.0, 2.0), n=st.integers(1, 99))
def test_weight_grammar_roundtrip(kind, v, n):
    if kind == "const":
        w = WeightSpec.constant(abs(v) + 0.5)
    elif kind == "exp":
        w = WeightSpec.exp_linear(v)
    else:
        w = truncate_weight(WeightSpec.exp_linear(v), n)
    again = WeightSpec.parse(w.to_string())
    assert again == w


def test_weight_grammar_rejects_garbage():
    for bad in ("", "exp", "exp:b=1", "trunc:n=4", "const:c=-1",
                "trunc:n=0:exp:a=1"):
        with pytest.raises(ModelError):
            WeightSpec.parse(bad)


# ---------------------------------------------------------------------------
# pointwise flows
# ---------------------------------------------------------------------------

def test_heat_closed_form_against_quadrature():
    """Dual route: Gaussian closed form vs Mehler-average quadrature."""
    for a in (0.5, 1.0, -2.0):
        w = WeightSpec.exp_linear(a)
        for x in (-3.0, 0.0, 1.7):
            for s in (0.05, 0.5, 3.0):
                closed = float(heat_weight(w, x, s))
                gx, gw = gh_rule(160)
                pts = x * math.exp(-s) + math.sqrt(1 - math.exp(-2 * s)) * gx
                quad = float(np.dot(gw, np.exp(a * pts)))
                assert closed == pytest.approx(quad, rel=1e-12)


def _clipped_heat_reference(a, n, x, s):
    """E clip(e^{aX}, 1/n, n) for X ~ N(x e^{-s}, 1 - e^{-2s}), by adaptive quad.

    The integral runs over the standard normal y on [-40, 40], split at
    the two kinks where a X = +-ln n.
    """
    mu = x * math.exp(-s)
    sd = math.sqrt(-math.expm1(-2 * s))

    def integrand(y):
        return min(max(math.exp(a * (mu + sd * y)), 1 / n), n) * math.exp(-y * y / 2)

    kinks = ((c / a - mu) / sd for c in (math.log(n), -math.log(n)))
    cuts = sorted({-40.0, 40.0, *(c for c in kinks if -40 < c < 40)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        body = sum(quad(integrand, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(cuts, cuts[1:]))
    return body / math.sqrt(2 * math.pi)


def test_heat_weight_clipped_matches_quad_oracle():
    worst = 0.0
    for a in (2.0, -2.0, 1.0, -1.0, 0.5):
        for n in (2, 4, 32, 2**21):
            w = truncate_weight(WeightSpec.exp_linear(a), n)
            for x in (0.0, 4.0, -4.0, 8.0, -8.0, 1.3):
                assert float(heat_weight(w, x, 0.0)) == float(w(x))
                for s in (*np.logspace(-8, math.log10(30.0), 12), math.inf):
                    ref = _clipped_heat_reference(a, n, x, s)
                    worst = max(worst, abs(math.log(float(heat_weight(w, x, s)) / ref)))
    assert worst <= 1e-12
    # a chain of clamps is the clamp at its smallest level
    xs, ss = np.linspace(-6, 6, 13), np.array([0.0, 0.1, 1.0, math.inf])[:, None]
    chain = WeightSpec.parse("trunc:n=3:trunc:n=8:exp:a=1")
    assert np.array_equal(heat_weight(chain, xs, ss),
                          heat_weight(WeightSpec.parse("trunc:n=3:exp:a=1"), xs, ss))
    assert float(heat_weight(WeightSpec.parse("trunc:n=4:const:c=9"), 0.5, 0.3)) == 4.0
    # every term is at most n, so far-out points stay finite and inside the clamp band
    w4 = WeightSpec.parse("trunc:n=4:exp:a=2")
    for x in (500.0, -500.0, 1000.0):
        for t in (1e-3, 1.0, 30.0):
            assert 0.25 <= poisson_weight(w4, x, t) <= 4.0


def test_heat_weight_of_a_constant_at_scalar_arguments():
    out = heat_weight(WeightSpec.constant(2.0), 0.5, 0.3)
    assert out.shape == () and float(out) == 2.0
    assert heat_weight(WeightSpec.constant(2.0), np.zeros(3), 0.3).shape == (3,)


def test_import_leaves_scipy_special_unloaded():
    """No scipy module loads on import; scipy.special loads on the first
    clipped heat step."""
    src = os.path.dirname(os.path.dirname(gaussbell.__file__))
    code = ("import sys, gaussbell, gaussbell.cli; "
            "assert 'scipy.special' not in sys.modules, 'scipy.special imported'; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_heat_step_reproduces_eigenvalues():
    xs = np.array([-3.0, -0.4, 0.0, 1.1, 2.6])
    for n in range(13):
        for s in (0.1, 1.0):
            approx = heat_step_quadrature(n, xs, s, 80)
            exact = math.exp(-n * s) * hermite_design(n, xs)[:, n]
            assert np.max(np.abs(approx - exact) / (1 + np.abs(exact))) < 1e-12


def test_poisson_step_spot_check():
    # The inner Mehler step is polynomially exact, so the flow multiplies
    # hhat_n by an x-independent factor; project it out and compare with
    # e^{-t sqrt(n)}.
    xs = np.array([-2.0, 0.7, 3.0])
    for n in (1, 4):
        basis = hermite_design(n, xs)[:, n]
        for t in (1e-2, 0.25, 1.0, 4.0):
            approx = poisson_step_quadrature(n, xs, t, 512, 80)
            factor = float(approx @ basis) / float(basis @ basis)
            assert factor == pytest.approx(math.exp(-t * math.sqrt(n)),
                                           abs=1e-6)


@pytest.mark.parametrize("gl", [512, 8192])
def test_poisson_step_quadrature_blocks_are_exact(gl):
    """The node-blocked flow equals the whole-array Mehler sum bit for bit."""
    xs = np.array([-3.0, -1.2, 0.0, 0.7, 2.5])
    for n in (1, 4, 8):
        for t in (0.25, 0.7, 4.0):
            s, wj = subordination_nodes(t, gl)
            whole = heat_step_quadrature(n, xs[..., None], s, 80) @ wj
            assert np.array_equal(poisson_step_quadrature(n, xs, t, gl, 80), whole)


def test_poisson_step_quadrature_memory_is_blocked():
    """Peak memory stays far below one (5, 8192, 80) array (26 MB)."""
    xs = np.array([-3.0, -1.2, 0.0, 0.7, 2.5])
    poisson_step_quadrature(8, xs, 1.0, 8192, 80)      # warm the rule caches
    tracemalloc.start()
    try:
        poisson_step_quadrature(8, xs, 1.0, 8192, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_poisson_weight_examples():
    assert poisson_weight(WeightSpec.constant(2.5), 1.3, 0.7) == \
        pytest.approx(2.5, rel=1e-14)
    # spectral long-time limit: P_t w (0) -> int w dgamma = e^{1/2}
    assert poisson_weight(WEXP, 0.0, 50.0) == pytest.approx(
        math.exp(0.5), rel=1e-9)


def test_poisson_weight_overflow_raises():
    with pytest.raises(QuadratureError):
        poisson_weight(WeightSpec.exp_linear(2.0), 500.0, 1e-3)


def test_subordination_weights_are_probability():
    u, w = subordination_rule(512)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(w > 0)
    s, _ = subordination_nodes(1.0, 512)
    assert s[0] == math.inf
    assert np.all(s > 0)


def _poisson_exp_reference(a, x, t):
    """P_t e^{ax}(x) as the subordination integral in z = ln u, by adaptive quad.

    The heat step of e^{ax} has the closed form exp(a x e^{-s} + a^2 (1 -
    e^{-2s}) / 2) with s = t^2 / (4u).  The z-integral is split where s
    passes 1, which is the boundary layer; below z = -120 the step is the
    Gaussian mean e^{a^2/2}, and Gamma(1/2) gives [0, e^{-120}] the mass
    erf(e^{-60}).
    """
    def integrand(z):
        u = math.exp(z)
        s = t * t / (4 * u)
        return math.sqrt(u / math.pi) * math.exp(
            -u + a * x * math.exp(-s) - a * a * math.expm1(-2 * s) / 2)

    zc = math.log(t * t / 4)
    cuts = sorted({-120.0, 5.0, *(c for c in (zc - 6, zc - 2, zc, zc + 2)
                                   if -120 < c < 5)})
    body = sum(quad(integrand, lo, hi, epsabs=0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))
    return body + math.erf(math.exp(-60)) * math.exp(a * a / 2)


def test_poisson_weight_matches_subordination_oracle():
    worst = 0.0
    for a in (2.0, -2.0, 1.0, -1.0, 0.5):
        w = WeightSpec.exp_linear(a)
        for t in np.logspace(-3, math.log10(32.0), 9):
            for x in (0.0, 4.0, -4.0, 8.0, -8.0):
                ref = _poisson_exp_reference(a, x, t)
                worst = max(worst, abs(math.log(poisson_weight(w, x, t) / ref)))
    assert worst <= 1e-10


@pytest.mark.parametrize("spec", ["exp:a=1", "trunc:n=4:exp:a=1"])
def test_q2_converged_in_subordination_order(spec):
    """q2 on the default grid agrees with the maximum taken on 1024 subordination nodes."""
    w = WeightSpec.parse(spec)
    grid = default_flow_grid()
    xs = np.asarray(grid.x_nodes)
    res = q2_characteristic(w, grid)
    q1024 = max(float(np.max(_poisson_batch(w, xs, t, 1024)
                             * _poisson_batch(w.inverse(), xs, t, 1024)))
                for t in grid.t_nodes)
    assert max(q1024, res.limit) == pytest.approx(res.value, rel=1e-8)


# ---------------------------------------------------------------------------
# the characteristic
# ---------------------------------------------------------------------------

def test_q2_constant_is_one():
    res = q2_characteristic(WeightSpec.constant(3.0), SMALL_GRID)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.min_product >= 1.0 - 1e-10


def test_q2_argmax_prefers_non_negative_mirror():
    """w(-x) = 1/w(x) makes the product even in x; every such weight and
    its reciprocal report the same non-negative arg-max node."""
    grid = default_flow_grid()
    specs = ["exp:a=1", "exp:a=-1", "trunc:n=4:exp:a=1", "trunc:n=4:exp:a=-1"]
    res = [q2_characteristic(WeightSpec.parse(spec), grid) for spec in specs]
    for a, b in ((res[0], res[1]), (res[2], res[3])):
        assert a.argmax_x == b.argmax_x >= 0.0
        assert a.argmax_t == b.argmax_t


def test_q2_exp_at_least_limit():
    res = q2_characteristic(WEXP, SMALL_GRID)
    assert res.limit == pytest.approx(math.e, rel=1e-12)
    assert res.value >= math.e - 1e-6


def test_q2_truncation_below_untruncated():
    full = q2_characteristic(WEXP, SMALL_GRID).value
    for n in (2, 8):
        trunc = q2_characteristic(truncate_weight(WEXP, n), SMALL_GRID).value
        assert trunc <= full * (1 + 1e-9)


def test_q2_truncation_monotone_in_level():
    vals = [q2_characteristic(truncate_weight(WEXP, n), SMALL_GRID).value
            for n in (2, 4, 8, 16)]
    assert all(b >= a * (1 - 1e-9) for a, b in zip(vals, vals[1:]))


def test_q2_truncation_converges_on_fixed_grid():
    """q2(trunc(w, n)) climbs to q2(w) on a fixed grid once the clamp
    level clears the exponential range the grid actually probes (the
    arg-max sits at the x-boundary, so levels must reach roughly
    e^{max|x|} times the subordination spread before the gap closes)."""
    grid = FlowGrid(tuple(np.arange(-8.0, 8.0 + 1e-9, 0.5)),
                    tuple(np.logspace(-2, math.log10(16.0), 12)))
    full = q2_characteristic(WEXP, grid).value
    vals = [q2_characteristic(truncate_weight(WEXP, n), grid).value
            for n in (32, 512, 5000, 20000)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-2] >= 0.999 * full
    assert vals[-1] == pytest.approx(full, rel=1e-6)


def test_flow_grid_validation():
    with pytest.raises(ModelError):
        FlowGrid((), (1.0,))
    with pytest.raises(ModelError):
        FlowGrid((0.0,), (1.0, 0.5))          # t not increasing
    with pytest.raises(ModelError):
        FlowGrid((0.0, 1.0), (1.0,))          # x not symmetric
    grid = default_flow_grid()
    assert len(grid.x_nodes) == 65
    assert len(grid.t_nodes) == 40
    # the grid the a2 defaults spell out, bit for bit
    assert grid.x_nodes == tuple(np.arange(-8.0, 8.0 + 1e-9, 0.25))
    assert grid.t_nodes == tuple(np.logspace(math.log10(1e-3), math.log10(32.0), 40))


# ---------------------------------------------------------------------------
# flow inequalities (small grid; the default grid runs in acceptance)
# ---------------------------------------------------------------------------

def test_flow_inequalities_small_grid():
    fs = [H1, HermiteFunction((0.0, 1.0, 0.0, 1.0))]
    gs = [OneForm.basis(0), OneForm.basis(2)]
    ws = [W1, WeightSpec.exp_linear(0.5), truncate_weight(WEXP, 4)]
    m = flow_inequality_suite(fs, gs, ws, SMALL_GRID.x_nodes, SMALL_GRID.t_nodes)
    assert m["a"] >= -1e-8
    assert m["c"] >= -1e-8
    assert m["d"] >= -1e-8
    assert m["product"] >= -1e-10
    assert m["b_gap"] <= 1e-14


def _whole_array_suite(fs, gs, ws, xs, ts, gl_order, gh_order):
    """Margins a), d) and product of the flow suite, summed over the
    whole (x, J*K) kernel at once."""
    worst = {"a": math.inf, "d": math.inf, "product": math.inf}
    order = max(h.order for h in (*fs, *gs))
    for t in ts:
        pts, mass, s = discrete_poisson_kernel(np.asarray(xs), t, gl_order, gh_order)
        pts = pts.reshape(len(xs), -1)
        mass_vec = (mass * np.exp(-s)[:, None]).ravel()
        mass = mass.ravel()
        design = hermite_design(order, pts)
        fvals = [design[..., :f.order + 1] @ f.array for f in fs]
        gvals = [design[..., :g.order + 1] @ g.array for g in gs]
        for w in ws:
            wv, wiv = w(pts), w.inverse()(pts)
            p_w, p_winv = wv @ mass, wiv @ mass
            worst["product"] = min(worst["product"], np.min(p_w * p_winv - 1.0))
            for fv in fvals:
                worst["a"] = min(worst["a"], np.min(
                    ((fv * fv * wv) @ mass) * p_winv - (fv @ mass) ** 2))
            for gv in gvals:
                worst["d"] = min(worst["d"], np.min(
                    ((gv * gv * wiv) @ mass) * p_w - (gv @ mass_vec) ** 2))
    return worst


def test_flow_suite_matches_whole_array_sum():
    """Summing per x row (Gauss-Hermite axis, then subordination) changes
    each margin by rounding only."""
    fs = [H1, HermiteFunction((0.0, 1.0, 0.0, 1.0))]
    gs = [OneForm.basis(0), OneForm.basis(2)]
    ws = [W1, WeightSpec.exp_linear(0.5), truncate_weight(WEXP, 4)]
    m = flow_inequality_suite(fs, gs, ws, SMALL_GRID.x_nodes, SMALL_GRID.t_nodes)
    ref = _whole_array_suite(fs, gs, ws, SMALL_GRID.x_nodes, SMALL_GRID.t_nodes,
                             FLOW_SUITE_ORDER, QUAD_UNWEIGHTED)
    for key, value in ref.items():
        assert abs(m[key] - value) <= 1e-14, key


@pytest.mark.parametrize("spec", ["exp:a=1", "trunc:n=4:exp:a=1"])
@pytest.mark.parametrize("t", [1e-2, 0.5, 4.0])
def test_discrete_kernel_matches_poisson_flow(spec, t):
    """sum mass * w(pts) over the shared kernel is the subordinated Mehler sum.

    For e^{ax} that sum is the flow P_t w with closed-form heat steps.  A
    clipped weight's heat steps are closed forms too, which Gauss-Hermite
    does not reproduce at its kinks, so its kernel sum is compared with
    the subordinated Gauss-Hermite Mehler sum built here.
    """
    w = WeightSpec.parse(spec)
    xs = np.asarray(default_flow_grid().x_nodes)
    pts, mass, _ = discrete_poisson_kernel(xs, t, 256, QUAD_WEIGHTED)
    via_kernel = np.einsum("xjk,jk->x", w(pts), mass)
    if w.kind == "exp":
        flow = _poisson_batch(w, xs, t, 256)
    else:
        s, wj = subordination_nodes(t, 256)
        gx, gw = gh_rule(QUAD_WEIGHTED)
        mehler = (xs[:, None, None] * np.exp(-s)[:, None]
                  + np.sqrt(1 - np.exp(-2 * s))[:, None] * gx)
        flow = (w(mehler) @ gw) @ wj
    assert np.allclose(via_kernel, flow, rtol=1e-12, atol=0.0)


def test_gauss_integral_exp():
    """The closed-form t-limit int w dgamma against a Gauss-Hermite sum."""
    gx, gw = gh_rule(160)
    assert float(heat_weight(WEXP, 0.0, math.inf)) == pytest.approx(
        float(gw @ WEXP(gx)), rel=1e-13)
