import math

import numpy as np
import pytest

from gaussbell.estimates import (
    CSV_HEADER,
    EstimateError,
    bilinear_lhs,
    representation_check,
    rows_to_csv,
    sweep_problems,
    sweep_report,
    weighted_riesz_norm,
)
from gaussbell.gauss import (
    FlowGrid,
    HermiteFunction,
    OneForm,
    WeightSpec,
    gh_rule,
)

COARSE_GRID = FlowGrid(
    x_nodes=tuple(np.arange(-4.0, 4.0 + 1e-9, 0.5)),
    t_nodes=tuple(np.logspace(-2, math.log10(8.0), 10)),
)


# ---------------------------------------------------------------------------
# bilinear embedding
# ---------------------------------------------------------------------------

def test_bilinear_unweighted_example():
    """f = hhat_1, g = hhat_0 dx: closed forms give
    |grad P_t f| = e^{-t} sqrt(1+x^2), |grad P_t g| = e^{-t}, so
    lhs = (1/4) E[sqrt(1+X^2)]."""
    res = bilinear_lhs(HermiteFunction.basis(1), OneForm.basis(0),
                       WeightSpec.constant(1.0), COARSE_GRID)
    xs, ws = gh_rule(200)
    oracle = 0.25 * float(ws @ np.sqrt(1 + xs**2))
    assert res.lhs == pytest.approx(oracle, abs=1e-8)
    assert 0.25 < res.lhs < 0.3536
    assert res.ratio < 1.0 / 50.0
    assert res.tail_estimate < 1e-8
    assert res.lhs <= res.bound + 1e-6


def test_bilinear_zero_function():
    res = bilinear_lhs(HermiteFunction((0.0, 0.0)), OneForm.basis(0),
                       WeightSpec.constant(1.0), COARSE_GRID)
    assert res.lhs == 0.0


def test_bilinear_rejects_constant_part():
    with pytest.raises(EstimateError):
        bilinear_lhs(HermiteFunction((1.0, 1.0)), OneForm.basis(0),
                     WeightSpec.constant(1.0), COARSE_GRID)


def test_bilinear_weighted_within_bound():
    res = bilinear_lhs(HermiteFunction.basis(2), OneForm.basis(1),
                       WeightSpec.exp_linear(0.5), COARSE_GRID)
    assert res.ratio <= 1.0


def test_bilinear_scaling_invariance():
    """(f, g) -> (lam f, lam^{-1} g) leaves lhs/(|f||g|) unchanged."""
    f = HermiteFunction((0.0, 1.0, 0.0, 1.0))
    g = OneForm.basis(2)
    w = WeightSpec.exp_linear(0.5)
    base = bilinear_lhs(f, g, w, COARSE_GRID)
    lam = 3.7
    scaled = bilinear_lhs(HermiteFunction(tuple(lam * f.array)),
                          OneForm(tuple(g.array / lam)), w, COARSE_GRID)
    assert scaled.lhs == pytest.approx(base.lhs, rel=1e-12)
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-10)


def test_bilinear_weight_inversion_symmetry():
    """lhs is weight-free and q2 is inversion symmetric; with matching
    f and g profiles the two dual norms swap under w -> w^{-1}."""
    f = HermiteFunction.basis(1)
    g = OneForm.basis(1)
    w = WeightSpec.exp_linear(1.0)
    a = bilinear_lhs(f, g, w, COARSE_GRID)
    b = bilinear_lhs(f, g, w.inverse(), COARSE_GRID)
    assert a.lhs == pytest.approx(b.lhs, rel=1e-13)
    assert a.q2_lower == pytest.approx(b.q2_lower, rel=1e-10)
    assert a.f_norm == pytest.approx(b.g_norm, rel=1e-12)
    assert a.g_norm == pytest.approx(b.f_norm, rel=1e-12)
    assert a.bound == pytest.approx(b.bound, rel=1e-10)


# ---------------------------------------------------------------------------
# weighted Riesz norm
# ---------------------------------------------------------------------------

def test_riesz_norm_constant_is_isometry():
    res = weighted_riesz_norm(WeightSpec.constant(1.0), 32, grid=COARSE_GRID)
    assert res.weighted_norm == pytest.approx(1.0, abs=1e-10)
    assert res.bound_ratio <= 1.0


def test_riesz_norm_exp_zero_degenerates_to_constant():
    a = weighted_riesz_norm(WeightSpec.constant(1.0), 16, grid=COARSE_GRID)
    b = weighted_riesz_norm(WeightSpec.exp_linear(0.0), 16, grid=COARSE_GRID)
    assert b.weighted_norm == pytest.approx(a.weighted_norm, abs=1e-12)


def test_riesz_norm_exp_within_80q2_bound():
    res = weighted_riesz_norm(WeightSpec.exp_linear(1.0), 32,
                              grid=COARSE_GRID)
    assert res.weighted_norm <= 80.0 * res.q2 + 1e-6
    assert res.bound_ratio <= 1.0


def test_riesz_norm_monotone_in_subspace():
    """Enlarging the subspace can only increase the restricted norm."""
    w = WeightSpec.exp_linear(1.0)
    small = weighted_riesz_norm(w, 8, grid=COARSE_GRID, q2_value=1.0)
    big = weighted_riesz_norm(w, 24, grid=COARSE_GRID, q2_value=1.0)
    assert big.weighted_norm >= small.weighted_norm - 1e-12


def test_riesz_norm_rejects_tiny_subspace():
    with pytest.raises(EstimateError):
        weighted_riesz_norm(WeightSpec.constant(1.0), 1, grid=COARSE_GRID)


def test_riesz_norm_needs_fewer_dimensions_than_nodes():
    # hhat_80 vanishes at all 80 Gauss-Hermite nodes of the constant weight's rule
    with pytest.raises(EstimateError):
        weighted_riesz_norm(WeightSpec.constant(1.0), 80, q2_value=1.0)
    res = weighted_riesz_norm(WeightSpec.constant(1.0), 79, q2_value=1.0)
    assert res.weighted_norm == pytest.approx(1.0, abs=1e-10)
    # a non-constant weight on K = 160 nodes allows N <= K/2, where the Gram
    # integrands stay within the rule's exact degree and the norm has settled
    # (exp:a=0.75 reads 2.1967 at N = 153, where the rule is outrun)
    w = WeightSpec.exp_linear(0.75)
    at_80 = weighted_riesz_norm(w, 80, q2_value=1.0).weighted_norm
    at_64 = weighted_riesz_norm(w, 64, q2_value=1.0).weighted_norm
    assert abs(at_80 - at_64) <= 1e-12
    for n_dim in (81, 159):
        with pytest.raises(EstimateError):
            weighted_riesz_norm(w, n_dim, q2_value=1.0)


def test_riesz_norm_gram_gate_refuses_steep_weight():
    with pytest.raises(EstimateError):
        weighted_riesz_norm(WeightSpec.exp_linear(2.0), 40, q2_value=1.0)


def _exact_riesz_norm(a: float, n_dim: int) -> float:
    """The N-dimensional Riesz norm for w = e^{ax} from the exact Gram matrix.

    E[hhat_m hhat_n e^{aX}] = e^{a^2/2} E[He_m(Y+a) He_n(Y+a)] / sqrt(m! n!)
    with E[He_m(Y+a) He_n(Y+a)] = sum_k C(m,k) C(n,k) a^{m+n-2k} k!; the
    factor e^{a^2/2} cancels.  The eigenproblem is solved at 50 digits.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a = mp.mpf(a)
        gram = mp.matrix([[sum(math.comb(m, k) * math.comb(n, k) * math.factorial(k)
                               * a ** (m + n - 2 * k) for k in range(min(m, n) + 1))
                           / mp.sqrt(math.factorial(m) * math.factorial(n))
                           for n in range(n_dim + 1)] for m in range(n_dim + 1)])
        inv_l = mp.inverse(mp.cholesky(gram[1:, 1:]))
        reduced = inv_l * gram[0:n_dim, 0:n_dim] * inv_l.T
        return float(mp.sqrt(max(mp.eigsy(reduced, eigvals_only=True))))


@pytest.mark.parametrize("a, tol", [(1.0, 1e-13), (1.5, 1e-13), (2.0, 1e-11)])
def test_riesz_norm_matches_exact_gram(a, tol):
    exact = _exact_riesz_norm(a, 32)
    res = weighted_riesz_norm(WeightSpec.exp_linear(a), 32, q2_value=1.0)
    assert abs(res.weighted_norm - exact) <= tol * exact


# ---------------------------------------------------------------------------
# representation identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_representation_gap(n):
    res = representation_check(n)
    assert abs(res["lhs"]) == pytest.approx(1.0, abs=1e-13)
    assert res["abs_gap"] <= 1e-8
    # the model sign convention makes the flow side negative
    assert res["rhs"] < 0


def test_representation_tail_certificate():
    res = representation_check(9)
    assert res["t_truncation"] == 20.0
    assert res["tail_bound"] < 1e-15


def test_representation_rejects_n_zero():
    with pytest.raises(EstimateError):
        representation_check(0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_exp_family():
    params = [0.0, 0.5, 1.0, 1.5, 2.0]
    rows = sweep_report("exp", params, n_dim=8, grid=COARSE_GRID)
    assert len(rows) == 25                              # 5 params x 5 levels
    assert not sweep_problems(rows)
    q2_by_param = {r["param"]: r["q2_lower"] for r in rows}
    vals = [q2_by_param[p] for p in params]
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert all(a < b for a, b in zip(vals, vals[1:]))   # strictly increasing
    norm_by_param = {r["param"]: r["weighted_norm"] for r in rows}
    assert norm_by_param[0.0] == pytest.approx(1.0, abs=1e-10)
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == CSV_HEADER
    assert len(csv.splitlines()) == 26


def test_sweep_rejects_unsorted_params():
    with pytest.raises(EstimateError):
        sweep_report("exp", [1.0, 0.0], n_dim=4, grid=COARSE_GRID)


def test_sweep_unknown_family():
    with pytest.raises(EstimateError):
        sweep_report("gauss", [1.0], n_dim=4, grid=COARSE_GRID)
