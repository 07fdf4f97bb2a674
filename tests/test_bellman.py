import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussbell.bellman import (
    AUX_KINDS,
    C1,
    C2,
    C3,
    C4,
    DomainError,
    QContext,
    aux_raw,
    aux_size_bound,
    beta_values,
    bq_batch,
    components_batch,
    pi_distance_batch,
)
from gaussbell.verify import b43_reference_batch, mollify_eval, sample_columns, _rng

Q1 = QContext(1.0)
#: each component is at most 2(Z+H), so B_Q <= this times (Z+H)
EFFECTIVE_SIZE_CONSTANT = C1 + C2 + C3 + 3 * C4


def row(*coords) -> np.ndarray:
    """One (Z, H, zeta, eta, r, s) point as a one-row batch."""
    return np.array([coords], dtype=float)


def validate(ctx: QContext, *coords) -> None:
    """Raise DomainError unless the point is a row of D_Q (mollify_eval's check)."""
    mollify_eval(np.array(coords, dtype=float), ctx, 0.0, 1, 0)


# ---------------------------------------------------------------------------
# auxiliary functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,r,s,q,expected", [
    ("M", 1.0, 1.0, 1.0, 0.0),          # -4 - 1 + 5
    ("K", 1.0, 2.0, 2.0, 1.5),          # sqrt(2)*sqrt(2) - 2/4
    ("Mtilde", 1.0, 2.0, 2.0, 4.75),    # -4 - 0.25 + 9
    ("N", 1.0, 2.0, 2.0, 7.0),          # -8 - 2 + 17
])
def test_aux_examples(kind, r, s, q, expected):
    assert aux_raw(kind, r, s, q) == pytest.approx(expected, abs=1e-12)


def test_aux_rejects_outside_slab():
    with pytest.raises(DomainError):
        validate(QContext(2.0), 1, 1, 0, 0, 2.0, 2.0)     # rs = 4 > Q
    with pytest.raises(DomainError):
        validate(QContext(2.0), 1, 1, 0, 0, 0.5, 1.0)     # rs = 0.5 < 1
    with pytest.raises(DomainError):
        aux_raw("Z", 1.0, 1.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(q=st.floats(1.0, 100.0), u=st.floats(0.0, 1.0),
       logr=st.floats(-2.0, 2.0))
def test_aux_size_bounds_on_slab(q, u, logr):
    """0 <= aux <= bound whenever 1 <= rs <= Q."""
    rs = 1.0 + u * (q - 1.0)
    r = 10.0**logr * math.sqrt(rs)
    s = rs / r
    for kind in AUX_KINDS:
        val = aux_raw(kind, r, s, q)
        bound = aux_size_bound(kind, r, s, q)
        assert val >= -1e-9 * (1 + abs(bound))
        assert val <= bound * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# critical parameter
# ---------------------------------------------------------------------------

def test_critical_a_symmetric_point():
    # a_m = 1 by symmetry: B43 = Z + H - beta(1)
    x = row(1, 1, 1, 1, 1, 1)
    b43 = components_batch(x, 2.0)[0, 5]
    assert b43 == pytest.approx(2.0 - beta_values(x, 2.0, 1.0)[0], abs=1e-14)


def test_critical_a_axis_cases():
    # eta = 0: a_m = 0, B43 = Z + H - zeta^2/r
    assert components_batch(row(1, 1, 1, 0, 1, 1), 2.0)[0, 5] == 1.0
    # zeta = 0: a_m = inf, B43 = Z + H - eta^2/s
    assert components_batch(row(1, 1, 0, 1, 1, 1), 2.0)[0, 5] == 1.0
    # zeta = eta = 0: every a gives Z + H
    assert components_batch(row(1, 1, 0, 0, 1, 1), 2.0)[0, 5] == 2.0


X42 = sample_columns(2.0, 1, 500, _rng(42))


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(1e-3, 1e3), idx=st.integers(0, 499))
def test_critical_a_scale_invariance(lam, idx):
    """Scaling (zeta, eta) by lambda > 0 does not move the critical parameter,
    so B43 scales like Z and H, by lambda^2."""
    x = X42[idx:idx + 1]
    # scale Z, H along to stay in the domain
    y = x * [lam**2, lam**2, lam, lam, 1.0, 1.0]
    b43, b43_scaled = components_batch(np.vstack([x, y]), 2.0)[:, 5]
    assert b43_scaled == pytest.approx(lam**2 * b43, rel=1e-12)


# ---------------------------------------------------------------------------
# components and the weighted sum
# ---------------------------------------------------------------------------

def test_component_boundary_point():
    # zeta^2 = Z r and <eta,eta> = H s make B1 vanish
    assert components_batch(row(1, 1, 1, 1, 1, 1), 2.0)[0, 0] == 0.0


def test_component_b2_at_origin_slots():
    assert components_batch(row(1, 1, 0, 0, 1, 1), 1.0)[0, 1] == 2.0


def test_b43_closed_form_value():
    # finite critical parameter a_m = 1 by symmetry; value
    # 2 - 2/(1 + K/Q) with K = sqrt(2) - 1/4
    k = math.sqrt(2.0) - 0.25
    expected = 2.0 - 2.0 / (1.0 + k / 2.0)
    x = row(1, 1, 1, 1, 1, 1)
    assert components_batch(x, 2.0)[0, 5] == pytest.approx(expected, abs=1e-14)
    # independent golden-section maximization agrees
    assert b43_reference_batch(x, 2.0)[0] == pytest.approx(expected, abs=1e-8)


def test_b43_degenerate_origin_is_sum():
    # at zeta = eta = 0 every choice of the inner parameter gives Z + H
    assert components_batch(row(3, 4, 0, 0, 1, 1), 1.0)[0, 5] == 7.0


def test_eval_bq_worked_example():
    # all six components equal 2 at this point; weighted sum is
    # 2 + (sqrt2/3)*4 + (288/13)*6
    expected = 2.0 + C2 * 4.0 + C4 * 6.0
    val = bq_batch(row(1, 1, 0, 0, 1, 1), 1.0)[0]
    assert val == pytest.approx(expected, rel=1e-14)
    assert val == pytest.approx(136.80869500624104, rel=1e-12)


def test_eval_bq_zero_point():
    assert bq_batch(row(0, 0, 0, 0, 1, 1), 1.0)[0] == 0.0
    assert bq_batch(row(0, 0, 0, 0, 1, 1), 7.0)[0] == 0.0


def test_eval_bq_within_size_bound():
    val = bq_batch(row(1, 1, 1, 1, 1, 1), 2.0)[0]
    assert 0.0 <= val <= 160.0


@pytest.mark.parametrize("q", [1.0, 2.0, 10.0, 100.0])
def test_component_and_sum_bounds_sampled(q):
    ctx = QContext(q)
    x = sample_columns(q, 1, 4000, _rng(11))
    comps = components_batch(x, q)
    zh = x[:, 0] + x[:, 1]
    assert np.all(comps >= -1e-12 * (1 + zh)[:, None])
    assert np.all(comps <= 2.0 * zh[:, None] * (1 + 1e-12) + 1e-12)
    bq = (C1 * comps[:, 0] + C2 * comps[:, 1] + C3 * comps[:, 2]
          + C4 * comps[:, 3:].sum(axis=1))
    assert np.all(bq >= 0.0)
    assert np.all(bq <= EFFECTIVE_SIZE_CONSTANT * zh * (1 + 1e-12))
    # the diagnostic unweighted sum obeys the 6(Z+H) bound
    assert np.all(comps.sum(axis=1) <= 6.0 * zh * (1 + 1e-12))


def test_radiality_under_eta_rotation():
    """B_Q depends on eta only through its length (eta_dim = 3)."""
    x = sample_columns(5.0, 3, 50, _rng(3))
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    orth, _ = np.linalg.qr(a)
    rotated = x.copy()
    rotated[:, 3:6] = x[:, 3:6] @ orth.T
    for p, p_rot in zip(x, rotated):
        assert bq_batch(p_rot[None, :], 5.0)[0] == pytest.approx(
            bq_batch(p[None, :], 5.0)[0], rel=1e-12)


def test_unweighted_sum_six_bound():
    assert components_batch(row(1, 1, 0, 0, 1, 1), 1.0).sum() == pytest.approx(12.0, rel=1e-14)


# ---------------------------------------------------------------------------
# singular set
# ---------------------------------------------------------------------------

def test_pi_distance_conventions():
    assert pi_distance_batch(row(1, 1, 0, 0, 1, 1), 1.0)[0] == math.inf
    assert pi_distance_batch(row(1, 1, 1, 0, 1, 1), 1.0)[0] == math.inf
    assert pi_distance_batch(row(1, 1, 1, 1, 1, 1), 2.0)[0] > 0.0


def test_pi_distance_vanishes_on_pi():
    # solve K/Q = zeta * s / |eta| for |eta| at fixed zeta, r, s
    r, s, q = 1.2, 1.0, 2.0
    k = float(aux_raw("K", r, s, q))
    zeta = 1.0
    eta = zeta * s * q / k
    assert pi_distance_batch(row(10.0, 10.0, zeta, eta, r, s), q)[0] == pytest.approx(
        0.0, abs=1e-14)


def _pi_distance_by_ratios(x, q):
    """Reference: the relative gaps of K/Q to |zeta| s / |eta| and |eta| r / |zeta|."""
    za, nu, r, s = np.abs(x[:, 2]), np.linalg.norm(x[:, 3:-2], axis=1), x[:, -2], x[:, -1]
    k_over_q = aux_raw("K", r, s, q) / q
    out = np.full(x.shape[0], np.inf)
    ok = (za > 0) & (nu > 0)
    r1 = np.abs(k_over_q[ok] - za[ok] * s[ok] / nu[ok]) / k_over_q[ok]
    r2 = np.abs(k_over_q[ok] - nu[ok] * r[ok] / za[ok]) / k_over_q[ok]
    out[ok] = np.minimum(r1, r2)
    return out


@pytest.mark.parametrize("eta_dim", [1, 3])
@pytest.mark.parametrize("q", [2.0, 10.0, 100.0])
def test_pi_distance_matches_ratio_formula(q, eta_dim):
    """Pi's distance from the critical parameter's numerator and denominator
    agrees with the K/Q ratio formula to rounding, with the same +inf rows
    and the same near-Pi flags."""
    x = sample_columns(q, eta_dim, 100_000, _rng(23))
    x[::97, 2] = 0.0                  # zeta = 0
    x[1::89, 3:-2] = 0.0              # eta = 0
    d, ref = pi_distance_batch(x, q), _pi_distance_by_ratios(x, q)
    assert np.array_equal(np.isinf(d), np.isinf(ref)) and np.isinf(d).sum() > 2000
    fin = np.isfinite(ref)
    assert np.all(np.abs(d[fin] - ref[fin]) <= 1e-14 * (1.0 + ref[fin]))
    assert np.array_equal(d <= 1e-3, ref <= 1e-3)


def test_domain_validation():
    validate(Q1, 1, 1, 0, 0, 1, 1)                      # the corner point is in D_1
    with pytest.raises(DomainError):
        validate(Q1, 1, 1, 2, 0, 1, 1)                  # zeta^2 > Zr
    with pytest.raises(DomainError):
        validate(Q1, 1, 1, 0, 2, 1, 1)                  # eta^2 > Hs
    with pytest.raises(DomainError):
        validate(Q1, 1, 1, 0, 0, 2, 1)                  # rs > Q
    with pytest.raises(DomainError):
        validate(Q1, -1, 1, 0, 0, 1, 1)
    with pytest.raises(DomainError):
        validate(Q1, 1, 1, 0, 0, 0, 1, 1)               # eta has length 2, eta_dim 1
    with pytest.raises(DomainError):
        QContext(0.5)
    with pytest.raises(DomainError):
        QContext(2.0, eta_dim=0)


def test_b43_reference_matches_closed_form_sampled():
    """Golden-section oracle vs the critical-parameter closed form."""
    q = 3.0
    ctx = QContext(q)
    x = sample_columns(q, 1, 2000, _rng(17))
    comps = components_batch(x, q)
    ref = b43_reference_batch(x, q)
    # restrict to points with a finite critical parameter
    za = np.abs(x[:, 2])
    nu = np.abs(x[:, 3])
    k = aux_raw("K", x[:, 4], x[:, 5], q)
    finite = (q * x[:, 4] * nu - k * za > 0) & (q * x[:, 5] * za - k * nu > 0)
    assert finite.sum() > 100
    gap = np.abs(comps[finite, 5] - ref[finite])
    assert gap.max() <= 1e-8
