import numpy as np
import pytest

from gaussbell import __version__
from gaussbell.bellman import (
    AUX_KINDS,
    C1,
    C2,
    C3,
    C4,
    DomainError,
    QContext,
    aux_hessian_rhs,
    aux_raw,
    aux_size_bound,
    bq_batch,
    components_batch,
    pi_distance_batch,
    _components,
)
from gaussbell.report import VerificationReport
from gaussbell.verify import (
    AUX_HESSIAN_TOL,
    AUX_SIZE_TOL,
    HESSIAN_TOL,
    SuiteConfig,
    aux_grid_nodes,
    aux_margins_batch,
    fd_hessian_batch,
    hessian_directions,
    hessian_margins,
    in_domain_batch,
    mollify_eval,
    run_suite,
    sample_columns,
    sign_forward_diff_batch,
    _AUX_DIRECTIONS,
    _directions,
    _rng,
    _row_verdicts,
    _stencil_template,
)

Q1 = QContext(1.0)
Q2 = QContext(2.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_domain_membership_and_count():
    x = sample_columns(2.0, 1, 1000, _rng(5))
    assert x.shape == (1000, 6)
    assert in_domain_batch(x, 2.0).all()


def test_sample_domain_q1_pins_rs_exactly():
    # membership is exact, so the degenerate slab must be hit to the ulp
    x = sample_columns(1.0, 1, 500, _rng(1))
    assert np.all(x[:, -2] * x[:, -1] == 1.0)
    assert in_domain_batch(x, 1.0).all()


def test_sample_domain_deterministic():
    a = sample_columns(2.0, 1, 64, _rng(99))
    b = sample_columns(2.0, 1, 64, _rng(99))
    assert np.array_equal(a, b)
    c = sample_columns(2.0, 1, 64, _rng(100))
    assert np.any(a != c)


def test_in_domain_batch_is_exact():
    x = np.array([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],       # boundary: in
                  [1.0, 1.0, 1.0 + 1e-12, 1.0, 1.0, 1.0]])  # just out
    ok = in_domain_batch(x, 2.0)
    assert ok.tolist() == [True, False]


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_hessian_matches_analytic_b1():
    """Quadratic form of the first component in the pure-zeta direction.

    -d^2 B1 = (2 zeta^2 / r)|dzeta/zeta - dr/r|^2 + eta block, so the form
    in direction dzeta = 1 equals 2/r = 2 at this point.
    """
    from gaussbell.bellman import components_batch

    def b1_only(cols):
        return components_batch(cols, 2.0)[:, 0]

    p = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    h = 1e-5
    ee = np.zeros(6)
    ee[2] = 2 * h
    form = -(b1_only((p + ee)[None, :]) - 2 * b1_only(p[None, :])
             + b1_only((p - ee)[None, :]))[0] / (4 * h * h)
    assert form == pytest.approx(2.0, abs=1e-6)


def test_fd_hessian_pure_z_direction_vanishes():
    """B_Q is affine in Z and H: their second differences vanish to rounding,
    so the Hessian is the (zeta, eta, r, s) block alone, with no zero entry."""
    x = np.array([[2.0, 3.0, 0.5, 0.7, 1.1, 1.4]])
    hess, _, fitted, _ = fd_hessian_batch(x, 2.0, 1e-4)
    assert fitted[0]
    assert hess.shape == (1, 4, 4)
    assert np.all(hess[0] != 0.0)
    b = bq_batch(x, 2.0)[0]
    for col in (0, 1):
        e = np.zeros_like(x)
        e[0, col] = 2e-4 * max(1.0, abs(x[0, col]))
        d2 = bq_batch(x + e, 2.0)[0] - 2 * b + bq_batch(x - e, 2.0)[0]
        assert abs(d2) <= 1e-13 * abs(b)


@pytest.mark.parametrize("eta_dim", [1, 3])
@pytest.mark.parametrize("q", [2.0, 10.0, 100.0])
def test_bq_is_affine_in_z_and_h(q, eta_dim):
    """B_Q(x + a e_Z) - B_Q(x) = (C1+C2+C3+3 C4) a to rounding, and likewise
    for e_H: this is what lets fd_hessian_batch skip the Z and H columns."""
    x = sample_columns(q, eta_dim, 500, _rng(17))
    b = bq_batch(x, q)
    for col in (0, 1):
        for a in (1e-3, 0.5, 7.0, 300.0):
            y = x.copy()
            y[:, col] += a
            by = bq_batch(y, q)
            err = np.abs((by - b) - (C1 + C2 + C3 + 3 * C4) * a)
            assert np.all(err <= 1e-12 * (np.abs(b) + np.abs(by)))


def _stencil_points(x_row, used_h):
    """Every point of the block stencil of x_row at step used_h."""
    offsets = _stencil_template(x_row.size - 2)[0]
    pts = np.repeat(x_row[None, :], len(offsets), axis=0)
    pts[:, 2:] += used_h * np.maximum(1.0, np.abs(x_row[2:])) * offsets
    return pts


def test_fd_hessian_stencil_stays_on_one_b43_branch():
    """Rows outside the Pi band whose unit stencil spans two B43 branches.

    With |zeta| = 1e-3 the suite's step h = 1e-4 moves |zeta| by 20%, so a
    row 5% off Pi (in the den = 0 locus) would be differenced across the
    branch change; it must be halved onto one branch.  With |zeta| = 1e-6 no
    step above the noise floor fits, and the row is skipped as crossing.
    """
    q, r, s = 10.0, 2.0, 2.0
    k = float(aux_raw("K", r, s, q))
    rows = []
    for zeta, delta in ((1e-3, 0.05), (1e-6, 0.01)):
        nu = q * s * zeta / (k * (1.0 + delta))      # zeta s / nu = (1+delta) K/Q
        rows.append([1.0, 1.0, zeta, nu, r, s])
    x = np.array(rows)
    assert np.all(pi_distance_batch(x, q) > 1e-3)
    assert len(set(_components(_stencil_points(x[0], 1e-4), q)[1])) == 2
    hess, used_h, fitted, crosses = fd_hessian_batch(x, q, 1e-4)
    assert fitted[0] and not crosses[0] and used_h[0] < 1e-4
    assert len(set(_components(_stencil_points(x[0], used_h[0]), q)[1])) == 1
    assert not fitted[1] and crosses[1] and np.all(np.isnan(hess[1]))

    cfg = SuiteConfig(q_list=(q,), samples_per_q=1, seed=0)
    v = _row_verdicts(x, q, cfg, _directions(QContext(q), cfg))
    assert v["stencil_crosses_pi"].tolist() == [False, True]
    assert not v["stencil_unfit"].any() and not v["near_pi"].any()
    assert np.isfinite(v["hessian_margin"][0]) and v["hessian_margin"][1] == np.inf


@pytest.mark.parametrize("eta_dim", [1, 3])
@pytest.mark.parametrize("q", [2.0, 10.0, 100.0])
def test_fd_hessian_one_pass_is_exact(q, eta_dim):
    """The column-major one-pass stencil gives the Hessians of a row-major
    stencil evaluated through bq_batch, bit for bit, and its B43 branch is
    criterion 5's sign pattern of num = Q r nu - K|zeta| and
    den = Q s|zeta| - K nu."""
    h = 1e-4
    x = sample_columns(q, eta_dim, 300, _rng(31))
    hess, used_h, fitted, _ = fd_hessian_batch(x, q, h)
    rows = np.flatnonzero(fitted & (used_h == h))     # fitted at level 0
    assert rows.size > 250
    xr = x[rows]
    nb = xr.shape[1] - 2
    offsets, diag, pairs, cross = _stencil_template(nb)
    # the layout: centre, +-2e_i per coordinate, then the four cross points per pair
    assert np.array_equal(offsets[diag[:, 0]], 2 * np.eye(nb))
    assert np.array_equal(offsets[diag[:, 1]], -2 * np.eye(nb))
    for p, (i, j) in enumerate(zip(*pairs)):
        assert i < j
        assert offsets[cross[p]][:, [i, j]].tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    steps = h * np.maximum(1.0, np.abs(xr[:, 2:]))
    pts = np.repeat(xr[:, None, :], len(offsets), axis=1)
    pts[:, :, 2:] += steps[:, None, :] * offsets[None, :, :]
    pts = pts.reshape(-1, xr.shape[1])
    f = bq_batch(pts, q).reshape(rows.size, -1)
    ref = np.zeros_like(hess[rows])
    for i in range(nb):
        ip, im = diag[i]
        ref[:, i, i] = (f[:, ip] - 2 * f[:, 0] + f[:, im]) / (4 * steps[:, i] ** 2)
    for p, (i, j) in enumerate(zip(*pairs)):
        pp, pm, mp, mm = cross[p]
        ref[:, i, j] = ref[:, j, i] = (
            (f[:, pp] - f[:, pm] - f[:, mp] + f[:, mm]) / (4 * steps[:, i] * steps[:, j]))
    assert np.array_equal(hess[rows], ref)
    comps, branch = _components(pts, q)
    za, nu = np.abs(pts[:, 2]), np.sqrt(np.sum(pts[:, 3:-2] ** 2, axis=1))
    r, s = pts[:, -2], pts[:, -1]
    k = aux_raw("K", r, s, q)
    num, den = q * r * nu - k * za, q * s * za - k * nu
    assert np.array_equal(branch, 2 * (num <= 0) + (den <= 0))
    assert np.array_equal(np.column_stack(comps).sum(axis=1), components_batch(pts, q).sum(axis=1))


@pytest.mark.parametrize("eta_dim", [1, 3])
def test_hessian_margins_block_gemm_matches_full_einsum(eta_dim):
    """The block matmul agrees with the einsum over the full Hessian.

    The reference pads the block with B_Q's zero Z and H rows and columns
    and adds +-e_Z and +-e_H to the directions.  On those four every form
    is exactly 0, so a minimum over all directions is never above 0 and
    says nothing about the block: the reference takes its minimum over the
    directions with a nonzero (zeta, eta, r, s) part.  Both sides are
    compared to 1e-12 of the row's absolute form sum dX^T|H||dX| (ratios:
    of that sum over the rhs), the scale of their rounding.
    """
    q = 2.0
    x = sample_columns(q, eta_dim, 400, _rng(41))
    hess, _, fitted, _ = fd_hessian_batch(x, q, 1e-4)
    hess = hess[fitted]
    d = hessian_directions(x.shape[1], 64, _rng(43))
    margins, ratios = hessian_margins(hess, d, q)

    full = np.zeros((hess.shape[0], x.shape[1], x.shape[1]))
    full[:, 2:, 2:] = hess
    eye_zh = np.eye(x.shape[1])[:2]
    d = np.concatenate([eye_zh, -eye_zh, d])
    forms = -np.einsum("nij,ki,kj->nk", full, d, d)
    scale = np.einsum("nij,ki,kj->nk", np.abs(full), np.abs(d), np.abs(d))
    rhs = (4.0 / q) * np.abs(d[:, 2]) * np.linalg.norm(d[:, 3:3 + eta_dim], axis=1)
    assert np.all((forms - rhs).min(axis=1) <= 0.0)
    block = np.any(d[:, 2:] != 0, axis=1)
    assert block.sum() == d.shape[0] - 4
    ref_margins = (forms - rhs)[:, block].min(axis=1)
    assert np.all(np.abs(margins - ref_margins) <= 1e-12 * scale.max(axis=1))
    pos = rhs > 1e-12
    ref_ratios = (forms[:, pos] / rhs[pos]).min(axis=1)
    assert np.all(np.abs(ratios - ref_ratios)
                  <= 1e-12 * (scale[:, pos] / rhs[pos]).max(axis=1))
    scale_b = 1.0 + np.abs(bq_batch(x[fitted], q))
    assert np.array_equal(margins / scale_b < -HESSIAN_TOL,
                          ref_margins / scale_b < -HESSIAN_TOL)
    assert np.all(margins > 0.0)      # the block minimum, not the flat 0.0


def test_fd_hessian_unresolved_curvature_is_unfit():
    """A stencil that fits D_Q and one B43 branch, but whose e_s second
    difference is exactly 0.0 (below float64 resolution at h = 3.125e-6),
    leaves its row unfitted and counts it as stencil_unfit."""
    q = 10.0
    x = np.array([[0.0013449386129296159, 0.05259828411170809, 0.0001983609534059356,
                   0.00038289296588813544, -0.00015049920284162876, 0.00021886102450122583,
                   0.14004924359239576, 10.477561427317324]])
    h = 3.125e-6
    pts = _stencil_points(x[0], h)
    assert in_domain_batch(pts, q).all() and len(set(_components(pts, q)[1])) == 1
    f = bq_batch(pts, q)
    ip, im = _stencil_template(6)[1][5]
    assert f[ip] - 2 * f[0] + f[im] == 0.0        # H_ss
    for step in (1e-4, h):
        hess, used_h, fitted, crosses = fd_hessian_batch(x, q, step)
        assert not fitted[0] and not crosses[0]
        assert np.isnan(used_h[0]) and np.all(np.isnan(hess[0]))
    cfg = SuiteConfig(q_list=(q,), samples_per_q=1, eta_dim=3, seed=0)
    v = _row_verdicts(x, q, cfg, _directions(QContext(q, 3), cfg))
    assert v["stencil_unfit"][0] and v["hessian_margin"][0] == np.inf


def test_fd_hessian_richardson_consistency():
    x = np.array([[2.0, 3.0, 0.5, 0.7, 1.1, 1.4]])
    h1, _, fit1, _ = fd_hessian_batch(x, 2.0, 1e-3)
    h2, _, fit2, _ = fd_hessian_batch(x, 2.0, 5e-4)
    assert fit1[0] and fit2[0]
    # second-order method: quarter the step error at half the step
    assert np.max(np.abs(h1 - h2)) <= 4 * np.max(np.abs(h2)) * 1e-5 + 1e-8


def test_fd_hessian_unfittable_on_degenerate_slab():
    # Q = 1 forces rs = 1 exactly; any r or s step leaves the domain
    x = np.array([[1.0, 1.0, 0.1, 0.1, 1.0, 1.0]])
    hess, used_h, fitted, _ = fd_hessian_batch(x, 1.0, 1e-4)
    assert not fitted[0]
    assert np.isnan(used_h[0]) and np.all(np.isnan(hess[0]))


def test_fd_hessian_batch_symmetry():
    x = sample_columns(2.0, 1, 32, _rng(2))
    hess, used_h, fitted, _ = fd_hessian_batch(x, 2.0, 1e-4)
    assert fitted.any()
    sym_gap = np.abs(hess[fitted] - np.transpose(hess[fitted], (0, 2, 1)))
    assert np.max(sym_gap) == 0.0
    assert np.all(used_h[fitted] <= 1e-4)


def test_hessian_directions_shape_and_norm():
    """+-e_i for the 4 block axes only, then the rng's unit vectors in all 6 coordinates."""
    d = hessian_directions(6, 64, _rng(0))
    assert d.shape == (2 * 4 + 64, 6)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    eye = np.eye(6)[2:]
    assert np.array_equal(d[:8], np.concatenate([eye, -eye]))
    rand = _rng(0).normal(size=(64, 6))
    assert np.array_equal(d[8:], rand / np.linalg.norm(rand, axis=1, keepdims=True))


def test_more_directions_never_help():
    """The direction minimum is monotone: a superset of directions can
    only lower the concavity margin (fails never turn into passes)."""
    from gaussbell.verify import hessian_margins
    x = sample_columns(2.0, 1, 128, _rng(9))
    hess, _, fitted, _ = fd_hessian_batch(x, 2.0, 1e-4)
    d64 = hessian_directions(6, 64, _rng(123))
    d128 = hessian_directions(6, 128, _rng(123))   # same first 64 rows
    assert np.array_equal(d128[: d64.shape[0]], d64)
    m64, _ = hessian_margins(hess[fitted], d64, 2.0)
    m128, _ = hessian_margins(hess[fitted], d128, 2.0)
    assert np.all(m128 <= m64 + 1e-15)


def test_sign_forward_diff_skips_when_step_exits():
    # eta^2 = H s exactly: any forward step in nu leaves the domain
    x = np.array([[1.0, 1.0, 0.0, 1.0, 1.0, 1.0]])
    fd, fits = sign_forward_diff_batch(x, 2.0, 1e-4)
    assert not fits[0]


def _radial_reference(z, h, za, nu, r, s, q):
    """B_Q on the radial profile from its coordinate columns, signs of za and nu dropped."""
    return bq_batch(np.column_stack([z, h, np.abs(za), np.abs(nu), r, s]), q)


@pytest.mark.parametrize("eta_dim", [1, 3])
@pytest.mark.parametrize("q", [2.0, 10.0, 100.0])
def test_radial_rows_are_exact(q, eta_dim):
    """bq_batch on the rows (Z, H, |zeta|, nu, r, s) is the radial profile bit
    for bit, and B_Q is even in zeta and eta."""
    x = sample_columns(q, eta_dim, 2000, _rng(59))
    h = 1e-4
    z, hh, zeta, eta, r, s = x[:, 0], x[:, 1], x[:, 2], x[:, 3:-2], x[:, -2], x[:, -1]
    za, nu = np.abs(zeta), np.sqrt(np.sum(eta ** 2, axis=1))
    step = h * (1.0 + nu)
    fits = (nu + step) ** 2 <= hh * s
    cols = [c[fits] for c in (z, hh, za, nu, r, s)]
    b0 = _radial_reference(*cols, q)
    cols[3] = cols[3] + step[fits]
    ref = np.full(x.shape[0], np.nan)
    ref[fits] = (_radial_reference(*cols, q) - b0) / step[fits]
    fd, got_fits = sign_forward_diff_batch(x, q, h)
    assert fits.any()
    assert np.array_equal(got_fits, fits)
    assert np.array_equal(fd, ref, equal_nan=True)
    flipped = x.copy()
    flipped[:, 2:-2] *= -1.0
    assert np.array_equal(bq_batch(x, q), bq_batch(flipped, q))


# ---------------------------------------------------------------------------
# point verdicts
# ---------------------------------------------------------------------------

def test_verify_point_size_example():
    cfg = SuiteConfig(q_list=(1.0,), samples_per_q=1, seed=0)
    v = _row_verdicts(np.array([[1.0, 1, 0, 0, 1, 1]]), 1.0, cfg, _directions(Q1, cfg))
    assert not v["size_fail"][0]          # value ~ 136.81 <= 160
    assert v["sign_fits"][0] and not v["sign_fail"][0]
    # Q = 1: stencil never fits, recorded as a skip, not a failure
    assert v["stencil_unfit"][0] and not v["hessian_fail"][0]


def test_verify_point_zero_point():
    cfg = SuiteConfig(q_list=(2.0,), samples_per_q=1, seed=0)
    v = _row_verdicts(np.array([[0.0, 0, 0, 0, 1.2, 1.2]]), 2.0, cfg, _directions(Q2, cfg))
    assert not v["size_fail"][0]


def test_verify_point_excludes_near_pi():
    r, s, q = 1.2, 1.0, 2.0
    k = float(aux_raw("K", r, s, q))
    zeta = 1.0
    eta = zeta * s * q / k                  # exactly on Pi
    cfg = SuiteConfig(q_list=(q,), samples_per_q=1, seed=0)
    v = _row_verdicts(np.array([[10.0, 10.0, zeta, eta, r, s]]), q, cfg,
                      _directions(QContext(q), cfg))
    assert v["near_pi"][0]
    assert v["hessian_margin"][0] == np.inf and not v["hessian_fail"][0]


def test_verify_point_passes_generic_sample():
    cfg = SuiteConfig(q_list=(2.0,), samples_per_q=1, seed=0)
    x = sample_columns(2.0, 1, 25, _rng(8))
    v = _row_verdicts(x, 2.0, cfg, _directions(Q2, cfg))
    # one component evaluation serves B_Q and the plain six-bound sum
    assert np.array_equal(v["b"], bq_batch(x, 2.0))
    assert np.array_equal(v["unweighted"], components_batch(x, 2.0).sum(axis=1))
    assert not v["size_fail"].any()
    assert not v["sign_fail"].any()
    assert not v["hessian_fail"].any()


# ---------------------------------------------------------------------------
# auxiliary certificates
# ---------------------------------------------------------------------------

def test_verify_aux_size_examples():
    margins = aux_margins_batch(np.array([1.0]), np.array([2.0]), 2.0, 1e-4)
    assert aux_raw("M", 1.0, 2.0, 2.0) == pytest.approx(14.0)     # <= 5 Q^2 s = 40
    assert margins["M"][0][0] >= -AUX_SIZE_TOL
    margins = aux_margins_batch(np.array([1.0]), np.array([1.0]), 1.0, 1e-4)
    assert aux_raw("K", 1.0, 1.0, 1.0) == pytest.approx(0.75)     # <= Q = 1
    assert margins["K"][0][0] >= -AUX_SIZE_TOL
    assert all(hm[0] >= -AUX_HESSIAN_TOL for _, hm in margins.values())


def test_verify_aux_hessian_matches_analytic_m():
    # d^2 M / ds^2 = -2r exactly, so the pure-ds form is 2r >= r
    r, s, q, h = 1.0, 1.0, 1.0, 1e-5
    hss = (aux_raw("M", r, s + 2 * h, q) - 2 * aux_raw("M", r, s, q)
           + aux_raw("M", r, s - 2 * h, q)) / (4 * h * h)
    assert -hss == pytest.approx(2.0, abs=1e-6)
    assert -hss >= r


#: each kind's concavity right-hand side, written out apart from bellman's aux table
_AUX_RHS_REFERENCE = {
    "M": lambda r, s, vr, vs: r * vs * vs,
    "N": lambda r, s, vr, vs: s * vr * vr,
    "K": lambda r, s, vr, vs: np.abs(vr * vs) / 4.0,
    "Mtilde": lambda r, s, vr, vs: np.abs(vr * vs) / s,
    "Ntilde": lambda r, s, vr, vs: np.abs(vr * vs) / r,
}


def test_aux_table_rhs_and_unknown_kind():
    assert set(AUX_KINDS) == set(_AUX_RHS_REFERENCE)
    r, s = aux_grid_nodes(10.0, 20)
    for kind in AUX_KINDS:
        for vr, vs in _AUX_DIRECTIONS:
            assert np.array_equal(aux_hessian_rhs(kind, r, s, vr, vs),
                                  _AUX_RHS_REFERENCE[kind](r, s, vr, vs))
    for lookup, args in ((aux_raw, (1.0, 1.0, 2.0)), (aux_size_bound, (1.0, 1.0, 2.0)),
                         (aux_hessian_rhs, (1.0, 1.0, 0.6, 0.8))):
        with pytest.raises(DomainError):
            lookup("Z", *args)


@pytest.mark.parametrize("h", [0.0, -1e-4, float("nan"), float("inf")])
def test_verify_aux_rejects_bad_step(h):
    # the aux stencil shared by the suite and aux-bounds checks h
    with pytest.raises(DomainError):
        aux_margins_batch(np.array([1.0]), np.array([1.0]), 1.0, h)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_small_eps_matches_pointwise():
    p = np.array([2.0, 2.0, 0.3, 0.4, 1.2, 1.25])
    val = mollify_eval(p, Q2, eps=1e-8, mc=4000, seed=3)
    assert val == pytest.approx(bq_batch(p[None, :], 2.0)[0], abs=1e-5)


def test_mollify_deterministic_and_bounded():
    p = np.array([5.0, 5.0, 0.5, 0.5, 1.2, 1.25])
    a = mollify_eval(p, Q2, eps=0.05, mc=20000, seed=11)
    b = mollify_eval(p, Q2, eps=0.05, mc=20000, seed=11)
    assert a == b
    assert 0.0 <= a <= 80.0 * 1.05 * (p[0] + p[1])


def test_mollify_constant_region_matches_value():
    """Affine dependence on Z, H averages out under the symmetric bump."""
    p = np.array([50.0, 50.0, 0.0, 0.0, 1.2, 1.25])
    val = mollify_eval(p, Q2, eps=0.05, mc=200000, seed=4)
    assert val == pytest.approx(bq_batch(p[None, :], 2.0)[0], rel=2e-3)


def test_mollify_converges_linearly():
    """|mollified - pointwise| shrinks at least linearly in eps on a
    smooth interior point (empirically quadratically: symmetric bump)."""
    p = np.array([3.0, 4.0, 0.5, 0.6, 1.2, 1.25])
    b = bq_batch(p[None, :], 2.0)[0]
    gaps = [abs(mollify_eval(p, Q2, eps, 400000, seed=1) - b)
            for eps in (0.2, 0.1, 0.05)]
    assert gaps[0] > gaps[1] > gaps[2]
    for eps, gap in zip((0.2, 0.1, 0.05), gaps):
        assert gap <= 0.05 * eps * (1 + abs(b))
    # better than linear: quartering the step at least quarters the gap
    assert gaps[2] <= gaps[0] / 4.0


def test_mollify_rejects_ball_outside_domain():
    # rs = 1 exactly: any r, s wiggle exits the slab
    p = np.array([2.0, 2.0, 0.0, 0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        mollify_eval(p, Q2, eps=0.01, mc=100, seed=0)
    # Z smaller than eps: ball leaves Z >= 0
    p2 = np.array([1e-4, 2.0, 0.0, 0.0, 1.2, 1.25])
    with pytest.raises(DomainError):
        mollify_eval(p2, Q2, eps=0.01, mc=1000, seed=0)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def test_suite_config_validation():
    with pytest.raises(DomainError):
        SuiteConfig(samples_per_q=0)
    with pytest.raises(DomainError):
        SuiteConfig(fd_step=0.0)
    with pytest.raises(DomainError):
        SuiteConfig(fd_step=float("inf"))
    with pytest.raises(DomainError):
        SuiteConfig(pi_exclusion=-1.0)
    with pytest.raises(DomainError):
        SuiteConfig(pi_exclusion=float("inf"))  # would skip every Hessian row
    with pytest.raises(DomainError):
        SuiteConfig(pi_exclusion=1.0)           # the band around K/Q reaches 0
    with pytest.raises(DomainError):
        SuiteConfig(q_list=(0.5,))
    with pytest.raises(DomainError):
        SuiteConfig(mollify_eps=0.01)         # mollification needs mc_samples >= 1
    with pytest.raises(DomainError):
        SuiteConfig(mollify_eps=float("nan"), mc_samples=10)
    with pytest.raises(DomainError):
        SuiteConfig(mollify_eps=float("inf"), mc_samples=10)   # no probe fits: count 0


def test_run_suite_counts_and_determinism():
    cfg = SuiteConfig(q_list=(1.0, 2.0), samples_per_q=200, seed=31,
                      aux_grid_n=10, mollify_eps=0.05, mc_samples=2000)
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    d1 = rep1.to_dict()
    d2 = rep2.to_dict()
    d1.pop("timestamp")
    d2.pop("timestamp")
    assert d1 == d2
    by_name = {c.name: c for c in rep1.checks}
    assert by_name["size[Q=1]"].count == 200
    assert by_name["size[Q=2]"].count == 200
    assert rep1.total_failures == 0
    assert rep1.tool_version == __version__
    # report round-trips through JSON losslessly
    assert VerificationReport.loads(rep1.dumps()).to_dict() == rep1.to_dict()


def test_run_suite_hessian_skips_recorded_for_q1():
    cfg = SuiteConfig(q_list=(1.0,), samples_per_q=50, seed=2, aux_grid_n=5)
    rep = run_suite(cfg)
    hess = next(c for c in rep.checks if c.name.startswith("hessian"))
    assert hess.skipped == 50
    assert hess.failures == 0
    reasons = next(m for m in rep.measurements
                   if m.name.startswith("hessian_skip_reasons"))
    assert reasons.location["stencil_unfit"] == 50


def test_run_suite_reports_stencil_crosses_pi():
    cfg = SuiteConfig(q_list=(10.0,), samples_per_q=2000, seed=4, aux_grid_n=5)
    rep = run_suite(cfg)
    hess = next(c for c in rep.checks if c.name.startswith("hessian"))
    reasons = next(m for m in rep.measurements
                   if m.name.startswith("hessian_skip_reasons"))
    assert set(reasons.location) == {"near_pi", "stencil_unfit", "stencil_crosses_pi"}
    assert sum(reasons.location.values()) == reasons.value == hess.skipped


def test_run_suite_higher_eta_dimension():
    """The whole pipeline works with a 3-dimensional eta slot."""
    cfg = SuiteConfig(q_list=(2.0,), samples_per_q=300, seed=6, eta_dim=3,
                      aux_grid_n=8)
    rep = run_suite(cfg)
    assert rep.total_failures == 0
    hess = next(c for c in rep.checks if c.name.startswith("hessian"))
    assert hess.count == 300
