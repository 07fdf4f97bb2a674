"""Closed-form evaluation of the six-variable Bellman function B_Q.

The function lives on the domain

    D_Q = { (Z, H, zeta, eta, r, s) :
            zeta^2 <= Z*r,  <eta,eta> <= H*s,  1 <= r*s <= Q }

with Z, H >= 0, r, s > 0, zeta real and eta a vector.  It is assembled
from six components B1, B2, B3, B41, B42, B43 built on five auxiliary
functions M, N, K, Mtilde, Ntilde of (r, s), combined with the weights

    B_Q = C1*B1 + C2*B2 + C3*B3 + C4*(B41 + B42 + B43),
    C1 = 1,  C2 = C3 = sqrt(2)/3,  C4 = 288/13.

Everything here is a pure function; the numerical certification of the
size / concavity / monotonicity properties lives in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Combination weights for the component sum.
C1 = 1.0
C2 = math.sqrt(2.0) / 3.0
C3 = math.sqrt(2.0) / 3.0
C4 = 288.0 / 13.0

#: Size constant of the contract checked downstream: each component is at
#: most 2(Z+H), so B_Q <= (C1+C2+C3+3*C4)(Z+H) ~= 68.41 (Z+H), and the
#: contract uses the coarser 80(Z+H).
SIZE_CONSTANT = 80.0


class DomainError(ValueError):
    """Input lies outside the Bellman domain (or violates a precondition)."""


@dataclass(frozen=True)
class QContext:
    """Characteristic bound Q >= 1 plus the dimension of the eta slot."""

    q: float
    eta_dim: int = 1

    def __post_init__(self):
        if not (self.q >= 1.0) or not math.isfinite(self.q):
            raise DomainError(f"Q must be a finite real >= 1, got {self.q}")
        if self.eta_dim < 1:
            raise DomainError(f"eta_dim must be >= 1, got {self.eta_dim}")

    @property
    def dim(self) -> int:
        """Number of coordinates of a domain point: (Z, H, zeta, eta..., r, s)."""
        return 5 + self.eta_dim


# ---------------------------------------------------------------------------
# auxiliary functions
# ---------------------------------------------------------------------------

#: kind -> (closed form, size bound, right-hand side rhs(r, s, vr, vs) of the
#: concavity check -d^2 f[v] >= rhs for v = (vr, vs)).  The closed forms are
#: smooth on r, s > 0; the size bounds only hold on the slab 1 <= rs <= Q.
_AUX = {
    "M": (lambda r, s, q: -4 * q * q / r - r * s * s + (4 * q * q + 1) * s,
          lambda r, s, q: 5 * q * q * s,
          lambda r, s, vr, vs: r * vs * vs),
    "N": (lambda r, s, q: -4 * q * q / s - s * r * r + (4 * q * q + 1) * r,
          lambda r, s, q: 5 * q * q * r,
          lambda r, s, vr, vs: s * vr * vr),
    "K": (lambda r, s, q: math.sqrt(q) * np.sqrt(r * s) - r * s / 4,
          lambda r, s, q: q * np.ones(np.broadcast(r, s).shape),
          lambda r, s, vr, vs: np.abs(vr * vs) / 4.0),
    "Mtilde": (lambda r, s, q: -4 * q / s - r * r * s / (4 * q) + (4 * q + 1) * r,
               lambda r, s, q: 5 * q * r,
               lambda r, s, vr, vs: np.abs(vr * vs) / s),
    "Ntilde": (lambda r, s, q: -4 * q / r - s * s * r / (4 * q) + (4 * q + 1) * s,
               lambda r, s, q: 5 * q * s,
               lambda r, s, vr, vs: np.abs(vr * vs) / r),
}

AUX_KINDS = tuple(_AUX)


def _aux(kind: str, slot: int):
    if kind not in _AUX:
        raise DomainError(f"unknown auxiliary kind {kind!r}; expected one of {AUX_KINDS}")
    return _AUX[kind][slot]


def aux_raw(kind: str, r, s, q: float):
    """Closed form of an auxiliary function, no domain check (array friendly)."""
    return _aux(kind, 0)(np.asarray(r, dtype=float), np.asarray(s, dtype=float), q)


def aux_size_bound(kind: str, r, s, q: float):
    """Upper size bound of an auxiliary function on the slab 1 <= rs <= Q."""
    return _aux(kind, 1)(np.asarray(r, dtype=float), np.asarray(s, dtype=float), q)


def aux_hessian_rhs(kind: str, r, s, vr, vs):
    """Right-hand side of the concavity inequality -d^2 f[v] >= rhs for v = (vr, vs)."""
    return _aux(kind, 2)(r, s, vr, vs)


# ---------------------------------------------------------------------------
# batched evaluation core
# ---------------------------------------------------------------------------

def _split_columns(x: np.ndarray):
    """Split an (n, 5+eta_dim) coordinate array into named columns."""
    z = x[:, 0]
    h = x[:, 1]
    zeta = x[:, 2]
    eta2 = np.sum(x[:, 3:-2] ** 2, axis=1)
    r = x[:, -2]
    s = x[:, -1]
    return z, h, zeta, eta2, r, s


def _check_denominators(*denoms):
    # Positivity is guaranteed on D_Q because the auxiliary functions are
    # nonnegative there; a violation means the input left the domain.
    for d in denoms:
        if not np.all(d > 0):
            raise DomainError("auxiliary denominator not strictly positive; "
                              "point outside the evaluation region")


def _critical_parameter(zeta, eta2, r, s, k, q: float):
    """Numerator, denominator and branch of B43's critical parameter.

    On the radial profile (zeta and nu = |eta| taken nonnegative)
    a_m = num / den = (Q r nu - K |zeta|) / (Q s |zeta| - K nu).  The
    branch is one of the four sign patterns of (num > 0, den > 0): 0 for
    a_m finite (both > 0), 1 for a_m infinite (num > 0, den <= 0), 2 for
    a_m zero (den > 0, num <= 0) and 3 for the zeta = eta = 0 point, where
    B43 = Z + H.  The branch changes exactly on Pi.
    """
    za, nu = np.abs(zeta), np.sqrt(eta2)
    num, den = q * r * nu - k * za, q * s * za - k * nu
    return num, den, 2 * (num <= 0) + (den <= 0)


def _components(x: np.ndarray, q: float):
    """B1..B43 as six arrays, and B43's branch, for an (n, 5+eta_dim) array.

    One pass: K and the critical parameter serve both the B43 value and
    its branch.  The B43 value uses the critical-parameter closed form;
    points where both the numerator and denominator of the critical
    parameter vanish are exactly those with zeta = eta = 0, where
    B43 = Z + H.  Column reads are contiguous when x is column-major.
    """
    x = np.asarray(x, dtype=float)
    z, h, zeta, eta2, r, s = _split_columns(x)
    zz = zeta * zeta

    m = aux_raw("M", r, s, q)
    n_ = aux_raw("N", r, s, q)
    mt = aux_raw("Mtilde", r, s, q)
    nt = aux_raw("Ntilde", r, s, q)
    k = aux_raw("K", r, s, q)

    d2 = s + m / (q * q)
    d3 = r + n_ / (q * q)
    d41 = r + mt / q
    d42 = s + nt / q
    _check_denominators(r, s, d2, d3, d41, d42)

    zzr = zz / r
    zrh = z - zzr + h
    es = eta2 / s
    b1 = zrh - es
    b2 = zrh - eta2 / d2
    b3 = z - zz / d3 + h - es
    b41 = z - zz / d41 + h - es
    b42 = zrh - eta2 / d42

    num, den, branch = _critical_parameter(zeta, eta2, r, s, k, q)
    finite = branch == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        am = np.where(finite, num / np.where(finite, den, 1.0), 1.0)
        dz43 = r + am * k / q
        dn43 = s + k / (q * am)
        _check_denominators(dz43[finite], dn43[finite])
        b43 = z - zz / dz43 + h - eta2 / dn43
    zh = z + h
    # the other branches: a_m infinite, a_m zero, and zeta = eta = 0
    for other, value in ((1, zh - es), (2, zh - zzr), (3, zh)):
        np.copyto(b43, value, where=branch == other)
    return (b1, b2, b3, b41, b42, b43), branch


def _weighted_sum(b1, b2, b3, b41, b42, b43):
    """C1*B1 + C2*B2 + C3*B3 + C4*(B41+B42+B43) of six component arrays."""
    return C1 * b1 + C2 * b2 + C3 * b3 + C4 * (b41 + b42 + b43)


def components_batch(x: np.ndarray, q: float) -> np.ndarray:
    """Component values B1..B43 for points given as an (n, 5+eta_dim) array.

    Returns an (n, 6) array with columns B1, B2, B3, B41, B42, B43.
    """
    return np.column_stack(_components(x, q)[0])


def bq_batch(x: np.ndarray, q: float) -> np.ndarray:
    """Weighted sum C1*B1 + C2*B2 + C3*B3 + C4*(B41+B42+B43), batched."""
    return _weighted_sum(*_components(x, q)[0])


def pi_distance_batch(x: np.ndarray, q: float) -> np.ndarray:
    """Relative distance to the singular set Pi, batched.

    Pi is where B43's critical-parameter branch changes: num = 0 or
    den = 0 (see _critical_parameter).  The distance is
    min(|num| / (K |zeta|), |den| / (K |eta|)), the relative gaps of K/Q
    to |eta| r / |zeta| and to |zeta| s / |eta|.  Points with zeta = 0 or
    eta = 0 cannot lie on Pi and get +inf.
    """
    x = np.asarray(x, dtype=float)
    _, _, zeta, eta2, r, s = _split_columns(x)
    k = aux_raw("K", r, s, q)
    num, den, _ = _critical_parameter(zeta, eta2, r, s, k, q)
    za, nu = np.abs(zeta), np.sqrt(eta2)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = np.minimum(np.abs(num) / (k * za), np.abs(den) / (k * nu))
    return np.where((za > 0) & (nu > 0), dist, np.inf)


def beta_values(x: np.ndarray, q: float, a) -> np.ndarray:
    """The B43 inner objective zeta^2/(r + a K/Q) + eta^2/(s + K/(Q a)).

    ``a`` broadcasts against the batch; used by the independent
    golden-section reference in ``verify``.
    """
    x = np.asarray(x, dtype=float)
    _, _, zeta, eta2, r, s = _split_columns(x)
    k = aux_raw("K", r, s, q)
    a = np.asarray(a, dtype=float)
    return zeta**2 / (r + a * k / q) + eta2 / (s + k / (q * a))
