"""Independent high-precision references for the ``ref_log_err`` metric.

Both references use the standard library's ``decimal`` at REF_DIGITS
significant digits, because float64 loses these values to cancellation.
The error of a value is |ln(got / ref)|. For small errors this is the
relative error; unlike |got - ref| / ref it keeps growing as an
underestimate gets worse, so it does not saturate at 1.

* Poisson flow of an exponential weight.  The Hermite coefficients of
  e^{ax} are exact, so

      P_t e^{ax} = e^{a^2/2} sum_n a^n e^{-t sqrt(n)} hhat_n(x) / sqrt(n!).

  The sum stops once Cramer's bound |hhat_n(x)| <= 1.09 e^{x^2/4} puts
  the remaining terms below the working precision.  Truncated weights
  have no such series, so they have no reference and are not measured.
* The closed form of B_Q, evaluated term by term in decimal arithmetic
  at the same float inputs the library sees.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal, localcontext

from gaussbell import bellman, gauss

REF_DIGITS = 50


def _dec(v: float) -> Decimal:
    return Decimal(repr(float(v)))


def poisson_exp_table(a: float, xs, ts) -> dict:
    """{(x, t): P_t e^{a x}} as floats, exact to REF_DIGITS before rounding."""
    with localcontext() as ctx:
        ctx.prec = REF_DIGITS + 10
        big_a = _dec(a)
        xmax = max(abs(float(x)) for x in xs)
        envelope = Decimal("1.09") * (_dec(xmax) ** 2 / 4).exp()
        tol = Decimal(10) ** -(REF_DIGITS + 5)
        n, coef = 0, Decimal(1)
        while True:                      # coef = a^n / sqrt(n!)
            n += 1
            coef = coef * big_a / Decimal(n).sqrt()
            ratio_next = big_a / Decimal(n + 1).sqrt()
            if abs(coef) * envelope < tol and ratio_next < Decimal("0.5"):
                break
        roots = [Decimal(k).sqrt() for k in range(n + 2)]
        decay = [[(-_dec(t) * roots[k]).exp() for k in range(n + 1)] for t in ts]
        prefactor = (big_a * big_a / 2).exp()
        out = {}
        for x in xs:
            big_x = _dec(x)
            prev, curr, c = Decimal(0), Decimal(1), Decimal(1)
            terms = [Decimal(1)]
            for k in range(n):
                prev, curr = curr, (big_x * curr - roots[k] * prev) / roots[k + 1]
                c = c * big_a / roots[k + 1]
                terms.append(curr * c)
            for t, row in zip(ts, decay):
                out[(float(x), float(t))] = float(
                    prefactor * sum(map(operator.mul, terms, row)))
        return out


def log_err(got, ref) -> float:
    """|ln(got / ref)|; a ratio that is not positive raises ArithmeticError."""
    ratio = _dec(got) / Decimal(ref)
    if not ratio > 0:
        raise ArithmeticError(f"value {got!r} has another sign than reference {ref}")
    return abs(float(ratio.ln()))


def flow_log_err(slopes, grid, gl_order: int) -> float:
    """Largest log error of ``gauss.poisson_weight`` for e^{+-ax} over the grid.

    The inverse weight e^{-ax} at x equals the forward flow at -x, so one
    table serves both signs.
    """
    worst = 0.0
    for a in sorted(set(abs(float(s)) for s in slopes)):
        table = poisson_exp_table(a, grid.x_nodes, grid.t_nodes)
        for (x, t), ref in table.items():
            for sign in (1.0, -1.0):
                w = gauss.WeightSpec.exp_linear(sign * a)
                worst = max(worst, log_err(gauss.poisson_weight(w, sign * x, t, gl_order),
                                           ref))
    return worst


def _bq_decimal(row, q: float) -> Decimal:
    z, h, zeta = (_dec(v) for v in row[:3])
    eta2 = sum((_dec(v) ** 2 for v in row[3:-2]), Decimal(0))
    r, s = _dec(row[-2]), _dec(row[-1])
    q = _dec(q)
    zz = zeta * zeta
    m = -4 * q * q / r - r * s * s + (4 * q * q + 1) * s
    n = -4 * q * q / s - s * r * r + (4 * q * q + 1) * r
    k = q.sqrt() * (r * s).sqrt() - r * s / 4
    mt = -4 * q / s - r * r * s / (4 * q) + (4 * q + 1) * r
    nt = -4 * q / r - s * s * r / (4 * q) + (4 * q + 1) * s
    b1 = z - zz / r + h - eta2 / s
    b2 = z - zz / r + h - eta2 / (s + m / (q * q))
    b3 = z - zz / (r + n / (q * q)) + h - eta2 / s
    b41 = z - zz / (r + mt / q) + h - eta2 / s
    b42 = z - zz / r + h - eta2 / (s + nt / q)
    nu = eta2.sqrt()
    num = q * r * nu - k * abs(zeta)
    den = q * s * abs(zeta) - k * nu
    if num > 0 and den > 0:
        am = num / den
        b43 = z - zz / (r + am * k / q) + h - eta2 / (s + k / (q * am))
    elif num > 0:
        b43 = z + h - eta2 / s
    elif den > 0:
        b43 = z + h - zz / r
    else:
        b43 = z + h
    c23 = Decimal(2).sqrt() / 3
    return b1 + c23 * (b2 + b3) + Decimal(288) / 13 * (b41 + b42 + b43)


def bq_log_err(points_by_q: dict) -> float:
    """Largest log error of ``bellman.bq_batch`` against the decimal closed form."""
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = REF_DIGITS
        for q, x in points_by_q.items():
            for row, val in zip(x, bellman.bq_batch(x, q)):
                worst = max(worst, log_err(val, _bq_decimal(row, q)))
    if not math.isfinite(worst):
        raise ArithmeticError("B_Q reference produced a non-finite error")
    return worst
