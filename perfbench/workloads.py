"""The three benchmark workloads: seeded inputs, operations and checks.

A workload turns a seed into one *round*: a fixed list of operations
(CLI invocations through ``gaussbell.cli.run`` or library calls), each
with an output check at the acceptance gate's tolerances.  The runner
repeats the round, so every round of a run sees the same inputs and must
produce the same outputs.  Only the library call is timed; checks and
reading reports back are not.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from gaussbell import cli, estimates, gauss, verify

import reference

Q_VALUES = (1.0, 2.0, 10.0, 100.0)
#: verify-bellman samples per Q; one round then takes about 2 s on 2 cores
BELLMAN_SAMPLES = 10_000
#: rows per Q whose B_Q value is checked against the decimal closed form
BELLMAN_REF_ROWS = 256
#: slopes per flow-sweep round, one from each third of [0, 2]
SWEEP_SLOPES = 3
#: t nodes of the truncated q2s (the CLI default is 40); each t node costs
#: the same, so this scales the round without changing where time goes
SWEEP_TRUNC_T_NODES = 10
#: the default sweep's slopes; the accuracy reference covers them as well
#: as the drawn ones, so it always reaches the largest slope, a = 2
SWEEP_DEFAULT_SLOPES = (0.0, 0.5, 1.0, 1.5, 2.0)
#: below this, a relative error is float64 rounding, not the algorithm
ERR_FLOOR = 1e-14

FLOW_TOL = 1e-8              # criterion 7: margins a, c, d
PRODUCT_TOL = 1e-10          # criterion 7: P_t(w) P_t(1/w) - 1
B_GAP_TOL = 1e-13            # criterion 7: d P_t = P_t d
HEAT_TOL = 1e-8              # criterion 6
POISSON_FACTOR_TOL = 1e-6    # criterion 6
ISOMETRY_TOL = 1e-10         # criterion 10, constant weight
RIESZ_TOL = 1e-6             # criterion 10: norm <= 80 q2 + tol
REPR_TOL = 1e-6              # criterion 8


class CheckFailed(Exception):
    """An operation's output missed its acceptance tolerance."""


@dataclass
class Op:
    """One timed call and the check of its output.

    ``call`` receives the check summaries of the round's earlier
    operations by label; ``check`` returns this operation's summary, which
    enters the output fingerprint, or raises CheckFailed.
    """

    label: str
    call: Callable[[dict], Any]
    check: Callable[[Any], dict]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli_op(label: str, argv: list, workdir: str, extra=None) -> Op:
    """A CLI call writing its report to a file, checked for zero failures."""
    path = os.path.join(workdir, label.replace(":", "_") + ".json")

    def call(state):
        return cli.run(argv + ["--out", path])

    def check(rc):
        with open(path) as fh:
            report = json.load(fh)
        report.pop("timestamp")
        failing = [c["name"] for c in report["checks"] if c["failures"]]
        _require(rc == 0 and not failing, f"exit {rc}, failing checks {failing}")
        if extra is not None:
            extra(report)
        return report
    return Op(label, call, check)


def _measurement(report: dict, name: str) -> float:
    return next(m["value"] for m in report["measurements"] if m["name"] == name)


def _check_product(report: dict) -> None:
    margin = report["checks"][0]["worst_margin"]
    _require(margin >= -PRODUCT_TOL, f"flow product margin {margin}")


class Workload:
    name = ""
    gh_orders: tuple = ()
    laguerre_orders: tuple = ()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def ops(self) -> list:
        """The operations of one round."""
        raise NotImplementedError

    def ref_log_err(self) -> float:
        """Largest |ln(got / ref)| against the decimal reference."""
        raise NotImplementedError

    def describe(self) -> dict:
        """The seed-derived inputs, for the result record."""
        raise NotImplementedError


class BellmanSampled(Workload):
    """verify-bellman at the acceptance configuration, sized to BELLMAN_SAMPLES."""

    name = "bellman-sampled"

    def ops(self):
        argv = ["verify-bellman", "--q", ",".join(f"{q:g}" for q in Q_VALUES),
                "--samples", str(BELLMAN_SAMPLES), "--aux-grid-n", "200",
                "--directions", "64", "--seed", str(self.seed)]

        def families(report):
            names = [c["name"].split("[")[0] for c in report["checks"]]
            for fam in ("size", "sign", "hessian", "aux_size", "aux_hessian"):
                _require(names.count(fam) == len(Q_VALUES), f"missing {fam} checks")
        return [_cli_op("verify-bellman", argv, self.workdir, families)]

    def ref_log_err(self):
        # the suite's own first rows for each Q, drawn as run_suite draws them
        points = {}
        for q in Q_VALUES:
            seq = np.random.SeedSequence([self.seed, int(1e6 * q)])
            rng = np.random.Generator(np.random.PCG64(seq))
            points[q] = verify.sample_columns(q, 1, BELLMAN_SAMPLES, rng)[:BELLMAN_REF_ROWS]
        return max(ERR_FLOOR, reference.bq_log_err(points))

    def describe(self):
        return {"suite_seed": self.seed, "samples_per_q": BELLMAN_SAMPLES}


class FlowSweep(Workload):
    """The sweep's work per weight: q2 of exp:a, riesz-norm, truncated q2."""

    name = "flow-sweep"
    gh_orders = (gauss.QUAD_WEIGHTED,)
    laguerre_orders = (gauss.SUBORDINATION_ORDER,)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        k = SWEEP_SLOPES
        # one slope from each k-th of [0, 2]: sorted, and always spanning
        # the range the default sweep covers
        self.slopes = [float(round(2.0 * (i + self.rng.uniform()) / k, 6))
                       for i in range(k)]
        self.trunc_slope = self.slopes[int(self.rng.integers(k))]
        ladder = estimates.TRUNCATION_LADDER
        self.levels = sorted(int(v) for v in self.rng.choice(ladder, 2, replace=False))

    def ops(self):
        out = []
        for a in self.slopes:
            w = f"exp:a={a!r}"
            out.append(_cli_op(f"a2[{w}]", ["a2", "--weight", w], self.workdir,
                               _check_product))
            out.append(_cli_op(f"riesz-norm[{w}]",
                               ["riesz-norm", "--weight", w, "--n", "32"],
                               self.workdir))
        a = self.trunc_slope
        for level in self.levels:
            w = f"trunc:n={level}:exp:a={a!r}"
            out.append(_cli_op(f"a2[{w}]", ["a2", "--weight", w, "--t-nodes",
                                             str(SWEEP_TRUNC_T_NODES)],
                               self.workdir, _check_product))

        def rows(state):
            riesz = state[f"riesz-norm[exp:a={a!r}]"]
            return [{"param": a, "q2_lower": _measurement(riesz, "q2_lower"),
                     "weighted_norm": _measurement(riesz, "weighted_norm"),
                     "bound_ratio": _measurement(riesz, "bound_ratio"),
                     "trunc_n": level,
                     "q2_trunc": _measurement(state[f"a2[trunc:n={level}:exp:a={a!r}]"],
                                              "q2_lower")}
                    for level in self.levels]

        def sweep_check(problems):
            _require(problems == [], f"sweep problems {problems}")
            return {"problems": problems}
        out.append(Op("sweep_problems",
                      lambda state: estimates.sweep_problems(rows(state)), sweep_check))
        return out

    def ref_log_err(self):
        return max(ERR_FLOOR, reference.flow_log_err(
            [*self.slopes, *SWEEP_DEFAULT_SLOPES], gauss.default_flow_grid(),
            gauss.SUBORDINATION_ORDER))

    def describe(self):
        return {"slopes": self.slopes, "trunc_slope": self.trunc_slope,
                "trunc_levels": self.levels}


FLOW_SUITE_GL = 256          # flow_inequality_suite's default order
SPECTRAL_GL = 8192           # criterion 6
SPECTRAL_XS = (-3.0, -1.2, 0.0, 0.7, 2.5)
#: Poisson factors are checked for n = 1..8 at one t drawn log-uniformly
#: from the gate's range [0.25, 4]; the orders fix both cost and memory
SPECTRAL_T_RANGE = (0.25, 4.0)
#: the flow suite runs on one t node from each of this many equal strata
#: of the default grid's 40 t nodes, and on all of its x nodes
FLOW_T_STRATA = 4
RIESZ_SLOPES = (0.0, 0.5, 1.0, 1.5, 2.0)
F_ORDERS = (1, 2, 3)
G_ORDERS = (0, 2)


class FlowIdentities(Workload):
    """Acceptance criteria 6-10 as library calls, with seed-drawn f and g.

    The two costly checks run on seed-drawn parts, so that a round takes
    a few seconds: the Poisson factors at one t, and the flow suite on
    FLOW_T_STRATA of the default grid's t nodes.
    """

    name = "flow-identities"
    gh_orders = (gauss.QUAD_UNWEIGHTED, gauss.QUAD_WEIGHTED)
    laguerre_orders = (SPECTRAL_GL, FLOW_SUITE_GL, gauss.SUBORDINATION_ORDER)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # f in the range of the generator (no constant term), |coeff| <= 1
        self.f_coeffs = [(0.0, *self.rng.uniform(-1, 1, n).tolist()) for n in F_ORDERS]
        self.g_coeffs = [tuple(self.rng.uniform(-1, 1, n + 1).tolist()) for n in G_ORDERS]
        lo, hi = SPECTRAL_T_RANGE
        self.spectral_t = float(lo * (hi / lo) ** self.rng.uniform())
        ts = gauss.default_flow_grid().t_nodes
        width = len(ts) // FLOW_T_STRATA
        self.flow_t_nodes = tuple(ts[i * width + int(self.rng.integers(width))]
                                  for i in range(FLOW_T_STRATA))
        self.weights = [gauss.WeightSpec.constant(1.0),
                        gauss.WeightSpec.exp_linear(0.5),
                        gauss.WeightSpec.exp_linear(1.0),
                        gauss.truncate_weight(gauss.WeightSpec.exp_linear(1.0), 4)]

    def ops(self):
        fs = [gauss.HermiteFunction(c) for c in self.f_coeffs]
        gs = [gauss.OneForm(c) for c in self.g_coeffs]
        grid = gauss.default_flow_grid()
        xs = np.array(SPECTRAL_XS)
        out = []

        def heat(state):
            worst = 0.0
            for n in range(13):
                basis = gauss.hermite_design(n, xs)[:, n]
                for s in (0.1, 1.0):
                    exact = math.exp(-n * s) * basis
                    approx = gauss.heat_step_quadrature(n, xs, s, gauss.QUAD_UNWEIGHTED)
                    worst = max(worst, float(np.max(np.abs(approx - exact)
                                                    / (1 + np.abs(exact)))))
            return worst

        def poisson(state):
            worst = 0.0
            t = self.spectral_t
            for n in range(1, 9):
                basis = gauss.hermite_design(n, xs)[:, n]
                approx = gauss.poisson_step_quadrature(
                    n, xs, t, SPECTRAL_GL, gauss.QUAD_UNWEIGHTED)
                factor = float(approx @ basis) / float(basis @ basis)
                worst = max(worst, abs(factor - math.exp(-t * math.sqrt(n))))
            return worst

        def bounded(name, tol):
            def check(value):
                _require(value <= tol, f"{name} {value} > {tol}")
                return {name: value}
            return check

        out.append(Op("spectral.heat", heat, bounded("heat_err", HEAT_TOL)))
        out.append(Op("spectral.poisson", poisson,
                      bounded("poisson_factor_err", POISSON_FACTOR_TOL)))

        def flow_check(m):
            _require(min(m["a"], m["c"], m["d"]) >= -FLOW_TOL, f"flow margins {m}")
            _require(m["product"] >= -PRODUCT_TOL, f"flow product {m['product']}")
            _require(m["b_gap"] <= B_GAP_TOL, f"b_gap {m['b_gap']}")
            return m
        out.append(Op("flow_inequality_suite",
                      lambda state: gauss.flow_inequality_suite(
                          fs, gs, self.weights, grid.x_nodes, self.flow_t_nodes),
                      flow_check))

        def q2_check(res):
            _require(res.below_one_count == 0
                     and res.min_product - 1.0 >= -PRODUCT_TOL,
                     f"flow product {res.min_product}")
            return res.as_dict()

        # criterion 9 without the truncated weight, whose q2 belongs to
        # flow-sweep; q2 is computed once per weight and passed in
        for w in self.weights[:3]:
            key = w.to_string()
            out.append(Op(f"q2[{key}]",
                          lambda state, w=w: gauss.q2_characteristic(w, grid),
                          q2_check))
            for i, f in enumerate(fs):
                for j, g in enumerate(gs):
                    out.append(Op(
                        f"embedding[{key},f{i},g{j}]",
                        lambda state, f=f, g=g, w=w, key=key: estimates.bilinear_lhs(
                            f, g, w, grid, q2_value=state[f"q2[{key}]"]["q2_lower"]),
                        self._embedding_check))

        def isometry(res):
            gap = abs(res.weighted_norm - 1.0)
            _require(gap <= ISOMETRY_TOL, f"|const norm - 1| = {gap}")
            return res.as_dict()

        def riesz_bound(res):
            _require(res.weighted_norm <= 80.0 * res.q2 + RIESZ_TOL,
                     f"norm {res.weighted_norm} > 80 q2 = {80 * res.q2}")
            return res.as_dict()

        # criterion 10 as the gate runs it: each call computes its own q2
        out.append(Op("riesz[const:c=1.0]",
                      lambda state: estimates.weighted_riesz_norm(
                          gauss.WeightSpec.constant(1.0), 32, grid=grid),
                      isometry))
        for a in RIESZ_SLOPES:
            out.append(Op(f"riesz[exp:a={a!r}]",
                          lambda state, a=a: estimates.weighted_riesz_norm(
                              gauss.WeightSpec.exp_linear(a), 32, grid=grid),
                          riesz_bound))

        def repr_check(res):
            _require(res["abs_gap"] <= REPR_TOL, f"representation gap {res['abs_gap']}")
            return res
        for n in (1, 2, 4, 9):
            out.append(Op(f"representation[{n}]",
                          lambda state, n=n: estimates.representation_check(n),
                          repr_check))
        return out

    @staticmethod
    def _embedding_check(res):
        _require(res.ratio <= 1.0, f"embedding ratio {res.ratio}")
        return res.as_dict()

    def ref_log_err(self):
        slopes = [w.param for w in self.weights if w.kind == "exp"]
        return max(ERR_FLOOR, reference.flow_log_err(
            slopes, gauss.default_flow_grid(), FLOW_SUITE_GL))

    def describe(self):
        return {"f_coeffs": self.f_coeffs, "g_coeffs": self.g_coeffs,
                "weights": [w.to_string() for w in self.weights],
                "spectral_t": self.spectral_t,
                "flow_t_nodes": self.flow_t_nodes}


WORKLOADS = {w.name: w for w in (BellmanSampled, FlowSweep, FlowIdentities)}
