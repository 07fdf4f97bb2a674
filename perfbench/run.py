"""gaussbell benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bellman-sampled --seed 1 \\
        --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout.  The run

1. builds the workload's quadrature rules so the timed phase starts warm,
2. repeats the workload's round of operations until ``--seconds`` would
   be exceeded (at least one round), checking every operation's output
   and requiring every round to reproduce the first round's fingerprint;
   after each round, untimed, it measures set-up (import plus quadrature
   rules) once in a fresh interpreter,
3. with ``--trace 0`` computes the accuracy reference and prints the
   end-to-end metrics; with ``--trace 1`` runs traced rounds for half the time,
   then one untraced round for the tracing overhead, and prints the
   per-layer metrics.

Metric names and units come from BENCHMARK.json.  The last line of
standard output is the result object; a failed check makes the run
exit 1 after printing it.  Spans, inputs and outputs are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
#: the calibration kernel's time at the reference speed.  The host's speed
#: drifts by up to 60% over minutes, and the kernel's time drifts with it,
#: so the end-to-end times are scaled by CAL_REF_S / (its median in the run)
CAL_REF_S = 0.02


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _source_digest(*dirs) -> str:
    """Digest of the ``.py`` files directly under ``dirs``."""
    h = hashlib.sha256()
    for pkg in dirs:
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _blas() -> dict:
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _environment(load_at_start) -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg_start": load_at_start,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "git_revision": _git_revision(),
            "source_digest": _source_digest(os.path.join(SRC, "gaussbell"))}


class SetupProbe:
    """Set-up measurements, each from a fresh interpreter.

    The runs are spread between the rounds, so that their median covers
    the same stretch of time as the rounds' median does.
    """

    #: fewest set-up measurements a run takes
    MINIMUM = 3

    def __init__(self, workload):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.args = [",".join(map(str, workload.gh_orders)),
                     ",".join(map(str, workload.laguerre_orders))]
        self.results: list = []

    def __call__(self) -> None:
        res = subprocess.run([sys.executable, PROBE, *self.args], cwd=ROOT, env=self.env,
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        self.results.append(json.loads(res.stdout.strip().splitlines()[-1]))

    def top_up(self) -> list:
        while len(self.results) < self.MINIMUM:
            self()
        return self.results


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Runner:
    """Runs rounds of one workload and keeps their times and outcomes."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.fingerprint = None
        self.summaries = None
        self.op_id = 0
        self.op_seconds: dict = {}

    def round(self) -> float:
        state: dict = {}
        summaries = []
        elapsed = 0.0
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.op = self.op_id
            self.op_id += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = op.call(state)
            except Exception as exc:  # an operation that raises counts as failed
                self._failure(op.label, f"raised {exc!r}", summaries)
                continue
            finally:
                took = time.perf_counter() - start
                elapsed += took
                self.op_seconds.setdefault(op.label, []).append(took)
            try:
                summary = op.check(out)
            except Exception as exc:  # CheckFailed, or malformed output
                self._failure(op.label, str(exc), summaries)
                continue
            state[op.label] = summary
            summaries.append({"op": op.label, "out": summary})
        fp = _digest(summaries)
        if self.fingerprint is None:
            self.fingerprint, self.summaries = fp, summaries
        elif fp != self.fingerprint:
            self.errors.append(f"round fingerprint {fp} != first round {self.fingerprint}")
        return elapsed

    def _failure(self, label, message, summaries):
        self.failed += 1
        self.errors.append(f"{label}: {message}")
        summaries.append({"op": label, "error": message})


def _run_rounds(runner: Runner, seconds: float, between) -> list:
    """Rounds until the next one would end past ``seconds`` (at least one).

    ``between`` runs after each round; its time does not count.
    """
    times = []
    spent = 0.0
    while not times or spent + times[-1] <= seconds:
        start = time.perf_counter()
        times.append(runner.round())
        spent += time.perf_counter() - start
        between()
    return times


def _check_stored_fingerprint(key: str, fp: str) -> str | None:
    """Same-seed runs of the same source must agree; returns a mismatch message."""
    path = os.path.join(OUT_DIR, "fingerprints.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    if key in known and known[key] != fp:
        return f"fingerprint {fp} differs from an earlier run's {known[key]}"
    known[key] = fp
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _layer_metrics(tracer, rounds: int, probes, gh_before, gh_after, overhead) -> dict:
    self_s = tracer.self_times()
    counts = tracer.counts

    def per_round(v):
        return v / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    gh_hits = gh_after.hits - gh_before.hits
    gh_miss = gh_after.misses - gh_before.misses
    values = {
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "gauss.laguerre_rule.self_s": statistics.median(p["laguerre_s"] for p in probes),
        "gauss.laguerre_rule.misses": statistics.median(p["laguerre_misses"] for p in probes),
        "gauss.gh_rule.hit_ratio": ratio(gh_hits, gh_hits + gh_miss),
        "verify.fd_hessian.fit_ratio": ratio(counts["fd.rows_fitted"],
                                             counts["fd.rows_tested"]),
        "estimates.q2_per_weight": ratio(per_round(counts["q2.calls"]),
                                         len(tracer.weights_seen)),
        "trace.overhead_s": overhead,
    }
    for key in ("bellman.bq_batch.rows", "bellman.aux_raw.calls",
                "verify.in_domain_batch.rows", "gauss.weight_points",
                "gauss.hermite_design.calls", "gauss.hermite_design.points",
                "report.bytes"):
        values[key] = per_round(counts[key])
    for name, secs in self_s.items():
        if name not in ("gauss.laguerre_rule",):
            key = (name.replace("q2_characteristic.", "q2_characteristic.self_s.")
                   if name.startswith("gauss.q2_characteristic.") else f"{name}.self_s")
            values[key] = per_round(secs)
    return values


def main(argv) -> int:
    load_at_start = list(os.getloadavg())
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "gaussbell", "cli.py")):
        _fail(f"no gaussbell sources under {SRC}; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import gaussbell
    if not os.path.abspath(gaussbell.__file__).startswith(SRC + os.sep):
        _fail(f"imported gaussbell from {gaussbell.__file__}, not from {SRC}")
    from gaussbell import gauss
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = _environment(load_at_start)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR, prefix="run-")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = SetupProbe(workload)
        for order in workload.gh_orders:
            gauss.gh_rule(order)
        for order in workload.laguerre_orders:
            gauss.laguerre_rule(order)
        ops = workload.ops()
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": env, "inputs": workload.describe()}
        if args.trace:
            tracer = Tracer()
            runner = Runner(ops, tracer)
            gh_before = gauss.gh_rule.cache_info()
            tracer.install()
            try:
                times = _run_rounds(runner, args.seconds / 2, probe)
            finally:
                tracer.uninstall()
            gh_after = gauss.gh_rule.cache_info()
            # after the traced rounds, so first-round costs land on those
            baseline = runner.round()
            values = _layer_metrics(tracer, len(times), probe.top_up(), gh_before,
                                    gh_after, statistics.median(times) - baseline)
            metric_spec = spec["per_layer"]
            tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
            record["untraced_round_s"] = baseline
        else:
            runner = Runner(ops)
            times = _run_rounds(runner, args.seconds, probe)
            try:
                ref_err = workload.ref_log_err()
            except ArithmeticError as exc:
                runner.errors.append(f"reference: {exc}")
                ref_err = sys.float_info.max
            probes = probe.top_up()
            raw_setup = statistics.median(p["import_s"] + p["gh_s"] + p["laguerre_s"]
                                          for p in probes)
            speed = CAL_REF_S / statistics.median(p["cal_s"] for p in probes)
            record.update(raw_setup_s=raw_setup, raw_wall_s=statistics.median(times),
                          speed=speed)
            values = {
                "setup_s": raw_setup * speed,
                "wall_s": statistics.median(times) * speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ref_log_err": ref_err,
            }
            metric_spec = spec["end_to_end"]
        record["setup"] = probe.results
        record["round_s"] = times
        record["op_s"] = runner.op_seconds
        record["fingerprint"] = runner.fingerprint
        record["outputs"] = runner.summaries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the workload definitions are part of the key, so editing them does
    # not read as a change of output
    key = (f"{args.workload}:{args.seed}:{env['source_digest']}:"
           f"{_source_digest(os.path.dirname(os.path.abspath(__file__)))}")
    mismatch = _check_stored_fingerprint(key, runner.fingerprint)
    if mismatch:
        runner.errors.append(mismatch)
    correct = runner.failed == 0 and not runner.errors
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in metric_spec}
    record.update(metrics=metrics, errors=runner.errors, correct=correct)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    q1, q3 = _quartiles(times)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    print(f"rounds {len(times)}  round_s median {statistics.median(times):.4f}  "
          f"q1 {q1:.4f}  q3 {q3:.4f}  fingerprint {runner.fingerprint}")
    if "speed" in record:
        print(f"speed factor {record['speed']:.4f}  raw setup_s {record['raw_setup_s']:.4f}  "
              f"raw wall_s {record['raw_wall_s']:.4f}")
    print(f"ops attempted {runner.attempted}  failed {runner.failed}  "
          f"failed_ops_frac {runner.failed / runner.attempted:.4g}")
    for err in runner.errors:
        print(f"ERROR {err}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
