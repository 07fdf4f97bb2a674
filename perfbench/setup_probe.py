"""Set-up cost of one gaussbell run, measured in a fresh interpreter.

Usage: python3 setup_probe.py GH_ORDERS LAGUERRE_ORDERS
(comma-separated, either may be empty).  Imports ``gaussbell.cli`` and
builds the named quadrature rules, then times a fixed numpy kernel that
does not use gaussbell.  Prints one JSON line with the import seconds,
the rule seconds, the Gauss-Laguerre cache misses and the kernel's
median seconds.  The package must be importable (PYTHONPATH pointing at
``src``).
"""

import json
import statistics
import sys
import time

#: doubles in the calibration kernel; at 40 MB every array is mapped
#: afresh, like the workloads' large temporaries
CAL_N = 5_000_000
CAL_REPS = 5


def _orders(text):
    return [int(v) for v in text.split(",") if v]


def main(argv):
    gh_orders, lag_orders = _orders(argv[0]), _orders(argv[1])
    t0 = time.perf_counter()
    import gaussbell.cli  # noqa: F401
    from gaussbell import gauss
    t1 = time.perf_counter()
    for order in gh_orders:
        gauss.gh_rule(order)
    t2 = time.perf_counter()
    for order in lag_orders:
        gauss.laguerre_rule(order)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "gh_s": t2 - t1, "laguerre_s": t3 - t2,
                      "laguerre_misses": gauss.laguerre_rule.cache_info().misses,
                      "cal_s": _calibration_s()}))


def _calibration_s():
    import numpy as np
    x = np.linspace(0.0, 1.0, CAL_N)
    times = []
    for _ in range(CAL_REPS):
        start = time.perf_counter()
        float(np.exp(x).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    main(sys.argv[1:])
