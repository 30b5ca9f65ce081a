#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python reference.

Usage: python benchmarks/bench_kernels.py [--full]

The default workload keeps the reference timings short; --full runs the
largest acceptance-grid sweep (F4 at q = 25, 331776 points).
"""

import argparse
import sys
import time

from coendo import _kernels, rootsys
from coendo._kernels import reference


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def sweep_case(name, q):
    datum = rootsys.make_datum([name], "sc", rootsys.characteristic_of(q))
    rs = datum.root_system
    rows = [datum.root_functionals[i] for i in rs.positive_indices]
    return rows, q - 1, (q - 1) ** rs.rank


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--full", action="store_true",
                        help="include the F4 q=25 sweep")
    args = parser.parse_args(argv)

    if _kernels.BACKEND != "compiled":
        print("compiled kernels not built; run `python setup.py build_ext "
              "--inplace` first")
        return 1
    from coendo._kernels import _fast

    print(f"{'benchmark':<28}{'points':>12}{'python':>10}"
          f"{'compiled':>10}{'speedup':>9}")

    sweeps = [("F4 sweep q=13", "F4", 13), ("D4 sweep q=13", "D4", 13)]
    if args.full:
        sweeps.append(("F4 sweep q=25", "F4", 25))
    for label, name, q in sweeps:
        rows, m, npts = sweep_case(name, q)
        fast, t_fast = timed(_fast.centralizer_masks, rows, m)
        ref, t_ref = timed(reference.centralizer_masks, rows, m)
        assert list(fast) == list(ref)
        print(f"{label:<28}{npts:>12}{t_ref:>10.3f}{t_fast:>10.3f}"
              f"{t_ref / t_fast:>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
