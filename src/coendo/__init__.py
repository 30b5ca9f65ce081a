"""coendo: split elliptic coendoscopic groups and multiplicity coefficients.

Exact-arithmetic classification of the split elliptic coendoscopic groups
of a split semisimple group over F_q, the stratification of the torus
points it induces, the integer coefficients attached to each stratum by
per-place character data, and the dimension/leading-term bookkeeping of
the associated moduli spaces — everything cross-checked by brute-force
oracles at small rank and small q.
"""

# Every kernel is pure Python; reported on the benchmark's machine line.
KERNEL_BACKEND = "python"
__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
