"""Desk-scale numerics for loop-group bundle geometry.

Modules
-------
liecore      su(n)/SU(n) matrix model, normalized invariant form, symmetrized
             trace polynomials
loopspace    discretized loops, spectral circle calculus, one group interface
             for LG and LG x S1
formscalc    alternating forms on finite charts with the 1/q! evaluation
             convention
connections  connection/Higgs data on trivialized charts, curvatures, string
             forms of every odd degree
caloron      loop-bundle <-> G-bundle transport of connections and curvature
pathfib      path-fibration geometry, Higgs-field holonomy, transgression
centralext   central-extension 2-form/1-form data, curvings, descent checks
report       seeded verification suites with machine-readable reports

Imported before numpy, the package pins BLAS/OpenMP to one thread unless
the environment already sets a count: the work is batches of 2x2 and 3x3
matrices, where a thread pool only adds its start-up cost.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from . import (
    caloron,
    centralext,
    connections,
    formscalc,
    liecore,
    loopspace,
    pathfib,
    report,
    sampling,
)

__all__ = [
    "caloron",
    "centralext",
    "connections",
    "formscalc",
    "liecore",
    "loopspace",
    "pathfib",
    "report",
    "sampling",
]

__version__ = "0.1.0"
