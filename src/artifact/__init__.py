"""Fuse IDS alerts into time-windowed multilayer artifact graphs and flag
windows with anomalous role dynamics.

The pipeline: parse Snort/OSSEC alert logs into normalized records, build one
co-occurrence graph of alert field values per time window, extract recursive
structural features per node, factorize the training window's node-feature
matrix into roles (KL-NMF with description-length model selection), then track
each node's maximum role-membership probability across windows and score every
window by the average absolute change.
"""

import os

# One BLAS thread unless the environment says otherwise. The matrices here
# are small: on a 2-core host with the other core busy, two OpenBLAS threads
# made fit_schema's least-squares solves about 30 times slower than one. The
# outputs are the same either way. numpy reads these when first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
