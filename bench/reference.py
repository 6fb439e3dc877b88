"""Fixed reference work that gauges the machine's speed at the moment it runs.

    python3 bench/reference.py <scratch file>

It does what a clicktomo stage does in kind, but none of clicktomo's code: a
fresh interpreter imports numpy and scipy.special, runs a pure-Python loop
and a chain of small matrix products, and writes and parses a text file.
``run.py`` times it between chains; a stage's wall time divided by the
reference's wall time around it does not depend on how fast the shared host
happens to be at that moment.  Never change this file without re-recording
``REFERENCE_S`` in ``run.py``: it is the unit of every timing metric.
"""
import sys

import numpy as np
import scipy.special  # noqa: F401  (the import is part of the reference work)


def main(path: str) -> None:
    rng = np.random.default_rng(12345)
    a = rng.random((40, 40))
    b = np.eye(40)
    for _ in range(3000):
        b = a @ b
        b /= np.abs(b).max()
    s = 0
    for i in range(300000):
        s += i * i % 7
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(40000):
            fh.write(f"{i},{i * 0.5:.6f},{s % 13}\n")
    with open(path, encoding="utf-8") as fh:
        total = sum(float(line.split(",")[1]) for line in fh)
    if total != 0.5 * 40000 * 39999 / 2:
        sys.exit("reference work computed a wrong sum")


if __name__ == "__main__":
    main(sys.argv[1])
