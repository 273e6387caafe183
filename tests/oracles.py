"""Reference implementations that the tests compare gtcert against."""

import math

import numpy as np


def expm_taylor(m: np.ndarray, terms: int = 24) -> np.ndarray:
    """Scaling-and-squaring Taylor series.  Independent of any eigensolver."""
    norm = float(np.linalg.norm(m, np.inf))
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = m / (2.0**squarings)
    out = np.eye(m.shape[0], dtype=np.complex128)
    term = np.eye(m.shape[0], dtype=np.complex128)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def fd_bound(n: int) -> float:
    """The error bound that HESSIAN_FD_MATCH allows the stencil of step h = 1e-4 at length n.

    h^2 for truncation plus 4 u max(1, log n) / h^2 for the rounding of the
    four lse values of an entry, u = 2^-53, in the library's order of
    operations so that a replayed slack has the campaign's bits.
    """
    h = 1e-4
    return h * h + 4.0 * 2.0**-53 * max(1.0, math.log(n)) / (h * h)
