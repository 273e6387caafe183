"""Reference implementations that the tests compare gtcert against."""

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
