"""Matrix files: {"n": int, "re": n x n, "im": n x n} with "im" optional.

A missing "im" means a real symmetric matrix, which loads with float64
entries; a matrix whose imaginary parts are all zero is saved without "im".
Numbers are written with Python's shortest round-trip representation, and an
exactly Hermitian matrix loads unchanged, so save followed by load reproduces
the entries bit for bit, subnormals and signed zeros included.  Entries must
be finite JSON numbers, and Hermiticity is enforced on load at tolerance 1e-10.
"""

from __future__ import annotations

import json

import numpy as np

from .checks import require_positive_int
from .errors import MatrixParseError
from .hermitian import HermitianMatrix, complex_from_parts, validate_hermitian

LOAD_TOL = 1e-10


def _block(doc: dict, key: str, n: int) -> np.ndarray:
    try:
        arr = np.array(doc[key], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixParseError(f"field {key!r} is not a numeric matrix: {exc}") from None
    if arr.shape != (n, n):
        raise MatrixParseError(f"field {key!r} has shape {arr.shape}, expected ({n}, {n})")
    # numpy converts true/false and numeric strings to floats; JSON numbers only
    odd = {type(v) for row in doc[key] for v in row} - {int, float}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise MatrixParseError(f"field {key!r} has non-numeric entries ({names})")
    return arr


def loads_matrix(text: str) -> HermitianMatrix:
    """Parse a matrix document from a JSON string.

    Without "im" the entries stay float64, so the checks use the real
    symmetric eigensolver; with "im" they are complex128.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MatrixParseError("top-level value must be an object")
    n = doc.get("n")
    require_positive_int(n, "field 'n'", MatrixParseError)
    if "re" not in doc:
        raise MatrixParseError("missing field 're'")
    re = _block(doc, "re", n)
    return validate_hermitian(re if "im" not in doc else complex_from_parts(re, _block(doc, "im", n)), LOAD_TOL)


def load_matrix(path: str) -> HermitianMatrix:
    """Load and validate a matrix file.  Missing files raise FileNotFoundError."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_matrix(fh.read())


def dumps_matrix(a: HermitianMatrix) -> str:
    """Serialize; "im" is omitted when every imaginary part is zero."""
    doc = {"n": a.n, "re": a.entries.real.tolist()}
    if np.any(a.entries.imag):
        doc["im"] = a.entries.imag.tolist()
    return json.dumps(doc, indent=2) + "\n"


def save_matrix(a: HermitianMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(a))
