"""JSON/CSV serialization: matrix files, pencil files, result documents.

Matrix documents keep real and imaginary parts as separate 2-d arrays
("re"/"im"), which parses trivially from any language.  Every JSON
document, printed or saved, is one line with sorted keys from
``json.dumps(doc, sort_keys=True)``, which CPython serves with its C
encoder.  An ``indent``, or ``json.dump`` to a file (it encodes
incrementally), falls back to the pure-Python encoder, about twice as slow
on a pencil document; so ``save_json`` encodes the whole document with
``dumps`` and writes it once.
CSV numeric fields use Python repr (shortest round-trip), so reparsing
reproduces binary-equal doubles.
Every output file is written through ``open_output``, which overwrites an
existing file in place and then cuts it to the length written, because
truncating a recently written file to zero first waits for its old data to
reach the disk (tens of milliseconds per file on ext4).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
from typing import TYPE_CHECKING, Any, Iterator, TextIO

import numpy as np

from . import __version__
from .errors import IoFormatError

if TYPE_CHECKING:
    from .pencil import PHPencil

__all__ = [
    "matrix_to_doc",
    "matrix_from_doc",
    "vector_from_doc",
    "vector_to_doc",
    "pencil_to_doc",
    "pencil_from_doc",
    "open_output",
    "save_json",
    "load_json",
    "parse_imaginary",
    "format_imaginary",
    "sweep_rows_to_csv",
    "TOOL_NAME",
    "TOOL_VERSION",
]

TOOL_NAME = "dsmkit"
TOOL_VERSION = __version__


def matrix_to_doc(a) -> dict:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def vector_to_doc(v) -> dict:
    return matrix_to_doc(np.asarray(v, dtype=complex).reshape(-1, 1))


def matrix_from_doc(doc: Any, name: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise IoFormatError(name, f"{name}: expected an object with rows/cols/re/im")
    for key in ("rows", "cols", "re", "im"):
        if key not in doc:
            raise IoFormatError(f"{name}.{key}", f"{name}: missing field {key!r}")
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        re_part = np.asarray(doc["re"], dtype=float)
        im_part = np.asarray(doc["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise IoFormatError(name, f"{name}: non-numeric entries ({exc})") from None
    if re_part.shape != (rows, cols) or im_part.shape != (rows, cols):
        raise IoFormatError(
            f"{name}.re", f"{name}: array shapes {re_part.shape}/{im_part.shape} do not match {rows}x{cols}"
        )
    out = re_part + 1j * im_part
    if not np.all(np.isfinite(out.view(float))):
        raise IoFormatError(f"{name}.re", f"{name}: entries must be finite")
    return out


def vector_from_doc(doc: Any, name: str = "vector") -> np.ndarray:
    a = matrix_from_doc(doc, name)
    if 1 not in a.shape:
        raise IoFormatError(name, f"{name}: expected a vector (one row or one column), got {a.shape}")
    return a.reshape(-1)


def pencil_to_doc(p: PHPencil) -> dict:
    return {
        "n": p.n,
        "m": p.m,
        "J": matrix_to_doc(p.J),
        "R": matrix_to_doc(p.R),
        "E": matrix_to_doc(p.E),
        "B": matrix_to_doc(p.B),
        "S": matrix_to_doc(p.S),
    }


def pencil_from_doc(doc: Any) -> PHPencil:
    from .pencil import PHPencil  # vector and matrix documents need no pencil layer

    if not isinstance(doc, dict):
        raise IoFormatError("pencil", "pencil document must be an object")
    for key in ("n", "m", "J", "R", "E", "B", "S"):
        if key not in doc:
            raise IoFormatError(key, f"pencil: missing field {key!r}")
    blocks = {k: matrix_from_doc(doc[k], k) for k in ("J", "R", "E", "B", "S")}
    p = PHPencil(**blocks)
    if p.n != int(doc["n"]) or p.m != int(doc["m"]):
        raise IoFormatError("n", "pencil: declared (n, m) do not match block shapes")
    return p


@contextlib.contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text, replacing its content.

    The file is created with mode 0o666 less the umask, like ``open(path, "w")``,
    but an existing file is not truncated on open: on exit, also when the
    body raises, a regular file is cut at the position written, so no tail of
    the old content is left.  Other targets (``/dev/null``, a pipe) are not cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def save_json(path: str, doc: dict) -> None:
    with open_output(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise IoFormatError("json", f"{path}: invalid JSON ({exc})") from None


_IMAG_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*$")


def parse_imaginary(text: str) -> complex:
    """Parse ``<decimal>i`` into a purely imaginary complex number.

    A bare decimal is rejected rather than reinterpreted, and so is one
    beyond the float range (``1e400i``).
    """
    m = _IMAG_RE.match(text)
    if not m:
        raise IoFormatError("lambda", f"expected '<decimal>i' (e.g. '0.5i'), got {text!r}")
    im = float(m.group(1))
    if not math.isfinite(im):
        raise IoFormatError("lambda", f"lambda must be finite, got {text!r}")
    return complex(0.0, im)


def format_imaginary(lam: complex) -> str:
    return f"{lam.imag!r}i"


def sweep_rows_to_csv(rows: list[dict]) -> str:
    """Render experiment rows as CSV with round-trippable numeric fields."""
    lines = ["lambda,eta_lower,eta_upper,finite,conditions"]
    for row in rows:
        cond = row.get("conditions", "") or row.get("error", "")
        cond = cond.replace(",", ";")
        lines.append(
            f"{format_imaginary(row['lam'])},{row['eta_lower']!r},{row['eta_upper']!r},"
            f"{str(row['finite']).lower()},{cond}"
        )
    return "\n".join(lines) + "\n"
