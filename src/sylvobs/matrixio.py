"""JSON matrix-file format used by the command-line tools.

A file is one JSON object mapping names ("A", "B", "C", optionally
"x0", "z0", or observer/solution matrices) to entries of the form

    {"rows": <int>, "cols": <int>, "data": [<numbers, row-major>]}

Zero-row/zero-column matrices are allowed (degenerate observers).
``save_matrices`` writes the text of ``json.dump(doc, fh, indent=2)`` and a
newline, as it always has: a 2-space indent, one number of ``data`` per
line, and each float as its shortest round-trip text (``float.__repr__``),
so a write/read cycle reproduces every entry exactly.
"""

import json

import numpy as np

from .linalg import as_matrix

__all__ = ["load_matrices", "save_matrices"]

# the items of a data list as json.dump(..., indent=2) separates them
_DATA = json.JSONEncoder(separators=(",\n      ", ": "))


def _entry_to_matrix(key, entry):
    if not isinstance(entry, dict):
        raise ValueError(f"matrix '{key}': expected an object, got {type(entry).__name__}")
    for fieldname in ("rows", "cols", "data"):
        if fieldname not in entry:
            raise ValueError(f"matrix '{key}': missing field '{fieldname}'")
    rows, cols, data = entry["rows"], entry["cols"], entry["data"]
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 0 or cols < 0:
        raise ValueError(f"matrix '{key}': rows/cols must be non-negative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(
            f"matrix '{key}': data must list exactly rows*cols = {rows * cols} numbers"
        )
    # bool is a subclass of int, and numpy would also read numeric strings
    if not set(map(type, data)) <= {int, float}:
        raise ValueError(f"matrix '{key}': data must be numbers")
    try:
        arr = np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"matrix '{key}': entries must be finite") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"matrix '{key}': entries must be finite")
    return arr


def load_matrices(path):
    """Read a matrix file; returns a dict of name -> 2-D float array.

    Raises ``ValueError`` with the offending key named on any schema
    violation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return {key: _entry_to_matrix(key, entry) for key, entry in doc.items()}


def save_matrices(path, named):
    """Write named matrices (2-D arrays; vectors are stored as columns).

    Each entry passes ``linalg.as_matrix`` before the file is opened, so a
    complex or non-finite one is a ``ValueError`` and no file is written.

    The text is the module's layout, byte for byte; each ``data`` list goes
    through json's C encoder in one call, which ``json.dump`` with an
    indent never uses, and the indentation around it is written here.
    """
    entries = []
    for key, value in named.items():
        arr = np.asarray(value)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"matrix '{key}': must be 1-D or 2-D")
        arr = as_matrix(arr, f"matrix '{key}'", allow_empty=True)
        data = _DATA.encode(arr.ravel().tolist())
        if arr.size:
            data = f"[\n      {data[1:-1]}\n    ]"
        # json's text of the key, a non-string one converted as json.dump does
        name = json.dumps({key: 0})[1:-4]
        entries.append(f'  {name}: {{\n    "rows": {arr.shape[0]},\n'
                       f'    "cols": {arr.shape[1]},\n    "data": {data}\n  }}')
    text = "{\n" + ",\n".join(entries) + "\n}\n" if entries else "{}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
