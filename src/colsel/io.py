"""Matrix file loading and deterministic JSON reporting.

Supported inputs: plain CSV (one row per line, comma-separated decimals;
blank lines are skipped) and the Matrix Market subset ``array real general``
/ ``coordinate real general|symmetric``.  Both read one number grammar, the
one ``np.loadtxt`` reads: Python's float syntax in ASCII, without
underscores.  Dense matrices only, refused above ``MAX_ENTRIES``
entries.  Coordinate indices must be decimal integers and no position may
be given twice (in symmetric files, counting the mirrored position).

Reports are serialized by ``json`` with sorted keys, each float in the
shortest text that reads back as the same double, non-finite floats as
``null``, and a trailing newline, so identical inputs produce byte-identical
files.
"""

import dataclasses
import json
import math
import sys

import numpy as np

from .errors import DomainError, ParseError

MAX_ENTRIES = 10**7


def _guard_size(rows, cols, path):
    if rows * cols > MAX_ENTRIES:
        raise DomainError(
            f"{path}: {rows}x{cols} has more than {MAX_ENTRIES} entries; "
            "this tool only handles dense matrices up to that size"
        )


def _number(tok):
    """``tok`` as a float under the grammar ``np.loadtxt`` reads, else ``None``.

    That is Python's float syntax on ASCII text, around which whitespace is
    allowed, without the underscores and non-ASCII digits ``float`` also takes.
    """
    text = tok.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _parse_csv(text, path):
    lines = text.splitlines()
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ParseError(f"{path}: no rows found", code="empty")
    _guard_size(len(lines), len(rows[0].split(",")), path)
    # loadtxt gets the nonblank lines, not a StringIO of the text, which
    # would hold a copy at four bytes per character.
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _csv_fault(lines, path)
        raise ParseError(f"{path}: {exc}", code="bad-token") from None


def _csv_fault(lines, path):
    """Raise the first ragged row or bad token of text ``np.loadtxt`` refused,
    naming its line and field."""
    width = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: line {lineno} has {len(tokens)} fields, expected {width}",
                code="ragged-row",
                line=lineno,
            )
        for colno, tok in enumerate(tokens, start=1):
            _value(tok, path, lineno, colno)


def _value(tok, path, lineno, colno=None):
    """``tok`` as a float, else a ``bad-token`` :class:`ParseError` naming its
    line and, when given, its field."""
    value = _number(tok)
    if value is None:
        field = "" if colno is None else f", field {colno}"
        raise ParseError(
            f"{path}: cannot parse {tok.strip()!r} at line {lineno}{field}",
            code="bad-token",
            line=lineno,
            column=colno,
        )
    return value


def _mm_tokens(ln, layout, form, path, lineno):
    """The tokens of an entry line, refused unless they match ``form`` one to one."""
    tokens = ln.split()
    if len(tokens) != len(form.split()):
        raise ParseError(
            f"{path}: {layout} line {lineno} needs '{form}'",
            code="mm-entry",
            line=lineno,
        )
    return tokens


def _mm_index(tok, path, lineno):
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(
            f"{path}: index {tok!r} at line {lineno} is not a positive integer",
            code="mm-index",
            line=lineno,
        )
    return int(tok)


def _parse_matrix_market(text, path):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(f"{path}: missing MatrixMarket banner", code="mm-header", line=1)
    banner = lines[0].split()
    if len(banner) != 5 or banner[1].lower() != "matrix":
        raise ParseError(f"{path}: malformed banner {lines[0]!r}", code="mm-header", line=1)
    layout, field, symmetry = (w.lower() for w in banner[2:5])
    if field != "real":
        raise ParseError(
            f"{path}: unsupported field {field!r} (only 'real')",
            code="mm-unsupported",
            line=1,
        )
    allowed = {"array": ("general",), "coordinate": ("general", "symmetric")}
    if layout not in allowed:
        raise ParseError(
            f"{path}: unsupported layout {layout!r}", code="mm-unsupported", line=1
        )
    if symmetry not in allowed[layout]:
        raise ParseError(
            f"{path}: unsupported symmetry {symmetry!r} for {layout} layout",
            code="mm-unsupported",
            line=1,
        )

    body = [
        (no, ln.strip())
        for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError(f"{path}: missing size line", code="mm-size")
    size_line_no, size_line = body[0]
    sizes = size_line.split()
    expected = 2 if layout == "array" else 3
    if len(sizes) != expected or not all(tok.lstrip("-").isdigit() for tok in sizes):
        raise ParseError(
            f"{path}: malformed size line {size_line!r}",
            code="mm-size",
            line=size_line_no,
        )
    dims = [int(tok) for tok in sizes]
    rows, cols = dims[0], dims[1]
    if rows < 1 or cols < 1:
        raise ParseError(
            f"{path}: non-positive dimensions {rows}x{cols}",
            code="mm-size",
            line=size_line_no,
        )
    _guard_size(rows, cols, path)
    entries = body[1:]

    if layout == "array":
        if len(entries) != rows * cols:
            raise ParseError(
                f"{path}: expected {rows * cols} entries, found {len(entries)}",
                code="mm-count",
            )
        values = []
        for no, ln in entries:
            (tok,) = _mm_tokens(ln, layout, "value", path, no)
            values.append(_value(tok, path, no))
        # Matrix Market array data is column-major.
        return np.array(values, dtype=float).reshape((cols, rows)).T

    nnz = dims[2]
    if len(entries) != nnz:
        raise ParseError(
            f"{path}: expected {nnz} coordinate entries, found {len(entries)}",
            code="mm-count",
        )
    a = np.zeros((rows, cols))
    seen = {}  # position -> line that set it; symmetric files key (lo, hi)
    for no, ln in entries:
        tokens = _mm_tokens(ln, layout, "row col value", path, no)
        i = _mm_index(tokens[0], path, no)
        j = _mm_index(tokens[1], path, no)
        v = _value(tokens[2], path, no)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(
                f"{path}: coordinate ({i}, {j}) out of range at line {no}",
                code="mm-entry",
                line=no,
            )
        key = (min(i, j), max(i, j)) if symmetry == "symmetric" else (i, j)
        if key in seen:
            raise ParseError(
                f"{path}: entry ({i}, {j}) at line {no} repeats the position "
                f"set at line {seen[key]}",
                code="mm-duplicate",
                line=no,
            )
        seen[key] = no
        a[i - 1, j - 1] = v
        if symmetry == "symmetric":
            a[j - 1, i - 1] = v
    return a


def load_matrix(path, fmt=None):
    """Load a dense matrix from ``path``.

    ``fmt`` is ``"csv"`` or ``"matrix-market"``; when omitted it is inferred
    from the extension (``.mtx``/``.mm`` mean Matrix Market).
    """
    if fmt is None:
        lowered = str(path).lower()
        fmt = "matrix-market" if lowered.endswith((".mtx", ".mm")) else "csv"
    if fmt not in ("csv", "matrix-market"):
        raise DomainError(f"unknown matrix format {fmt!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})", code="encoding"
            ) from None
    if fmt == "csv":
        a = _parse_csv(text, path)
    else:
        a = _parse_matrix_market(text, path)
    _guard_size(a.shape[0], a.shape[1], path)
    if not np.isfinite(a).all():
        raise DomainError(f"{path}: matrix contains non-finite entries")
    return a


def _plain(obj):
    """``obj`` as the plain data ``json`` writes: lists, ``str`` keys, Python
    numbers, and ``None`` for a non-finite float."""
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise DomainError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj):
    """Serialize to deterministic JSON: sorted keys, shortest round-trip floats.

    Arrays and tuples become lists, numpy scalars Python numbers, and
    dataclasses objects of their fields; keys become strings, and
    non-finite floats ``null``.
    """
    return json.dumps(_plain(obj), sort_keys=True, allow_nan=False) + "\n"


def write_report(report, path=None):
    """Write ``report`` as deterministic JSON to ``path`` or standard output."""
    text = dumps_report(report)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
