"""JSON serialization with lossless, deterministic float formatting.

Checkpoints must round-trip float64 values exactly and be byte-identical
across runs, so floats are always written with 17 significant digits
instead of whatever repr() happens to choose.  Float arrays are formatted
in bulk, one row per ``%`` call, with the same 17-digit text a float gets
on its own.  Files are written to a temporary name and then renamed over
the target, so an interrupted write leaves the previous file whole.
A ``Fragment`` holds text that ``dumps`` already produced; it is written
out verbatim, so a value stored in two compact documents is encoded once.
Checked readers pull typed values and float arrays out of a loaded
document and raise ``PipelineError`` naming the key when one is missing,
of the wrong type or of the wrong length.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import PipelineError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0 and math.copysign(1.0, x) < 0:
        return "-0.0"  # json reads a bare "-0" as the int 0, which loses the sign
    return f"{x:.17g}"


@dataclass(frozen=True)
class Fragment:
    """Compact JSON text, written out verbatim by ``dumps`` without indent."""

    text: str


def encode(obj: Any) -> Fragment:
    """``dumps(obj)`` as a fragment another compact document can hold."""
    return Fragment(dumps(obj))


def _encode(obj: Any, out: list[str], indent: int | None, depth: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (depth + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * depth)
    sep = "," + (" " if indent is None else "")
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and (obj.dtype.kind != "f" or obj.ndim == 0):
        _encode(obj.tolist(), out, indent, depth)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and len(obj):
        finite = np.isfinite(obj)
        if not finite.all():
            format_float(float(obj[~finite][0]))  # raises the scalar path's error
        # One C-level format call; "%.17g" gives the same digits as format_float,
        # except for -0.0, so an array holding one takes format_float's text.
        spec, values = "%.17g", obj.tolist()
        if not obj.all() and np.signbit(obj[obj == 0]).any():
            spec, values = "%s", [format_float(v) for v in values]
        field = pad + spec
        text = (field + (sep + field) * (len(obj) - 1)) % tuple(values)
        out.append("[" + text + end_pad + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):  # float arrays: empty, or by rows
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(sep)
            out.append(pad)
            _encode(item, out, indent, depth + 1)
        out.append(end_pad + "]")
    elif isinstance(obj, Fragment):
        if indent is not None:  # its text is compact; indenting would need a re-parse
            raise ValueError("a pre-encoded fragment cannot be written with indent")
        out.append(obj.text)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            if i:
                out.append(sep)
            out.append(pad + json.dumps(key) + ": ")
            _encode(value, out, indent, depth + 1)
        out.append(end_pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj: Any, indent: int | None = None) -> str:
    """Serialize to JSON text; floats use 17 significant digits."""
    out: list[str] = []
    _encode(obj, out, indent, 0)
    return "".join(out)


_WRITE_SLICE = 1 << 16  # characters per write in save_json


def save_json(path: str | Path, obj: Any, indent: int | None = None) -> None:
    """Write ``dumps(obj)`` to path atomically: a temporary sibling, then a rename.

    A process interrupted mid-write leaves the previous file intact.  The
    data is not fsynced, so this does not guard against power loss.
    """
    path = Path(path)
    text = dumps(obj, indent=indent)
    tmp = path.with_name(path.name + ".tmp")
    try:
        # In slices, then the newline: one write of the whole text would first encode
        # a second full copy of it (15 MB for a 64-256-256-32, K=8 model.json).
        with tmp.open("w", encoding="utf-8") as out:
            for start in range(0, len(text), _WRITE_SLICE):
                out.write(text[start : start + _WRITE_SLICE])
            out.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _non_finite(token: str) -> None:
    raise PipelineError(f"non-finite number {token} (NaN and Infinity are not JSON)")


def load_json(path: str | Path) -> Any:
    """The document in the file at ``path``; invalid JSON, NaN or Infinity raise PipelineError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_non_finite)
    except json.JSONDecodeError as exc:
        raise PipelineError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from exc


def check_format_version(doc: dict, expected: int, context: str) -> None:
    if not isinstance(doc, dict):
        raise PipelineError(f"{context}: expected an object, got {_type_name(doc)}")
    version = doc.get("format_version")
    if version != expected:
        raise PipelineError(
            f"{context}: unsupported format_version {version!r} (expected {expected})"
        )


_TYPE_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    float: "a number",
    type(None): "null",
    tuple: "a list",  # documents built in memory hold tuples and arrays where JSON has lists
    np.ndarray: "a list",
}


def _type_name(value: Any) -> str:
    if isinstance(value, bool):
        return "a boolean"
    return _TYPE_NAMES.get(type(value), type(value).__name__)


def key_path(where: str, key: str | int) -> str:
    """Dotted path of ``key`` in the object or list at path ``where`` ("" is the top level)."""
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def get_value(doc: Any, key: str | int, kind: type | tuple[type, ...], where: str = "") -> Any:
    """``doc[key]``, checked to exist and to be of type ``kind``.

    ``doc`` is an object (``key`` a name) or a list (``key`` an index), and
    ``where`` is its dotted key path in the document.  A float ``kind`` also
    admits integers; a JSON boolean is never taken for a number.  Raises
    PipelineError naming the key path otherwise.
    """
    path = key_path(where, key)
    container = list if isinstance(key, int) else dict
    if not isinstance(doc, container):
        raise PipelineError(
            f"{where or 'document'}: expected {_TYPE_NAMES[container]}, got {_type_name(doc)}"
        )
    if container is dict and key not in doc or container is list and key >= len(doc):
        raise PipelineError(f"missing key {path!r}")
    value = doc[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = " or ".join(dict.fromkeys(_TYPE_NAMES[t] for t in kinds))
        raise PipelineError(f"key {path!r}: expected {expected}, got {_type_name(value)}")
    return value


def get_array(
    doc: Any,
    key: str | int,
    shape: tuple[int, ...] | None,
    where: str = "",
    dtype: type = np.float64,
) -> np.ndarray:
    """``doc[key]``, a list of numbers, as an array of ``shape`` (None: the list's own).

    Nested lists are read in row-major order.  A document built in memory
    may hold a tuple or an array instead.  An integer ``dtype`` admits only
    integers; an empty list fits any ``dtype``.  Raises PipelineError naming
    the key path when the value is not such a list or its size does not
    match the shape.
    """
    path = key_path(where, key)
    values = get_value(doc, key, (list, tuple, np.ndarray), where)
    integral = np.dtype(dtype).kind in "iu"
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.size and array.dtype.kind not in ("iu" if integral else "iuf"):
        raise PipelineError(f"key {path!r}: expected a list of {'integers' if integral else 'numbers'}")
    if shape is None:
        shape = array.shape
    elif min(shape, default=0) < 0 or array.size != math.prod(shape):
        raise PipelineError(
            f"key {path!r}: expected {math.prod(shape)} values for shape {list(shape)}, got {array.size}"
        )
    return array.astype(dtype, copy=False).reshape(shape)
