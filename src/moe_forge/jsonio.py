"""JSON serialization with lossless, deterministic float formatting.

Checkpoints must round-trip float64 values exactly and be byte-identical
across runs, so floats are always written with 17 significant digits
instead of whatever repr() happens to choose.  Float arrays are formatted
in bulk, one row per ``%`` call, with the same 17-digit text a float gets
on its own.  Files are written to a temporary name and then renamed over
the target, so an interrupted write leaves the previous file whole.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any

import numpy as np

from .errors import PipelineError


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


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
        # One C-level format call; "%.17g" gives the same digits as format_float.
        field = pad + "%.17g"
        text = (field + (sep + field) * (len(obj) - 1)) % tuple(obj.tolist())
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


def save_json(path: str | Path, obj: Any, indent: int | None = None) -> None:
    """Write ``dumps(obj)`` to path atomically: a temporary sibling, then a rename.

    A process interrupted mid-write leaves the previous file intact.  The
    data is not fsynced, so this does not guard against power loss.
    """
    path = Path(path)
    text = dumps(obj, indent=indent) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_format_version(doc: dict, expected: int, context: str) -> None:
    version = doc.get("format_version")
    if version != expected:
        raise PipelineError(
            f"{context}: unsupported format_version {version!r} (expected {expected})"
        )
