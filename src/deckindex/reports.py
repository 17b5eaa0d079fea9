"""Deterministic report serialization and static SVG charts.

Reports are canonical JSON: sorted keys, two-space indent, a trailing
newline, rationals rendered as "p/q" strings.  Identical configuration and
inputs therefore produce byte-identical files.  Charts are hand-written
SVG bar charts with no timestamps or library fingerprints.
"""

from __future__ import annotations

import os
from fractions import Fraction
from json.encoder import encode_basestring as _string  # the C string escaper

_INF = float("inf")


def canonical_json(doc) -> str:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``, written directly.

    The stdlib builds an indented document with its pure-Python generator
    encoder, one ``yield`` per token; this writer appends the text to one
    list, a line per scalar and a row of scalars as one join.  Strings are escaped by the stdlib's C escaper, numbers are
    ``int.__repr__`` and ``float.__repr__`` (NaN and the infinities as
    ``NaN``, ``Infinity`` and ``-Infinity``), dict keys are sorted and
    coerced as the stdlib does, tuples are lists, and any other value
    raises the stdlib's ``TypeError``.  No circular-reference check is made.
    """
    scalar = _SCALARS.get(type(doc))
    if scalar is not None:
        return scalar(doc) + "\n"
    out: list[str] = []
    _write(doc, out, "\n", "")
    out.append("\n")
    return "".join(out)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the text of each scalar type (repr is int.__repr__ on an exact int); a
# subclass, such as numpy's float64 or an IntEnum, is written by _scalar,
# as the stdlib writes it
_SCALARS = {str: _string, int: repr, float: _float,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null"}


def _scalar(value):
    """The JSON text of a string or number of a subclass type (bool and
    None are exact types, read from ``_SCALARS``); None for anything else."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    return None


def _key(key) -> str:
    """A dict key's JSON text: a string, or a number, bool or None as the
    string of its JSON text."""
    if isinstance(key, str):
        return _string(key)
    text = _SCALARS.get(type(key), _scalar)(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return f'"{text}"'


def _write(value, out: list, newline: str, head: str) -> None:
    """Append ``head`` and the JSON text of a value that is not of a
    ``_SCALARS`` type; ``newline`` is a line feed and the indent of the
    value's own level."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append(head + "[]")
            return
        inner = newline + "  "
        comma = "," + inner
        try:  # a row of scalars, such as a chain edge, is one join
            texts = [_SCALARS[type(item)](item) for item in value]
        except KeyError:
            sep = f"{head}[{inner}"
            for item in value:
                scalar = _SCALARS.get(type(item))
                if scalar is None:
                    _write(item, out, inner, sep)
                else:
                    out.append(sep + scalar(item))
                sep = comma
            out.append(newline + "]")
        else:
            out.append(f"{head}[{inner}{comma.join(texts)}{newline}]")
    elif isinstance(value, dict):
        if not value:
            out.append(head + "{}")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = f"{head}{{{inner}"
        for key, item in sorted(value.items()):  # the stdlib's sort
            key = _string(key) if type(key) is str else _key(key)
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                _write(item, out, inner, f"{sep}{key}: ")
            else:
                out.append(f"{sep}{key}: {scalar(item)}")
            sep = comma
        out.append(newline + "}")
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            "is not JSON serializable")
        out.append(head + text)


def write_report(out_dir: str, name: str, doc) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    return path


def fraction_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def bar_chart_svg(title: str, labels, values, width: int = 640,
                  height: int = 360) -> str:
    """Minimal deterministic SVG bar chart; values may be Fractions."""
    values = [float(v) for v in values]
    n = max(1, len(values))
    vmax = max([abs(v) for v in values] + [1e-9])
    margin = 48
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    bar_w = plot_w / n
    zero_y = margin + plot_h * (vmax / (2 * vmax)) if min(values + [0]) < 0 \
        else margin + plot_h
    scale = (plot_h / (2 * vmax)) if min(values + [0]) < 0 else plot_h / vmax
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{_esc(title)}</text>',
        f'<line x1="{margin}" y1="{zero_y:.2f}" x2="{width - margin}" '
        f'y2="{zero_y:.2f}" stroke="black" stroke-width="1"/>',
    ]
    for i, (label, v) in enumerate(zip(labels, values)):
        x = margin + i * bar_w
        h = abs(v) * scale
        y = zero_y - h if v >= 0 else zero_y
        parts.append(
            f'<rect x="{x + bar_w * 0.1:.2f}" y="{y:.2f}" '
            f'width="{bar_w * 0.8:.2f}" height="{h:.2f}" fill="#4477aa"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.2f}" y="{height - margin / 3:.2f}" '
            f'text-anchor="middle" font-family="monospace" font-size="10">'
            f'{_esc(str(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def write_chart(out_dir: str, name: str, title: str, labels, values) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bar_chart_svg(title, labels, values))
    return path
