"""Compare library outputs with the oracle.

Every check returns ``None`` when the output is right and a one-line reason
when it is not. Floats are compared with :data:`oracle.FLOAT_ATOL`, never
bit for bit, so a last-ulp change in the library does not read as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from . import oracle

Row = dict[str, object]


def close(actual: float, expected: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= oracle.FLOAT_ATOL


def floats(name: str, actual, expected) -> str | None:
    """Element-wise tolerance check of two equal-length float sequences."""
    actual = [float(a) for a in actual]
    expected = [float(e) for e in expected]
    if len(actual) != len(expected):
        return f"{name}: {len(actual)} values, expected {len(expected)}"
    for i, (a, e) in enumerate(zip(actual, expected)):
        if not close(a, e):
            return f"{name}[{i}] = {a!r}, expected {e!r}"
    return None


def counts(actual: tuple[int, ...], expected: tuple[int, ...], trials: int) -> str | None:
    """Exact equality of simulated counts, and their sum."""
    if sum(actual) != trials:
        return f"counts {actual} sum to {sum(actual)}, expected {trials}"
    if tuple(actual) != tuple(expected):
        return f"counts {tuple(actual)}, reference sampler gives {tuple(expected)}"
    return None


def simulate_result(freqs, got_counts, expected_counts, trials) -> str | None:
    """A ``simulate`` return value: exact counts, frequencies = counts / trials."""
    return counts(got_counts, expected_counts, trials) or floats(
        "frequencies", freqs, [k / trials for k in expected_counts]
    )


def rows(actual: list[Row], expected: list[Row]) -> str | None:
    """Typed comparison of rendered rows; the expected row fixes keys and types."""
    if len(actual) != len(expected):
        return f"{len(actual)} rows, expected {len(expected)}"
    for i, (got, want) in enumerate(zip(actual, expected)):
        if list(got) != list(want):
            return f"row {i} has columns {list(got)}, expected {list(want)}"
        for key, value in want.items():
            g = got[key]
            if isinstance(value, bool) or isinstance(value, str):
                ok = g == value
            elif isinstance(value, int):
                ok = isinstance(g, int) and not isinstance(g, bool) and g == value
            else:
                ok = isinstance(g, (int, float)) and not isinstance(g, bool) and close(float(g), value)
            if not ok:
                return f"row {i} {key} = {g!r}, expected {value!r}"
    return None


def parse_csv(text: str, expected: list[Row]) -> list[Row]:
    """CSV text to typed rows, converting each field to the expected type."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    kinds = expected[0] if expected else {}
    out = []
    for fields in reader:
        row: Row = {}
        for key, field in zip(header, fields):
            want = kinds.get(key)
            if isinstance(want, bool):
                row[key] = {"true": True, "false": False}.get(field, field)
            elif isinstance(want, str):
                row[key] = field
            elif isinstance(want, int):
                row[key] = int(field)
            else:
                row[key] = float(field)
        out.append(row)
    return out


def rendered(text: str, fmt: str, expected: list[Row]) -> str | None:
    """Check CLI output text in either format against expected rows."""
    try:
        if fmt == "json":
            doc = json.loads(text)
            if not isinstance(doc.get("meta"), dict) or "version" not in doc["meta"]:
                return "json output lacks its meta block"
            got = doc["rows"]
        else:
            got = parse_csv(text, expected)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unparseable {fmt} output: {exc}"
    return rows(got, expected)


def _scan_columns(text: str, fmt: str) -> dict[str, list]:
    if fmt == "json":
        doc = json.loads(text)
        if not isinstance(doc.get("meta"), dict):
            raise ValueError("json output lacks its meta block")
        data = doc["rows"]
        header = tuple(data[0]) if data else ()
        if header != oracle.SCAN_HEADER or any(tuple(r) != header for r in data):
            raise ValueError(f"json rows have keys {header}, expected {oracle.SCAN_HEADER}")
        return {key: [r[key] for r in data] for key in header}
    lines = text.split("\n")
    if tuple(lines[0].split(",")) != oracle.SCAN_HEADER:
        raise ValueError(f"csv header {lines[0]!r}, expected {','.join(oracle.SCAN_HEADER)!r}")
    fields = [line.split(",") for line in lines[1:] if line]
    columns = list(zip(*fields)) if fields else [()] * len(oracle.SCAN_HEADER)
    if len(columns) != len(oracle.SCAN_HEADER):
        raise ValueError("csv rows have the wrong number of fields")
    out: dict[str, list] = {}
    for key, column in zip(oracle.SCAN_HEADER, columns):
        if key in ("compatible", "separated", "classical_joint"):
            out[key] = [{"true": True, "false": False}[v] for v in column]
        else:
            out[key] = [float(v) for v in column]
    return out


def scan_output(text: str, fmt: str, epsilons: list[float], thetas: list[float]) -> str | None:
    """A whole scan document against the oracle, column by column."""
    try:
        got = _scan_columns(text, fmt)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return f"unparseable scan {fmt}: {exc}"
    want = oracle.scan_rows(epsilons, thetas)
    n = len(want["epsilon"])
    for key, expected in want.items():
        column = got[key]
        if len(column) != n:
            return f"scan {fmt}: {len(column)} rows, expected {n}"
        if expected.dtype == bool:
            actual = np.array(column, dtype=object)
            bad = np.flatnonzero(actual != expected)
        else:
            actual = np.array(column, dtype=float)
            bad = np.flatnonzero(~(np.abs(actual - expected) <= oracle.FLOAT_ATOL))
        if bad.size:
            i = int(bad[0])
            return f"scan {fmt} row {i} {key} = {column[i]!r}, expected {expected[i]!r}"
    return None
