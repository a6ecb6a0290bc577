"""Versioned JSON file formats for instances, certificates, and reports.

Rationals are written as plain integers when exact and as "p/q" strings
otherwise, so files stay exact.  Emission is canonical (sorted keys,
fixed separators, trailing newline), which makes byte-identical
round-trips testable.  Writes go through a temporary file in the target
directory followed by an atomic rename, so a crash never leaves a
half-written artifact behind.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from fractions import Fraction

from .errors import ParseError
from .model import ColoredConfig, PartitionTuple, ProblemInstance
from .solver import (
    KPlane,
    SweepReport,
    TransversalCertificate,
    TverbergCertificate,
)

FORMAT_VERSION = 1
INSTANCE_FORMAT = "tverlab/instance"
CERTIFICATE_FORMAT = "tverlab/certificate"
SWEEP_FORMAT = "tverlab/sweep-report"

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


# ---------------------------------------------------------------------------
# scalars


def fraction_to_json(x: Fraction):
    """Canonical JSON form: int when exact, else the string "p/q"."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _to_json(value):
    """Nested tuples of rationals as nested lists of `fraction_to_json` values."""
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return fraction_to_json(value)


def parse_rational(value) -> Fraction:
    """Read an int or a "p/q" string; reject floats and zero denominators."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"bad rational literal {value!r}")
        num, _, den = text.partition("/")
        if den:
            if int(den) == 0:
                raise ParseError(f"zero denominator in {value!r}")
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    raise ParseError(f"rationals must be integers or 'p/q' strings, got {value!r}")


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _parse_point(value, what: str):
    _expect(isinstance(value, list) and value, f"{what} must be a nonempty array")
    return tuple(parse_rational(c) for c in value)


def _parse_index_list(value, what: str):
    _expect(isinstance(value, list), f"{what} must be an array")
    for i in value:
        _expect(
            isinstance(i, int) and not isinstance(i, bool) and i >= 0,
            f"{what} must hold nonnegative integer indices",
        )
    return tuple(value)


def _check_header(data, fmt: str, what: str) -> dict:
    _expect(isinstance(data, dict), f"{what} must be a JSON object")
    _expect(data.get("format") == fmt, f"not a {what} (format tag != {fmt!r})")
    _expect(
        data.get("version") == FORMAT_VERSION,
        f"unsupported {what} version {data.get('version')!r}",
    )
    return data


# ---------------------------------------------------------------------------
# instances


def instance_to_json(instance: ProblemInstance) -> dict:
    return {
        "format": INSTANCE_FORMAT,
        "version": FORMAT_VERSION,
        "d": instance.d,
        "k": instance.k,
        "collections": [
            {
                "r": r,
                "points": _to_json(cfg.points),
                "classes": _to_json(cfg.classes),
            }
            for r, cfg in zip(instance.rs, instance.collections)
        ],
    }


def instance_from_json(data) -> ProblemInstance:
    data = _check_header(data, INSTANCE_FORMAT, "instance file")
    d, k = data.get("d"), data.get("k")
    _expect(isinstance(d, int) and not isinstance(d, bool), "d must be an integer")
    _expect(isinstance(k, int) and not isinstance(k, bool), "k must be an integer")
    cols = data.get("collections")
    _expect(isinstance(cols, list) and cols, "collections must be a nonempty array")
    rs = []
    configs = []
    for idx, entry in enumerate(cols):
        _expect(isinstance(entry, dict), f"collection {idx} must be an object")
        r = entry.get("r")
        _expect(
            isinstance(r, int) and not isinstance(r, bool),
            f"collection {idx}: r must be an integer",
        )
        points = entry.get("points")
        _expect(
            isinstance(points, list) and points,
            f"collection {idx}: points must be a nonempty array",
        )
        pts = tuple(
            _parse_point(p, f"collection {idx} point {j}")
            for j, p in enumerate(points)
        )
        classes = entry.get("classes")
        _expect(
            isinstance(classes, list) and classes,
            f"collection {idx}: classes must be a nonempty array",
        )
        cls = tuple(
            _parse_index_list(c, f"collection {idx} class {j}")
            for j, c in enumerate(classes)
        )
        rs.append(r)
        try:
            configs.append(ColoredConfig(dim=d, points=pts, classes=cls))
        except ValueError as exc:
            raise ParseError(f"collection {idx}: {exc}") from exc
    try:
        return ProblemInstance(
            d=d, k=k, rs=tuple(rs), collections=tuple(configs)
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# certificates


def _parse_partition(value, what: str) -> PartitionTuple:
    _expect(isinstance(value, list) and value, f"{what} must be a nonempty array")
    pieces = tuple(
        _parse_index_list(piece, f"{what} piece {j}") for j, piece in enumerate(value)
    )
    return PartitionTuple(pieces=pieces)


def certificate_to_json(cert) -> dict:
    data = {"format": CERTIFICATE_FORMAT, "version": FORMAT_VERSION}
    if isinstance(cert, TverbergCertificate):
        data["kind"] = "tverberg"
        data["point"] = _to_json(cert.point)
        data["partition"] = _to_json(cert.partition.pieces)
        data["weights"] = _to_json(cert.weights)
        return data
    if isinstance(cert, TransversalCertificate):
        data["kind"] = "transversal"
        data["plane"] = {
            "base": _to_json(cert.plane.base),
            "directions": _to_json(cert.plane.directions),
        }
        data["partitions"] = _to_json([p.pieces for p in cert.partitions])
        data["weights"] = _to_json(cert.weights)
        data["witness_points"] = _to_json(cert.witness_points)
        return data
    raise TypeError(f"not a certificate: {cert!r}")


def _parse_weight_rows(value, what: str):
    _expect(isinstance(value, list), f"{what} must be an array")
    rows = []
    for j, row in enumerate(value):
        _expect(isinstance(row, list), f"{what} row {j} must be an array")
        rows.append(tuple(parse_rational(w) for w in row))
    return tuple(rows)


def certificate_from_json(data):
    data = _check_header(data, CERTIFICATE_FORMAT, "certificate file")
    kind = data.get("kind")
    if kind == "tverberg":
        return TverbergCertificate(
            point=_parse_point(data.get("point"), "point"),
            partition=_parse_partition(data.get("partition"), "partition"),
            weights=_parse_weight_rows(data.get("weights"), "weights"),
        )
    if kind == "transversal":
        plane = data.get("plane")
        _expect(isinstance(plane, dict), "plane must be an object")
        base = _parse_point(plane.get("base"), "plane base")
        dirs_raw = plane.get("directions")
        _expect(isinstance(dirs_raw, list), "plane directions must be an array")
        directions = tuple(
            _parse_point(v, f"plane direction {j}") for j, v in enumerate(dirs_raw)
        )
        try:
            kplane = KPlane(base=base, directions=directions)
        except ValueError as exc:
            raise ParseError(f"plane: {exc}") from exc
        parts_raw = data.get("partitions")
        _expect(
            isinstance(parts_raw, list) and parts_raw,
            "partitions must be a nonempty array",
        )
        partitions = tuple(
            _parse_partition(p, f"partitions[{j}]") for j, p in enumerate(parts_raw)
        )
        weights_raw = data.get("weights")
        _expect(isinstance(weights_raw, list), "weights must be an array")
        weights = tuple(
            _parse_weight_rows(col, f"weights[{j}]")
            for j, col in enumerate(weights_raw)
        )
        wp_raw = data.get("witness_points")
        _expect(isinstance(wp_raw, list), "witness_points must be an array")
        witness_points = []
        for j, col in enumerate(wp_raw):
            _expect(isinstance(col, list), f"witness_points[{j}] must be an array")
            witness_points.append(
                tuple(
                    _parse_point(p, f"witness_points[{j}][{i}]")
                    for i, p in enumerate(col)
                )
            )
        return TransversalCertificate(
            plane=kplane,
            partitions=partitions,
            weights=weights,
            witness_points=tuple(witness_points),
        )
    raise ParseError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# sweep reports (emit-only; replay runs the sweep again from its seeds)


def sweep_report_to_json(report: SweepReport, params: dict | None = None) -> dict:
    return {
        "format": SWEEP_FORMAT,
        "version": FORMAT_VERSION,
        "params": dict(params or {}),
        "counts": dict(sorted(report.counts.items())),
        "certified": report.certified,
        "outcomes": [
            {
                "seed": o.seed,
                "status": o.status,
                "label": o.label,
                "hypotheses_ok": o.hypotheses_ok,
                "gap": None if o.gap is None else fraction_to_json(o.gap),
            }
            for o in report.outcomes
        ],
    }


# ---------------------------------------------------------------------------
# bytes and files


def canonical_bytes(data) -> bytes:
    """Deterministic encoding: sorted keys, no spaces, one trailing newline."""
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def write_bytes_atomic(path: str, payload: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0o600
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from exc


def write_json(path: str, data) -> None:
    write_bytes_atomic(path, canonical_bytes(data))


def read_json(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path: str) -> ProblemInstance:
    return instance_from_json(read_json(path))


def save_instance(path: str, instance: ProblemInstance) -> None:
    write_json(path, instance_to_json(instance))


def load_certificate(path: str):
    return certificate_from_json(read_json(path))


def save_certificate(path: str, cert) -> None:
    write_json(path, certificate_to_json(cert))
