"""Versioned JSON file formats for instances, certificates, and reports.

Rationals are written as plain integers when exact and as "p/q" strings
otherwise, so files stay exact.  Emission is canonical (sorted keys,
fixed separators, trailing newline), which makes byte-identical
round-trips testable.  Writes go through a temporary file in the target
directory followed by an atomic rename, so a crash never leaves a
half-written artifact behind.

Every array field is written by `_to_json` and read back by `_from_json`,
its inverse: arrays nested `depth` deep become tuples, and each leaf is a
rational, or a point index in `classes`, `partition` and `partitions`.
An instance collection holds `points` and `classes`, both at depth 2.
The certificate fields and their depths:

- kind `tverberg`: `point` 1; `partition` 2, pieces of indices;
  `weights` 2, one row per piece;
- kind `transversal`: `plane.base` 1; `plane.directions` 2;
  `partitions` 3, one partition per collection; `weights` 3 and
  `witness_points` 3, per collection and per piece.
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
    """Canonical JSON form: int when exact, else the string "p/q" of `rational_text`."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return rational_text(x)


def rational_text(x) -> str:
    """A rational as text: "p", or "p/q" in lowest terms with q > 1.

    Raises ParseError when a part has more digits than Python converts
    to text, as `canonical_bytes` does for such an int.
    """
    try:
        return str(Fraction(x))
    except ValueError as exc:
        raise _unwritable(exc) from None


def _unwritable(exc: ValueError) -> ParseError:
    """The error for a number too long to write: the reader refuses it too."""
    return ParseError(f"number too long to write ({exc})")


def _shown(value) -> str:
    """A JSON value for an error message, with no repr of an array, object or huge int.

    repr of an int over 4,300 digits raises ValueError, and so does repr
    of an array that holds one.
    """
    if isinstance(value, list):
        return "an array"
    if isinstance(value, dict):
        return "an object"
    try:
        return repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _to_json(value):
    """Nested tuples of rationals as nested lists of `fraction_to_json` values."""
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return fraction_to_json(value)


def parse_rational(value) -> Fraction:
    """Read an int or a "p/q" string; reject floats and zero denominators."""
    if isinstance(value, bool):
        raise ParseError(f"expected a rational, got {_shown(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"bad rational literal {_shown(value)}")
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"rational literal too long ({len(text)} characters)") from None
        if den == 0:
            raise ParseError(f"zero denominator in {_shown(value)}")
        return Fraction(num, den)
    raise ParseError(f"rationals must be integers or 'p/q' strings, got {_shown(value)}")


def _index(value) -> int:
    """Read a point index or a count: a nonnegative integer."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise ParseError(f"expected a nonnegative integer, got {_shown(value)}")


def _from_json(value, depth: int, what: str, read=parse_rational, nonempty=()):
    """The inverse of `_to_json`: arrays nested `depth` deep as tuples of `read` leaves.

    Depth 0 reads one leaf.  The levels listed in `nonempty` (0 is the
    outermost) must hold at least one element.  An error names the element at fault, as in
    `witness_points[1][0]`; that name is built only when raising.
    """

    def nested(value, level):
        if level == depth:
            return read(value)
        if not isinstance(value, list) or (level in nonempty and not value):
            raise ParseError(f"must be a {'nonempty ' * (level in nonempty)}array")
        items = []
        try:
            for item in value:
                items.append(nested(item, level + 1))
        except ParseError:
            path.append(len(items))
            raise
        return tuple(items)

    path = []
    try:
        return nested(value, 0)
    except ParseError as exc:
        where = what + "".join(f"[{i}]" for i in reversed(path))
        raise ParseError(f"{where}: {exc}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _build(cls, **fields):
    """`cls(**fields)`, with the ValueError of a failed invariant as a ParseError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _check_header(data, fmt: str, what: str) -> dict:
    _expect(isinstance(data, dict), f"{what} must be a JSON object")
    _expect(data.get("format") == fmt, f"not a {what} (format tag != {fmt!r})")
    _expect(
        data.get("version") == FORMAT_VERSION,
        f"unsupported {what} version {_shown(data.get('version'))}",
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
    d = _from_json(data.get("d"), 0, "d", _index)
    k = _from_json(data.get("k"), 0, "k", _index)

    def collection(entry):
        _expect(isinstance(entry, dict), "must be an object")
        r = _from_json(entry.get("r"), 0, "r", _index)
        points = _from_json(entry.get("points"), 2, "points", nonempty=(0, 1))
        classes = _from_json(entry.get("classes"), 2, "classes", _index, (0,))
        return r, _build(ColoredConfig, dim=d, points=points, classes=classes)

    rs, configs = zip(*_from_json(data.get("collections"), 1, "collections", collection, (0,)))
    return _build(ProblemInstance, d=d, k=k, rs=rs, collections=configs)


# ---------------------------------------------------------------------------
# certificates


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


def _plane(value) -> KPlane:
    _expect(isinstance(value, dict), "must be an object")
    return _build(
        KPlane,
        base=_from_json(value.get("base"), 1, "base", nonempty=(0,)),
        directions=_from_json(value.get("directions"), 2, "directions", nonempty=(1,)),
    )


def certificate_from_json(data):
    data = _check_header(data, CERTIFICATE_FORMAT, "certificate file")
    kind = data.get("kind")
    if kind == "tverberg":
        point = _from_json(data.get("point"), 1, "point", nonempty=(0,))
        pieces = _from_json(data.get("partition"), 2, "partition", _index, (0,))
        weights = _from_json(data.get("weights"), 2, "weights")
        return TverbergCertificate(point, PartitionTuple(pieces), weights)
    if kind == "transversal":
        plane = _from_json(data.get("plane"), 0, "plane", _plane)
        partitions = _from_json(data.get("partitions"), 3, "partitions", _index, (0, 1))
        weights = _from_json(data.get("weights"), 3, "weights")
        witnesses = _from_json(data.get("witness_points"), 3, "witness_points", nonempty=(2,))
        return TransversalCertificate(
            plane, tuple(PartitionTuple(p) for p in partitions), weights, witnesses
        )
    raise ParseError(f"unknown certificate kind {_shown(kind)}")


# ---------------------------------------------------------------------------
# sweep reports (emit-only; replay runs the sweep again from its seeds)


def sweep_report_to_json(report: SweepReport, params: dict) -> dict:
    return {
        "format": SWEEP_FORMAT,
        "version": FORMAT_VERSION,
        "params": dict(params),
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
    """Deterministic encoding: sorted keys, no spaces, one trailing newline.

    An int with more digits than Python converts to text (4,300 by
    default), which `read_json` would refuse, raises ParseError.
    """
    try:
        text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:
        raise _unwritable(exc) from None
    return (text + "\n").encode("utf-8")


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
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad syntax and integers with more
        # digits than int() converts; RecursionError, arrays nested too deep
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_instance(path: str) -> ProblemInstance:
    return instance_from_json(read_json(path))


def save_instance(path: str, instance: ProblemInstance) -> None:
    write_json(path, instance_to_json(instance))


def load_certificate(path: str):
    return certificate_from_json(read_json(path))


def save_certificate(path: str, cert) -> None:
    write_json(path, certificate_to_json(cert))
