"""Round-trip and rejection tests for the JSON file formats."""

import hashlib
import os
import stat
import sys
from fractions import Fraction

import pytest

from tverlab import serialize, svg
from tverlab.errors import ParseError
from tverlab.model import (
    ColoredConfig,
    PartitionTuple,
    ProblemInstance,
    default_profile,
    random_instance,
    tightness_instance,
)
from tverlab.solver import (
    KPlane,
    SearchBudget,
    TverbergCertificate,
    solve,
    solve_hyperplane_transversal_exact,
    solve_transversal,
    solve_tverberg,
    sweep,
    verify_transversal,
    verify_tverberg,
)


# ---------------------------------------------------------------------------
# rational scalars


@pytest.mark.parametrize(
    "value,expected",
    [
        (7, Fraction(7)),
        (-3, Fraction(-3)),
        ("5", Fraction(5)),
        ("-5", Fraction(-5)),
        ("2/3", Fraction(2, 3)),
        ("-10/4", Fraction(-5, 2)),
        (" 1/2 ", Fraction(1, 2)),
    ],
)
def test_parse_rational_accepts(value, expected):
    assert serialize.parse_rational(value) == expected


@pytest.mark.parametrize(
    "value",
    ["1/0", "0/0", "1.5", "", "1/2/3", "a/b", "1 / 2", 2.5, True, None, [1]],
)
def test_parse_rational_rejects(value):
    with pytest.raises(ParseError):
        serialize.parse_rational(value)


def test_fraction_canonical_form():
    assert serialize.fraction_to_json(Fraction(4, 2)) == 2
    assert serialize.fraction_to_json(Fraction(-6, 4)) == "-3/2"
    assert serialize.parse_rational(serialize.fraction_to_json(Fraction(22, 7))) == (
        Fraction(22, 7)
    )


# ---------------------------------------------------------------------------
# instances


@pytest.mark.parametrize("seed", range(4))
def test_instance_round_trip(seed):
    inst = random_instance(2, 1, (2, 2), seed=seed, jitter_q=7)
    data = serialize.instance_to_json(inst)
    assert serialize.instance_from_json(data) == inst


def test_instance_round_trip_tightness():
    inst = tightness_instance(2, 1, (2, 2), 0)
    assert serialize.instance_from_json(serialize.instance_to_json(inst)) == inst


def test_instance_bytes_canonical_and_stable(tmp_path):
    inst = random_instance(2, 0, (3,), seed=1)
    path = tmp_path / "inst.json"
    serialize.save_instance(str(path), inst)
    first = path.read_bytes()
    serialize.save_instance(str(path), serialize.load_instance(str(path)))
    assert path.read_bytes() == first


def test_instance_file_round_trip(tmp_path):
    inst = random_instance(3, 1, (2, 2), seed=5)
    path = tmp_path / "inst.json"
    serialize.save_instance(str(path), inst)
    assert serialize.load_instance(str(path)) == inst


LINE = ((2, 1, (2, 2), [(1, 1, 1)] * 2), {"seed": 0})


@pytest.mark.parametrize(
    "search, args, kwargs, cert_sha, svg_shas",
    [
        (
            solve, (2, 0, (3,)), {"seed": 0},
            "2a71399bfa68deb944af207535b5a74057f8c8052d9da2fad8feb91593fba9bd",
            ("f2013f1ff826ef141720dc7b6a5afb51df161db8d4e5c2962baea249a4520bd4",
             "2e4badfe08a07db1ecbef0ea948cbc949117f2fe1e78dcd4574ce685ce62ce27"),
        ),
        (
            solve, (3, 0, (3,)), {"seed": 0},
            "9dde6ecdc33507c461544f8445a16b77e957cc260bfe1df5978800aa6e26b99f", None,
        ),
        (
            solve, *LINE,
            "8747c0a8ab97c75fd9e42e327fbb53df501743b28bc6532de20dcc0271f0540a",
            ("a45b74d280e3a7313c6d0ad973f648a8c54f461bfe15c84d7c4f4bf7f3819480",
             "dbedefbbdea38481d09204ba47e40c8338b8828c0d831d1f1d3e13a03a05a764"),
        ),
        (
            solve, (3, 1, (2, 2)), {"seed": 0},
            "7e13ebe929c705f705e95822cc8004637764c2c83c05cdeb3529a8b2de900b0d", None,
        ),
        (
            solve, (2, 2, (2, 2, 2)), {"seed": 1},
            "b8b07fcfefd0fc6483893bc2372690ae035e285c80072b100cf5d0c23c652e26",
            ("73af4f1cc42f6a6facffcffb6f7cd135fefa12317b3b249dec42faf136a5344b",
             "06fda679c80d8bc313146e54035d112e87e74bd98fca44a8f14e47ec92a817fd"),
        ),
        (
            solve_transversal, *LINE,
            "8747c0a8ab97c75fd9e42e327fbb53df501743b28bc6532de20dcc0271f0540a",
            ("a45b74d280e3a7313c6d0ad973f648a8c54f461bfe15c84d7c4f4bf7f3819480",
             "dbedefbbdea38481d09204ba47e40c8338b8828c0d831d1f1d3e13a03a05a764"),
        ),
    ],
    ids=["d2-r3", "d3-r3", "line-scan", "d3-k1", "d2-k2", "line-directions"],
)
def test_certificate_and_figure_bytes_are_pinned(search, args, kwargs, cert_sha, svg_shas):
    # certificates stay byte-identical across refactors unless a change is
    # logged; so do the figures drawn with and without them
    inst = random_instance(*args, **kwargs)
    cert = search(inst).certificate
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert sha(serialize.canonical_bytes(serialize.certificate_to_json(cert))) == cert_sha
    if svg_shas is not None:
        figures = (svg.render_svg(inst, cert), svg.render_svg(inst))
        assert tuple(sha(f.encode()) for f in figures) == svg_shas


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("format"),
        lambda d: d.update(format="something-else"),
        lambda d: d.update(version=99),
        lambda d: d.update(d="two"),
        lambda d: d.update(collections=[]),
        lambda d: d["collections"][0].update(r=True),
        lambda d: d["collections"][0]["points"][0].append("1/0"),
        lambda d: d["collections"][0]["points"].pop(),
        lambda d: d["collections"][0]["classes"][0].append(99),
        lambda d: d["collections"][0]["classes"][0].clear(),
        lambda d: d["collections"][0].update(classes=[[0]]),
    ],
)
def test_instance_malformed_rejected(mutate):
    inst = random_instance(2, 0, (3,), seed=0)
    data = serialize.instance_to_json(inst)
    mutate(data)
    with pytest.raises(ParseError):
        serialize.instance_from_json(data)


def test_instance_structural_violation_is_parse_error():
    inst = random_instance(2, 1, (2, 2), seed=0)
    data = serialize.instance_to_json(inst)
    data["k"] = 0  # now the collection count disagrees with k
    with pytest.raises(ParseError):
        serialize.instance_from_json(data)


def test_read_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ParseError):
        serialize.read_json(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        serialize.read_json(str(bad))


def too_long_integer() -> str:
    """A digit string one longer than `int()` converts from text."""
    return "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("value", ["{digits}", "1/{digits}", "-{digits}/3"])
def test_parse_rational_too_long_is_parse_error(value):
    with pytest.raises(ParseError, match="too long"):
        serialize.parse_rational(value.format(digits=too_long_integer()))


@pytest.mark.parametrize(
    "payload",
    [
        lambda: f'{{"d": {too_long_integer()}}}'.encode(),
        lambda: b"[" * 100_000 + b"]" * 100_000,
        lambda: b"\xff",
    ],
    ids=["too-long-integer", "deep-nesting", "bad-utf8"],
)
def test_read_json_unreadable_is_parse_error(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload())
    with pytest.raises(ParseError, match="invalid JSON"):
        serialize.read_json(str(path))


# ---------------------------------------------------------------------------
# certificates


def _tverberg_cert():
    inst = random_instance(2, 0, (3,), seed=2)
    report = solve_tverberg(inst.collections[0], 3)
    assert report.certified
    return inst, report.certificate


def _transversal_cert():
    inst = random_instance(2, 1, (2, 2), [(1, 1, 1), (1, 1, 1)], seed=2)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.certified
    return inst, report.certificate


def test_tverberg_certificate_round_trip():
    _, cert = _tverberg_cert()
    data = serialize.certificate_to_json(cert)
    assert data["kind"] == "tverberg"
    assert serialize.certificate_from_json(data) == cert


def test_transversal_certificate_round_trip(tmp_path):
    _, cert = _transversal_cert()
    path = tmp_path / "cert.json"
    serialize.save_certificate(str(path), cert)
    assert serialize.load_certificate(str(path)) == cert


def test_certificate_bytes_stable(tmp_path):
    _, cert = _transversal_cert()
    path = tmp_path / "cert.json"
    serialize.save_certificate(str(path), cert)
    first = path.read_bytes()
    serialize.save_certificate(str(path), serialize.load_certificate(str(path)))
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(kind="unknown"),
        lambda d: d.pop("kind"),
        lambda d: d.update(point=[]),
        lambda d: d.update(partition="nope"),
        lambda d: d["weights"][0].append(0.5),
    ],
)
def test_tverberg_certificate_malformed_rejected(mutate):
    _, cert = _tverberg_cert()
    data = serialize.certificate_to_json(cert)
    mutate(data)
    with pytest.raises(ParseError):
        serialize.certificate_from_json(data)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(plane=[0, 0]),
        lambda d: d["plane"].update(base=[]),
        lambda d: d["plane"]["directions"].__setitem__(0, 1),
        lambda d: d.update(partitions=[]),
        lambda d: d["partitions"].__setitem__(0, []),
        lambda d: d.update(weights=d["weights"][0]),
        lambda d: d["witness_points"][0].__setitem__(0, []),
        lambda d: d["weights"][0][0].__setitem__(0, 0.5),
        lambda d: d["partitions"][0][0].__setitem__(0, True),
        lambda d: d["partitions"][0][0].__setitem__(0, -1),
    ],
    ids=[
        "plane-not-object", "empty-base", "scalar-direction", "empty-partitions",
        "empty-partition", "weights-one-level-short", "empty-witness-point",
        "float-weight", "true-index", "negative-index",
    ],
)
def test_transversal_certificate_malformed_rejected(mutate):
    _, cert = _transversal_cert()
    data = serialize.certificate_to_json(cert)
    mutate(data)
    with pytest.raises(ParseError):
        serialize.certificate_from_json(data)


@pytest.mark.parametrize(
    "field, path, value, where",
    [
        ("instance", ("collections", 0, "points", 2, 1), "1/0", "collections[0]: points[2][1]:"),
        ("instance", ("collections", 0, "classes", 1, 0), -1, "collections[0]: classes[1][0]:"),
        ("instance", ("k",), True, "k:"),
        ("certificate", ("witness_points", 1, 0), [], "witness_points[1][0]:"),
        ("certificate", ("plane", "directions", 0, 1), 0.5, "plane: directions[0][1]:"),
        ("certificate", ("partitions", 1, 0, 0), "0", "partitions[1][0][0]:"),
    ],
    ids=["coordinate", "class-index", "k", "witness-point", "direction", "piece-index"],
)
def test_parse_error_names_the_element_at_fault(field, path, value, where):
    if field == "instance":
        data = serialize.instance_to_json(random_instance(2, 1, (2, 2), seed=0))
        read = serialize.instance_from_json
    else:
        data = serialize.certificate_to_json(_transversal_cert()[1])
        read = serialize.certificate_from_json
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ParseError) as info:
        read(data)
    assert str(info.value).startswith(where)


def test_transversal_certificate_dependent_plane_rejected():
    _, cert = _transversal_cert()
    data = serialize.certificate_to_json(cert)
    first = data["plane"]["directions"][0]
    data["plane"]["directions"] = [first, list(first)]
    with pytest.raises(ParseError):
        serialize.certificate_from_json(data)


def test_certificate_unknown_object_rejected():
    with pytest.raises(TypeError):
        serialize.certificate_to_json({"kind": "tverberg"})


def test_hand_built_certificate_serializes():
    cert = TverbergCertificate(
        point=(Fraction(1, 2),),
        partition=PartitionTuple(pieces=((0, 1), (2,))),
        weights=((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),)),
    )
    assert serialize.certificate_from_json(serialize.certificate_to_json(cert)) == cert


def test_tverberg_certificate_keeps_file_piece_order():
    # piece 0 lists points 2, 0, 1 (at 4, 0, 2) with weights in that order;
    # sorting the points but not the weights would move the witness off 1
    cfg = ColoredConfig(1, [(0,), (2,), (4,), (1,)], [(0,), (1,), (2,), (3,)])
    data = {
        "format": serialize.CERTIFICATE_FORMAT,
        "version": serialize.FORMAT_VERSION,
        "kind": "tverberg",
        "point": [1],
        "partition": [[2, 0, 1], [3]],
        "weights": [["1/8", "5/8", "1/4"], [1]],
    }
    cert = serialize.certificate_from_json(data)
    assert verify_tverberg(cfg, 2, cert)
    assert cert.partition.pieces == ((2, 0, 1), (3,))
    assert serialize.certificate_to_json(cert) == data


def test_transversal_certificate_keeps_file_piece_order():
    # collection 0's piece (1, 0) meets the x-axis at (0, 0) only with
    # its weights read in that order
    inst = ProblemInstance(2, 1, (2, 2), (
        ColoredConfig(2, [(0, -1), (0, 3), (5, 0)], [(0,), (1,), (2,)]),
        ColoredConfig(2, [(1, -2), (1, 2), (7, 0)], [(0,), (1,), (2,)]),
    ))
    data = {
        "format": serialize.CERTIFICATE_FORMAT,
        "version": serialize.FORMAT_VERSION,
        "kind": "transversal",
        "plane": {"base": [0, 0], "directions": [[1, 0]]},
        "partitions": [[[1, 0], [2]], [[0, 1], [2]]],
        "weights": [[["1/4", "3/4"], [1]], [["1/2", "1/2"], [1]]],
        "witness_points": [[[0, 0], [5, 0]], [[1, 0], [7, 0]]],
    }
    cert = serialize.certificate_from_json(data)
    assert verify_transversal(inst, cert)
    assert cert.partitions[0].pieces == ((1, 0), (2,))
    assert serialize.certificate_to_json(cert) == data


# ---------------------------------------------------------------------------
# sweep reports and atomic writes


def test_sweep_report_emits(tmp_path):
    report = sweep(2, 0, (3,), [default_profile(2, 0, 3)], trials=2, seed=11)
    data = serialize.sweep_report_to_json(report, {"trials": 2, "seed": 11})
    assert data["format"] == serialize.SWEEP_FORMAT
    assert data["certified"] == report.certified
    assert [o["seed"] for o in data["outcomes"]] == [11, 12]
    path = tmp_path / "report.json"
    serialize.write_json(str(path), data)
    assert serialize.read_json(str(path)) == data


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.json"
    serialize.write_json(str(path), {"a": 1})
    serialize.write_json(str(path), {"a": 2})
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert serialize.read_json(str(path)) == {"a": 2}


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_gives_the_umask_mode(tmp_path, umask, mode):
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        serialize.write_json(str(path), {"a": 1})
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode


def test_canonical_bytes_sorted_and_compact():
    payload = serialize.canonical_bytes({"b": 1, "a": [1, 2]})
    assert payload == b'{"a":[1,2],"b":1}\n'


HUGE = 10**5000  # repr and str refuse ints past 4,300 digits


@pytest.mark.parametrize(
    "read, field, value",
    [
        (serialize.instance_from_json, "d", [HUGE]),
        (serialize.instance_from_json, "version", HUGE),
        (serialize.instance_from_json, "points", [[[HUGE]]]),
        (serialize.instance_from_json, "classes", [[[HUGE]]]),
        (serialize.instance_from_json, "classes", [[-HUGE]]),
        (serialize.certificate_from_json, "kind", [HUGE]),
        (serialize.certificate_from_json, "point", [[HUGE]]),
    ],
    ids=["d", "version", "points", "classes", "negative-index", "kind", "point"],
)
def test_a_huge_int_in_a_bad_field_is_a_parse_error(read, field, value):
    # the message describes the value without its repr, which would raise
    if read is serialize.instance_from_json:
        data = serialize.instance_to_json(tightness_instance(2, 0, (3,), 0))
        node = data["collections"][0] if field in ("points", "classes") else data
    else:
        data = serialize.certificate_to_json(_tverberg_cert()[1])
        node = data
    node[field] = value
    with pytest.raises(ParseError) as info:
        read(data)
    assert "array" in str(info.value) or "bits" in str(info.value)


def test_a_number_too_long_to_write_is_a_parse_error(tmp_path):
    # the reader refuses an int past 4,300 digits, and the writer refuses
    # to write one, as an int or inside "p/q", leaving no file behind
    for coord in (HUGE, Fraction(HUGE + 1, 3)):
        cfg = ColoredConfig(dim=1, points=[(coord,), (0,), (1,)], classes=[(0,), (1,), (2,)])
        inst = ProblemInstance(d=1, k=0, rs=(2,), collections=(cfg,))
        path = tmp_path / "inst.json"
        with pytest.raises(ParseError, match="number too long to write"):
            serialize.save_instance(str(path), inst)
        assert not list(tmp_path.iterdir())
    with pytest.raises(ParseError, match="number too long to write"):
        serialize.canonical_bytes({"gap": -HUGE})
