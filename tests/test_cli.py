"""End-to-end CLI tests: every exit code path, determinism, re-verification."""

import json
import sys

import pytest

from tverlab import cli, kernels, serialize, solver, topology
from tverlab.errors import CapExceeded
from tverlab.model import (
    ColoredConfig,
    ProblemInstance,
    random_instance,
    tightness_instance,
)
from tverlab.solver import solve, solve_tverberg, verify_transversal, verify_tverberg


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def radon_square(tmp_path):
    """Four points whose diagonals cross at (1/2, 1/2)."""
    cfg = ColoredConfig(
        dim=2,
        points=[(0, 0), (1, 1), (1, 0), (0, 1)],
        classes=[(0,), (1,), (2,), (3,)],
    )
    inst = ProblemInstance(d=2, k=0, rs=(2,), collections=(cfg,))
    path = tmp_path / "square.json"
    serialize.save_instance(str(path), inst)
    return str(path)


@pytest.fixture
def singleton_line_instance(tmp_path):
    inst = random_instance(2, 1, (2, 2), [(1, 1, 1), (1, 1, 1)], seed=2)
    path = tmp_path / "line.json"
    serialize.save_instance(str(path), inst)
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_passing_instance(capsys, tmp_path):
    path = tmp_path / "ok.json"
    serialize.save_instance(str(path), random_instance(2, 0, (3,), seed=1))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "hypotheses: all satisfied" in out


def test_validate_parity_violation(capsys, tmp_path):
    # r(d-k) = 3 is odd with k > 0
    path = tmp_path / "parity.json"
    serialize.save_instance(str(path), random_instance(2, 1, (3, 3), seed=1))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "parity: FAIL" in out


def test_validate_malformed_rational(capsys, tmp_path):
    path = tmp_path / "bad.json"
    data = serialize.instance_to_json(random_instance(1, 0, (2,), seed=0))
    data["collections"][0]["points"][0][0] = "1/0"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "zero denominator" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 3
    assert "cannot read" in err


def _long_coordinate() -> bytes:
    data = serialize.instance_to_json(random_instance(1, 0, (2,), seed=0))
    data["collections"][0]["points"][0][0] = "7" * (sys.get_int_max_str_digits() + 1)
    return json.dumps(data).encode()


def _broken_invariant(mutate):
    """An instance file that parses, but whose fields break a model invariant."""

    def payload() -> bytes:
        data = serialize.instance_to_json(random_instance(2, 1, (2, 2), seed=0))
        mutate(data)
        return json.dumps(data).encode()

    return payload


@pytest.mark.parametrize(
    "payload, named",
    [
        (lambda: b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        (lambda: b'{"d": ' + b"7" * (sys.get_int_max_str_digits() + 1) + b"}", "invalid JSON"),
        (_long_coordinate, "rational literal too long"),
        (_broken_invariant(lambda data: data.update(k=3)), "need 0 <= k <= d"),
        (
            _broken_invariant(lambda data: data["collections"][0].update(r=1)),
            "piece counts must be at least 2",
        ),
        (_broken_invariant(lambda data: data.update(d=0)), "dimension must be positive"),
    ],
    ids=[
        "deep-nesting",
        "too-long-integer",
        "too-long-rational-string",
        "k-above-d",
        "one-piece",
        "zero-dimension",
    ],
)
def test_validate_unreadable_file_exits_3(capsys, tmp_path, payload, named):
    path = tmp_path / "bad.json"
    path.write_bytes(payload())
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


# ---------------------------------------------------------------------------
# partition


def test_partition_radon_square(capsys, radon_square, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "partition", radon_square, "--out", str(cert_path), "--verify"
    )
    assert code == 0
    assert "certified: common point (1/2, 1/2)" in out
    assert "subproblems solved: 3 full, 0 piece-pair" in out
    assert "verified: ok" in out
    cert = serialize.load_certificate(str(cert_path))
    inst = serialize.load_instance(radon_square)
    assert verify_tverberg(inst.collections[0], 2, cert)
    from fractions import Fraction

    half = Fraction(1, 2)
    assert all(w == (half, half) for w in cert.weights)


def test_partition_round_trip_with_interleaved_classes(capsys, tmp_path):
    # pieces list their points class by class, so (3, 1, 2) stays out of
    # index order in the file, lined up with its weights
    points = random_instance(2, 0, (3,), seed=0).collections[0].points
    cfg = ColoredConfig(dim=2, points=points, classes=[(0, 3), (1, 4), (2,), (5,), (6,)])
    inst = ProblemInstance(d=2, k=0, rs=(3,), collections=(cfg,))
    path = tmp_path / "interleaved.json"
    serialize.save_instance(str(path), inst)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "partition", str(path), "--out", str(cert_path), "--verify")
    assert code == 0
    assert "verified: ok" in out
    expected = solve(inst).certificate
    assert expected.partition.pieces == ((0, 5), (3, 1, 2), (4, 6))
    assert serialize.load_certificate(str(cert_path)).partition.pieces == expected.partition.pieces


def test_partition_tightness_file_is_infeasible(capsys, tmp_path):
    path = tmp_path / "tight.json"
    serialize.save_instance(str(path), tightness_instance(2, 0, (3,), 0))
    code, out, _ = run(capsys, "partition", str(path))
    assert code == 1
    assert (
        "infeasible: 486 partition tuples exhausted "
        "(best gap 1/3; subproblems solved: 8 full, 5 piece-pair)"
    ) in out


def test_pivot_cap_exits_with_the_cap_code(capsys, monkeypatch, radon_square):
    monkeypatch.setattr(kernels, "PIVOT_CAP", 0)
    with pytest.raises(CapExceeded, match="pivot cap"):
        kernels.phase1(1, 1, [[1]], [1])
    code, _, err = run(capsys, "partition", radon_square)
    assert code == 4
    assert "pivot cap 0 exceeded" in err


def test_partition_more_pieces_than_points(capsys, tmp_path):
    # the least prime above the bound where linalg.is_prime's bases are proof
    cfg = ColoredConfig(dim=2, points=[(0, 0), (1, 1)], classes=[(0,), (1,)])
    inst = ProblemInstance(d=2, k=0, rs=(3317044064679887385962123,), collections=(cfg,))
    path = tmp_path / "many.json"
    serialize.save_instance(str(path), inst)
    code, out, _ = run(capsys, "partition", str(path))
    assert code == 1
    assert "infeasible: no colorful partition shape exists" in out
    # validate cannot prove that r prime, which is a cap
    code, _, err = run(capsys, "validate", str(path))
    assert code == 4
    assert "cannot prove" in err


def test_partition_rejects_positive_k(capsys, singleton_line_instance):
    code, _, err = run(capsys, "partition", singleton_line_instance)
    assert code == 2
    assert "k = 0" in err


# ---------------------------------------------------------------------------
# transversal


def test_transversal_sampled_with_certificate(
    capsys, singleton_line_instance, tmp_path
):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "transversal",
        singleton_line_instance,
        "--out",
        str(cert_path),
        "--verify",
    )
    assert code == 0
    assert "certified: plane base" in out
    assert "verified: ok" in out
    inst = serialize.load_instance(singleton_line_instance)
    assert verify_transversal(inst, serialize.load_certificate(str(cert_path)))


def test_transversal_exact_hyperplane(capsys, singleton_line_instance):
    # k = d-1 runs the complete scan
    code, out, _ = run(capsys, "transversal", singleton_line_instance)
    assert code == 0
    assert "certified" in out
    assert "candidate planes checked" in out


def test_transversal_whole_space_when_k_equals_d(capsys, tmp_path):
    path = tmp_path / "kd.json"
    serialize.save_instance(str(path), random_instance(2, 2, (2, 2, 2), seed=3))
    code, out, _ = run(capsys, "transversal", str(path))
    assert code == 0
    assert "certified" in out


def test_transversal_budget_exhausted(capsys, tmp_path):
    path = tmp_path / "tight.json"
    serialize.save_instance(str(path), tightness_instance(3, 1, (2, 2), 0))
    code, out, _ = run(capsys, "transversal", str(path))
    assert code == 1
    assert "budget exhausted" in out
    assert "528 candidate directions" in out


def test_transversal_exact_refutes_tightness(capsys, tmp_path):
    path = tmp_path / "tight.json"
    serialize.save_instance(str(path), tightness_instance(2, 1, (2, 2), 0))
    code, out, _ = run(capsys, "transversal", str(path))
    assert code == 1
    assert "infeasible" in out


def test_transversal_refutes_three_piece_tightness(capsys, tmp_path):
    path = tmp_path / "tight33.json"
    serialize.save_instance(str(path), tightness_instance(2, 1, (3, 3), 0))
    code, out, _ = run(capsys, "transversal", str(path))
    assert code == 1
    assert out == (
        "infeasible: search space exhausted "
        "(candidate planes checked: 11, best gap 419/453)\n"
    )


def test_transversal_flag_conflicts(singleton_line_instance, tmp_path):
    # the plane check cap is the module constant solver.CHOICE_CAP: no flag sets it, at any k
    path = tmp_path / "d3k1.json"
    serialize.save_instance(str(path), random_instance(3, 1, (2, 2), seed=0))
    for instance in (str(path), singleton_line_instance):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transversal", instance, "--cap", "10"])
        assert exc.value.code == 2


def test_transversal_cap_exceeded(capsys, monkeypatch, singleton_line_instance):
    # C(6, 2) candidate planes times 3 representatives in each of 2 collections
    monkeypatch.setattr(solver, "CHOICE_CAP", 10)
    code, out, err = run(capsys, "transversal", singleton_line_instance)
    assert code == 4
    assert out == ""
    assert err == "error: hyperplane search needs 90 plane checks, cap is 10\n"


@pytest.mark.parametrize("d", [2, 3], ids=["hyperplane-scan", "direction-scan"])
def test_transversal_without_a_colorful_partition(capsys, tmp_path, d):
    # three points of one class cannot lie in distinct pieces of a 2-partition
    first = random_instance(d, 1, (2, 2), seed=0).collections[0]
    one_class = ColoredConfig(dim=d, points=first.points[:3], classes=[(0, 1, 2)])
    path = tmp_path / "one_class.json"
    serialize.save_instance(
        str(path), ProblemInstance(d=d, k=1, rs=(2, 2), collections=(first, one_class))
    )
    code, out, _ = run(capsys, "transversal", str(path))
    assert code == 1
    assert out == "infeasible: no colorful partition shape exists\n"


def test_transversal_rejects_k_zero(capsys, radon_square):
    code, _, err = run(capsys, "transversal", radon_square)
    assert code == 2
    assert "k >= 1" in err


# ---------------------------------------------------------------------------
# topology


def test_topology_fvector(capsys):
    code, out, _ = run(capsys, "topology", "fvector", "--r", "3", "--n", "2")
    assert code == 0
    assert "f-vector: (6, 6)" in out


def test_topology_homology(capsys):
    code, out, _ = run(
        capsys, "topology", "homology", "--r", "4", "--n", "3", "--p", "2"
    )
    assert code == 0
    assert "betti numbers (mod 2): (1, 2, 1)" in out


def test_topology_homology_accepts_a_large_prime_modulus(capsys):
    # 2^61 - 1: a primality test by trial division would not finish
    code, out, _ = run(
        capsys, "topology", "homology", "--r", "3", "--n", "2", "--p", "2305843009213693951"
    )
    assert code == 0
    assert "betti numbers (mod 2305843009213693951): (1, 1)" in out


def test_topology_homology_unprovable_prime_modulus_is_a_cap(capsys):
    # passes every base of linalg.is_prime, above the bound where they are proof
    code, _, err = run(
        capsys, "topology", "homology", "--r", "3", "--n", "2", "--p", "3317044064679887385962123"
    )
    assert code == 4
    assert "cannot prove" in err


def test_topology_homology_rejects_composite_modulus(capsys):
    code, _, err = run(
        capsys, "topology", "homology", "--r", "3", "--n", "2", "--p", "4"
    )
    assert code == 2


def test_topology_pseudo_and_orient(capsys):
    code, out, _ = run(capsys, "topology", "pseudo", "--r", "3", "--n", "2")
    assert code == 0
    assert "pseudo-manifold: yes" in out
    code, out, _ = run(capsys, "topology", "orient", "--r", "3", "--n", "2")
    assert code == 0
    assert "orientable: yes" in out


def test_topology_free(capsys):
    code, out, _ = run(capsys, "topology", "free", "--r", "3", "--n", "2")
    assert code == 0
    assert "free: yes" in out


def test_topology_free_on_joined_copies(capsys, monkeypatch):
    # joined copies are free iff one board is, so free builds one board and
    # takes no --copies
    with pytest.raises(SystemExit) as exc:
        cli.main(["topology", "free", "--r", "3", "--n", "2", "--copies", "2"])
    assert exc.value.code == 2
    monkeypatch.setattr(topology, "FACET_CAP", 5)
    code, out, err = run(capsys, "topology", "free", "--r", "3", "--n", "2")
    assert code == 4
    assert out == ""
    assert "facet count 6 exceeds cap 5" in err


def test_topology_degree(capsys):
    code, out, _ = run(capsys, "topology", "degree", "--r", "3", "--d", "1")
    assert code == 0
    assert "degree magnitude: 4" in out
    assert "residue mod 3: 1 (is +-1)" in out
    assert "attempts" not in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("topology", "free", "--r", "0", "--n", "2"), "positive"),
        (("topology", "free", "--r", "3", "--n", "-1"), "positive"),
        (("topology", "degree", "--r", "0", "--d", "1"), "r >= 2"),
        (("topology", "degree", "--r", "3", "--d", "-1"), "d >= 0"),
        (("sweep", "--d", "2", "--k", "0", "--rs", "3", "--trials", "0"), "--trials"),
        (("sweep", "--d", "2", "--k", "0", "--rs", "3", "--trials", "-1"), "--trials"),
        (("sweep", "--d", "2", "--k", "0", "--rs", "3", "--trials", "1", "--jitter-q", "0"),
         "--jitter-q"),
        (("sweep", "--d", "2", "--k", "0", "--rs", "3", "--trials", "1", "--jitter-q", "-3"),
         "--jitter-q"),
    ],
)
def test_topology_counts_below_one_are_usage_errors(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert flag in err
    assert out == ""


def test_topology_degree_cap(capsys):
    # the join is never built, so 207,360,000 join facets are no cap's business
    code, out, _ = run(capsys, "topology", "degree", "--r", "5", "--d", "3")
    assert code == 0
    assert "degree magnitude: 331776" in out
    assert "facets: 207360000" in out
    # but it builds the r x (r-1) board, under the cap: 11! placements for r = 11
    code, out, err = run(capsys, "topology", "degree", "--r", "11", "--d", "0")
    assert code == 4
    assert out == ""
    assert "facet count 39916800 exceeds cap 10000000" in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["topology", "degree", "--r", "3", "--d", "2", "--cap", "10"])
    assert exc.value.code == 2


def test_topology_cap_zero_is_honoured(capsys, monkeypatch):
    # the facet cap is the module constant topology.FACET_CAP, read when a
    # complex is built: no flag sets it, and 0 rejects every complex
    for board in (("fvector",), ("homology", "--p", "2"), ("pseudo",), ("orient",), ("free",)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["topology", *board, "--r", "3", "--n", "2", "--cap", "0"])
        assert exc.value.code == 2
    monkeypatch.setattr(topology, "FACET_CAP", 0)
    code, _, err = run(capsys, "topology", "fvector", "--r", "3", "--n", "2")
    assert code == 4
    assert "facet count 6 exceeds cap 0" in err


def test_topology_dims(capsys):
    code, out, _ = run(
        capsys, "topology", "dims", "--r", "3", "--d", "2", "--k", "1"
    )
    assert code == 0
    assert "join dimension: 4" in out
    assert "complement rank: 2" in out


def test_topology_dims_builds_no_complex(capsys):
    # the class join here would have 25,401,600 facets, past the default cap
    code, out, _ = run(
        capsys, "topology", "dims", "--r", "7", "--d", "2", "--k", "1",
        "--profile", "6,6",
    )
    assert code == 0
    assert "join dimension: 11" in out


# ---------------------------------------------------------------------------
# tightness


def test_tightness_verified_exhaustive(capsys, tmp_path):
    out_path = tmp_path / "tight.json"
    code, out, _ = run(
        capsys,
        "tightness",
        "--d", "2", "--k", "0", "--rs", "3",
        "--out", str(out_path),
        "--verify",
    )
    assert code == 0
    assert "486 cases exhausted" in out
    inst = serialize.load_instance(str(out_path))
    assert inst.collections[0].size == 7


def test_tightness_hyperplane_verify(capsys, tmp_path):
    out_path = tmp_path / "tight21.json"
    code, out, _ = run(
        capsys,
        "tightness",
        "--d", "2", "--k", "1", "--rs", "2,2",
        "--out", str(out_path),
        "--verify",
    )
    assert code == 0
    assert "verified infeasible" in out


def test_tightness_writes_stdout_without_out(capsys):
    code, out, _ = run(capsys, "tightness", "--d", "1", "--k", "0", "--rs", "2")
    assert code == 0
    payload = json.loads(out.splitlines()[-1])
    inst = serialize.instance_from_json(payload)
    assert inst.collections[0].size == 3


def test_tightness_verify_needs_complete_solver(capsys):
    code, _, err = run(
        capsys, "tightness", "--d", "3", "--k", "1", "--rs", "2,2", "--verify"
    )
    assert code == 2
    assert "k = d-1" in err


def test_tightness_verify_rejects_middle_k_before_writing(capsys, tmp_path):
    out_path = tmp_path / "t31.json"
    code, out, _ = run(
        capsys,
        "tightness",
        "--d", "3", "--k", "1", "--rs", "2,2",
        "--out", str(out_path),
        "--verify",
    )
    assert code == 2
    assert out == ""
    assert not out_path.exists()


def test_tightness_invalid_parameters(capsys):
    code, _, err = run(capsys, "tightness", "--d", "2", "--k", "2", "--rs", "2,2,2")
    assert code == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_replayable_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    argv = (
        "sweep",
        "--d", "2", "--k", "0", "--rs", "3",
        "--trials", "3",
        "--seed", "5",
        "--out", str(report_path),
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "certified: 3/3" in out
    first = report_path.read_bytes()
    data = json.loads(first)
    assert data["counts"] == {"certified": 3}
    assert [o["seed"] for o in data["outcomes"]] == [5, 6, 7]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert report_path.read_bytes() == first


def test_sweep_exact_method(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "sweep",
        "--d", "2", "--k", "1", "--rs", "2,2",
        "--profiles", "1,1,1;1,1,1",
        "--trials", "2",
    )
    assert code == 0
    assert "certified: 2/2" in out


def test_sweep_rejects_bad_profiles(capsys):
    code, _, err = run(
        capsys,
        "sweep",
        "--d", "2", "--k", "0", "--rs", "3",
        "--profiles", "9,9",
        "--trials", "1",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# plot


def test_plot_instance_only_and_deterministic(capsys, radon_square, tmp_path):
    fig = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "plot", radon_square, "--out", str(fig))
    assert code == 0
    first = fig.read_bytes()
    assert first.startswith(b"<svg ")
    run(capsys, "plot", radon_square, "--out", str(fig))
    assert fig.read_bytes() == first


def test_plot_with_certificate(capsys, singleton_line_instance, tmp_path):
    cert = tmp_path / "cert.json"
    fig = tmp_path / "fig.svg"
    assert run(
        capsys, "transversal", singleton_line_instance, "--out", str(cert)
    )[0] == 0
    code, _, _ = run(
        capsys, "plot", singleton_line_instance, str(cert), "--out", str(fig)
    )
    assert code == 0
    assert b'stroke="#111111" stroke-width="2"' in fig.read_bytes()


def test_plot_rejects_other_dimensions(capsys, tmp_path):
    path = tmp_path / "d3.json"
    serialize.save_instance(str(path), random_instance(3, 0, (2,), seed=0))
    code, _, err = run(capsys, "plot", str(path), "--out", str(tmp_path / "f.svg"))
    assert code == 2
    assert "d = 2" in err


def test_plot_rejects_a_certificate_that_does_not_fit(capsys, tmp_path):
    # a 7-point instance's certificate names points a 3-point one lacks
    seven, three = tmp_path / "seven.json", tmp_path / "three.json"
    cert, fig = tmp_path / "cert.json", tmp_path / "fig.svg"
    serialize.save_instance(str(seven), random_instance(2, 0, (3,), seed=0))
    cfg = ColoredConfig(dim=2, points=[(0, 0), (4, 0), (0, 4)], classes=[(0,), (1,), (2,)])
    serialize.save_instance(str(three), ProblemInstance(d=2, k=0, rs=(3,), collections=(cfg,)))
    assert run(capsys, "partition", str(seven), "--out", str(cert))[0] == 0
    code, out, err = run(capsys, "plot", str(three), str(cert), "--out", str(fig))
    assert code == 1
    assert (out, err) == ("", "verification FAILED: bad-partition\n")
    assert not fig.exists()


def test_plot_rejects_a_common_point_certificate_for_a_line_instance(capsys, tmp_path):
    # the certificate fits collection 0, but a k = 1 instance needs a line
    inst_path, cert, fig = tmp_path / "lines.json", tmp_path / "cert.json", tmp_path / "fig.svg"
    singletons = [(0,), (1,), (2,)]
    cols = (
        ColoredConfig(dim=2, points=[(0, 0), (0, 0), (1, 1)], classes=singletons),
        ColoredConfig(dim=2, points=[(5, 0), (6, 0), (5, 1)], classes=singletons),
    )
    serialize.save_instance(str(inst_path), ProblemInstance(d=2, k=1, rs=(2, 2), collections=cols))
    serialize.save_certificate(str(cert), solve_tverberg(cols[0], 2).certificate)
    code, out, err = run(capsys, "plot", str(inst_path), str(cert), "--out", str(fig))
    assert code == 1
    assert (out, err) == ("", "verification FAILED: bad-plane\n")
    assert not fig.exists()


@pytest.mark.parametrize(
    "instance, mutate",
    [
        ("square", lambda cert: cert["weights"].pop()),
        ("square", lambda cert: cert["weights"][0].append(0)),
        ("square", lambda cert: cert["point"].append(0)),
        ("line", lambda cert: cert["witness_points"][0][0].append(0)),
        ("line", lambda cert: cert["partitions"].pop()),
    ],
    ids=[
        "weight-row-missing",
        "weight-row-too-long",
        "point-in-3d",
        "witness-in-3d",
        "one-partition-for-two-collections",
    ],
)
def test_plot_rejects_a_certificate_of_the_wrong_shape(
    capsys, radon_square, singleton_line_instance, tmp_path, instance, mutate
):
    path = {"square": radon_square, "line": singleton_line_instance}[instance]
    data = serialize.certificate_to_json(solve(serialize.load_instance(path)).certificate)
    mutate(data)
    cert, fig = tmp_path / "cert.json", tmp_path / "fig.svg"
    cert.write_text(json.dumps(data))
    code, out, err = run(capsys, "plot", path, str(cert), "--out", str(fig))
    assert code == 1
    assert (out, err) == ("", "verification FAILED: shape-mismatch\n")
    assert not fig.exists()


# ---------------------------------------------------------------------------
# unwritable output

OUT_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ("partition", "square"),
        ("transversal", "line"),
        ("tightness", "--d", "2", "--k", "0", "--rs", "3"),
        ("sweep", "--d", "2", "--k", "0", "--rs", "3", "--trials", "1"),
        ("plot", "square"),
    ],
    ids=lambda argv: argv[0],
)


@OUT_COMMANDS
def test_unwritable_out_is_a_file_error(
    capsys, radon_square, singleton_line_instance, tmp_path, argv
):
    # no file can be made in a missing directory: exit 3 and one error line
    files = {"square": radon_square, "line": singleton_line_instance}
    out = str(tmp_path / "missing" / "out.json")
    code, _, err = run(capsys, *(files.get(a, a) for a in argv), "--out", out)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out in err and ".tmp-" not in err


@OUT_COMMANDS
def test_out_naming_a_directory_is_a_file_error(
    capsys, radon_square, singleton_line_instance, tmp_path, argv
):
    # the error names the directory given, and no temporary file is left
    files = {"square": radon_square, "line": singleton_line_instance}
    out = tmp_path / "adir"
    out.mkdir()
    code, _, err = run(capsys, *(files.get(a, a) for a in argv), "--out", str(out))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err and ".tmp-" not in err
    assert not list(out.iterdir()) and not list(tmp_path.glob(".tmp-*"))


# ---------------------------------------------------------------------------
# parser-level errors


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_int_list_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--d", "2", "--k", "0", "--rs", "x,y", "--trials", "1"])
    assert exc.value.code == 2


def test_certificate_too_long_to_write_is_a_file_error(capsys, tmp_path):
    # every coordinate reads (about 4,000 digits), but the weights of the
    # one hit have denominators near 8,000 digits, past what Python writes
    # as text: exit 3 with one error line, and no file
    n = 10**4000
    points = [(0,), (f"{n + 1}/3",), (f"1/{n + 3}",)]
    inst = {
        "format": serialize.INSTANCE_FORMAT,
        "version": serialize.FORMAT_VERSION,
        "d": 1,
        "k": 0,
        "collections": [{"r": 2, "points": [list(p) for p in points], "classes": [[0], [1], [2]]}],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "cert.json"
    code, stdout, err = run(capsys, "partition", str(path), "--out", str(out))
    assert code == 3
    assert stdout.startswith("certified: common point")
    assert err.startswith("error: number too long to write") and err.count("\n") == 1
    assert not out.exists() and not list(tmp_path.glob(".tmp-*"))


def test_common_point_too_long_to_print_is_a_file_error(capsys, tmp_path):
    # every coordinate reads (about 2,500 digits), but the diagonals cross
    # at a point whose coordinates need about 5,000, past what Python
    # writes as text: exit 3 with one error line, not the usage code
    n = 10**2500
    points = [(0, 0), (n + 7, n // 10 + 3), (n + 7, 0), (0, n // 10 + 4)]
    cfg = ColoredConfig(dim=2, points=points, classes=[(0,), (1,), (2,), (3,)])
    path = tmp_path / "cross.json"
    serialize.save_instance(str(path), ProblemInstance(d=2, k=0, rs=(2,), collections=(cfg,)))
    code, stdout, err = run(capsys, "partition", str(path))
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: number too long to write") and err.count("\n") == 1
