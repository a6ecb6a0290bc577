"""Configuration model: validation, enumeration, and the instance generators."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tverlab import geometry
from tverlab.model import (
    ColoredConfig,
    PartitionTuple,
    ProblemInstance,
    count_colorful_partitions,
    default_profile,
    enumerate_colorful_partitions,
    is_colorful,
    partition_is_valid,
    random_instance,
    required_size,
    tightness_instance,
    validate,
)

from oracles import (
    lift_instance,
    ordered_colorful_count,
    ordered_colorful_partitions,
    rational_lp_solve_eq,
    recursive_colorful_partitions,
)

F = Fraction


def config_from_profile(profile, d=2, seed=1):
    rng = random.Random(seed)
    pts = []
    for _ in range(sum(profile)):
        pts.append(tuple(F(rng.randint(-9, 9)) for _ in range(d)))
    classes = []
    idx = 0
    for s in profile:
        classes.append(tuple(range(idx, idx + s)))
        idx += s
    return ColoredConfig(dim=d, points=tuple(pts), classes=tuple(classes))


class TestConfigValidation:
    def test_rejects_overlapping_classes(self):
        with pytest.raises(ValueError):
            ColoredConfig(2, ((F(0), F(0)), (F(1), F(1))), ((0, 1), (1,)))

    def test_rejects_uncovered_points(self):
        with pytest.raises(ValueError):
            ColoredConfig(2, ((F(0), F(0)), (F(1), F(1))), ((0,),))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            ColoredConfig(2, ((F(0), F(0)),), ((0,), ()))

    def test_repeated_points_allowed(self):
        cfg = ColoredConfig(1, ((F(5),), (F(5),)), ((0,), (1,)))
        assert cfg.size == 2


class TestValidate:
    def test_matched_instance_all_ok(self):
        inst = random_instance(2, 0, (3,), seed=5)
        rep = validate(inst)
        assert rep.all_ok and rep.notes == ()

    def test_size_and_bound_flags(self):
        cfg = config_from_profile((3, 2, 2), d=2)  # 7 points but a class of 3
        inst = ProblemInstance(2, 0, (3,), (cfg,))
        rep = validate(inst)
        assert rep.size_ok and not rep.class_bound_ok and rep.prime_ok

    def test_parity_flag(self):
        inst = random_instance(2, 1, (3, 3), seed=5)
        rep = validate(inst)  # r(d-k) = 3 odd, k > 0
        assert not rep.parity_ok and rep.size_ok

    def test_parity_even_cases(self):
        assert validate(random_instance(3, 1, (2, 2), seed=5)).parity_ok
        assert validate(random_instance(2, 1, (2, 2), seed=5)).parity_ok

    def test_prime_flag(self):
        inst = random_instance(1, 0, (4,), seed=5)
        assert not validate(inst).prime_ok


class TestEnumeration:
    """The oracle's ordered tuples (empty pieces included), then the
    model's representatives, one per relabelling of the pieces."""

    def test_extremal_count_is_648(self):
        cfg = config_from_profile((2, 2, 2, 1))
        assert ordered_colorful_count(cfg, 3) == 648
        tuples = list(ordered_colorful_partitions(cfg, 3))
        assert len(tuples) == 648
        assert len(set(tuples)) == 648

    def test_single_point_two_pieces(self):
        cfg = config_from_profile((1,), d=1)
        assert list(ordered_colorful_partitions(cfg, 2)) == [
            ((0,), ()),
            ((), (0,)),
        ]
        # both leave a piece empty, so there is no representative
        assert count_colorful_partitions(cfg, 2) == 0
        assert list(enumerate_colorful_partitions(cfg, 2)) == []

    def test_oversized_class_enumerates_nothing(self):
        cfg = config_from_profile((3,), d=1)
        assert ordered_colorful_count(cfg, 2) == 0
        assert list(ordered_colorful_partitions(cfg, 2)) == []

    def test_every_tuple_valid(self):
        cfg = config_from_profile((2, 2, 1), d=2)
        for t in ordered_colorful_partitions(cfg, 3):
            assert partition_is_valid(cfg, PartitionTuple(t), 3)
            assert is_colorful(cfg, t)

    def test_count_matches_enumeration_on_small_profiles(self):
        rng = random.Random(31)
        for _ in range(12):
            r = rng.randint(2, 4)
            nclasses = rng.randint(1, 3)
            profile = tuple(rng.randint(1, 3) for _ in range(nclasses))
            if sum(profile) > 8:
                continue
            cfg = config_from_profile(profile, d=2, seed=rng.randint(0, 99))
            assert ordered_colorful_count(cfg, r) == sum(
                1 for _ in ordered_colorful_partitions(cfg, r)
            )

    def test_extremal_representatives(self):
        # 600 of the 648 ordered tuples have no empty piece: 600 / 3! orbits
        cfg = config_from_profile((2, 2, 2, 1))
        reps = list(enumerate_colorful_partitions(cfg, 3))
        assert len(reps) == count_colorful_partitions(cfg, 3) == 100
        assert len(set(reps)) == 100
        # the singleton class is left to open the third piece
        assert reps[0] == ((0, 2, 4), (1, 3, 5), (6,))


@st.composite
def shuffled_classes(draw):
    """(config, r): r in 2..5, up to 4 classes of sizes 1..r+1 (at most 8 points)
    on points numbered in a drawn order, so classes may interleave."""
    r = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, r + 1), max_size=4).filter(lambda s: sum(s) <= 8))
    order = draw(st.permutations(range(sum(sizes))))
    starts = [sum(sizes[:c]) for c in range(len(sizes))]
    classes = [order[a:a + size] for a, size in zip(starts, sizes)]
    points = [(i,) for i in range(sum(sizes))]
    return ColoredConfig(dim=1, points=points, classes=classes), r


@given(shuffled_classes())
@settings(max_examples=150, deadline=None)
@example((ColoredConfig(dim=1, points=[(0,), (1,)], classes=[(0, 1)]), 5))
@example((ColoredConfig(dim=1, points=[(i,) for i in range(6)], classes=[(0, 3, 5), (1, 4), (2,)]), 3))
def test_flat_walk_matches_recursive_walk(case):
    # the same representatives in the same order, as many as the closed form,
    # each piece's points in class order
    cfg, r = case
    reps = list(enumerate_colorful_partitions(cfg, r))
    assert reps == list(recursive_colorful_partitions(cfg, r))
    assert len(reps) == count_colorful_partitions(cfg, r)
    if r > cfg.size:
        assert reps == []
    position = {i: n for n, i in enumerate(itertools.chain(*cfg.classes))}
    for pieces in reps:
        for piece in pieces:
            assert [position[i] for i in piece] == sorted(position[i] for i in piece)


class TestTightness:
    def test_planar_three_piece_coordinates(self):
        inst = tightness_instance(2, 0, (3,), 0)
        cfg = inst.collections[0]
        assert cfg.points == (
            (F(0), F(0)),
            (F(0), F(0)),
            (F(4), F(0)),
            (F(4), F(0)),
            (F(0), F(4)),
            (F(0), F(4)),
            (F(4, 3), F(4, 3)),
        )
        assert cfg.classes[0] == (0, 1, 2)
        rep = validate(inst)
        assert rep.size_ok and not rep.class_bound_ok

    def test_segment_smallest_case(self):
        inst = tightness_instance(1, 0, (2,), 0)
        cfg = inst.collections[0]
        assert cfg.points == ((F(0),), (F(4),), (F(2),))
        assert cfg.classes[0] == (0, 1)

    def test_line_transversal_case_structure(self):
        inst = tightness_instance(2, 1, (2, 2), 0)
        assert inst.d == 2 and inst.k == 1
        for ell, cfg in enumerate(inst.collections):
            assert cfg.size == 3
            ys = {p[1] for p in cfg.points}
            assert ys == {F(ell)}  # each collection on its own horizontal line
        assert len(inst.collections[0].classes[0]) == 2
        assert all(len(c) == 1 for c in inst.collections[1].classes)

    def test_jitter_breaks_coincidences_across_flats(self):
        inst = tightness_instance(2, 1, (2, 2), 0)
        xs0 = sorted(p[0] for p in inst.collections[0].points)
        xs1 = sorted(p[0] for p in inst.collections[1].points)
        assert xs0 != xs1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            tightness_instance(2, 2, (2, 2, 2), 0)  # k = d leaves no simplex
        with pytest.raises(ValueError):
            tightness_instance(2, 0, (3,), 1)
        with pytest.raises(ValueError):
            tightness_instance(2, 0, (1,), 0)


class TestLift:
    def test_shapes_and_embedding(self):
        low = random_instance(1, 0, (2,), seed=3)
        lifted = lift_instance(low)
        assert (lifted.d, lifted.k) == (2, 1)
        assert lifted.rs == (2, 2)
        emb = lifted.collections[0]
        assert [p[:-1] for p in emb.points] == list(low.collections[0].points)
        assert all(p[-1] == 0 for p in emb.points)
        cluster = lifted.collections[1]
        assert cluster.size == required_size(2, 1, 2) == 3
        assert all(len(c) == 1 for c in cluster.classes)

    def test_sizes_stay_matched(self):
        low = random_instance(2, 0, (3,), seed=8)
        assert validate(low).size_ok
        lifted = lift_instance(low, r_new=2)
        assert validate(lifted).size_ok

    def test_cluster_hull_misses_base_hyperplane(self):
        lifted = lift_instance(random_instance(1, 0, (2,), seed=4))
        cluster = lifted.collections[-1]
        # LP: convex weights whose last coordinate sums to 0
        n = cluster.size
        rows = [[Fraction(1)] * n, [p[-1] for p in cluster.points]]
        rhs = [Fraction(1), Fraction(0)]
        x, gap = rational_lp_solve_eq(rows, rhs)
        assert x is None and gap > 0

    def test_cluster_points_distinct_and_curved(self):
        lifted = lift_instance(random_instance(2, 0, (3,), seed=4), r_new=3)
        cluster = lifted.collections[-1]
        assert len(set(cluster.points)) == cluster.size
        assert geometry.affine_dim(cluster.points) >= 2


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(2, 1, (2, 2), seed=17)
        b = random_instance(2, 1, (2, 2), seed=17)
        assert a == b
        c = random_instance(2, 1, (2, 2), seed=18)
        assert a != c

    def test_default_profile_is_extremal(self):
        assert default_profile(2, 0, 3) == (2, 2, 2, 1)
        inst = random_instance(2, 0, (3,), seed=1)
        assert inst.collections[0].class_sizes() == (2, 2, 2, 1)

    def test_integer_coordinates_by_default(self):
        inst = random_instance(3, 0, (2,), seed=2)
        for p in inst.collections[0].points:
            assert all(c.denominator == 1 for c in p)

    def test_jitter_denominators(self):
        inst = random_instance(2, 0, (2,), seed=2, jitter_q=7)
        assert any(
            c.denominator > 1 for p in inst.collections[0].points for c in p
        )
        assert all(
            7 % c.denominator == 0 for p in inst.collections[0].points for c in p
        )

    def test_jitter_denominator_below_one_rejected(self):
        # None alone means no jitter; 0 and negatives are no denominators
        for q in (0, -3):
            with pytest.raises(ValueError, match="jitter_q"):
                random_instance(2, 0, (2,), seed=2, jitter_q=q)
        assert random_instance(2, 0, (2,), seed=2, jitter_q=None) == random_instance(
            2, 0, (2,), seed=2
        )

    def test_profile_mismatch_rejected(self):
        with pytest.raises(ValueError):
            random_instance(2, 0, (3,), profiles=((2, 2, 2),), seed=1)
        with pytest.raises(ValueError):
            random_instance(2, 0, (3,), profiles=((3, 2, 1, 1),), seed=1)
