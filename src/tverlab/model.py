"""Colored configurations, problem instances, and instance generators.

A ColoredConfig is a finite rational point set with a partition into
color classes; a ProblemInstance stacks k+1 of them for the k-plane
transversal problem.  Partition enumeration is lazy and deterministic,
and yields one nonempty colorful partition per relabelling of the
pieces: the set every search runs over, with its closed-form count.
Generators produce the matched-size instances
(sizes (r-1)(d-k+1)+1), the tightness counterexamples with one oversized
class, and random seeded instances.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, perm, prod

from . import geometry
from .geometry import Point, as_point
from .linalg import is_prime

ZERO = Fraction(0)


@dataclass(frozen=True)
class ColoredConfig:
    """Point set with a color partition; classes are index tuples."""

    dim: int
    points: tuple[Point, ...]
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))
        object.__setattr__(
            self, "classes", tuple(tuple(sorted(c)) for c in self.classes)
        )
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError("point dimension mismatch")
        seen: set[int] = set()
        for c in self.classes:
            if not c:
                raise ValueError("color classes must be nonempty")
            for i in c:
                if i in seen:
                    raise ValueError("color classes must be disjoint")
                seen.add(i)
        if seen != set(range(len(self.points))):
            raise ValueError("color classes must cover the points exactly")

    @property
    def size(self) -> int:
        return len(self.points)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True)
class ProblemInstance:
    """k+1 colored collections in R^d, with a piece count per collection."""

    d: int
    k: int
    rs: tuple[int, ...]
    collections: tuple[ColoredConfig, ...]

    def __post_init__(self):
        if not 0 <= self.k <= self.d:
            raise ValueError("need 0 <= k <= d")
        if len(self.collections) != self.k + 1 or len(self.rs) != self.k + 1:
            raise ValueError("need exactly k+1 collections and piece counts")
        if any(r < 2 for r in self.rs):
            raise ValueError("piece counts must be at least 2")
        for cfg in self.collections:
            if cfg.dim != self.d:
                raise ValueError("collection dimension mismatch")


@dataclass(frozen=True)
class PartitionTuple:
    """A certificate's assignment of one collection's points to pieces 1..r, kept as given."""

    pieces: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HypothesisReport:
    """Which theorem hypotheses an instance satisfies, with details."""

    size_ok: bool
    class_bound_ok: bool
    parity_ok: bool
    prime_ok: bool
    notes: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return self.size_ok and self.class_bound_ok and self.parity_ok and self.prime_ok


def required_size(d: int, k: int, r: int) -> int:
    return (r - 1) * (d - k + 1) + 1


def validate(instance: ProblemInstance) -> HypothesisReport:
    """Check the size, class-bound, parity, and primality hypotheses."""
    notes = []
    size_ok = True
    class_bound_ok = True
    prime_ok = True
    for ell, (cfg, r) in enumerate(zip(instance.collections, instance.rs)):
        want = required_size(instance.d, instance.k, r)
        if cfg.size != want:
            size_ok = False
            notes.append(f"collection {ell}: has {cfg.size} points, needs {want}")
        over = [len(c) for c in cfg.classes if len(c) > r - 1]
        if over:
            class_bound_ok = False
            notes.append(f"collection {ell}: class sizes {over} exceed r-1={r - 1}")
        if not is_prime(r):
            prime_ok = False
            notes.append(f"collection {ell}: r={r} is not prime")
    parity_ok = instance.k == 0 or all(
        r * (instance.d - instance.k) % 2 == 0 for r in instance.rs
    )
    if not parity_ok:
        notes.append(f"r(d-k) odd for some collection and k={instance.k} > 0")
    return HypothesisReport(size_ok, class_bound_ok, parity_ok, prime_ok, tuple(notes))


def is_colorful(config: ColoredConfig, pieces) -> bool:
    """No piece repeats a color: |piece & class| <= 1 for all pairs."""
    for piece in pieces:
        for cls in config.classes:
            if len(set(piece) & set(cls)) > 1:
                return False
    return True


def partition_is_valid(config: ColoredConfig, partition: PartitionTuple, r: int) -> bool:
    """Disjoint, covering, colorful, with exactly r (possibly empty) pieces."""
    pieces = partition.pieces
    if len(pieces) != r:
        return False
    flat = [i for piece in pieces for i in piece]
    if len(flat) != len(set(flat)) or set(flat) != set(range(config.size)):
        return False
    return is_colorful(config, pieces)


def count_colorful_partitions(config: ColoredConfig, r: int) -> int:
    """How many partitions `enumerate_colorful_partitions` yields, in closed form.

    Inclusion-exclusion over j pieces forced empty counts the colorful
    ordered tuples with no empty piece (each class puts its points in
    distinct pieces); S_r permutes those freely, so r! divides the count.
    More pieces than points leave one empty, so then there are none.
    """
    if r > config.size:
        return 0
    ordered = sum(
        (-1) ** j * comb(r, j) * prod(perm(r - j, len(cls)) for cls in config.classes)
        for j in range(r + 1)
    )
    return ordered // factorial(r)


def enumerate_colorful_partitions(config: ColoredConfig, r: int):
    """Nonempty colorful r-partitions, one per relabelling of the pieces.

    Each is a bare tuple of r piece tuples, each piece's points in class order.

    Reading the classes in order, piece j opens (takes its first point)
    before piece j+1: restricted-growth labels.  Every S_r orbit of
    nonempty ordered tuples holds exactly one such tuple, r! in all, and
    it is the orbit's first member when ordered tuples are listed by
    their piece labels read class by class, lexicographically; the
    representatives come out in that order too.  Whether piece hulls
    share a point or meet a plane does not depend on the labels, so a
    search over these is complete and stops at the same first hit as one
    over every ordered tuple.

    The walk keeps an explicit stack of (class, pieces opened, piece
    tuples so far), pushing each node's children in reverse so that
    they pop in order, as in Knuth's restricted-growth generation
    (TAOCP 4A, 7.2.1.5).
    """
    classes = config.classes
    # points in classes c.. ; a branch dies once they cannot open the rest
    left = [sum(len(cls) for cls in classes[c:]) for c in range(len(classes) + 1)]
    # (class size, pieces opened, points left after it) -> [(labels, pieces opened after)]
    moves = {}
    stack = [(0, 0, ((),) * r)] if left[0] >= r and classes else []
    while stack:
        c, opened, pieces = stack.pop()
        cls = classes[c]
        key = len(cls), opened, left[c + 1]
        if key not in moves:
            moves[key] = []
            for assign in itertools.permutations(range(min(r, opened + len(cls))), len(cls)):
                now = opened
                for j in assign:
                    if j > now:
                        break
                    now += j == now
                else:
                    if now + left[c + 1] >= r:
                        moves[key].append((assign, now))
        grown = []
        for assign, now in moves[key]:
            nxt = list(pieces)
            for i, j in zip(cls, assign):
                nxt[j] += (i,)
            grown.append((c + 1, now, tuple(nxt)))
        if c + 1 == len(classes):
            for _, _, leaf in grown:
                yield leaf
        else:
            stack.extend(reversed(grown))


def default_profile(d: int, k: int, r: int) -> tuple[int, ...]:
    """Extremal class profile: d-k+1 classes of size r-1 plus a singleton."""
    return tuple([r - 1] * (d - k + 1) + [1])


def _classes_from_profile(profile) -> tuple[tuple[int, ...], ...]:
    classes = []
    idx = 0
    for size in profile:
        classes.append(tuple(range(idx, idx + size)))
        idx += size
    return tuple(classes)


def tightness_instance(d: int, k: int, rs, ell_star: int) -> ProblemInstance:
    """Instance showing the class bound r-1 cannot be raised.

    Collection ell lives on its own (d-k)-flat; the flats are parallel
    and project to the vertices of a k-simplex.  Each collection is r-1
    coincident points per vertex of a (d-k)-simplex plus its barycenter,
    whose only valid partition point is that barycenter.  Collection
    ell_star carries one class of size r (the r-1 points at vertex 0
    plus one point at vertex 1), which no colorful partition can split.
    """
    rs = tuple(rs)
    m = d - k
    if m < 1:
        raise ValueError("need k < d")
    if len(rs) != k + 1 or any(r < 2 for r in rs):
        raise ValueError("need k+1 piece counts, all at least 2")
    if not 0 <= ell_star <= k:
        raise ValueError("oversized-class collection out of range")

    def jitter(ell, i, c):
        if k == 0:
            return ZERO
        return Fraction((17 * ell + 31 * i + 47 * c + 13) % 89 - 44, 97)

    collections = []
    for ell, r in enumerate(rs):
        verts = []
        for i in range(m + 1):
            v = [jitter(ell, i, c) for c in range(m)]
            if i > 0:
                v[i - 1] += 4
            verts.append(v)
        if geometry.affine_dim(verts) != m:
            raise ValueError("degenerate simplex after perturbation")
        center = [sum(v[c] for v in verts) / (m + 1) for c in range(m)]
        offset = [ZERO] * k
        if ell > 0:
            offset[ell - 1] = Fraction(1)
        pts = []
        for v in verts:
            for _ in range(r - 1):
                pts.append(tuple(v) + tuple(offset))
        pts.append(tuple(center) + tuple(offset))
        if ell == ell_star:
            # r-1 copies at vertex 0, plus the first copy at vertex 1
            big = tuple(range(r - 1)) + (r - 1,)
            rest = [(i,) for i in range(len(pts)) if i not in big]
            classes = (big, *rest)
        else:
            classes = tuple((i,) for i in range(len(pts)))
        collections.append(ColoredConfig(dim=d, points=tuple(pts), classes=classes))
    return ProblemInstance(d=d, k=k, rs=rs, collections=tuple(collections))


def random_instance(
    d: int,
    k: int,
    rs,
    profiles=None,
    seed: int = 0,
    grid: int = 1000,
    jitter_q: int | None = None,
) -> ProblemInstance:
    """Seeded instance on the integer grid [-grid, grid]^d.

    profiles gives per-collection class-size tuples; default is the
    extremal profile.  Sizes must respect the r-1 class bound and sum to
    the required collection size.  jitter_q >= 1 adds a deterministic
    rational offset with denominator jitter_q to every coordinate.
    """
    if jitter_q is not None and jitter_q < 1:
        raise ValueError("jitter_q must be at least 1")
    rs = tuple(rs)
    if len(rs) != k + 1:
        raise ValueError("need k+1 piece counts")
    if profiles is None:
        profiles = tuple(default_profile(d, k, r) for r in rs)
    profiles = tuple(tuple(p) for p in profiles)
    if len(profiles) != k + 1:
        raise ValueError("need one class profile per collection")
    rng = random.Random(seed)
    collections = []
    for r, profile in zip(rs, profiles):
        want = required_size(d, k, r)
        if sum(profile) != want:
            raise ValueError(f"profile sums to {sum(profile)}, needs {want}")
        if any(not 1 <= s <= r - 1 for s in profile):
            raise ValueError("class sizes must lie in [1, r-1]")
        pts = []
        for _ in range(want):
            coords = [Fraction(rng.randint(-grid, grid)) for _ in range(d)]
            if jitter_q is not None:
                coords = [c + Fraction(rng.randint(0, jitter_q - 1), jitter_q) for c in coords]
            pts.append(tuple(coords))
        collections.append(
            ColoredConfig(dim=d, points=tuple(pts), classes=_classes_from_profile(profile))
        )
    return ProblemInstance(d=d, k=k, rs=rs, collections=tuple(collections))
