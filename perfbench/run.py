"""End-to-end benchmark of tverlab: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload partition --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
src/.  Set-up (package import and input generation) is repeated and its
median reported; then whole rounds of the workload's operations run in a
closed loop, one call after another on one thread, until --seconds have
passed.  Every answer is checked afterwards by perfbench/checks.py.

Times are rescaled to a reference machine speed.  On a shared host the
speed of one core drifts: a fixed pure-Python loop was measured taking
up to 1.8x its fastest time over tens of seconds.  So a short reference
loop that never touches tverlab runs after every operation (for at
least CAL_SHARE of its time), and each operation's wall time is
multiplied by REFERENCE_S over the mean reference-loop time of the
seconds around it.
A change to tverlab moves the rescaled times in proportion to the wall
times; a change in the host's speed mostly does not.  The raw wall
figures are printed alongside.

--trace 1 alternates an untraced round with a round that has a span
around every call into each layer, and reports the per-layer split per
traced round instead of the end-to-end figures; the tracing overhead is
the difference of the two kinds of round.  Spans are written to
perfbench/traces/.  Readable per-kind figures go to stdout before the
last line, problems to stderr; the last line of stdout is the result
object.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from math import lcm
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
CAL_SHARE = 0.05
CAL_WINDOW_S = 1.0
REFERENCE_S = 0.0015  # about the reference loop's median on the 2-core host of README.md


_REF_POINTS = [[Fraction(3 * i + 7 * c * c - 11, 5 + c) for c in range(3)] for i in range(9)]
_REF_FACETS = [
    tuple(sorted(p[j] * 3 + j for j in range(3))) for p in itertools.permutations(range(5), 3)
]


def _reference_loop():
    """A frozen miniature of the package's work, about 2 ms.

    One common-point system of three pieces in R^3 is assembled from
    Fractions, scaled to integers and pivoted fraction-free; the faces
    and ridges of a small chessboard complex are hashed.  It imports
    nothing from tverlab, so no change to the package changes it.
    """
    for _ in range(2):
        pieces = [_REF_POINTS[0:3], _REF_POINTS[3:6], _REF_POINTS[6:9]]
        rows = [[Fraction(int(k // 3 == j)) for k in range(9)] + [Fraction(1)] for j in range(3)]
        for j in (1, 2):
            for c in range(3):
                row = [Fraction(0)] * 10
                for i, pt in enumerate(pieces[0]):
                    row[i] = pt[c]
                for i, pt in enumerate(pieces[j]):
                    row[3 * j + i] = -pt[c]
                rows.append(row)
        data = []
        for row in rows:
            scale = lcm(*(v.denominator for v in row))
            r = [int(v * scale) for v in row]
            data.append([-v for v in r] if r[-1] < 0 else r)
        n, width = len(data), 9 + len(data) + 1
        tab = [r[:9] + [int(i == k) for k in range(n)] + [r[9]] for i, r in enumerate(data)]
        tab.append(
            [-sum(r[j] for r in tab) if j < 9 or j == width - 1 else 0 for j in range(width)]
        )
        den = 1
        for _ in range(40):
            q = next((j for j in range(width - 1) if tab[n][j] < 0), -1)
            rows_in = [i for i in range(n) if q >= 0 and tab[i][q] > 0]
            if not rows_in:
                break
            p = min(rows_in, key=lambda i: Fraction(tab[i][-1], tab[i][q]))
            piv, rp = tab[p][q], tab[p]
            tab = [
                r if i == p else [(piv * a - r[q] * b) // den for a, b in zip(r, rp)]
                for i, r in enumerate(tab)
            ]
            den = piv
        faces, ridges = set(), {}
        for fi, f in enumerate(_REF_FACETS):
            for k in range(1, 4):
                faces.update(itertools.combinations(f, k))
            for pos in range(3):
                ridges.setdefault(f[:pos] + f[pos + 1:], []).append(fi)
    return den, len(faces), len(ridges)


class SpeedClock:
    """Reference-loop runs in time order, as (start, end) pairs."""

    def __init__(self):
        self.loops: list[tuple[float, float]] = []
        self.calibrate()

    def calibrate(self) -> None:
        start = perf_counter()
        _reference_loop()
        self.loops.append((start, perf_counter()))

    def durations(self) -> list[float]:
        return [b - a for a, b in self.loops]

    def after(self, seconds: float) -> None:
        """Sample the speed after an operation that took `seconds`: one
        loop, then more until CAL_SHARE of that time has passed, so a long
        operation is bracketed by as many loops as a run of short ones."""
        stop = perf_counter() + CAL_SHARE * seconds
        self.calibrate()
        while perf_counter() < stop:
            self.calibrate()

    def factor(self, start: float, end: float) -> float:
        """Rescaling for work done between start and end: REFERENCE_S over
        the mean loop within CAL_WINDOW_S of that span."""
        near = [b - a for a, b in self.loops if start - CAL_WINDOW_S <= a and b <= end + CAL_WINDOW_S]
        return REFERENCE_S / statistics.fmean(near)


def _purge_package():
    for name in list(sys.modules):
        if name == "tverlab" or name.startswith("tverlab."):
            del sys.modules[name]


def setup(workload: str, seed: int, clock: SpeedClock):
    """Import the package and build the round SETUP_REPEATS times; keep the last.

    Returns the operations and the median rescaled set-up time.
    """
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        clock.calibrate()
        start = perf_counter()
        tv = workloads.load()
        ops = workloads.build(tv, workload, seed)
        end = perf_counter()
        times.append((start, end))
    clock.calibrate()
    return ops, statistics.median((b - a) * clock.factor(a, b) for a, b in times)


def run_rounds(ops, clock: SpeedClock, problems: list, seconds=None, rounds=None, tracer=None):
    """Whole rounds until `seconds` have passed or `rounds` are done.

    Each round's answers are checked as soon as it ends, outside the
    timed calls, and then dropped, so memory does not grow with the
    number of rounds; wrong answers are appended to `problems`.  Returns
    one list per round of (start, end, failed) per operation.
    """
    if tracer is not None:
        ids = {op.kind: tracer.name_id("bench." + op.kind) for op in ops}
    records = []
    begin = perf_counter()
    while True:
        clock.calibrate()
        rec = []
        for op in ops:
            start = perf_counter()
            if tracer is None:
                out = op.run()
            else:
                tracer.enter(ids[op.kind])
                try:
                    out = op.run()
                finally:
                    tracer.exit()
            end = perf_counter()
            rec.append((start, end, out))
            clock.after(end - start)
        records.append(check_round(ops, rec, problems))
        if rounds is not None:
            if len(records) >= rounds:
                break
        elif perf_counter() - begin >= seconds:
            break
    clock.calibrate()
    return records


def op_seconds(clock: SpeedClock, start: float, end: float, rescaled=True) -> float:
    return (end - start) * (clock.factor(start, end) if rescaled else 1.0)


def round_seconds(records, clock: SpeedClock, rescaled=True):
    """Per-round sums of operation times."""
    return [sum(op_seconds(clock, a, b, rescaled) for a, b, _ in rec) for rec in records]


def check_round(ops, rec, problems: list):
    """(start, end, failed) per operation; wrong answers go to `problems`.

    A known-fault search that ends budget-exhausted is failed, not wrong.
    """
    out_rec = []
    for op, (start, end, out) in zip(ops, rec):
        failed = op.known_fault and out.get("status") == "budget-exhausted"
        problem = None if failed else op.check(out)
        if problem:
            problems.append(f"{op.label}: {problem}")
        out_rec.append((start, end, failed))
    return out_rec


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kind_figures(ops, records, clock: SpeedClock):
    """Readable per-kind figures (rescaled): p50/p90 per search kind,
    per-round sums for the topology kinds; then the raw and speed figures."""
    lines = []
    by_kind: dict[str, list[float]] = {}
    per_round: dict[str, list[float]] = {}
    for rec in records:
        sums: dict[str, float] = {}
        for op, (start, end, failed) in zip(ops, rec):
            secs = op_seconds(clock, start, end)
            if failed:
                by_kind.setdefault("failed", []).append(secs)
                continue
            by_kind.setdefault(op.kind, []).append(secs)
            sums[op.kind] = sums.get(op.kind, 0.0) + secs
        for kind, s in sums.items():
            per_round.setdefault(kind, []).append(s)
    for kind, values in sorted(by_kind.items()):
        if kind in ("certify", "refute", "failed"):
            lines.append(f"{kind}_s_p50 {statistics.median(values):.6f} s (n={len(values)})")
            if len(values) >= 100:
                lines.append(f"{kind}_s_p90 {_quantile(values, 90):.6f} s (n={len(values)})")
        else:
            lines.append(
                f"{kind}_s {statistics.median(per_round[kind]):.6f} s per round "
                f"(median of {len(per_round[kind])} rounds)"
            )
    raw = round_seconds(records, clock, rescaled=False)
    lines.append(f"raw_round_s {statistics.median(raw):.6f} s (min {min(raw):.6f}, max {max(raw):.6f})")
    loops = clock.durations()
    lines.append(
        f"reference_loop_s {statistics.median(loops):.6f} s (n={len(loops)}, "
        f"min {min(loops):.6f}, max {max(loops):.6f}; rescaled to {REFERENCE_S})"
    )
    return lines


def layer_metrics(tracer, rounds: int, traced_walls, untraced_walls, speed: float):
    """Per-round layer figures from the traced rounds, and readable lines.

    Span seconds are multiplied by `speed`, the traced rounds' rescaled
    over raw time, so they add up to the rescaled walls.  Layer times go
    into the result as shares of the mean traced round (`*_share`) and
    onto the readable lines in seconds: a layer that a workload never
    calls then shows as a zero share, not as a time of exactly 0 s.
    """
    c, calls = tracer.counters, tracer.calls
    tot = {k: v * speed for k, v in tracer.total.items()}

    def per(v):
        return v / rounds

    def total(*names):
        return per(sum(tot.get(n, 0.0) for n in names))

    wall = statistics.median(traced_walls)
    layers = ("kernels", "geometry", "model", "linalg", "solver", "topology", "serialize")
    lps = calls.get("geometry.lp_solve_eq", 0)
    kcalls = calls.get("kernels.phase1", 0)
    m = {
        "kernels.calls": (per(kcalls), "count"),
        "kernels.pivots": (per(c["kernels.pivots"]), "count"),
        "kernels.cell_updates": (per(c["kernels.cell_updates"]), "count"),
        "kernels.den_bits_mean": (c["kernels.den_bits"] / kcalls if kcalls else 0.0, "bit"),
        "geometry.lps": (per(lps), "count"),
        "geometry.lp_feasible_ratio": (c["geometry.feasible"] / lps if lps else 0.0, "ratio"),
        "model.partitions": (per(c["model.enumerate_colorful_partitions.items"]), "count"),
        "solver.partitions": (per(c["solver.partitions"]), "count"),
        "solver.combos": (per(c["solver.combos"]), "count"),
        "solver.directions": (per(c["solver.directions"]), "count"),
        "solver.verify_s": (total("solver.verify_tverberg", "solver.verify_transversal"), "s"),
        "serialize.cert_bytes": (per(c["serialize.cert_bytes"]), "B"),
        "linalg.calls": (per(sum(v for k, v in calls.items() if k.startswith("linalg."))), "count"),
        "topology.facets": (per(c["topology.facets"]), "count"),
        "topology.complex_init_s": (total("topology.SimplicialComplex.__init__"), "s"),
        "topology.faces_s": (total("topology.SimplicialComplex.faces_by_dim"), "s"),
        "topology.boundary_s": (total("topology.boundary_matrix"), "s"),
        "topology.boundary_cells": (per(c["topology.boundary_cells"]), "count"),
        "topology.rank_s": (total("topology._rank_mod_p"), "s"),
        "topology.orient_s": (total("topology.orient"), "s"),
        "topology.degree_facets": (per(c["topology.degree_facets"]), "count"),
        "topology.degree_self_s": (per(speed * tracer.self_time.get("topology.test_map_degree", 0.0)), "s"),
    }
    layer_sum = 0.0
    for layer in layers:
        s = per(speed * tracer.layer_self(layer))
        m[f"{layer}.self_s"] = (s, "s")
        layer_sum += s
    m["bench.self_s"] = (per(speed * tracer.layer_self("bench")), "s")
    m["trace.wall_s"] = (wall, "s")
    # share of the traced wall that the package layers' self times cover
    m["trace.layer_share"] = (layer_sum / per(sum(traced_walls)), "ratio")
    m["trace.overhead_s"] = (wall - statistics.median(untraced_walls), "s")
    mean_wall = per(sum(traced_walls))
    result, lines = {}, []
    for name, (value, unit) in m.items():
        if unit == "s" and not name.startswith("trace."):
            lines.append(f"{name} {value:.6f} s per traced round")
            result[name[: -len("_s")] + "_share"] = (value / mean_wall, "ratio")
        else:
            result[name] = (value, unit)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tverlab", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}/tverlab", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    clock = SpeedClock()
    ops, setup_s = setup(args.workload, args.seed, clock)
    problems: list[str] = []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        untraced, traced = [], []
        start = perf_counter()
        while perf_counter() - start < args.seconds:
            untraced += run_rounds(ops, clock, problems, rounds=1)
            restore = spans.install(tracer)
            try:
                traced += run_rounds(ops, clock, problems, rounds=1, tracer=tracer)
            finally:
                restore()
        records = untraced + traced
        traced_walls = round_seconds(traced, clock)
        speed = sum(traced_walls) / sum(round_seconds(traced, clock, rescaled=False))
        metrics, layer_lines = layer_metrics(
            tracer, len(traced), traced_walls, round_seconds(untraced, clock), speed
        )
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.csv"))
    else:
        records = run_rounds(ops, clock, problems, seconds=args.seconds)
        walls = round_seconds(records, clock)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = sum(len(rec) for rec in records)
    failed = sum(f for rec in records for _, _, f in rec)
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((attempted - failed) / sum(walls), "1/s"),
            "round_s": (statistics.median(walls), "s"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }

    for line in kind_figures(ops, records, clock) + (layer_lines if args.trace else []):
        print(line)
    for problem in problems:
        print(f"perfbench: wrong answer: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
