"""Work the benchmark runs in child processes, each a fresh interpreter.

    python3 perfbench/child.py objects --seed S --per-shape M [--trace-dir D]
    python3 perfbench/child.py cli --trace-dir D --workload W --out FILE -- ARGV...
    python3 perfbench/child.py recursive --shape P [--samples K] [--tracemalloc]
    python3 perfbench/child.py probes --seed S [--smoke]

Each prints one JSON object as its last line of standard output (``cli``
writes the CLI's own output to FILE instead).  The parent, ``run.py``, caps
the address space of every child, times it from outside and checks what it
prints.  Nothing here is imported by ``run.py`` except the pure-Python
helpers at the top, so the parent never imports immaculate itself.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import statistics
import sys
import time

CLOCK = time.perf_counter

# The object-API mix: n = 20, 40, 49 and 100, drawn in equal numbers.
OBJECT_SHAPES = (
    (4, 1, 4, 2, 1, 3, 2, 1, 1, 1),
    (1, 3) * 10,
    (7,) * 7,
    (10,) * 10,
)
CHECK_EVERY = 4


def hook_lengths(parts) -> list[int]:
    """Hook lengths in row-major order, straight from the definition.

    Off the first column a hook is the rest of the cell's row; in the first
    column of row i it is every cell of rows i, i+1, ...
    """
    out = []
    for i, part in enumerate(parts):
        for j in range(part):
            out.append(sum(parts[i:]) if j == 0 else part - j)
    return out


def expected_count(parts) -> int:
    """n! / prod(h_c), computed without the package."""
    q, r = divmod(math.factorial(sum(parts)), math.prod(hook_lengths(parts)))
    if r:
        raise ValueError(f"hook product does not divide n! for {parts}")
    return q


def all_compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of n, from the 2**(n-1) cut sets."""
    out = []
    for mask in range(2 ** (n - 1)):
        parts, run = [], 1
        for k in range(n - 1):
            if mask >> k & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = CLOCK()
        fn()
        times.append(CLOCK() - t0)
    return statistics.median(times)


def _tracer(trace_dir, workload):
    if trace_dir is None:
        return None
    import spans

    tracer = spans.Tracer(trace_dir, run_id=str(time.time_ns()), workload=workload)
    spans.install(tracer)
    return tracer


# -- objects ---------------------------------------------------------------


def objects(seed: int, per_shape: int) -> dict:
    """Seeded fillings through straighten then unstraighten, compared exactly."""
    import immaculate

    rng = random.Random(seed)
    jobs = []
    for parts in OBJECT_SHAPES:
        alpha = immaculate.Composition(parts)
        for i in range(per_shape):
            vals = list(range(1, alpha.n + 1))
            rng.shuffle(vals)
            jobs.append((alpha, vals, i % CHECK_EVERY == CHECK_EVERY - 1))
    rng.shuffle(jobs)
    calls_ms = []
    failed = 0
    for alpha, vals, check in jobs:
        t = immaculate.Tableau.from_flat(alpha, vals)
        try:
            t0 = CLOCK()
            pair, _ = immaculate.straighten(t, check=check)
            t1 = CLOCK()
            back, _ = immaculate.unstraighten(pair, check=check)
            t2 = CLOCK()
        except immaculate.ImmaculateError:
            failed += 1
            continue
        calls_ms += [(t1 - t0) * 1e3, (t2 - t1) * 1e3]
        if back != t:
            failed += 1
    return {"attempted": len(jobs), "failed": failed, "calls_ms": calls_ms}


# -- in-process CLI, traced ------------------------------------------------


def traced_cli(argv, out_path) -> int:
    from immaculate import cli

    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
        return cli.main(argv)


# -- cold recursion ----------------------------------------------------------


def recursive(parts, samples: int, use_tracemalloc: bool) -> dict:
    """count_recursive from a cold memo; then sampling with the memo warm."""
    import immaculate

    alpha = immaculate.Composition(parts)
    out = {}
    if use_tracemalloc:
        import tracemalloc

        tracemalloc.start()
        count = immaculate.count_recursive(alpha)
        out["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    else:
        t0 = CLOCK()
        count = immaculate.count_recursive(alpha)
        out["count_s"] = CLOCK() - t0
    out["ok"] = count == expected_count(parts)
    if samples:
        rng = random.Random(0)
        times = []
        for _ in range(samples):
            t0 = CLOCK()
            p = immaculate.random_standard_immaculate(alpha, rng)
            times.append(CLOCK() - t0)
            out["ok"] = out["ok"] and p.is_standard_immaculate()
        out["sample_us"] = statistics.median(times) * 1e6
    return out


# -- per-layer probes --------------------------------------------------------


def _random_fillings(rng, parts, k):
    n = sum(parts)
    out = []
    for _ in range(k):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        out.append(vals)
    return out


def _per_call(fn, inputs) -> float:
    """Median seconds of fn(x) over the inputs."""
    times = []
    for x in inputs:
        t0 = CLOCK()
        fn(x)
        times.append(CLOCK() - t0)
    return statistics.median(times)


def probes(seed: int, smoke: bool) -> dict:
    """Single-layer timings, each a median, on the inputs named in README.md."""
    import immaculate
    from immaculate import Composition, HookTableau, Pair, Tableau
    from immaculate._kernels import get_backend

    ShapeOps = get_backend().ShapeOps
    rng = random.Random(seed)
    reps = 3 if smoke else 7
    m: dict[str, float] = {}
    ok = True

    # the three micro-workloads of benchmarks/bench_kernels.py
    ops = ShapeOps((2, 2, 2, 2))
    t = median_time(ops.count_standard, reps)
    ok &= ops.count_standard() == expected_count((2, 2, 2, 2))
    m["kernels.count_2222_ms"] = t * 1e3
    m["kernels.count_standard_per_s"] = ops.n_factorial / t

    scan_parts = (3, 1, 2)
    ops = ShapeOps(scan_parts)
    p_table = [t.flat() for t in immaculate.enumerate_standard_immaculate(Composition(scan_parts))]

    def scan_312():
        nonlocal ok
        _, fx = ops.scan_fillings(0, ops.n_factorial, True)
        fy = ops.scan_pairs(p_table, 0, len(p_table) * ops.hook_prod, True)
        ok &= not fx and not fy

    m["kernels.scan_312_ms"] = median_time(scan_312, reps) * 1e3

    big = OBJECT_SHAPES[0]
    ops = ShapeOps(big)
    batch = _random_fillings(rng, big, 100 if smoke else 2000)

    def roundtrip_n20():
        nonlocal ok
        for flat in batch:
            p, j = ops.straighten(flat)
            ok &= ops.unstraighten(p, j) == flat

    m["kernels.roundtrip_n20_ms"] = median_time(roundtrip_n20, reps) * 1e3

    # bulk scans and verify_bijection on every 8th composition of 7
    n7 = 4 if smoke else 7
    shapes = all_compositions(n7)
    subset = shapes[::8] if len(shapes) >= 8 else shapes
    scan_s, verify1_s, verify2_s = [], [], []
    roundtrips = 0
    for parts in subset:
        alpha = Composition(parts)
        ops = ShapeOps(parts)
        p_table = [t.flat() for t in immaculate.enumerate_standard_immaculate(alpha)]
        y_size = len(p_table) * ops.hook_prod
        t0 = CLOCK()
        _, fx = ops.scan_fillings(0, ops.n_factorial, True)
        fy = ops.scan_pairs(p_table, 0, y_size, True)
        scan_s.append(CLOCK() - t0)
        ok &= not fx and not fy
        roundtrips += ops.n_factorial + y_size
        for jobs, into in ((1, verify1_s), (2, verify2_s)):
            t0 = CLOCK()
            report = immaculate.verify_bijection(alpha, jobs=jobs)
            into.append(CLOCK() - t0)
            ok &= report.ok
    m["kernels.scan_busy_s"] = sum(scan_s)
    m["kernels.scan_roundtrips_per_s"] = roundtrips / sum(scan_s)
    m["enumeration.verify_shape_s"] = statistics.median(verify1_s)
    m["enumeration.verify_overhead_s"] = statistics.median(
        v - s for v, s in zip(verify1_s, scan_s))
    m["enumeration.pool_overhead_s"] = sum(t2 - t1 / 2 for t1, t2 in zip(verify1_s, verify2_s))
    m["enumeration.parallel_efficiency"] = sum(verify1_s) / (2 * sum(verify2_s))

    # enumerate_standard_immaculate over every composition of 7
    t0 = CLOCK()
    produced = sum(1 for parts in shapes
                   for _ in immaculate.enumerate_standard_immaculate(Composition(parts)))
    m["enumeration.enumerate_per_s"] = produced / (CLOCK() - t0)
    ok &= produced == sum(expected_count(p) for p in shapes)

    # ShapeOps construction
    for label, parts in (("n7", (3, 1, 2, 1)), ("n49", (7,) * 7)):
        m[f"kernels.shapeops_init_{label}_us"] = median_time(
            lambda: ShapeOps(parts), 50 if smoke else 300) * 1e6

    # single checked kernel transforms on the count-sample shapes
    k = 3 if smoke else 15
    s_check, u_check = [], []
    for parts in ((7,) * 7, OBJECT_SHAPES[0]):
        ops = ShapeOps(parts)
        fills = _random_fillings(rng, parts, k)
        s_check.append(_per_call(lambda f: ops.straighten(f, True), fills))
        pairs = [ops.straighten(f) for f in fills]
        u_check.append(_per_call(lambda pj: ops.unstraighten(pj[0], pj[1], True), pairs))
    m["kernels.straighten_check_us"] = statistics.mean(s_check) * 1e6
    m["kernels.unstraighten_check_us"] = statistics.mean(u_check) * 1e6

    # the object-API mix, against the kernel on the same inputs
    k = 2 if smoke else 9
    kernel_s, kernel_u, swaps, swap_calls = [], [], 0, 0
    obj = {key: [] for key in ("s", "u", "s_check", "u_check")}
    for parts in OBJECT_SHAPES:
        alpha = Composition(parts)
        ops = ShapeOps(parts)
        fills = _random_fillings(rng, parts, k)
        tabs = [Tableau.from_flat(alpha, f) for f in fills]
        kernel_s.append(_per_call(ops.straighten, fills))
        kpairs = [ops.straighten(f) for f in fills]
        kernel_u.append(_per_call(lambda pj: ops.unstraighten(*pj), kpairs))
        swaps += sum(v - 1 for _, j in kpairs for v in j)
        swap_calls += len(kpairs)
        for check, s_key, u_key in ((False, "s", "u"), (True, "s_check", "u_check")):
            obj[s_key].append(_per_call(lambda t: immaculate.straighten(t, check=check), tabs))
            opairs = [immaculate.straighten(t)[0] for t in tabs]
            obj[u_key].append(
                _per_call(lambda p: immaculate.unstraighten(p, check=check), opairs))
            ok &= all(immaculate.unstraighten(p)[0] == t for p, t in zip(opairs, tabs))
    m["kernels.straighten_us"] = statistics.mean(kernel_s) * 1e6
    m["kernels.unstraighten_us"] = statistics.mean(kernel_u) * 1e6
    m["kernels.swaps_per_roundtrip"] = swaps / swap_calls
    m["bijection.straighten_ms"] = statistics.mean(obj["s"]) * 1e3
    m["bijection.unstraighten_ms"] = statistics.mean(obj["u"]) * 1e3
    m["bijection.straighten_check_ms"] = statistics.mean(obj["s_check"]) * 1e3
    m["bijection.unstraighten_check_ms"] = statistics.mean(obj["u_check"]) * 1e3
    m["bijection.object_over_kernel"] = (
        (sum(obj["s"]) + sum(obj["u"])) / (sum(kernel_s) + sum(kernel_u)))

    # object construction and parsing
    k = 20 if smoke else 200
    seven = Composition((7,) * 7)
    hooks = hook_lengths(seven.parts)
    rows = [[rng.randint(1, hooks[7 * i + j]) for j in range(7)] for i in range(7)]
    m["bijection.hooktableau_init_us"] = median_time(lambda: HookTableau(rows), k) * 1e6
    for label, parts in (("n49", (7,) * 7), ("n100", (10,) * 10)):
        alpha = Composition(parts)
        fill = _random_fillings(rng, parts, 1)[0]
        m[f"tableau.from_flat_{label}_us"] = median_time(
            lambda: Tableau.from_flat(alpha, fill), k) * 1e6
    hundred = Composition((10,) * 10)
    filling = Tableau.from_flat(hundred, _random_fillings(rng, hundred.parts, 1)[0])
    pair_text = immaculate.straighten(filling)[0].to_text()
    m["tableau.parse_ms"] = median_time(lambda: Tableau.parse(filling.to_text()), k) * 1e3
    m["bijection.pair_parse_ms"] = median_time(lambda: Pair.parse(pair_text), k) * 1e3

    # geometry on a fresh Composition each time (cached_property would hide it)
    m["composition.hook_lengths_us"] = median_time(
        lambda: Composition((10,) * 10).hook_lengths(), k) * 1e6
    m["composition.count_formula_us"] = median_time(
        lambda: immaculate.count_formula(Composition((10,) * 10)), k) * 1e6

    # verify_bijection(jobs=2) over every composition of 6, for cli.verify_overhead_s
    n6 = 3 if smoke else 6

    def verify_all():
        nonlocal ok
        ok &= all(immaculate.verify_bijection(Composition(p), jobs=2).ok
                  for p in all_compositions(n6))

    m["verify_inprocess_s"] = median_time(verify_all, 3)
    return {"ok": bool(ok), "metrics": m}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    p = sub.add_parser("objects")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-shape", type=int, required=True)
    p.add_argument("--trace-dir")
    p = sub.add_parser("cli")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("recursive")
    p.add_argument("--shape", required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--tracemalloc", action="store_true")
    p = sub.add_parser("probes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.what == "objects":
        tracer = _tracer(args.trace_dir, "objects")
        result = objects(args.seed, args.per_shape)
    elif args.what == "cli":
        tracer = _tracer(args.trace_dir, args.workload)
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        result = {"returncode": traced_cli(argv, args.out)}
    elif args.what == "recursive":
        tracer = None
        parts = tuple(int(p) for p in args.shape.split(","))
        result = recursive(parts, args.samples, args.tracemalloc)
    else:
        tracer = None
        result = probes(args.seed, args.smoke)
    if tracer is not None:
        tracer.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
