"""The immaculate benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source tree (it puts ``src`` on PYTHONPATH and
builds nothing).  Every piece of work runs in a child process whose address
space is capped, so a memory blow-up is a failed operation, not a dead host.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
timing's median, its highest percentile with at least ten samples beyond it,
the sample counts, the error rate and the run context.  README.md explains
the workloads, the layers and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import spans

CLOCK = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
CHILD = str(HERE / "child.py")

MEMORY_CAP = 2 * 2**30  # bytes of address space per child process tree member
RUN_BUDGET_S = 170.0    # every child is killed once the run has used this much
SETUP_SAMPLES = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "roundtrips_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{spans.metric_prefix(layer)}.self_s": "s" for layer in spans.LAYERS},
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.roundtrips": "count",
    "trace.fillings": "count",
    "trace.samples": "count",
    "kernels.count_2222_ms": "ms",
    "kernels.count_standard_per_s": "1/s",
    "kernels.scan_312_ms": "ms",
    "kernels.roundtrip_n20_ms": "ms",
    "kernels.scan_busy_s": "s",
    "kernels.scan_roundtrips_per_s": "1/s",
    "kernels.shapeops_init_n7_us": "us",
    "kernels.shapeops_init_n49_us": "us",
    "kernels.straighten_check_us": "us",
    "kernels.unstraighten_check_us": "us",
    "kernels.straighten_us": "us",
    "kernels.unstraighten_us": "us",
    "kernels.swaps_per_roundtrip": "count",
    "enumeration.count_recursive_s": "s",
    "enumeration.count_recursive_peak_mb": "MB",
    "enumeration.sample_immaculate_us": "us",
    "enumeration.enumerate_per_s": "1/s",
    "enumeration.verify_shape_s": "s",
    "enumeration.verify_overhead_s": "s",
    "enumeration.pool_overhead_s": "s",
    "enumeration.parallel_efficiency": "ratio",
    "bijection.straighten_ms": "ms",
    "bijection.unstraighten_ms": "ms",
    "bijection.straighten_check_ms": "ms",
    "bijection.unstraighten_check_ms": "ms",
    "bijection.object_over_kernel": "ratio",
    "bijection.hooktableau_init_us": "us",
    "bijection.pair_parse_ms": "ms",
    "tableau.from_flat_n49_us": "us",
    "tableau.from_flat_n100_us": "us",
    "tableau.parse_ms": "ms",
    "composition.hook_lengths_us": "us",
    "composition.count_formula_us": "us",
    "cli.import_s": "s",
    "cli.verify_overhead_s": "s",
    "cli.psi_check_s": "s",
    "cli.phi_check_s": "s",
}

# Full sizes, and the tiny ones --smoke uses to run everything in seconds.
SIZES = {
    False: {"verify_n": 7, "big": (7,) * 7, "mid": (4, 1, 4, 2, 1, 3, 2, 1, 1, 1),
            "big_samples": 1000, "mid_samples": 4000, "brute": (3, 1, 2, 2, 1, 1),
            "per_shape": 40, "recursive": (7,) * 7, "peak": (6,) * 6, "samples": 200,
            "cli_n": 6, "file": (10,) * 10, "cli_reps": 5, "setup": SETUP_SAMPLES},
    True: {"verify_n": 4, "big": (3, 3, 3), "mid": (2, 1, 2, 1), "big_samples": 20,
           "mid_samples": 20, "brute": (2, 1, 2), "per_shape": 2, "recursive": (3, 3, 3),
           "peak": (3, 3), "samples": 5, "cli_n": 3, "file": (3, 2, 3), "cli_reps": 2,
           "setup": 3},
}


def shape_arg(parts) -> str:
    return ",".join(map(str, parts))


def _cap_memory() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def tail(values, pct: int):
    """The pct-th percentile of values, or None unless >= 10 samples lie beyond it."""
    vals = sorted(values)
    k = math.ceil(pct / 100 * len(vals))  # the percentile is the k-th smallest
    return vals[k - 1] if len(vals) - k >= 10 else None


def describe(values) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} (n={n}"
    pct = next((p for p in range(99, 0, -1) if tail(values, p) is not None), None)
    if pct is not None:
        text += f", p{pct} {tail(values, pct):.6g}"
    return text + ")"


class Run:
    """One benchmark run: children, their failures, and the time budget."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[smoke]
        self.smoke = smoke
        self.start = CLOCK()
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.dir = OUT / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    def remaining(self) -> float:
        return RUN_BUDGET_S - (CLOCK() - self.start)

    def launch(self, args):
        """Run python with args; (start time, return code or None on timeout, stdout)."""
        t0 = CLOCK()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.notes.append(f"timeout: {' '.join(args)}")
            return t0, None, ""
        if proc.returncode != 0:
            self.notes.append(f"exit {proc.returncode}: {' '.join(args)}: {err.strip()[-300:]}")
        return t0, proc.returncode, out

    def json_child(self, args):
        """Launch, then the JSON object on the last line of stdout (None on failure)."""
        t0, rc, out = self.launch(args)
        return t0, self.last_json(args, rc, out)

    def last_json(self, args, rc, out):
        if rc != 0 or not out.strip():
            return None
        try:
            return json.loads(out.strip().splitlines()[-1])
        except json.JSONDecodeError:
            self.notes.append(f"unreadable output: {' '.join(args)}")
            return None

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed}/{attempted} operations failed")


# -- correctness checks -------------------------------------------------------


def check_verify(out: str, expected_shapes, exhaustive: bool, samples: int = 0):
    """(failed shapes, roundtrips) from `verify --format json`."""
    try:
        doc = json.loads(out)
        reports = {tuple(r["shape"]): r for r in doc["reports"]}
    except (json.JSONDecodeError, KeyError, TypeError):
        return len(expected_shapes), 0
    failed, roundtrips = 0, 0
    for parts in expected_shapes:
        r = reports.get(tuple(parts))
        if r is None:
            failed += 1
            continue
        want = child.expected_count(parts)
        side = math.factorial(sum(parts)) if exhaustive else samples
        good = (doc["ok"] and r["ok"] and r["count_formula"] == want
                and r["count_recursive"] == want
                and r["x_checked"] == side and r["y_checked"] == side
                and not r["roundtrip_failures"] and not r["assertion_failures"])
        if exhaustive:
            good = good and r["x_size"] == r["y_size"] == side and r["count_bruteforce"] == want
        failed += not good
        roundtrips += r["x_checked"] + r["y_checked"]
    if len(reports) != len(expected_shapes):  # a shape verified that was not asked for
        failed = len(expected_shapes)
    return failed, roundtrips


# -- workloads: one repetition each --------------------------------------------
#
# A repetition returns its wall time (launch of the first child to the check
# of the last output), its checked roundtrips, and its per-call latencies.


def verify_argv(run: Run):
    return ["verify", "--n", str(run.size["verify_n"]), "--jobs", "2", "--format", "json"]


def count_sample_commands(run: Run, seed: int):
    """(argv, checker) per command; checker(stdout) -> (failed, roundtrips)."""
    s = run.size
    cmds = []
    for parts, samples in ((s["big"], s["big_samples"]), (s["mid"], s["mid_samples"])):
        argv = ["verify", shape_arg(parts), "--mode", "sampled", "--samples", str(samples),
                "--seed", str(seed), "--format", "json"]

        def check(out, parts=parts, samples=samples):
            return check_verify(out, [parts], False, samples)

        cmds.append((argv, check))
    for method in ("brute", "recursive", "formula"):
        argv = ["count", shape_arg(s["brute"]), "--method", method, "--format", "json"]

        def check(out, parts=s["brute"]):
            try:
                good = json.loads(out)["count"] == child.expected_count(parts)
            except (json.JSONDecodeError, KeyError, TypeError):
                good = False
            return int(not good), 0

        cmds.append((argv, check))
    return cmds


def exhaustive_rep(run: Run, rep: int, trace_dir=None) -> dict:
    """One call is the whole `verify` process, timed from launch to exit."""
    shapes = child.all_compositions(run.size["verify_n"])
    if trace_dir is None:
        t0, rc, out = run.launch(["-m", "immaculate.cli", *verify_argv(run)])
    else:
        t0, rc, out = traced_cli(run, trace_dir, verify_argv(run))
    exited = CLOCK()
    if rc == 0:
        failed, roundtrips = check_verify(out, shapes, True)
    else:
        failed, roundtrips = len(shapes), 0
    run.count(len(shapes), failed)
    return {"wall": CLOCK() - t0, "roundtrips": roundtrips, "calls_ms": [(exited - t0) * 1e3],
            "t0": t0}


def count_sample_rep(run: Run, rep: int, trace_dir=None) -> dict:
    """The commands one after another; one call is one command's process."""
    first = None
    calls, roundtrips = [], 0
    for argv, check in count_sample_commands(run, run.seed * 1000 + rep):
        if trace_dir is None:
            t0, rc, out = run.launch(["-m", "immaculate.cli", *argv])
        else:
            t0, rc, out = traced_cli(run, trace_dir, argv)
        calls.append((CLOCK() - t0) * 1e3)
        failed, done = check(out) if rc == 0 else (1, 0)
        roundtrips += done
        run.count(1, failed)
        first = t0 if first is None else first
    return {"wall": CLOCK() - first, "roundtrips": roundtrips, "calls_ms": calls, "t0": first}


def objects_rep(run: Run, rep: int, trace_dir=None) -> dict:
    """One in-process caller; one call is one straighten or unstraighten."""
    args = [CHILD, "objects", "--seed", str(run.seed * 1000 + rep),
            "--per-shape", str(run.size["per_shape"])]
    if trace_dir is not None:
        args += ["--trace-dir", str(trace_dir)]
    t0, rc, out = run.launch(args)
    result = run.last_json(args, rc, out)
    if result is None:
        attempted = run.size["per_shape"] * len(child.OBJECT_SHAPES)
        run.count(attempted, attempted)
        return {"wall": CLOCK() - t0, "roundtrips": 0, "calls_ms": [], "t0": t0}
    run.count(result["attempted"], result["failed"])
    return {"wall": CLOCK() - t0, "roundtrips": result["attempted"] - result["failed"],
            "calls_ms": result["calls_ms"], "t0": t0}


def traced_cli(run: Run, trace_dir: Path, argv):
    """argv through the CLI in-process, in a traced child.

    Returns (t0, return code, CLI stdout), like Run.launch.
    """
    out = trace_dir / "cli-out.txt"
    t0, rc, stdout = run.launch([CHILD, "cli", "--trace-dir", str(trace_dir), "--workload",
                                 run.workload, "--out", str(out), "--", *argv])
    done = run.last_json(argv, rc, stdout)  # the CLI's own exit code
    rc = None if done is None else done["returncode"]
    return t0, rc, out.read_text() if rc == 0 else ""


REPS = {"exhaustive": exhaustive_rep, "count-sample": count_sample_rep, "objects": objects_rep}


# -- set-up and context ---------------------------------------------------------


def setup_times(run: Run) -> list[float]:
    """Fresh interpreter start to `import immaculate` returning, in seconds."""
    code = "import immaculate, time; print(time.perf_counter())"
    run.launch(["-c", code])  # writes bytecode caches on a first run; not timed
    times = []
    for _ in range(run.size["setup"]):
        t0, rc, out = run.launch(["-c", code])
        if rc == 0:
            times.append(float(out.split()[-1]) - t0)
    return times


CONTEXT_CODE = """
import json, platform, immaculate
try:
    import immaculate._kernels._speedups
    reason = None
except ImportError as exc:
    reason = str(exc)
print(json.dumps({"backend": immaculate.BACKEND, "speedups_import_error": reason,
                  "python": platform.python_version()}))
"""


def context(run: Run) -> dict:
    _, ctx = run.json_child(["-c", CONTEXT_CODE])
    ctx = ctx or {"backend": None}
    if ctx.get("backend") == "compiled":
        ctx.pop("speedups_import_error", None)
    ctx["nproc"] = len(os.sched_getaffinity(0))
    with open("/proc/meminfo") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    ctx["mem_total_mb"] = kb // 1024
    ctx["IMMACULATE_PURE"] = os.environ.get("IMMACULATE_PURE")
    return ctx


# -- the two kinds of run ---------------------------------------------------------


def measure(run: Run, seconds: float) -> tuple[dict, list[str]]:
    """Untraced: repeat the workload for about `seconds`; end-to-end metrics."""
    setup = setup_times(run)
    rep_fn = REPS[run.workload]
    reps = []
    t_start = CLOCK()
    while True:
        reps.append(rep_fn(run, len(reps)))
        elapsed = CLOCK() - t_start
        mean = elapsed / len(reps)
        # whole repetitions only, ending at most half a repetition past `seconds`
        if elapsed + mean / 2 >= seconds or mean > run.remaining():
            break
    walls = [r["wall"] for r in reps]
    rates = [r["roundtrips"] / r["wall"] for r in reps]
    calls = [c for r in reps for c in r["calls_ms"]]
    if not calls or not setup:
        raise SystemExit("no successful operation to measure")
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    p99 = tail(calls, 99)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "roundtrips_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(calls),
        "peak_rss_mb": peak_mb,
    }
    lines = [
        f"setup_s: {describe(setup)} s",
        f"wall_s: {describe(walls)} s; repetitions: {', '.join(f'{w:.3f}' for w in walls)}",
        f"roundtrips_per_s: {describe(rates)} 1/s ({reps[0]['roundtrips']} checked per repetition)",
        f"call_p50_ms: {describe(calls)} ms",
        f"call_p99_ms: {p99:.6g} ms (n={len(calls)})" if p99 is not None else
        f"call_p99_ms: not reported, fewer than 10 of {len(calls)} calls lie beyond p99",
        f"peak_rss_mb: {peak_mb:.1f} MB (largest process of the run, workers included)",
    ]
    return metrics, lines


def trace(run: Run) -> tuple[dict, list[str]]:
    """Traced: one untraced and one traced repetition, then the layer probes."""
    rep_fn = REPS[run.workload]
    plain = rep_fn(run, 0)
    trace_dir = run.dir / "spans"
    trace_dir.mkdir()
    traced = rep_fn(run, 0, trace_dir)
    recorded = spans.load(trace_dir)
    split = spans.layer_split(recorded, traced["t0"], traced["t0"] + traced["wall"])
    with open(OUT / f"spans-{run.workload}.jsonl", "w") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in recorded)
    m = {f"{spans.metric_prefix(layer)}.self_s": v for layer, v in split["self_s"].items()}
    m["trace.residual_s"] = split["residual_s"]
    m["trace.overhead_s"] = traced["wall"] - plain["wall"]
    m.update({f"trace.{kind}": n for kind, n in split["counts"].items()})
    m.update(probe_metrics(run))
    lines = [f"traced wall {traced['wall']:.3f} s, untraced {plain['wall']:.3f} s, "
             f"{split['spans']} spans written to {OUT.name}/spans-{run.workload}.jsonl"]
    lines += [f"{name}: {m[name]:.6g}" for name in PER_LAYER if name in m]
    return m, lines


def probe_metrics(run: Run) -> dict:
    s = run.size
    m = {}
    _, result = run.json_child([CHILD, "probes", "--seed", str(run.seed)]
                               + (["--smoke"] if run.smoke else []))
    run.count(1, result is None or not result["ok"])
    if result is not None:
        m.update(result["metrics"])
    _, cold = run.json_child([CHILD, "recursive", "--shape", shape_arg(s["recursive"]),
                              "--samples", str(s["samples"])])
    _, peak = run.json_child([CHILD, "recursive", "--shape", shape_arg(s["peak"]),
                              "--tracemalloc"])
    run.count(2, sum(r is None or not r["ok"] for r in (cold, peak)))
    if cold is not None:
        m["enumeration.count_recursive_s"] = cold["count_s"]
        m["enumeration.sample_immaculate_us"] = cold["sample_us"]
    if peak is not None:
        m["enumeration.count_recursive_peak_mb"] = peak["peak_mb"]

    import_s = []
    for _ in range(s["cli_reps"]):
        _, rc, out = run.launch(["-c", "import time; t = time.perf_counter(); import immaculate;"
                                       " print(time.perf_counter() - t)"])
        if rc == 0:
            import_s.append(float(out.split()[-1]))
    if import_s:
        m["cli.import_s"] = statistics.median(import_s)

    cli_walls = []
    for _ in range(3):
        t0, rc, out = run.launch(["-m", "immaculate.cli", "verify", "--n", str(s["cli_n"]),
                                  "--jobs", "2", "--format", "json"])
        failed = check_verify(out, child.all_compositions(s["cli_n"]), True)[0] if rc == 0 else 1
        run.count(1, int(failed > 0))
        cli_walls.append(CLOCK() - t0)
    inprocess = m.pop("verify_inprocess_s", None)
    if inprocess is not None:
        m["cli.verify_overhead_s"] = statistics.median(cli_walls) - inprocess

    # psi --check on a pair, then phi --check on psi's output must give the pair back
    parts = s["file"]
    rng = random.Random(run.seed)
    hooks = child.hook_lengths(parts)
    p_rows, j_rows, pos = [], [], 0
    for part in parts:
        p_rows.append(range(pos + 1, pos + part + 1))
        j_rows.append([rng.randint(1, h) for h in hooks[pos:pos + part]])
        pos += part
    pair_text = "\n\n".join("\n".join(" ".join(map(str, r)) for r in rows)
                            for rows in (p_rows, j_rows)) + "\n"
    pair_file, filling_file = run.dir / "pair.txt", run.dir / "filling.txt"
    pair_file.write_text(pair_text)
    psi_s, phi_s = [], []
    for _ in range(s["cli_reps"]):
        t0, rc, filling = run.launch(["-m", "immaculate.cli", "psi", str(pair_file), "--check"])
        psi_s.append(CLOCK() - t0)
        filling_file.write_text(filling)
        t0, rc2, back = run.launch(["-m", "immaculate.cli", "phi", str(filling_file), "--check"])
        phi_s.append(CLOCK() - t0)
        run.count(1, int(rc != 0 or rc2 != 0 or back.strip() != pair_text.strip()))
    m["cli.psi_check_s"] = statistics.median(psi_s)
    m["cli.phi_check_s"] = statistics.median(phi_s)
    return m


def execute(workload: str, seed: int, seconds: float, traced: bool, smoke: bool = False) -> dict:
    run = Run(workload, seed, smoke)
    try:
        ctx = context(run)
        metrics, lines = trace(run) if traced else measure(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    for line in lines:
        print(f"[{workload}] {line}")
    print(f"[{workload}] error_rate: {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} operations)")
    for note in run.notes:
        print(f"[{workload}] note: {note}")
    print(f"[{workload}] context: {json.dumps(ctx)}")
    missing = [name for name in units if name not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    """Every workload traced and untraced at tiny sizes; names and units must
    match BENCHMARK.json exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in REPS:
        for traced in (False, True):
            result = execute(workload, seed=1, seconds=1, traced=traced, smoke=True)
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            if got != want[traced]:
                raise SystemExit(f"{workload} trace={int(traced)}: metrics {got} "
                                 f"differ from BENCHMARK.json {want[traced]}")
            if not result["correct"]:
                raise SystemExit(f"{workload} trace={int(traced)}: failed operations")
    print("smoke ok: every workload, traced and untraced, reports every metric with its unit")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(REPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the metric names")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "immaculate" / "__init__.py").is_file():
        print(f"error: no src/immaculate under {ROOT}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    _cap_memory()  # inherited by every child and its pool workers
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
