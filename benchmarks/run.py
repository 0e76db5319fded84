"""slipflow benchmark: one workload per process, timed end to end, or per
layer with --trace 1.

    python3 benchmarks/run.py --workload stickslip_march --seed 0 \
        --seconds 40 --trace 0

Run from the root of a source checkout; slipflow is imported from its
`src/`.  The run repeats rounds (set-up, solve, check) until the next
round would end past --seconds, and makes at least one (two with
--trace 1, where untraced and traced rounds alternate).  It prints every
metric with its unit, writes a results record with an environment stamp
to benchmarks/out/, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import dataclasses
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# setup_s is the median of at least SETUP_SAMPLES set-ups taking at least
# SETUP_MIN_S together: a set-up of a few milliseconds needs many samples
SETUP_SAMPLES = 9
SETUP_MIN_S = 1.0


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use.  Must run
    before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else ncpu
        os.environ[var] = str(min(n, ncpu))
    return ncpu


MMAP_THRESHOLD = 1 << 20  # bytes; see fix_mmap_threshold


def fix_mmap_threshold():
    """Serve every allocation of MMAP_THRESHOLD bytes or more by mmap, so
    that freeing it returns it to the system at once.  By default glibc
    raises this threshold as large blocks are freed, and peak RSS then
    varies by about 10% between identical runs; fixed, it follows the
    memory the program holds.  Returns the threshold, or None where the
    C library has no mallopt."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    M_MMAP_THRESHOLD = -3
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) else None


def import_slipflow():
    """Import slipflow from this checkout's src/, and nothing else."""
    pkg = ROOT / "src" / "slipflow"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no slipflow sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import slipflow

    if Path(slipflow.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: slipflow imported from "
                         f"{slipflow.__file__}, not from {pkg}")
    return slipflow


def prepare() -> dict:
    """Process settings for a measurement, made before numpy is imported;
    returns them for the environment stamp."""
    settings = {"cpus_usable": cap_blas_threads(),
                "malloc_mmap_threshold": fix_mmap_threshold()}
    import_slipflow()
    return settings


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Round:
    """Set-up, solve and check of one workload instance.

    Every newton_solve call is captured (wall time from one clock pair,
    state, report, and the step's t and u_old) for the checks; with a
    Tracer, every layer call also leaves a span.
    """

    def __init__(self, wl, tracer, reference):
        import slipflow.solver
        from workloads import Step

        steps = []
        with tracer.installed():
            t0 = perf_counter()
            with tracer.span("setup"):
                problem = wl.setup(tracer)
            t1 = perf_counter()
            inner = slipflow.solver.newton_solve

            def captured(ctx, *args, **kwargs):
                t, u_old = ctx.t, ctx.u_old
                s0 = perf_counter()
                state, report = inner(ctx, *args, **kwargs)
                steps.append(Step(s0, perf_counter(), ctx, state, report,
                                  t, u_old))
                return state, report

            slipflow.solver.newton_solve = captured
            try:
                with tracer.span("solve"):
                    t2 = perf_counter()
                    result, self.op_spans = wl.solve(problem, steps)
                    t3 = perf_counter()
            finally:
                slipflow.solver.newton_solve = inner
        self.traced = tracer.enabled
        tracer.enabled = False          # the checks below are not traced
        self.tracer = tracer
        self.setup_s = t1 - t0
        self.solve_start, self.solve_s = t2, t3 - t2
        self.problem, self.result, self.steps = problem, result, steps
        self.ops, self.outputs = wl.check(problem, result, steps, reference)
        self.layers = self._layer_metrics() if self.traced else None
        self.newton_iters = [s.report.iterations for s in steps]

    def release(self) -> None:
        """Drop the problem and its solutions, so that peak memory does
        not grow with the number of rounds."""
        self.problem = self.result = self.steps = None

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def _layer_metrics(self) -> dict:
        import tracing

        m = tracing.layer_metrics(self.tracer.spans, self.tracer.attrs,
                                  [s.report for s in self.steps])
        m["trace.solve_s"] = self.solve_s
        return m


def measure(wl, seconds: float, trace: bool, reference):
    """Rounds until the next one would end past `seconds`, each followed
    by one extra set-up; then more set-ups up to SETUP_SAMPLES and
    SETUP_MIN_S.  Returns the rounds and every set-up time."""
    import tracing

    def extra_setup():
        t0 = perf_counter()
        wl.setup(tracing.NullTracer())
        setup.append(perf_counter() - t0)
        gc.collect()

    rounds, setup = [], []
    start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(Round(wl, tracing.Tracer() if traced
                            else tracing.NullTracer(), reference))
        rounds[-1].release()
        setup.append(rounds[-1].setup_s)
        # the space and its FormCache refer to each other: free them now,
        # not whenever the collector next runs, or peak RSS would depend
        # on collector timing
        gc.collect()
        # set-ups spread over the run sample the machine as the solves do
        extra_setup()
        k = len(rounds)
        elapsed = perf_counter() - start
        if k >= (2 if trace else 1) and elapsed * (k + 1) / k > seconds:
            break
    while len(setup) < SETUP_SAMPLES or sum(setup) < SETUP_MIN_S:
        extra_setup()
    return rounds, setup


def op_medians(rounds):
    """Per-operation medians over rounds: of the solve cut at the end of
    each operation (the pieces sum to a solve time), and of the operation
    times.  A burst of load on the machine then counts only where it hit
    fewer than half of the rounds.  None when the rounds ran different
    numbers of operations (a march that failed part way)."""
    import numpy as np

    pieces = [np.diff([r.solve_start, *(end for _, end in r.op_spans),
                       r.solve_start + r.solve_s]) for r in rounds]
    if len({len(p) for p in pieces}) > 1:
        return None
    ops = [np.diff(r.op_spans, axis=1).ravel() for r in rounds]
    return np.median(pieces, axis=0), np.median(ops, axis=0)


def end_to_end(rounds, setup) -> dict:
    import numpy as np

    plain = [r for r in rounds if not r.traced]
    med = op_medians(plain)
    if med is None:
        solve_s = float(np.median([r.solve_s for r in plain]))
        op_ms = 1e3 * np.concatenate([np.diff(r.op_spans, axis=1).ravel()
                                      for r in plain])
    else:
        solve_s, op_ms = float(med[0].sum()), 1e3 * med[1]
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "setup_s": float(np.median(setup)),
        "solve_s": solve_s,
        "step_ms_p50": float(np.percentile(op_ms, 50)),
        "step_ms_p90": float(np.percentile(op_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(rounds) -> dict:
    import numpy as np

    traced = [r.layers for r in rounds if r.traced]
    out = {}
    for k in traced[0]:
        vals = [m[k] for m in traced]
        # counts repeat exactly between rounds; keep them whole numbers
        out[k] = vals[0] if len(set(vals)) == 1 else float(np.median(vals))
    out["trace.untraced_solve_s"] = float(
        np.median([r.solve_s for r in rounds if not r.traced]))
    out["trace.overhead_s"] = out["trace.solve_s"] - out["trace.untraced_solve_s"]
    return out


# ---------------------------------------------------------------------------
# environment stamp and records
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(settings: dict) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return {}

    # only this checkout's own repository, not one that encloses it
    top = _git("rev-parse", "--show-toplevel")
    sha = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas(numpy).get('name')} {blas(numpy).get('version')}",
        "scipy_blas": f"{blas(scipy).get('name')} {blas(scipy).get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        **settings,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def write_record(path: Path, record: dict, spans_round) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if spans_round is not None:
        spans = spans_round.tracer.spans
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        spans_path = path.with_name(path.stem + "-spans.json")
        with open(spans_path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "names": names,
                       "spans": [[index[s[0]], s[1], s[2], s[3]] for s in spans]},
                      fh)
        record["spans_file"] = spans_path.name
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(wl, seed: int, seconds: float, trace: bool, spec: dict,
        settings: dict, record_path=None) -> dict:
    """Measure one workload and return the final result object."""
    # the committed reference holds for one parameter set: the default
    # sizes with the inputs drawn from seed 0
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh).get(wl.name, {})
    params = json.loads(json.dumps(dataclasses.asdict(wl)))
    reference = ref["outputs"] if ref.get("params") == params else None
    rounds, setup = measure(wl, seconds, trace, reference)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(rounds) if trace else end_to_end(rounds, setup)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if record_path is not None:
        traced = [r for r in rounds if r.traced]
        write_record(record_path, {
            "workload": wl.name,
            "seed": seed,
            "seed_used": wl.seeded,
            "params": dataclasses.asdict(wl),
            "seconds": seconds,
            "trace": trace,
            "environment": environment(settings),
            "reference_compared": reference is not None,
            "rounds": [{"traced": r.traced, "setup_s": r.setup_s,
                        "solve_s": r.solve_s, "ops": len(r.ops),
                        "failed": r.failed, "newton_iters": r.newton_iters,
                        "op_ms": [1e3 * (e - s) for s, e in r.op_spans]}
                       for r in rounds],
            "setup_samples_s": setup,
            "failures": [dataclasses.asdict(op) for r in rounds
                         for op in r.ops if not op.ok],
            "fail_ratio": failed / attempted,
            "outputs": rounds[-1].outputs,
            "all_metrics": values,
            **result,
        }, traced[-1] if traced else None)
    return result


def print_result(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed", flush=True)
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    settings = prepare()
    spec = load_spec()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload].from_seed(args.seed)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    print_result(run(wl, args.seed, args.seconds, bool(args.trace), spec,
                     settings, path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
