"""cohortlex benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload trace-all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from
--seed under `.bench-run/`, drives cohortlex from outside (CLI ops through
`cohortlex.cli.main(argv)` in-process, library ops through the public
functions), checks every output, and prints one line per metric followed,
as the last line, by a JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones, measured untraced:

    setup_s      import cohortlex + parse_lexicon + build_trie of the
                 workload's lexicon (import once, parse + build repeated,
                 median)
    pass_s       median wall time of one pass over the workload's ops
    peak_rss_mb  peak resident memory of the workload's process

Each workload also prints its own end-to-end metrics with unit and
sample count (see workloads.py): trace_points_per_s and compare_s
(trace-all), sims_per_s and permutations_per_s (recovery), lookup_p50_ms,
lookup_p90_ms, pairs_s and continuum_items_per_s (big-lexicon), and
failed_ratio, the ops that exited 1, 2 or 3 or timed out over the ops
attempted, with the first stderr line of each kind of failure.

With --trace 1 one untraced cycle (set-up plus pass) is followed by traced
cycles: every public function of the cohortlex modules and the public
`CohortTrie` methods are wrapped, spans are kept in memory, and the
per-layer metrics are reported per traced cycle (see recorder.py). The
spans are written to `.bench-run/spans-<workload>.csv`.

`--workload all` runs each workload in its own process, one after the
other, and prints every metric of each.
"""

import argparse
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import recorder as rec
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench-run"
SETUP_REPEATS = {"trace-all": 5, "recovery": 5, "big-lexicon": 3}
OP_TIMEOUT_S = 60
DOCUMENTED_EXITS = (1, 2, 3)
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class OpTimeout(BaseException):
    """Raised in the op by SIGALRM; a BaseException so no handler swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_program():
    """Import the checkout's cohortlex; return (package, cli module, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import cohortlex
    import cohortlex.cli

    elapsed = time.perf_counter() - start
    if Path(cohortlex.__file__).resolve().parent != ROOT / "src" / "cohortlex":
        raise ImportError(f"cohortlex imported from {cohortlex.__file__}, not this checkout")
    return cohortlex, cohortlex.cli, elapsed


def load_oracle():
    path = ROOT / "tests" / "naive_oracle.py"
    spec = importlib.util.spec_from_file_location("naive_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "git_commit": commit,
    }


def run_op(cli, op: wl.Op, recorder=None, bench_span=None) -> wl.OpResult:
    """Run one op with output captured and a timeout; never raises for the op."""
    out, err = io.StringIO(), io.StringIO()
    value, rc = None, 0
    if recorder is not None:
        recorder.new_op()
        span = recorder.begin(bench_span)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.argv is not None:
                rc = cli.main(op.argv)
            else:
                value = op.call()
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except OpTimeout:
        rc = None
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if recorder is not None:
            recorder.finish(span)
    if recorder is not None and op.argv is not None:
        recorder.count("cli.bytes_written", len(out.getvalue().encode("utf-8")))
    return wl.OpResult(op.kind, wall, rc, out.getvalue(), err.getvalue(), value)


def run_pass(cli, ops, recorder=None, bench_span=None) -> list:
    return [run_op(cli, op, recorder, bench_span) for op in ops]


def check_outputs(ops, passes) -> None:
    """Check every op of every pass; raise CheckFailure on a wrong output.

    The first successful result of each op is checked in full; the same op
    in other passes must give an identical output. Exits 1-3 and timeouts
    are failures to count, not wrong outputs.
    """
    for index, op in enumerate(ops):
        results = [p[index] for p in passes]
        for r in results:
            if r.rc is not None and r.rc != 0 and r.rc not in DOCUMENTED_EXITS:
                raise wl.CheckFailure(f"{op.kind}: undocumented exit {r.rc}: {r.err.strip()}")
            if r.rc in DOCUMENTED_EXITS and not r.error_line.startswith("error:"):
                raise wl.CheckFailure(f"{op.kind}: exit {r.rc} without an error line")
        done = [r for r in results if r.rc == 0]
        if not done:
            continue
        if op.check is not None:
            try:
                op.check(done[0])
            except (LookupError, ValueError, TypeError, AttributeError) as exc:
                raise wl.CheckFailure(f"{op.kind}: malformed output: {exc!r}") from exc

        def digest(r):
            return r.out if op.argv is not None else op.digest(r.value)

        reference = digest(done[0])
        for r in done[1:]:
            if digest(r) != reference:
                raise wl.CheckFailure(f"{op.kind}: output differs between passes")


def failure_summary(results) -> tuple[int, int, dict]:
    failures: dict[str, int] = {}
    for r in results:
        if r.failed:
            key = f"{r.kind}: {r.error_line}"
            failures[key] = failures.get(key, 0) + 1
    return len(results), sum(failures.values()), failures


def measure_untraced(workload, cl, cli, inputs, seconds, import_s):
    setups, state = [], None
    for _ in range(SETUP_REPEATS[workload.name]):
        state = None  # release the previous lexicon and trie before rebuilding
        start = time.perf_counter()
        state = wl.setup(cl, inputs)
        setups.append(time.perf_counter() - start)
    ops = workload.ops(cl, inputs, state)
    passes, walls = [], []
    while True:
        passes.append(run_pass(cli, ops))
        walls.append(sum(r.wall_s for r in passes[-1]))
        if sum(walls) + walls[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = time.perf_counter()
    check_outputs(ops, passes)
    check_s = time.perf_counter() - checked
    results = [r for p in passes for r in p]
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s", len(setups)),
        "pass_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    metrics.update(workload.summarize(results))
    return metrics, results, {"check_s": check_s}


def measure_traced(workload, cl, cli, inputs, seconds):
    start = time.perf_counter()
    state = wl.setup(cl, inputs)
    setup_s = time.perf_counter() - start
    ops = workload.ops(cl, inputs, state)
    passes = [run_pass(cli, ops)]
    untraced_cycle = setup_s + sum(r.wall_s for r in passes[0])

    recorder = rec.Recorder()
    setup_span = recorder.name_id("bench.setup")
    op_span = recorder.name_id("bench.op")
    cycle_walls = []
    with rec.Tracing(recorder, cl) as tracing:
        while True:
            setup = run_op(cli, wl.Op("setup", call=lambda: wl.setup(cl, inputs)),
                           recorder, setup_span)
            if setup.failed:
                raise wl.CheckFailure(f"traced set-up failed: {setup.err.strip()}")
            ops_traced = workload.ops(cl, inputs, setup.value)
            passes.append(run_pass(cli, ops_traced, recorder, op_span))
            cycle_walls.append(setup.wall_s + sum(r.wall_s for r in passes[-1]))
            if sum(cycle_walls) + cycle_walls[-1] > seconds:
                break
    checked = time.perf_counter()
    check_outputs(ops, passes)
    check_s = time.perf_counter() - checked
    overhead = statistics.median(cycle_walls) / untraced_cycle
    values = rec.layer_metrics(recorder, len(cycle_walls), overhead)
    metrics = {
        key: (value, rec.PER_LAYER_UNITS[key], len(cycle_walls))
        for key, value in values.items()
    }
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_csv(OUT_DIR / f"spans-{workload.name}.csv")
    results = [r for p in passes for r in p]
    detail = {"absent": tracing.absent(), "spans": len(recorder.start), "check_s": check_s}
    return metrics, results, detail


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_workload(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    try:
        cl, cli, import_s = import_program()
        oracle = load_oracle()
    except (ImportError, OSError) as exc:
        print(f"error: cannot load the program or its oracle: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    correct, problem, detail = True, None, {}
    started = time.perf_counter()
    try:
        inputs = workload.make_inputs(args.seed, tmp)
        inputs["facts"]["generate_s"] = round(time.perf_counter() - started, 3)
        wl.attach_oracle(inputs, oracle)
        if args.trace:
            metrics, results, detail = measure_traced(workload, cl, cli, inputs, args.seconds)
        else:
            metrics, results, detail = measure_untraced(
                workload, cl, cli, inputs, args.seconds, import_s)
    except wl.CheckFailure as exc:
        correct, problem, metrics, results = False, str(exc), {}, []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, failures = failure_summary(results)
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    if correct:
        print(f"inputs {json.dumps(inputs['facts'], sort_keys=True)}")
        for name, (value, unit, n) in metrics.items():
            print(f"metric {name} {_fmt(value)} {unit} n={n}")
        if not args.trace:
            print(f"metric failed_ratio {_fmt(failed / attempted)} ratio n={attempted}")
        for line, count in failures.items():
            print(f"failure x{count} {line}")
        for name in detail.get("absent", ()):
            print(f"absent {name}")
        print(f"run check_s={detail['check_s']:.3f} total_s={time.perf_counter() - started:.3f}"
              + (f" spans={detail['spans']}" if args.trace else ""))
    else:
        print(f"check failed: {problem}")
    wanted = rec.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted if correct
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Pin BLAS before cohortlex imports numpy: the thread count alone moves
    # simfit time by about 2x on a 2-core machine.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
