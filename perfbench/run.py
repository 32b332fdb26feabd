"""Benchmark of the coresel package: one workload per invocation.

    python3 perfbench/run.py --workload ocs-imbalanced --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The run self-checks the reference code, builds the
workload's inputs from `--seed` several times (`setup_s` is the median), then
repeats whole rounds of the workload for at least `--seconds` seconds and
at least two rounds, checking every round's outputs outside the timed region.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced rounds and reports per-layer metrics.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import os

# One BLAS thread, fixed before numpy loads: steadier timings on a shared
# machine, and results that repeat bit for bit.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
SETUPS = 5
# A traced run ends on a traced round once it has traced this many training
# steps (enough for a 90th percentile), or after TRACE_CAP times --seconds.
MIN_TRACED_STEPS = 100
TRACE_CAP = 6

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "examples_per_s": "examples/s", "peak_rss_mb": "MB"}


def import_program():
    """Import coresel from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import coresel
    except ImportError as exc:
        raise SystemExit(f"cannot import coresel from {src}: {exc}")
    if not os.path.abspath(coresel.__file__).startswith(src + os.sep):
        raise SystemExit(f"coresel was imported from {coresel.__file__}, not from {src}")


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else f"{BLAS_THREADS} (requested)",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload, seconds, trace):
    """Set up, run rounds, check them; return (result dict, per-round log)."""
    import spans

    tracer = spans.Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUPS):
        inputs = None  # drop the previous inputs before building the next
        if tracer:
            tracer.phase = "setup"
        start = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            inputs = workload.setup()
        setup_times.append(time.perf_counter() - start)

    examples = workload.examples(inputs)
    rounds, first = [], {}
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.phase = index
        start = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                run_s, result = workload.run_round(inputs)
            outcomes = workload.check(inputs, result)
        except Exception as exc:  # a crashing program fails the round's operations, not the benchmark
            run_s = time.perf_counter() - start
            outcomes = [(k, [f"{type(exc).__name__}: {exc}"], None) for k in range(workload.ops_per_round)]
        failures = []
        for key, problems, digest in outcomes:
            reference_digest = first.setdefault(key, digest) if index == 0 else first.get(key)
            if digest is not None and digest != reference_digest:
                problems = problems + ["rerun with the same seed gave a different accuracy matrix or buffer"]
            attempted += 1
            failed += bool(problems)
            failures += [f"{key}: {problem}" for problem in problems]
        result = None  # free the round's run state before the next round
        rounds.append({"run_s": run_s, "traced": traced, "failures": failures})
        print(f"round {index}{' traced' if traced else ''}: run_s {run_s:.4f} s, {len(failures)} failures", flush=True)
        for line in failures[:5]:
            print(f"  FAIL {line}", flush=True)
        elapsed = time.perf_counter() - began
        done = elapsed >= seconds and len(rounds) >= 2
        if tracer is not None:
            steps = sum(r.get("trainer.train_iteration", {}).get("calls", 0)
                        for phase, r in tracer.phase_totals().items() if phase != "setup")
            done = done and traced and (steps >= MIN_TRACED_STEPS or elapsed >= TRACE_CAP * seconds)
        if done:
            break

    untraced = [r["run_s"] for r in rounds if not r["traced"]]
    if tracer is None:
        run_s = statistics.median(untraced)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "examples_per_s": examples / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced_runs = [r["run_s"] for r in rounds if r["traced"]]
        traced_phases = [i for i, r in enumerate(rounds) if r["traced"]]
        metrics = spans.per_layer(tracer, "setup", traced_phases,
                                  statistics.median(untraced), statistics.median(traced_runs))
        units = spans.metric_units()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.jsonl"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, {"setup_s": setup_times, "examples_per_round": examples, "rounds": rounds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True), flush=True)
    reference.self_check()
    print("self-check: reference gradients match finite differences; metric formulas match the hand-built matrix")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        result, log = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, env=env, log=log)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
