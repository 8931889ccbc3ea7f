"""Run one benchmark workload and print its metrics.

    env STOCHMATCH_THREADS=1 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \\
        MKL_NUM_THREADS=1 python3 perfbench/run.py \\
        --workload mc-trials --seed 1 --seconds 20 --trace 0

Workloads: ``mc-trials``, ``lp-solve``, ``exact-eval`` (see README.md).
The run sets up its inputs several times and keeps the last set, then
repeats whole rounds of the same ops until ``--seconds`` have passed, then
checks the outputs.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it records spans and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the machine facts.  A record of the run, with its spans when traced,
goes to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# One process for the simulation, one thread for BLAS: the dense simplex's
# answers depend on the BLAS thread count.
PINNED = {"STOCHMATCH_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_OPS = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-trials", "lp-solve", "exact-eval"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "env": {k: os.environ.get(k) for k in PINNED}}


def source_lines(module: str) -> int:
    path = SRC / "stochmatch" / f"{module}.py"
    return len(path.read_text().splitlines()) if path.is_file() else 0


def run_rounds(ops, seconds, tracer):
    """Whole rounds of ``ops`` until ``seconds`` have passed and at least
    ``MIN_OPS`` ops have run, with the calibration kernel timed before the
    first op and after every op.  Returns per-round results, the op wall
    times and the kernel times (one more than the ops)."""
    import calibration
    from stochmatch import StochmatchError

    rounds, latencies = [], []
    kernels = [calibration.time_kernel()]
    clock = time.perf_counter
    start = clock()
    while True:
        results = []
        for op in ops:
            t0 = clock()
            try:
                result = op.run()
            except StochmatchError as e:  # counted as a failed op
                result = e
            latencies.append(clock() - t0)
            kernels.append(calibration.time_kernel())
            results.append(result)
        rounds.append(results)
        if tracer is not None:
            tracer.keep_solutions = False
        if clock() - start >= seconds and len(latencies) >= MIN_OPS:
            return rounds, latencies, kernels


def same_result(workload, a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return workload.same(a, b)


def main(argv=None) -> int:
    args = parse_args(argv)
    wrong = {k: os.environ.get(k) for k, v in PINNED.items() if os.environ.get(k) != v}
    if wrong:
        print(f"run.py: set {' '.join(f'{k}={v}' for k, v in PINNED.items())}"
              f" in the command (found {wrong})", file=sys.stderr)
        return 2
    if not (SRC / "stochmatch" / "__init__.py").is_file():
        print(f"run.py: no stochmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import stochmatch  # noqa: F401
    import stochmatch.hard_instances  # noqa: F401
    import_s = time.perf_counter() - T_START

    import calibration
    import metrics
    from tracer import Tracer, patched_lp_solve
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    clock = time.perf_counter
    import_kernel = calibration.time_kernel(5)
    with patched_lp_solve(tracer) if tracer is not None else nullcontext():
        parts, scaled_parts = [], []
        for _ in range(SETUP_REPEATS):
            # each part is scaled by the kernel timed just before and after it
            times, kernels = [], [calibration.time_kernel(3)]

            def part(step, *step_args):
                t0 = clock()
                out = step(*step_args)
                times.append(clock() - t0)
                kernels.append(calibration.time_kernel(3))
                return out

            inputs = part(workload.generate, args.seed)
            state = part(workload.precompute, inputs, tracer)
            part(workload.warmup, state, tracer)
            parts.append(times)
            scaled_parts.append([calibration.scale(t, (a + b) / 2.0)
                                 for t, a, b in zip(times, kernels, kernels[1:])])
        ops = workload.ops(state, tracer)
        gc.collect()
        if tracer is not None:
            tracer.phase = "timed"
        rounds, latencies, kernels = run_rounds(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probes = {}
        if tracer is not None:
            tracer.phase = "probe"
            probes = workload.probe(state)

    verdict = workload.check(state, rounds[0])
    problems = list(verdict.problems)
    failed_ops = []
    for r, results in enumerate(rounds):
        for i, result in enumerate(results):
            if not same_result(workload, rounds[0][i], result):
                problems.append(f"op {i} ({ops[i].kind}) returned another result in round {r}")
                failed_ops.append((r, i))
            elif not verdict.ok[i]:
                failed_ops.append((r, i))

    def timings(lat, setup, imp):
        """End-to-end times from op latencies, the setup repeats' parts
        (generate, precompute, warm up) and the import time."""
        n = len(ops)
        return {
            "wall_s": statistics.median(sum(lat[r * n:(r + 1) * n]) for r in range(len(rounds))),
            "op_p50_ms": statistics.quantiles(lat, n=100)[49] * 1e3,
            "op_p90_ms": statistics.quantiles(lat, n=100)[89] * 1e3,
            "setup_s": imp + statistics.median(sum(p) for p in setup),
            "parts": [statistics.median(p[k] for p in setup) for k in range(3)],
        }

    raw = timings(latencies, parts, import_s)
    scaled = timings(calibration.scale_ops(latencies, kernels),
                     scaled_parts, calibration.scale(import_s, import_kernel))
    if tracer is None:
        values = {k: scaled[k] for k in ("wall_s", "op_p50_ms", "op_p90_ms", "setup_s")}
        values["peak_rss_mb"] = peak_rss_mb
        units = metrics.END_TO_END
    else:
        values = metrics.span_metrics(tracer, len(rounds))
        values.update(probes)
        values.update({
            "setup.import_s": calibration.scale(import_s, import_kernel),
            "hard_instances.gen_s": scaled["parts"][0],
            "setup.precompute_s": scaled["parts"][1],
            "setup.warmup_s": scaled["parts"][2],
            "trace.wall_s": scaled["wall_s"],
        })
        values.update({f"{m}.source_lines": source_lines(m) for m in metrics.MODULES})
        units = metrics.PER_LAYER
    for name in units:
        values.setdefault(name, 0.0)
    result = {
        "correct": not problems,
        "attempted": len(rounds) * len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }

    facts = machine_facts()
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": facts, "result": result,
              "problems": problems, "failed_ops": sorted({i for _, i in failed_ops}),
              "rounds": len(rounds), "ops_per_round": len(ops),
              "raw": raw, "scaled": scaled, "kernel_median_s": statistics.median(kernels),
              "latencies_s": latencies, "kernels_s": kernels}
    if tracer is not None:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
