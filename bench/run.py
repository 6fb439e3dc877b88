"""clicktomo benchmark: the CLI chain end to end, or per layer with a tracer.

    python3 bench/run.py --workload coherent_sampled --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the chain ``simulate -> reconstruct -> recover-rho`` as
one ``python -m clicktomo`` subprocess per stage, closed loop, one client,
``--threads`` at its default of 1, repeating whole chains for ``--seconds``.
The fixed reference work in ``reference.py`` runs between every two timed
invocations, and timings are reported in reference seconds (``REFERENCE_S``).
``--trace 1`` runs the chain in-process, alternating untraced and traced
chains, and reports per-layer self times and counts.  Either way every chain
passes the output gate in ``chain.check_chain`` and the outputs must be
byte-identical across chains.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the root of a clicktomo checkout; the program is imported from its
``src`` directory.  Working files go to ``bench/.work/<workload>/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))

import chain  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, computed_counts, workload_shape  # noqa: E402

# One BLAS thread in every stage: on a small shared machine a spinning BLAS
# pool makes wall times swing by tens of percent between runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Timings are in reference seconds: wall time times REFERENCE_S over the mean
# wall of the reference work (reference.py) run just before and just after
# the timed invocation.  The shared host's speed swings by up to 2x within
# minutes and moves both alike, so the ratio holds still where wall time does
# not.  REFERENCE_S is the median wall of reference.py on the recorded
# machine, so there a reference second is about a wall second.
REFERENCE_S = 0.7
MIN_CHAINS = 2
# stop starting chains this long after the run began, so it ends within 180 s
START_LIMIT_S = 120.0
KILL_AFTER_S = 170.0

END_TO_END = {
    "chain_s": "s",
    "simulate_s": "s",
    "reconstruct_s": "s",
    "recover_rho_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delta_w": "1",
    "rho_fidelity": "1",
    "rho_trace_err": "1",
}
STAGE_METRIC = {"simulate": "simulate_s", "reconstruct": "reconstruct_s", "recover-rho": "recover_rho_s"}

PER_LAYER = {f"{layer}.{kind}": unit for layer in tracer.LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))}
PER_LAYER.update(
    {
        "measurement.binomial_draws": "count",
        "measurement.settings_derived": "count",
        "fock.diagonals": "count",
        "fock.ops_computed": "count",
        "em.rows": "count",
        "em.row_iterations": "count",
        "em.ops_computed": "count",
        "em.failed_rows": "count",
        "io_csv.write_s": "s",
        "io_csv.read_s": "s",
        "io_csv.bytes_written": "B",
        "io_csv.bytes_read": "B",
        "io_csv.rows_read": "count",
        "recover.kernel_evals": "count",
        "trace.chain_s": "s",
        "trace.overhead_s": "s",
    }
)


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


class Run:
    """Stage invocations attempted and failed in one benchmark run."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[chain.ChainCheck] = []

    @property
    def deadline(self) -> float:
        return self.started + KILL_AFTER_S

    def may_start(self, seconds: float, t0: float, done: int, last_s: float) -> bool:
        if monotonic() - self.started + last_s > START_LIMIT_S and done >= MIN_CHAINS:
            return False
        return done < MIN_CHAINS or perf_counter() - t0 < seconds

    def chain(self, runner) -> tuple[list[chain.StageRun], chain.ChainCheck]:
        out = chain.fresh_dir(self.work / f"chain{len(self.checks)}")
        runs = runner(out)
        check = chain.check_chain(runs, out, self.workload)
        self.checks.append(check)
        return runs, check

    def settle(self) -> None:
        """Digest identity across chains, then count every stage invocation."""
        chain.compare_digests(self.checks)
        for i, check in enumerate(self.checks):
            self.attempted += len(chain.STAGES)
            for stage, reason in check.failed.items():
                self.failures.append(f"chain {i} {stage}: {reason}")

    def passed(self) -> list[int]:
        return [i for i, c in enumerate(self.checks) if not c.failed]


def scaled(r: chain.StageRun) -> float:
    """Wall time in reference seconds (see ``REFERENCE_S``)."""
    return r.wall_s * REFERENCE_S / r.ref_s


def measure_untraced(run: Run, seconds: float) -> dict:
    env = chain.subprocess_env(SRC)
    reference = chain.Reference(env, run.work, run.deadline)
    setups, chains = [], []
    t0, last = perf_counter(), 0.0
    while run.may_start(seconds, t0, len(chains), last):
        start = perf_counter()
        k = len(setups)
        setup = chain.time_setup(run.workload.config, env, run.work / f"setup{k}.log", run.deadline)
        setup.ref_s = reference.around()
        run.attempted += 1
        if setup.code != 0:
            run.failures.append(f"setup {k}: exit code {setup.code}")
        setups.append(setup)
        runs, _ = run.chain(
            lambda out: chain.run_chain_subprocess(run.workload.config, run.seed, out, env, run.deadline, reference)
        )
        chains.append(runs)
        last = perf_counter() - start
    run.settle()
    good = run.passed()
    setups = [s for s in setups if s.code == 0]
    if not good or not setups:
        return {}
    metrics, wall = {}, {}
    for value, into in ((scaled, metrics), (lambda r: r.wall_s, wall)):
        stages = [{r.stage: value(r) for r in chains[i]} for i in good]
        into.update({name: statistics.median(s[stage] for s in stages) for stage, name in STAGE_METRIC.items()})
        into["chain_s"] = statistics.median(sum(s.values()) for s in stages)
        into["setup_s"] = statistics.median(value(s) for s in setups)
    metrics["peak_rss_mb"] = statistics.median(max(r.rss_mb for r in chains[i]) for i in good)
    metrics.update(run.checks[good[0]].quality)
    return {
        "metrics": metrics,
        "wall_medians": wall,
        "samples": len(good),
        "chain_walls": [{r.stage: r.wall_s for r in chains[i]} for i in good],
        "chain_refs": [{r.stage: r.ref_s for r in chains[i]} for i in good],
        "setup_walls": [s.wall_s for s in setups],
        "setup_refs": [s.ref_s for s in setups],
        "reference_walls": reference.walls,
    }


def traced_chain(config: Path, seed: int, out: Path, tr) -> list[chain.StageRun]:
    """In-process chain, patched only while the stages run (not during the gate)."""
    if tr is None:
        return chain.run_chain_inprocess(config, seed, out)
    with tr:
        return chain.run_chain_inprocess(config, seed, out, tr)


def measure_traced(run: Run, seconds: float) -> dict:
    config, seed = run.workload.config, run.seed
    summaries, overhead, last_tracer = [], [], None
    t0, last, pair = perf_counter(), 0.0, 0
    while run.may_start(seconds, t0, 2 * pair, last):
        start = perf_counter()
        totals = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            gc.collect()
            tr = tracer.Tracer() if traced else None
            runs, check = run.chain(lambda out: traced_chain(config, seed, out, tr))
            totals[traced] = sum(r.wall_s for r in runs)
            if traced and not check.failed:
                summaries.append(tracer.summarize(tr.spans))
                last_tracer = tr
        overhead.append(totals[True] - totals[False])
        pair += 1
        last = perf_counter() - start
    run.settle()
    good = run.passed()
    if not summaries or not good:
        return {}
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["trace.overhead_s"] = statistics.median(overhead)
    # derived from inputs and outputs, not measured: they repeat exactly
    computed = {**computed_counts(workload_shape(config)), **run.checks[good[0]].counts}
    metrics.update(computed)
    tracer.write_spans(run.work / "spans.csv", last_tracer.spans)
    return {"metrics": metrics, "samples": len(summaries), "pairs": pair, "computed": sorted(computed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clicktomo" / "cli.py").is_file():
        print(f"error: no clicktomo sources under {SRC}; run from a clicktomo checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    return execute(workload, args.seed, args.seconds, args.trace, BENCH / ".work" / workload.name)


def execute(workload, seed: int, seconds: float, trace: int, work: Path) -> int:
    """Measure one workload, write its details to ``work`` and print the result."""
    run = Run(workload, seed, chain.fresh_dir(work))
    measured = (measure_traced if trace else measure_untraced)(run, seconds)
    if not measured:
        print(f"error: no chain of {workload.name} completed", file=sys.stderr)
        for failure in run.failures:
            print(f"  {failure}", file=sys.stderr)
        return 3

    units = PER_LAYER if trace else END_TO_END
    metrics = measured["metrics"]
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    digests = run.checks[0].digests
    details = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        **{k: v for k, v in measured.items() if k != "metrics"},
        "failures": run.failures,
        "digests": digests,
        "machine": machine_info(),
        "result": result,
    }
    (work / f"result-trace{trace}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")

    mode = "traced in-process" if trace else "subprocess per stage, closed loop, 1 client, --threads 1"
    unit = "wall" if trace else "reference"
    print(f"workload {workload.name}  seed {seed}  {mode}  {unit} timings: median of {measured['samples']} chains")
    for name, entry in result["metrics"].items():
        label = " (computed)" if name in measured.get("computed", ()) else ""
        value = entry["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<30} {shown} {entry['unit']}{label}")
    if not trace:
        print(f"  {'setup_s samples':<30} {len(measured['setup_walls']):>16}")
        for name, value in measured["wall_medians"].items():
            print(f"  {name + ' (wall)':<30} {value:>16.6g} s")
        print(f"  {'reference wall (median)':<30} {statistics.median(measured['reference_walls']):>16.6g} s")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<30} {ratio:>16.6g} 1 ({result['failed']}/{result['attempted']} invocations)")
    for name, digest in digests.items():
        print(f"  sha256 {name:<12} {digest}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
