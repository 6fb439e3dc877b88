"""Command-line front end.

Subcommands cover the pipeline stages: ``simulate`` writes click records,
``reconstruct`` turns them into a Wigner map, ``recover-rho`` integrates the
map into a density matrix, and ``report`` condenses one or more artifacts
into a tidy summary.  Exit codes: 0 success, 2 config error, 3 data or I/O
error, 4 numerical failure.  ``run`` is the process entry; ``main`` runs one
command and leaves the garbage collector as it found it.
"""
import argparse
import gc
import os
import pickle
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import io_csv
from .config import (
    RunConfig,
    analytic_wigner_fn,
    build_recipe,
    build_state,
    load_config,
)
from .em import EMConfig, run_em_batch  # noqa: F401  (bench/tests patch run_em_batch through this module)
from .errors import ConfigError, DataError, NumericalError
from .measurement import simulate
from .wigner import WignerEstimate, delta_w, reconstruct_clicks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# A forked block costs 4-10 ms (fork, copy-on-write faults, pickling), so it needs
# enough points.  One minimum serves both stages: an EM point costs far more than
# a simulate point, whose forward model, counts and rows take 17-21 us on the
# shipped configs, and two simulate blocks of 200-300 points tie with one
BLOCK_MIN = 256
# Cuts at multiples of BLOCK_ALIGN points leave every product of a block bit-identical
# to its rows of the whole batch's (tests try every such cut on the shipped shapes),
# provided the EM's (M, N) @ (N, P) products are not cut from above BLAS_SMALL
# multiply-adds to at most that: OpenBLAS computes those with its small-matrix kernel,
# which rounds otherwise
BLOCK_ALIGN = 8
BLAS_SMALL = 10**6


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blocks(n_points: int, madds: int = 0) -> list[slice]:
    """Split P points into at most one block per CPU, cut at multiples of BLOCK_ALIGN.

    Every block holds at least BLOCK_MIN points.  ``madds`` is the
    multiply-adds per point of the stage's products that OpenBLAS computes with
    its small-matrix kernel at or under BLAS_SMALL: no block takes that kernel
    unless the whole batch does.  A process that runs other threads is not
    forked, so it gets one block.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    k = max(1, min(_cpu_count(), n_points // BLOCK_MIN)) if forkable else 1
    while k > 1 and BLOCK_ALIGN * (n_points // (BLOCK_ALIGN * k)) * madds <= BLAS_SMALL < n_points * madds:
        k -= 1  # the smallest block would cross BLAS_SMALL
    cuts = [BLOCK_ALIGN * (i * n_points // (BLOCK_ALIGN * k)) for i in range(k)] + [n_points]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:])]


def _map_blocks(fn, blocks: list[slice]) -> list:
    """``[fn(block) for block in blocks]``, block 0 in this process and each other block in a forked child.

    A child pickles ``("ok", result)`` or ``("err", exception)`` to its pipe and
    leaves through ``os._exit``; a block whose fork fails runs here.  Each pipe
    is read to its end before its child is reaped, and once every block is
    done the first error in block order is raised.  A child that ends without
    an outcome is an OSError.  Leaving early (an interrupt) kills and reaps
    every child still running.
    """
    outcomes: list = [None] * len(blocks)
    children: list[tuple[int, int, int]] = []  # (block index, pid, read end)
    local = [0]  # the blocks this process runs
    try:
        for i in range(1, len(blocks)):
            rfd, wfd = os.pipe()
            try:
                with warnings.catch_warnings():  # 3.12+ warns in the parent of a process with threads
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                local.append(i)
                continue
            if pid == 0:
                _run_child(fn, blocks[i], rfd, wfd)
            os.close(wfd)
            children.append((i, pid, rfd))
        for i in local:
            try:
                outcomes[i] = ("ok", fn(blocks[i]))
            except Exception as exc:  # raised below, in block order
                outcomes[i] = ("err", exc)
        while children:
            i, pid, rfd = children[0]
            with os.fdopen(rfd, "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            os.close(rfd)
            if status:  # killed, or failed to send its outcome
                lost = OSError(
                    f"point block {i} (points {blocks[i].start} to {blocks[i].stop - 1}) "
                    f"ended without a result (wait status {status})"
                )
                outcomes[i] = ("err", lost)
            else:
                outcomes[i] = pickle.loads(data)
    finally:
        for _, pid, rfd in children:
            os.close(rfd)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    for kind, value in outcomes:
        if kind == "err":
            raise value
    return [value for _, value in outcomes]


def _run_child(fn, block: slice, rfd: int, wfd: int) -> None:
    """Run one block in a forked child, pickle its outcome to ``wfd`` and leave without cleanup."""
    status = 1
    try:
        os.close(rfd)
        try:
            outcome = ("ok", fn(block))
        except Exception as exc:  # the parent raises it
            outcome = ("err", exc)
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _blocks_text(blocks: list[slice]) -> str:
    return f"{len(blocks)} block{'s' if len(blocks) > 1 else ''}"


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    return cfg.with_overrides(seed=args.seed, exact=args.exact)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load(args)
    rho = build_state(cfg)
    recipe = build_recipe(cfg)
    gammas = cfg.grid.flat_gammas()
    out = _out_dir(args)
    blocks = _blocks(gammas.size)
    for rep in range(cfg.repetitions):

        def run_block(b: slice) -> tuple[str, np.ndarray]:
            clicks = simulate(
                rho, gammas[b], recipe, cfg.trunc, cfg.n_runs, cfg.seed, rep, cfg.exact_probabilities, offset=b.start
            )
            return io_csv.click_rows(clicks.noclick, b.start), clicks.truncation_leak

        texts, leaks = zip(*_map_blocks(run_block, blocks))
        leak = np.concatenate(leaks)
        name = "clicks.csv" if cfg.repetitions == 1 else f"clicks_rep{rep}.csv"
        io_csv.write_click_csv(out / name, cfg, rep, texts)
        worst = int(np.argmax(leak))
        print(
            f"wrote {out / name} ({gammas.size} points x {cfg.detectors.n_settings} settings "
            f"in {_blocks_text(blocks)}; largest truncation leak {leak[worst]:.6e} at gamma = {complex(gammas[worst])})"
        )
    return EXIT_OK


def _nodes_match(gammas: np.ndarray, grid) -> bool:
    """Whether ``gammas`` are the grid's nodes, in order, to 1e-9."""
    return gammas.size == grid.n_points and np.max(np.abs(gammas - grid.flat_gammas())) <= 1e-9


def cmd_reconstruct(args) -> int:
    """The wigner.csv header is the click files' embedded config; ``--config``
    (default: that config) sets only the EM keys and ``analytic_reference``."""
    cfg = None if args.config is None else _load(args)
    em_cfg = first_cfg = None
    maps, logliks, n_failed = [], [], 0
    seen: dict[int, str] = {}  # repetition -> path
    for path in args.records:
        file_cfg, rep, clicks = io_csv.read_click_csv(path)
        cfg = file_cfg if cfg is None else cfg
        em_cfg = em_cfg or EMConfig(n_iterations=cfg.n_iterations, normalization=cfg.normalization)
        if file_cfg.trunc.n_trunc != cfg.trunc.n_trunc:
            raise DataError(f"{path}: truncation differs from the run config")
        if file_cfg.state != cfg.state:
            raise DataError(f"{path}: [state] differs from the run config")
        first_cfg = first_cfg or file_cfg
        if file_cfg != first_cfg:
            raise DataError(f"{path}: embedded config differs from that of {args.records[0]}")
        if rep in seen:  # the records share one config, so only the repetition tells them apart
            raise DataError(f"{path}: repetition {rep} is that of {seen[rep]} too")
        seen[rep] = path
        n_trunc, n_points = cfg.trunc.n_trunc, clicks.gammas.size
        blocks = _blocks(n_points, clicks.nu_bar.size * n_trunc)

        def run_block(b: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            block = clicks._replace(gammas=clicks.gammas[b], y=clicks.y[b], noclick=clicks.noclick[b])
            w, _, ll, failed = reconstruct_clicks(block, n_trunc, em_cfg)
            return w, ll, failed

        w, ll, failed = (np.concatenate(arrays) for arrays in zip(*_map_blocks(run_block, blocks)))
        maps.append(w)
        logliks.append(ll)
        n_failed += int(failed.sum())
    if not _nodes_match(first_cfg.grid.flat_gammas(), cfg.grid):
        raise DataError("records do not cover the configured grid")
    header = first_cfg._replace(
        n_iterations=cfg.n_iterations,
        normalization=cfg.normalization,
        analytic_reference=cfg.analytic_reference,
    )

    w_var = np.var(np.stack(maps), axis=0) if len(maps) > 1 else None
    w_exact = analytic_wigner_fn(header)(header.grid.flat_gammas()) if header.analytic_reference else None
    out = _out_dir(args)
    io_csv.write_wigner_csv(
        out / "wigner.csv", header, maps[0], w_exact=w_exact, w_variance=w_var, loglik=logliks[0]
    )
    print(f"wrote {out / 'wigner.csv'} ({maps[0].size} points in {_blocks_text(blocks)}, {n_failed} failed)")
    if n_failed:
        print(f"{n_failed} points failed to reconstruct", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_recover_rho(args) -> int:
    """rho.csv and metrics.json carry the Wigner file's embedded config."""
    from .recover import compare_states, integrate_rho  # imported here: no other stage needs it
    cfg = None if args.config is None else _load(args)
    file_cfg, gammas, cols = io_csv.read_wigner_csv(args.wigner)
    if cfg is not None and (file_cfg.trunc.n_trunc != cfg.trunc.n_trunc or file_cfg.state != cfg.state):
        raise DataError(f"{args.wigner}: n_trunc or [state] differs from the run config")
    if not _nodes_match(gammas, file_cfg.grid):
        raise DataError(f"{args.wigner}: points do not match the embedded grid")
    n_trunc = file_cfg.trunc.n_trunc
    estimate = WignerEstimate(file_cfg.grid, cols["w_rec"])
    if estimate.bound_warning:
        print(estimate.bound_warning, file=sys.stderr)
    skipped = int(np.count_nonzero(~np.isfinite(estimate.w_values)))
    if skipped:
        print(f"skipping {skipped} non-finite Wigner nodes in the quadrature", file=sys.stderr)
    recovered = integrate_rho(estimate, n_trunc)
    if recovered.trace_warning:
        suspect = "grid coverage or resolution is suspect"
        print(f"recovered trace {recovered.trace:.4f} is far from 1; {suspect}", file=sys.stderr)

    exact = build_state(file_cfg).elements[:n_trunc, :n_trunc]
    comparison = compare_states(recovered, exact)
    out = _out_dir(args)
    io_csv.write_rho_csv(out / "rho.csv", file_cfg, recovered.elements)
    metrics = {
        "trace": recovered.trace,
        "hermitization_residual": recovered.hermitization_residual,
        "min_eigenvalue": recovered.min_eigenvalue(),
        "trace_warning": recovered.trace_warning,
        "fidelity_vs_configured_state": comparison["fidelity"],
        "max_abs_diff_vs_configured_state": comparison["max_abs_diff"],
        "trace_distance_vs_configured_state": comparison["trace_distance"],
    }
    io_csv.write_metrics_json(out / "metrics.json", file_cfg, metrics)
    print(f"wrote {out / 'rho.csv'} and {out / 'metrics.json'}")
    for key, value in metrics.items():
        print(f"  {key} = {value}")
    return EXIT_OK


def cmd_report(args) -> int:
    t0 = time.perf_counter()
    rows = []
    for path in args.wigner:
        cfg, _, cols = io_csv.read_wigner_csv(path)
        rows.append(
            {
                "file": str(path),
                "n_runs": cfg.n_runs,
                "n_iterations": cfg.n_iterations,
                "seed": cfg.seed,
                "exact_probabilities": cfg.exact_probabilities,
                "delta_w": delta_w(cols["w_exact"], cols["w_rec"]),
                "mean_variance": float(np.nanmean(cols["w_variance"]))
                if np.isfinite(cols["w_variance"]).any()
                else float("nan"),
            }
        )
    rows.sort(key=lambda r: (r["n_iterations"], r["n_runs"], r["seed"]))
    payload: dict = {"maps": rows}
    if args.metrics:
        import json

        with open(args.metrics, "r", encoding="utf-8") as fh:
            try:
                payload["rho_metrics"] = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
                raise DataError(f"{args.metrics}: not a metrics JSON file: {exc}") from exc
        if not isinstance(payload["rho_metrics"], dict):
            raise DataError(f"{args.metrics}: not a metrics JSON file: holds no JSON object")
    payload["runtime_seconds"] = time.perf_counter() - t0

    header = f"{'n_iterations':>12} {'n_runs':>8} {'seed':>6} {'delta_w':>12} {'mean_var':>12}"
    print(header)
    for r in rows:
        print(
            f"{r['n_iterations']:>12} {r['n_runs']:>8} {r['seed']:>6} "
            f"{r['delta_w']:>12.6g} {r['mean_variance']:>12.6g}"
        )
    out = _out_dir(args)
    io_csv.write_json(out / "report.json", payload)
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clicktomo",
        description="Wigner-function reconstruction from on/off detector clicks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, optional=False, config_help="run configuration file"):
        p.add_argument("--config", required=not optional, help=config_help)
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--exact", action="store_true", help="exact-probability mode")
        p.add_argument("--out", default=".", help="output directory")

    p_sim = sub.add_parser("simulate", help="simulate click records on the configured grid")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="EM-reconstruct a Wigner map from click records")
    common(p_rec, optional=True, config_help="run configuration file; default: the first record's embedded config")
    p_rec.add_argument("--records", nargs="+", required=True, help="click CSV file(s)")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_rho = sub.add_parser("recover-rho", help="integrate a Wigner map into a density matrix")
    common(p_rho, optional=True, config_help="run configuration file; default: the Wigner file's embedded config")
    p_rho.add_argument("--wigner", required=True, help="Wigner CSV file")
    p_rho.set_defaults(func=cmd_recover_rho)

    p_rep = sub.add_parser("report", help="summarize Wigner maps and recovery metrics")
    p_rep.add_argument("--out", default=".", help="output directory")
    p_rep.add_argument("--wigner", nargs="+", required=True, help="Wigner CSV file(s)")
    p_rep.add_argument("--metrics", default=None, help="metrics JSON from recover-rho")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> NoReturn:
    """The process entry of ``python -m clicktomo`` and the ``clicktomo`` command: exit with ``main()``'s status.

    Standard output is flushed here, so that a closed pipe is one I/O error
    line and exit 3, not a traceback from the interpreter's own flush at
    shutdown and exit 120; fd 1 then points at os.devnull, so that final flush
    cannot fail again.  ``gc.freeze()`` moves every live object to the
    collector's permanent generation, which the shutdown collections skip:
    a stage's exit takes 3-5 ms with it and 13-16 ms without, on a 2-vCPU VM.
    """
    status = main()
    if sys.stdout is not None:  # None when the process started with fd 1 closed
        try:
            sys.stdout.flush()
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"I/O error: {exc}", file=sys.stderr)
            status = EXIT_DATA
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
