"""Command-line front end.

Subcommands cover the pipeline stages: ``simulate`` writes click records,
``reconstruct`` turns them into a Wigner map, ``recover-rho`` integrates the
map into a density matrix, and ``report`` condenses one or more artifacts
into a tidy summary.  Exit codes: 0 success, 2 config error, 3 data or I/O
error or out of memory, 4 numerical failure.  ``main`` runs one command and
leaves the garbage collector as it found it.
"""
import argparse
import os
import pickle
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import io_csv
from .config import (
    RunConfig,
    analytic_wigner_fn,
    build_amplitudes,
    build_recipe,
    build_state,
    dump_config,
    load_config,
)
from .em import run_em_batch  # looked up here at each call: bench/tests patch it through this module
from .errors import ConfigError, DataError, NumericalError
from .measurement import binomial_counts, forward_model
from .wigner import W_BOUND_SLACK, delta_w, wigner_from_values

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# A forked block costs 2-4 ms to fork and up to 10 ms with its copy-on-write faults and
# pickling, so it needs enough points.  One minimum serves both stages: an EM point costs
# far more than a simulate point (17-21 us for its forward model, counts and rows on the
# shipped configs), and two simulate blocks of 200-300 points, each on its own CPU, tie with one
BLOCK_MIN = 256
# Cuts at multiples of BLOCK_ALIGN points leave every product of a block bit-identical
# to its rows of the whole batch's (tests try every such cut on the shipped shapes),
# provided the EM's (M, N) @ (N, P) products are not cut from above BLAS_SMALL
# multiply-adds to at most that: OpenBLAS computes those with its small-matrix kernel,
# which rounds otherwise.  A multiple of measurement.STREAM_POINTS, so every block
# starts a sampling stream and draws the counts the whole batch draws
BLOCK_ALIGN = 8
BLAS_SMALL = 10**6
# simulate walks each block in chunks of CHUNK_POINTS points, so its working memory is
# that of one chunk whatever the grid; a multiple of measurement.STREAM_POINTS, so
# every chunk starts a sampling stream and draws the counts the whole batch draws
CHUNK_POINTS = 256


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


def _chunks(block: slice) -> list[slice]:
    """Split a block into chunks of CHUNK_POINTS points; the last chunk takes a one-point tail.

    A lone point would take numpy's matrix-vector product in the no-click
    series, which rounds otherwise than the same point in a batch, so a chunk
    holds one point only when its block does.
    """
    cuts = [*range(block.start, block.stop - 1, CHUNK_POINTS)] or [block.start]
    return [slice(start, stop) for start, stop in zip(cuts, [*cuts[1:], block.stop])]


def _map_blocks(fn, blocks: list[slice]) -> list:
    """``[fn(block) for block in blocks]``, block 0 in this process and each other block in a forked child.

    Block i starts on CPU i of the mask (:func:`_place`).  A child pickles ``("ok", result)`` or
    ``("err", exception)`` to its pipe and leaves through ``os._exit``; a block whose fork fails runs here.  Each pipe
    is read to its end before its child is reaped, and once every block is
    done the first error in block order is raised.  A child that ends without
    an outcome is an OSError.  Leaving early (an interrupt) kills and reaps
    every child still running.
    """
    outcomes: list = [None] * len(blocks)
    children: list[tuple[int, int, int]] = []  # (block index, pid, read end)
    local = [0]  # the blocks this process runs
    cpus = sorted(os.sched_getaffinity(0)) if len(blocks) > 1 and hasattr(os, "sched_setaffinity") else []
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
                _run_child(fn, i, blocks[i], cpus, rfd, wfd)
            os.close(wfd)
            children.append((i, pid, rfd))
        _place(0, cpus)
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


def _place(i: int, cpus: list[int]) -> None:
    """Move this process onto CPU ``cpus[i % len(cpus)]`` now, then allow it all of ``cpus`` again.

    A forked child starts on its parent's CPU, and a host that does not balance load
    (``sched_load_balance`` = 0) leaves it there; the whole mask then pins nothing.
    """
    if len(cpus) > 1:
        try:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _run_child(fn, i: int, block: slice, cpus: list[int], rfd: int, wfd: int) -> None:
    """Run block ``i`` in a forked child on its CPU, pickle its outcome to ``wfd`` and leave without cleanup."""
    status = 1
    try:
        os.close(rfd)
        _place(i, cpus)
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


def _run_config(args, path, file_cfg: RunConfig) -> RunConfig:
    """``file_cfg``, the embedded config of ``path``, with ``--config``'s n_iterations: a ``--config``
    whose text differs from that config's in any ``key = value`` line but n_iterations and seed is a
    data error (every key is in one section, so its line names it)."""
    cfg = file_cfg if args.config is None else load_config(args.config)
    free = {"n_iterations": file_cfg.n_iterations, "seed": file_cfg.seed}
    for line, run_line in zip(*(dump_config(c._replace(**free)).split("\n") for c in (cfg, file_cfg))):
        if line != run_line:
            raise DataError(f"{path}: --config's {line} differs from the run config's {run_line}")
    return file_cfg._replace(n_iterations=cfg.n_iterations)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = cfg._replace(seed=args.seed)
    amplitudes = build_amplitudes(cfg)
    recipe = build_recipe(cfg)
    gammas = cfg.grid.flat_gammas()
    out = _out_dir(args)
    blocks = _blocks(gammas.size)

    def run_block(b: slice) -> tuple[list[list[str]], np.ndarray]:
        texts, leaks = [[] for _ in range(cfg.repetitions)], []  # texts[rep]: the block's rows of repetition rep
        for chunk in _chunks(b):
            probs, leak = forward_model(amplitudes, gammas[chunk], recipe, cfg.trunc)
            for rep, rep_texts in enumerate(texts):  # every repetition draws from the one table
                if cfg.exact_probabilities:
                    noclick = probs * cfg.n_runs
                else:  # each group of points draws from the stream keyed (seed, rep, index of its first point)
                    noclick = binomial_counts(cfg.n_runs, probs, (cfg.seed, rep), chunk.start)
                rep_texts.append(io_csv.click_rows(noclick, chunk.start))
            leaks.append(leak)
        return texts, np.concatenate(leaks)

    block_texts, leaks = zip(*_map_blocks(run_block, blocks))
    leak = np.concatenate(leaks)
    path = out / "clicks.csv"
    rows = [text for rep in range(cfg.repetitions) for texts in block_texts for text in texts[rep]]
    io_csv.write_click_csv(path, cfg, rows)
    worst = int(np.argmax(leak))
    print(
        f"wrote {path} ({gammas.size} points x {cfg.detectors.n_settings} settings "
        f"in {_blocks_text(blocks)}; largest truncation leak {leak[worst]:.6e} at gamma = {complex(gammas[worst])})"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    """Fit each repetition's P points in the blocks a run of one repetition takes, one repetition at a time.

    Each block builds its own points' schedule from the header.  ``w_rec`` and ``em_final_loglik``
    are repetition 0's, with the bits of a run of one repetition, and ``w_variance`` is the
    variance over the R repetitions' maps (NaN for R = 1).  A point failed when its fit failed
    in any repetition; the summary and the error line count such points, whose W is NaN.  The
    wigner.csv header is the click file's embedded config with ``--config``'s ``n_iterations``.
    """
    file_cfg, noclick = io_csv.read_click_csv(args.records)
    header = _run_config(args, args.records, file_cfg)
    recipe, gammas = build_recipe(header), header.grid.flat_gammas()
    n_trunc, n_points, n_reps, n_runs = header.trunc.n_trunc, gammas.size, header.repetitions, header.n_runs
    counts = noclick.reshape(n_reps, n_points, -1)  # counts[rep]: repetition rep's rows, a view
    blocks = _blocks(n_points, counts.shape[2] * n_trunc)

    def run_block(b: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        try:
            sched = recipe.build(gammas[b])
        except ValueError as exc:
            raise DataError(f"{args.records}: embedded config declares no valid schedule: {exc}") from exc
        ey = np.exp(sched.y)
        fits = [
            run_em_batch(rep[b] / n_runs, sched.nu_bar, ey, n_trunc, header.n_iterations, noclick=rep[b], n_runs=n_runs)
            for rep in counts
        ]
        w = [np.where(failed, np.nan, wigner_from_values(values)) for values, _, failed in fits]
        return w[0], fits[0][1], np.any([failed for _, _, failed in fits], axis=0), np.var(w, axis=0)

    w, ll, failed, w_var = (np.concatenate(arrays) for arrays in zip(*_map_blocks(run_block, blocks)))
    n_failed = int(failed.sum())
    w_exact = analytic_wigner_fn(header)(gammas)
    out = _out_dir(args)
    io_csv.write_wigner_csv(out / "wigner.csv", header, w, w_exact, ll, w_var if n_reps > 1 else None)
    print(f"wrote {out / 'wigner.csv'} ({n_points} points in {_blocks_text(blocks)}, {n_failed} failed)")
    if n_failed:
        reps = f" in at least one of {n_reps} repetitions" if n_reps > 1 else ""
        print(f"{n_failed} points failed to reconstruct{reps}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_recover_rho(args) -> int:
    """rho.csv and metrics.json carry the Wigner file's embedded config.

    The map's warnings go to stderr; a map with no finite value is a data error before any of them.
    """
    from .recover import TRACE_WARN_TOL, compare_states, integrate_rho  # imported here: no other stage needs it
    file_cfg, _, cols = io_csv.read_wigner_csv(args.wigner)
    _run_config(args, args.wigner, file_cfg)
    w = cols["w_rec"]
    finite = np.isfinite(w)
    if not finite.any():
        raise DataError(f"{args.wigner}: Wigner map holds no finite values")
    peak = float(np.max(np.abs(w[finite])))
    if peak > 2.0 / np.pi + W_BOUND_SLACK:
        print(f"Wigner magnitude {peak:.6f} exceeds 2/pi; leaving values unclamped", file=sys.stderr)
    if not finite.all():
        print(f"skipping {np.count_nonzero(~finite)} non-finite Wigner nodes in the quadrature", file=sys.stderr)
    rho, residual = integrate_rho(file_cfg.grid, w, file_cfg.trunc.n_trunc)
    trace = float(np.real(np.trace(rho)))
    trace_warning = abs(trace - 1.0) > TRACE_WARN_TOL
    if trace_warning:
        print(f"recovered trace {trace:.4f} is far from 1; grid coverage or resolution is suspect", file=sys.stderr)

    comparison = compare_states(rho, build_state(file_cfg).elements)
    out = _out_dir(args)
    io_csv.write_rho_csv(out / "rho.csv", file_cfg, rho)
    metrics = {
        "trace": trace,
        "hermitization_residual": residual,
        "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]),
        "trace_warning": trace_warning,
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
        p.add_argument("--out", default=".", help="output directory")

    p_sim = sub.add_parser("simulate", help="simulate click records on the configured grid")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("reconstruct", help="EM-reconstruct a Wigner map from click records")
    common(p_rec, optional=True, config_help="run configuration file; default: the click file's embedded config")
    p_rec.add_argument("--records", required=True, help="click CSV file")
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
        if getattr(args, "seed", None) is not None and args.seed < 0:  # report takes no --seed
            raise ConfigError(f"seed must be non-negative, got {args.seed}")
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
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DATA

