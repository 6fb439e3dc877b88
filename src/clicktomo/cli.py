"""Command-line front end.

Subcommands cover the pipeline stages: ``simulate`` writes click records,
``reconstruct`` turns them into a Wigner map, ``recover-rho`` integrates the
map into a density matrix, and ``report`` condenses one or more artifacts
into a tidy summary.  Exit codes: 0 success, 2 config error, 3 data or I/O
error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

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
from .recover import compare_states, integrate_rho
from .wigner import WignerEstimate, delta_w, reconstruct_clicks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


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
    for rep in range(cfg.repetitions):
        clicks = simulate(
            rho, gammas, recipe, cfg.trunc, cfg.n_runs, cfg.seed, rep, cfg.exact_probabilities
        )
        name = "clicks.csv" if cfg.repetitions == 1 else f"clicks_rep{rep}.csv"
        io_csv.write_click_csv(out / name, cfg, rep, clicks)
        worst = int(np.argmax(clicks.truncation_leak))
        print(
            f"wrote {out / name} ({gammas.size} points x {clicks.noclick.shape[1]} settings; "
            f"largest truncation leak {clicks.truncation_leak[worst]:.6e} "
            f"at gamma = {complex(gammas[worst])})"
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
        w, _, ll, failed = reconstruct_clicks(clicks, cfg.trunc.n_trunc, em_cfg)
        maps.append(w)
        logliks.append(ll)
        n_failed += int(failed.sum())
    if not _nodes_match(first_cfg.grid.flat_gammas(), cfg.grid):
        raise DataError("records do not cover the configured grid")
    header = replace(
        first_cfg,
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
    print(f"wrote {out / 'wigner.csv'} ({maps[0].size} points, {n_failed} failed)")
    if n_failed:
        print(f"{n_failed} points failed to reconstruct", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_recover_rho(args) -> int:
    """rho.csv and metrics.json carry the Wigner file's embedded config."""
    cfg = None if args.config is None else _load(args)
    file_cfg, gammas, cols = io_csv.read_wigner_csv(args.wigner)
    if cfg is not None and (file_cfg.trunc.n_trunc != cfg.trunc.n_trunc or file_cfg.state != cfg.state):
        raise DataError(f"{args.wigner}: n_trunc or [state] differs from the run config")
    if not _nodes_match(gammas, file_cfg.grid):
        raise DataError(f"{args.wigner}: points do not match the embedded grid")
    n_trunc = file_cfg.trunc.n_trunc
    recovered = integrate_rho(WignerEstimate(grid=file_cfg.grid, w_values=cols["w_rec"]), n_trunc)

    exact = build_state(file_cfg).elements[:n_trunc, :n_trunc]
    comparison = compare_states(recovered, exact)
    out = _out_dir(args)
    io_csv.write_rho_csv(out / "rho.csv", file_cfg, recovered.elements)
    metrics = {
        "trace": recovered.trace,
        "hermitization_residual": recovered.hermitization_residual,
        "min_eigenvalue": recovered.min_eigenvalue(),
        "trace_warning": recovered.trace_warning,
        "fidelity_vs_configured_state": comparison.fidelity,
        "max_abs_diff_vs_configured_state": comparison.max_abs_diff,
        "trace_distance_vs_configured_state": comparison.trace_distance,
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


if __name__ == "__main__":
    sys.exit(main())
