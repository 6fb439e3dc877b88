"""Benchmark workloads and the work counts computed from their configs.

Each workload is a frozen config under ``bench/configs`` plus the output
bounds every run of it must meet.  ``coherent_sampled.ini`` is a byte copy of
``configs/coherent_map.ini`` at the time the benchmark was defined, so a later
change to the shipped configs does not silently change the benchmark.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Workload:
    """A config and the one-sided output bounds its runs must meet."""

    name: str
    config: Path
    why: str
    max_delta_w: float
    min_fidelity: float
    max_trace_err: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coherent_sampled",
            CONFIG_DIR / "coherent_sampled.ini",
            "shipped coherent_map.ini, the only sampled workload: 75,000 keyed "
            "binomial draws and an 11.8 MB click file make sampling, CSV and CLI glue dominate",
            max_delta_w=0.015,
            min_fidelity=0.92,
            max_trace_err=0.08,
        ),
        Workload(
            "fock_em_long",
            CONFIG_DIR / "fock_em_long.ini",
            "Fock n = 1 on a 24x24 grid with 10,000 EM iterations: the batched EM "
            "is most of the chain, so EM speed or accuracy changes show here",
            max_delta_w=0.06,
            min_fidelity=0.7,
            max_trace_err=0.5,
        ),
    )
}


@dataclass(frozen=True)
class Shape:
    """The sizes of one workload that fix how much work a chain does."""

    points: int
    settings: int
    repetitions: int
    n_trunc: int
    n_pad: int
    n_iterations: int
    sampled: bool

    @property
    def records(self) -> int:
        """Click records, one per point, setting and repetition."""
        return self.points * self.settings * self.repetitions

    @property
    def rows(self) -> int:
        """EM rows, one per point and repetition."""
        return self.points * self.repetitions


def workload_shape(config: Path) -> Shape:
    """The sizes the program itself resolves from the config, defaults included."""
    from clicktomo.config import build_recipe, load_config

    cfg = load_config(config)
    grid = cfg.grid
    first_point = complex(grid.re_centers[0], grid.im_centers[0])
    return Shape(
        points=grid.n_re * grid.n_im,
        settings=len(build_recipe(cfg).build(first_point)),
        repetitions=cfg.repetitions,
        n_trunc=cfg.trunc.n_trunc,
        n_pad=cfg.trunc.n_pad,
        n_iterations=cfg.n_iterations,
        sampled=not cfg.exact_probabilities,
    )


def computed_counts(shape: Shape) -> dict[str, int]:
    """Work one chain must do, derived from the workload inputs alone.

    These are labelled "computed": they repeat exactly across runs and do
    not depend on how the program organises the work.
    """
    row_iterations = shape.rows * shape.n_iterations
    return {
        "measurement.binomial_draws": shape.records if shape.sampled else 0,
        "measurement.settings_derived": shape.records,
        "fock.diagonals": shape.rows,
        "fock.ops_computed": shape.rows * shape.n_pad**3,
        "em.rows": shape.rows,
        "em.row_iterations": row_iterations,
        "em.ops_computed": row_iterations * shape.settings * shape.n_trunc * 4,
        # reconstruct reads clicks.csv, recover-rho reads wigner.csv
        "io_csv.rows_read": shape.points * shape.settings + shape.points,
    }
