"""Run configuration: flat ``key = value`` sections, strictly validated.

The format is plain INI (section headers in brackets, one scalar per line)
so configs diff cleanly and survive being embedded in CSV comment headers.
Unknown sections or keys are rejected outright; ``parse -> dump -> parse``
is the identity on the resolved configuration.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace

from .errors import ConfigError
from .fock import (
    DensityMatrix,
    TruncationConfig,
    coherent_state,
    density_from_pure,
    fock_state,
    squeezed_vacuum,
)
from .measurement import (
    DetectorPair,
    DualDetectorRecipe,
    SingleDetectorRecipe,
    homogeneous_efficiencies,
)
from .wigner import PhaseGrid, coherent_wigner, fock_wigner, squeezed_wigner

__all__ = [
    "StateSpec",
    "DetectorSpec",
    "RunConfig",
    "parse_config",
    "load_config",
    "dump_config",
    "build_state",
    "build_recipe",
    "analytic_wigner_fn",
]

STATE_KINDS = ("coherent", "squeezed", "fock")
DETECTOR_MODES = ("single", "dual")
NORMALIZATIONS = ("renormalized", "literal")


@dataclass(frozen=True)
class StateSpec:
    kind: str
    re_amplitude: float = 0.0
    im_amplitude: float = 0.0
    squeeze: float = 0.0
    n: int = 0

    @property
    def amplitude(self) -> complex:
        return complex(self.re_amplitude, self.im_amplitude)


@dataclass(frozen=True)
class DetectorSpec:
    mode: str
    # single-detector sweep
    alpha: float = 0.15
    n_efficiencies: int = 30
    efficiency_min: float = 0.1
    efficiency_max: float = 0.9
    # dual-detector sweep
    nu_c: float = 0.3
    nu_d: float = 0.6
    n_angles: int = 30
    angle_min: float = 0.2
    angle_max: float = 1.2


@dataclass(frozen=True)
class RunConfig:
    state: StateSpec
    detectors: DetectorSpec
    trunc: TruncationConfig
    grid: PhaseGrid
    n_runs: int = 10_000
    n_iterations: int = 1_000
    repetitions: int = 1
    seed: int = 0
    exact_probabilities: bool = False
    normalization: str = "renormalized"
    analytic_reference: bool = True

    def with_overrides(
        self, seed: "int | None" = None, exact: "bool | None" = None
    ) -> "RunConfig":
        cfg = self
        if seed is not None:
            if seed < 0:
                raise ConfigError(f"seed must be non-negative, got {seed}")
            cfg = replace(cfg, seed=int(seed))
        if exact:
            cfg = replace(cfg, exact_probabilities=True)
        return cfg


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# section -> key -> (type, default or REQUIRED)
_REQUIRED = object()

_SCHEMA: dict[str, dict[str, tuple]] = {
    "state": {
        "kind": (str, _REQUIRED),
        "re_amplitude": (float, 0.0),
        "im_amplitude": (float, 0.0),
        "squeeze": (float, 0.0),
        "n": (int, 0),
    },
    "truncation": {
        "n_trunc": (int, _REQUIRED),
        "n_pad": (int, 0),
    },
    "detectors": {
        "mode": (str, _REQUIRED),
        "alpha": (float, 0.15),
        "n_efficiencies": (int, 30),
        "efficiency_min": (float, 0.1),
        "efficiency_max": (float, 0.9),
        "nu_c": (float, 0.3),
        "nu_d": (float, 0.6),
        "n_angles": (int, 30),
        "angle_min": (float, 0.2),
        "angle_max": (float, 1.2),
    },
    "grid": {
        "re_min": (float, _REQUIRED),
        "re_max": (float, _REQUIRED),
        "im_min": (float, _REQUIRED),
        "im_max": (float, _REQUIRED),
        "n_re": (int, _REQUIRED),
        "n_im": (int, _REQUIRED),
    },
    "run": {
        "n_runs": (int, 10_000),
        "n_iterations": (int, 1_000),
        "repetitions": (int, 1),
        "seed": (int, 0),
        "exact_probabilities": (bool, False),
        "normalization": (str, "renormalized"),
        "analytic_reference": (bool, True),
    },
}


def _convert(section: str, key: str, raw: str, typ):
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _convert(section, key, raw, _SCHEMA[section][key][0])
    for section, keys in _SCHEMA.items():
        if section not in values:
            raise ConfigError(f"missing section [{section}]")
        for key, (_, default) in keys.items():
            if key not in values[section]:
                if default is _REQUIRED:
                    raise ConfigError(f"missing required key {key!r} in section [{section}]")
                values[section][key] = default

    state = StateSpec(
        kind=values["state"]["kind"],
        re_amplitude=values["state"]["re_amplitude"],
        im_amplitude=values["state"]["im_amplitude"],
        squeeze=values["state"]["squeeze"],
        n=values["state"]["n"],
    )
    if state.kind not in STATE_KINDS:
        raise ConfigError(f"[state] kind must be one of {STATE_KINDS}, got {state.kind!r}")
    det = DetectorSpec(
        mode=values["detectors"]["mode"],
        alpha=values["detectors"]["alpha"],
        n_efficiencies=values["detectors"]["n_efficiencies"],
        efficiency_min=values["detectors"]["efficiency_min"],
        efficiency_max=values["detectors"]["efficiency_max"],
        nu_c=values["detectors"]["nu_c"],
        nu_d=values["detectors"]["nu_d"],
        n_angles=values["detectors"]["n_angles"],
        angle_min=values["detectors"]["angle_min"],
        angle_max=values["detectors"]["angle_max"],
    )
    if det.mode not in DETECTOR_MODES:
        raise ConfigError(f"[detectors] mode must be one of {DETECTOR_MODES}, got {det.mode!r}")
    try:
        trunc = TruncationConfig(values["truncation"]["n_trunc"], values["truncation"]["n_pad"])
        grid = PhaseGrid(
            re_min=values["grid"]["re_min"],
            re_max=values["grid"]["re_max"],
            im_min=values["grid"]["im_min"],
            im_max=values["grid"]["im_max"],
            n_re=values["grid"]["n_re"],
            n_im=values["grid"]["n_im"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the EM needs at least as many detector settings per point as unknowns
    count_key = "n_efficiencies" if det.mode == "single" else "n_angles"
    n_settings = getattr(det, count_key)
    if n_settings < trunc.n_trunc:
        raise ConfigError(
            f"[detectors] {count_key} = {n_settings} is below n_trunc = {trunc.n_trunc}; "
            "the EM needs at least n_trunc settings"
        )

    run = values["run"]
    if run["normalization"] not in NORMALIZATIONS:
        raise ConfigError(f"[run] normalization must be one of {NORMALIZATIONS}")
    for key in ("n_runs", "repetitions"):
        if run[key] < 1:
            raise ConfigError(f"[run] {key} must be positive")
    for key in ("n_iterations", "seed"):
        if run[key] < 0:
            raise ConfigError(f"[run] {key} must be non-negative")
    return RunConfig(
        state=state,
        detectors=det,
        trunc=trunc,
        grid=grid,
        n_runs=run["n_runs"],
        n_iterations=run["n_iterations"],
        repetitions=run["repetitions"],
        seed=run["seed"],
        exact_probabilities=run["exact_probabilities"],
        normalization=run["normalization"],
        analytic_reference=run["analytic_reference"],
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; stable ordering and float formatting."""
    rows: list[tuple[str, dict]] = [
        (
            "state",
            {
                "kind": cfg.state.kind,
                "re_amplitude": cfg.state.re_amplitude,
                "im_amplitude": cfg.state.im_amplitude,
                "squeeze": cfg.state.squeeze,
                "n": cfg.state.n,
            },
        ),
        ("truncation", {"n_trunc": cfg.trunc.n_trunc, "n_pad": cfg.trunc.n_pad}),
        (
            "detectors",
            {
                "mode": cfg.detectors.mode,
                "alpha": cfg.detectors.alpha,
                "n_efficiencies": cfg.detectors.n_efficiencies,
                "efficiency_min": cfg.detectors.efficiency_min,
                "efficiency_max": cfg.detectors.efficiency_max,
                "nu_c": cfg.detectors.nu_c,
                "nu_d": cfg.detectors.nu_d,
                "n_angles": cfg.detectors.n_angles,
                "angle_min": cfg.detectors.angle_min,
                "angle_max": cfg.detectors.angle_max,
            },
        ),
        (
            "grid",
            {
                "re_min": cfg.grid.re_min,
                "re_max": cfg.grid.re_max,
                "im_min": cfg.grid.im_min,
                "im_max": cfg.grid.im_max,
                "n_re": cfg.grid.n_re,
                "n_im": cfg.grid.n_im,
            },
        ),
        (
            "run",
            {
                "n_runs": cfg.n_runs,
                "n_iterations": cfg.n_iterations,
                "repetitions": cfg.repetitions,
                "seed": cfg.seed,
                "exact_probabilities": cfg.exact_probabilities,
                "normalization": cfg.normalization,
                "analytic_reference": cfg.analytic_reference,
            },
        ),
    ]
    out = io.StringIO()
    for idx, (section, keys) in enumerate(rows):
        if idx:
            out.write("\n")
        out.write(f"[{section}]\n")
        for key, value in keys.items():
            out.write(f"{key} = {_fmt(value)}\n")
    return out.getvalue()


def build_state(cfg: RunConfig) -> DensityMatrix:
    """The configured state; one that does not fit the working dimension is a ConfigError."""
    spec = cfg.state
    try:
        if spec.kind == "coherent":
            pure = coherent_state(spec.amplitude, cfg.trunc)
        elif spec.kind == "squeezed":
            pure = squeezed_vacuum(spec.squeeze, cfg.trunc)
        else:
            pure = fock_state(spec.n, cfg.trunc)
    except ValueError as exc:
        raise ConfigError(f"[state] kind = {spec.kind}: {exc}") from exc
    return density_from_pure(pure)


def build_recipe(cfg: RunConfig) -> "SingleDetectorRecipe | DualDetectorRecipe":
    det = cfg.detectors
    if det.mode == "single":
        effs = homogeneous_efficiencies(det.n_efficiencies, det.efficiency_min, det.efficiency_max)
        return SingleDetectorRecipe(alpha=det.alpha, efficiencies=effs)
    if det.angle_min >= det.angle_max:
        raise ConfigError("[detectors] angle_min must be below angle_max")
    angles = tuple(
        det.angle_min + (det.angle_max - det.angle_min) * k / (det.n_angles - 1)
        for k in range(det.n_angles)
    )
    return DualDetectorRecipe(detectors=DetectorPair(det.nu_c, det.nu_d), angles=angles)


def analytic_wigner_fn(cfg: RunConfig):
    """Closed-form Wigner of the configured state (all supported kinds have one)."""
    spec = cfg.state
    if spec.kind == "coherent":
        return coherent_wigner(spec.amplitude)
    if spec.kind == "squeezed":
        return squeezed_wigner(spec.squeeze)
    return fock_wigner(spec.n)
