"""Run configuration: flat ``key = value`` sections, strictly validated.

The format is plain INI (section headers in brackets, one scalar per line)
so configs diff cleanly and survive being embedded in CSV comment headers.
Unknown sections or keys are rejected outright; ``parse -> dump -> parse``
is the identity on the resolved configuration.
"""
import configparser
import math
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import ConfigError
from .fock import (
    DensityMatrix,
    TruncationConfig,
    coherent_state,
    density_from_pure,
    displacement_r2,
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
    "build_amplitudes",
    "build_state",
    "build_recipe",
    "analytic_wigner_fn",
]

STATE_KINDS = ("coherent", "squeezed", "fock")
DETECTOR_MODES = ("single", "dual")
# counts pass through float64 (the EM, the click reader), exact up to 2**53
MAX_RUNS = 2**53
NU_BAR_RESOLUTION = 1e-9  # settings whose nu_bar are closer count as one
MAX_POINTS = 2**24  # the node check builds every node; 4096 x 4096 is far beyond what a run can hold
MAX_SETTINGS = 4096  # per point: over 100 times the shipped schedules, checked before any is built
# simulate's (n_pad, n_pad) coefficient table is 32 MiB at 2048 (128 MiB at 4096), and the stage peaks
# at 68 MiB on a 2 x 2 grid; at 2048 the power-table bound below already limits the nodes to |gamma| < 1.4145
MAX_PAD = 2048
LOG_DBL_MAX = math.log(np.finfo(float).max)  # fock.displace's power tables hold |gamma|^(n_pad - 1)


class StateSpec(NamedTuple):
    kind: str
    re_amplitude: float = 0.0
    im_amplitude: float = 0.0
    squeeze: float = 0.0
    n: int = 0

    @property
    def amplitude(self) -> complex:
        return complex(self.re_amplitude, self.im_amplitude)


class DetectorSpec(NamedTuple):
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

    @property
    def n_settings(self) -> int:
        """Settings per point: efficiencies in single mode, angles in dual mode."""
        return self.n_efficiencies if self.mode == "single" else self.n_angles


class RunConfig(NamedTuple):
    state: StateSpec
    detectors: DetectorSpec
    trunc: TruncationConfig
    grid: PhaseGrid
    n_runs: int = 10_000
    n_iterations: int = 1_000
    repetitions: int = 1
    seed: int = 0
    exact_probabilities: bool = False


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# section -> (RunConfig attribute, record); [run] holds RunConfig's own scalar fields
_SECTIONS = {
    "state": ("state", StateSpec),
    "truncation": ("trunc", TruncationConfig),
    "detectors": ("detectors", DetectorSpec),
    "grid": ("grid", PhaseGrid),
    "run": (None, RunConfig),
}
_SCALARS = (str, float, int, bool)
_MISSING = object()  # the default of a required key


def _keys(cls) -> dict[str, tuple]:
    """key -> (type, default or _MISSING) for each scalar field of ``cls``, in field order."""
    types = get_type_hints(cls)
    return {
        name: (types[name], cls._field_defaults.get(name, _MISSING))
        for name in cls._fields
        if types[name] in _SCALARS
    }


_KEYS = {section: _keys(cls) for section, (_, cls) in _SECTIONS.items()}


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
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration; unknown keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # its message spans lines; errors print as one
        raise ConfigError(f"config syntax error: {' '.join(str(exc).split())}") from exc

    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _convert(section, key, raw, _KEYS[section][key][0])
    for section, keys in _KEYS.items():
        if section not in values:
            raise ConfigError(f"missing section [{section}]")
        for key, (_, default) in keys.items():
            if key not in values[section]:
                if default is _MISSING:
                    raise ConfigError(f"missing required key {key!r} in section [{section}]")
                values[section][key] = default

    state = StateSpec(**values["state"])
    if state.kind not in STATE_KINDS:
        raise ConfigError(f"[state] kind must be one of {STATE_KINDS}, got {state.kind!r}")
    det = DetectorSpec(**values["detectors"])
    if det.mode not in DETECTOR_MODES:
        raise ConfigError(f"[detectors] mode must be one of {DETECTOR_MODES}, got {det.mode!r}")
    try:
        trunc = TruncationConfig(**values["truncation"])
        grid = PhaseGrid(**values["grid"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if trunc.n_pad > MAX_PAD:
        source = "" if values["truncation"]["n_pad"] else f" (2 * n_trunc + 20 for n_trunc = {trunc.n_trunc})"
        raise ConfigError(f"[truncation] n_pad = {trunc.n_pad}{source} exceeds {MAX_PAD}")
    if state.kind == "fock" and state.n >= trunc.n_trunc:  # recover-rho's reference would be the zero matrix
        raise ConfigError(f"[state] kind = fock: n = {state.n} is outside the EM's block of n_trunc = {trunc.n_trunc}")
    if grid.n_points > MAX_POINTS:
        raise ConfigError(f"[grid] n_re x n_im = {grid.n_points} exceeds {MAX_POINTS} nodes")
    try:
        r2 = displacement_r2(grid.flat_gammas(), trunc.n_pad)
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}; shrink the grid or raise n_pad") from exc
    worst = int(np.argmax(r2))
    if (trunc.n_pad - 1) * 0.5 * math.log(max(r2[worst], 1.0)) >= LOG_DBL_MAX:  # r2 <= n_pad/2 implies it below 287
        raise ConfigError(
            f"[grid] |gamma| = {math.sqrt(r2[worst]):.6g} at gamma = {complex(grid.flat_gammas()[worst])} overflows "
            f"the power tables of n_pad = {trunc.n_pad}, which stay finite only for |gamma| < "
            f"{math.exp(LOG_DBL_MAX / (trunc.n_pad - 1)):.6g}; shrink the grid or lower n_pad"
        )
    count_key = "n_efficiencies" if det.mode == "single" else "n_angles"
    if det.n_settings > MAX_SETTINGS:
        raise ConfigError(f"[detectors] {count_key} = {det.n_settings} exceeds {MAX_SETTINGS} settings")
    # the EM needs at least as many detector settings per point as unknowns
    if det.n_settings < trunc.n_trunc:
        raise ConfigError(
            f"[detectors] {count_key} = {det.n_settings} is below n_trunc = {trunc.n_trunc}; "
            "the EM needs at least n_trunc settings"
        )

    run = values["run"]
    for key in ("n_runs", "repetitions"):
        if run[key] < 1:
            raise ConfigError(f"[run] {key} must be positive")
    if run["n_runs"] > MAX_RUNS:
        raise ConfigError(f"[run] n_runs = {run['n_runs']} exceeds 2**53 = {MAX_RUNS}")
    for key in ("n_iterations", "seed"):
        if run[key] < 0:
            raise ConfigError(f"[run] {key} must be non-negative")
    if run["exact_probabilities"] and run["repetitions"] > 1:  # every repetition would get the same counts
        raise ConfigError(f"[run] exact_probabilities = true takes repetitions = 1, got {run['repetitions']}")
    return RunConfig(state=state, detectors=det, trunc=trunc, grid=grid, **run)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is not config text
        try:
            return parse_config(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form; stable ordering and float formatting."""
    blocks = []
    for section, (attr, _) in _SECTIONS.items():
        obj = cfg if attr is None else getattr(cfg, attr)
        rows = "".join(f"{key} = {_fmt(getattr(obj, key))}\n" for key in _KEYS[section])
        blocks.append(f"[{section}]\n{rows}")
    return "\n".join(blocks)


def build_amplitudes(cfg: RunConfig) -> np.ndarray:
    """The configured state's amplitudes over n_pad; one that does not fit the working dimension is a ConfigError."""
    spec = cfg.state
    try:
        if spec.kind == "coherent":
            return coherent_state(spec.amplitude, cfg.trunc)
        if spec.kind == "squeezed":
            return squeezed_vacuum(spec.squeeze, cfg.trunc)
        return fock_state(spec.n, cfg.trunc)
    except ValueError as exc:
        raise ConfigError(f"[state] kind = {spec.kind}: {exc}") from exc


def build_state(cfg: RunConfig) -> DensityMatrix:
    """The configured state's (n_trunc, n_trunc) block of |psi><psi|, the reference that ``recover-rho`` compares
    against: built from the first n_trunc amplitudes, so no (n_pad, n_pad) array is formed."""
    return density_from_pure(build_amplitudes(cfg)[: cfg.trunc.n_trunc])


def build_recipe(cfg: RunConfig) -> "SingleDetectorRecipe | DualDetectorRecipe":
    """The configured recipe; a schedule that cannot be built or has under n_trunc distinct nu_bar is a ConfigError."""
    det = cfg.detectors
    try:
        if det.mode == "single":
            effs = homogeneous_efficiencies(det.n_efficiencies, det.efficiency_min, det.efficiency_max)
            recipe = SingleDetectorRecipe(alpha=det.alpha, efficiencies=effs)
        else:
            if det.angle_min >= det.angle_max:
                raise ValueError("angle_min must be below angle_max")
            angles = tuple(
                det.angle_min + (det.angle_max - det.angle_min) * k / (det.n_angles - 1)
                for k in range(det.n_angles)
            )
            recipe = DualDetectorRecipe(detectors=DetectorPair(det.nu_c, det.nu_d), angles=angles)
        # the EM's model is rank-deficient unless n_trunc settings differ in nu_bar
        nu_bar = sorted(recipe.build(0.0).nu_bar.tolist())
        distinct = 1 + sum(b - a > NU_BAR_RESOLUTION for a, b in zip(nu_bar, nu_bar[1:]))
        if distinct < cfg.trunc.n_trunc:
            raise ValueError(f"the schedule has {distinct} distinct nu_bar values, below n_trunc = {cfg.trunc.n_trunc}")
    except ValueError as exc:
        raise ConfigError(f"[detectors] mode = {det.mode}: {exc}") from exc
    return recipe


def analytic_wigner_fn(cfg: RunConfig):
    """Closed-form Wigner of the configured state (all supported kinds have one)."""
    spec = cfg.state
    if spec.kind == "coherent":
        return coherent_wigner(spec.amplitude)
    if spec.kind == "squeezed":
        return squeezed_wigner(spec.squeeze)
    return fock_wigner(spec.n)
