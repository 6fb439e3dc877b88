"""CSV interchange with reproducibility headers.

Every output file starts with comment lines that embed the fully resolved
configuration (and the repetition index for click files), so the exact run
can be re-issued from the file alone.  Floating-point fields use 17
significant digits and round-trip bit-for-bit.

A click file (``# format = 2``) stores only the no-click count of each
(point, setting); the embedded config is the authority for everything else,
and the reader rebuilds the settings from it.
"""
from __future__ import annotations

import json

import numpy as np

from .config import RunConfig, build_recipe, dump_config, parse_config
from .errors import ConfigError, DataError
from .measurement import ClickArrays, complex_array

__all__ = [
    "CLICK_COLUMNS",
    "WIGNER_COLUMNS",
    "RHO_COLUMNS",
    "write_click_csv",
    "read_click_csv",
    "write_wigner_csv",
    "read_wigner_csv",
    "write_rho_csv",
    "read_rho_csv",
    "write_metrics_json",
    "embedded_config",
]

CLICK_COLUMNS = ("point_index", "setting_index", "n_noclick")
CLICK_FORMAT = "2"
WIGNER_COLUMNS = ("re_gamma", "im_gamma", "w_rec", "w_exact", "w_variance", "em_final_loglik")
RHO_COLUMNS = ("m", "n", "re", "im")

_CONFIG_BEGIN = "# config-begin"
_CONFIG_END = "# config-end"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_table(path, cfg: RunConfig, columns: tuple[str, ...], rows, extra: "dict | None" = None) -> None:
    """The embedded config, one ``# key = value`` line per extra, the column names, then the rows."""
    lines = [_CONFIG_BEGIN]
    lines += [f"# {row}" if row else "#" for row in dump_config(cfg).rstrip("\n").split("\n")]
    lines.append(_CONFIG_END)
    lines += [f"# {key} = {value}" for key, value in (extra or {}).items()]
    lines.append(",".join(columns))
    lines.extend(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_file(path) -> tuple[str, dict, list[str], list[str]]:
    """-> (embedded config text, extras, column names, data rows)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            raw = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    config_rows: list[str] = []
    extras: dict[str, str] = {}
    body: list[str] = []
    in_config = False
    seen_config = False
    for line in raw:
        if line == _CONFIG_BEGIN:
            in_config, seen_config = True, True
            continue
        if line == _CONFIG_END:
            in_config = False
            continue
        if in_config:
            config_rows.append(line[2:] if line.startswith("# ") else line.lstrip("#"))
            continue
        if line.startswith("#"):
            text = line[1:].strip()
            if "=" in text:
                key, _, value = text.partition("=")
                extras[key.strip()] = value.strip()
            continue
        if line:
            body.append(line)
    if not seen_config:
        raise DataError(f"{path}: missing embedded config header")
    if not body:
        raise DataError(f"{path}: no data rows")
    columns = body[0].split(",")
    return "\n".join(config_rows) + "\n", extras, columns, body[1:]


def _parse_embedded(path, config_text: str) -> RunConfig:
    """The file's own configuration; a broken header is a data error."""
    try:
        return parse_config(config_text)
    except ConfigError as exc:
        raise DataError(f"{path}: embedded config: {exc}") from exc


def embedded_config(path) -> str:
    """Extract the configuration text embedded in an output file."""
    return _split_file(path)[0]


def write_click_csv(path, cfg: RunConfig, repetition: int, clicks: ClickArrays) -> None:
    """Counts only: one ``point_index,setting_index,n_noclick`` row per record, point-major.

    The embedded config fixes every other field of a record, so none is stored.
    """
    p, m = clicks.noclick.shape
    keys = [f"{i},{j}," for i in range(p) for j in range(m)]
    rows = map(str.__add__, keys, map(_fmt, clicks.noclick.ravel().tolist()))
    _write_table(path, cfg, CLICK_COLUMNS, rows, {"repetition": repetition, "format": CLICK_FORMAT})


def _read_table(
    path, columns: tuple[str, ...], fmt: "str | None" = None
) -> tuple[RunConfig, dict, np.ndarray]:
    """-> (embedded config, extras, (rows, columns) floats); a bad row is named by number.

    With ``fmt``, the file must carry a ``# format = <fmt>`` line.
    """
    config_text, extras, found, body = _split_file(path)
    if fmt is not None and extras.get("format") != fmt:
        raise DataError(
            f"{path}: old-format click file: expected '# format = {fmt}', "
            f"found {extras.get('format', 'no format line')!r}"
        )
    if tuple(found) != columns:
        raise DataError(f"{path}: unexpected columns {found}")
    cfg = _parse_embedded(path, config_text)
    if not body:
        raise DataError(f"{path}: no data rows")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if data.shape == (len(body), len(columns)):
            return cfg, extras, data
    except ValueError:
        pass
    for k, line in enumerate(body, start=1):  # name the first bad row
        if line.count(",") + 1 != len(columns):
            raise DataError(f"{path}: row {k}: expected {len(columns)} fields, found {line.count(',') + 1}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError as exc:
            raise DataError(f"{path}: row {k}: {exc}") from exc
    raise DataError(f"{path}: rows do not form a table")


def _reject(path, bad: np.ndarray, reason: str) -> None:
    """DataError naming the first row flagged in ``bad`` (rows count from 1)."""
    if np.any(bad):
        raise DataError(f"{path}: row {int(np.argmax(bad)) + 1}: {reason}")


def _integers(path, column: np.ndarray, name: str, least: int = 0) -> np.ndarray:
    """The column as int64; a DataError names the first row that is not an integer >= least."""
    bad = ~(column >= least) | (column > 2.0**53) | (column != np.trunc(column))
    _reject(path, bad, f"{name} must be an integer >= {least}")
    return column.astype(np.int64)


def read_click_csv(path) -> tuple[RunConfig, int, ClickArrays]:
    """Read a format-2 click file; every field but the counts comes from its embedded config."""
    cfg, extras, data = _read_table(path, CLICK_COLUMNS, CLICK_FORMAT)
    try:
        repetition = int(extras.get("repetition", 0))
    except ValueError as exc:
        raise DataError(f"{path}: repetition: {exc}") from exc
    point = _integers(path, data[:, 0], "point_index")
    setting = _integers(path, data[:, 1], "setting_index")
    p, m = cfg.grid.n_points, cfg.detectors.n_settings
    k = min(len(data), p * m)
    # m may exceed every row count (and int64); below k + 1 it divides the same way
    expected_point, expected_setting = np.divmod(np.arange(k), min(m, k + 1))
    order = f"the point-major order of the {p} points x {m} settings the embedded config declares"
    _reject(path, (point[:k] != expected_point) | (setting[:k] != expected_setting), f"out of {order}")
    if len(data) != p * m:
        raise DataError(f"{path}: row {k + 1}: {'missing' if k < p * m else 'extra'} in {order}")
    noclick = data[:, 2]
    _reject(path, ~((noclick >= 0.0) & (noclick <= cfg.n_runs)), "n_noclick outside [0, n_runs]")
    gammas = cfg.grid.flat_gammas()
    try:
        sched = build_recipe(cfg).build(gammas)
    except ValueError as exc:
        raise DataError(f"{path}: embedded config declares no valid schedule: {exc}") from exc
    clicks = ClickArrays(gammas, sched.nu_bar, sched.y, noclick.reshape(p, m), cfg.n_runs)
    return cfg, repetition, clicks


def write_wigner_csv(
    path,
    cfg: RunConfig,
    grid_gammas: np.ndarray,
    w_rec: np.ndarray,
    w_exact: "np.ndarray | None" = None,
    w_variance: "np.ndarray | None" = None,
    loglik: "np.ndarray | None" = None,
) -> None:
    flat_g = np.asarray(grid_gammas).ravel()
    flat_w = np.asarray(w_rec, dtype=float).ravel()
    nan = np.full(flat_w.size, np.nan)
    ex = nan if w_exact is None else np.asarray(w_exact, dtype=float).ravel()
    var = nan if w_variance is None else np.asarray(w_variance, dtype=float).ravel()
    ll = nan if loglik is None else np.asarray(loglik, dtype=float).ravel()
    rows = (
        ",".join(map(_fmt, (g.real, g.imag, *values))) for g, *values in zip(flat_g, flat_w, ex, var, ll)
    )
    _write_table(path, cfg, WIGNER_COLUMNS, rows)


def read_wigner_csv(path) -> tuple[RunConfig, np.ndarray, dict[str, np.ndarray]]:
    """-> (config, gammas, column arrays for w_rec / w_exact / w_variance / loglik)."""
    cfg, _, data = _read_table(path, WIGNER_COLUMNS)
    gammas = complex_array(data[:, 0], data[:, 1])
    cols = {
        "w_rec": data[:, 2],
        "w_exact": data[:, 3],
        "w_variance": data[:, 4],
        "em_final_loglik": data[:, 5],
    }
    return cfg, gammas, cols


def write_rho_csv(path, cfg: RunConfig, elements: np.ndarray) -> None:
    rho = np.asarray(elements)
    rows = (f"{m},{n},{_fmt(v.real)},{_fmt(v.imag)}" for (m, n), v in np.ndenumerate(rho))
    _write_table(path, cfg, RHO_COLUMNS, rows)


def read_rho_csv(path) -> tuple[RunConfig, np.ndarray]:
    cfg, _, data = _read_table(path, RHO_COLUMNS)
    m, n = _integers(path, data[:, 0], "m"), _integers(path, data[:, 1], "n")
    rho = np.zeros((max(m.max(), n.max()) + 1,) * 2, dtype=complex)
    rho[m, n] = complex_array(data[:, 2], data[:, 3])
    return cfg, rho


def write_metrics_json(path, cfg: RunConfig, metrics: dict) -> None:
    payload = {"config": dump_config(cfg), **metrics}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
