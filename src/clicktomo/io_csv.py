"""CSV interchange with reproducibility headers.

Every output file starts with comment lines that embed the fully resolved
configuration (and the repetition index for click files), so the exact run
can be re-issued from the file alone.  Floating-point fields use 17
significant digits and round-trip bit-for-bit.
"""
from __future__ import annotations

import json

import numpy as np

from .config import RunConfig, dump_config, parse_config
from .errors import ConfigError, DataError
from .measurement import ClickArrays, DetectorPair, complex_array, derive_setting

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

CLICK_COLUMNS = (
    "point_index",
    "re_gamma",
    "im_gamma",
    "alpha",
    "re_beta",
    "im_beta",
    "nu_c",
    "nu_d",
    "nu_bar",
    "y",
    "n_runs",
    "n_noclick",
)
WIGNER_COLUMNS = ("re_gamma", "im_gamma", "w_rec", "w_exact", "w_variance", "em_final_loglik")
RHO_COLUMNS = ("m", "n", "re", "im")

_CONFIG_BEGIN = "# config-begin"
_CONFIG_END = "# config-end"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _header_lines(config_text: str, extra: "dict | None" = None) -> list[str]:
    lines = [_CONFIG_BEGIN]
    lines += [f"# {row}" if row else "#" for row in config_text.rstrip("\n").split("\n")]
    lines.append(_CONFIG_END)
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {value}")
    return lines


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


def _texts(values: np.ndarray) -> list[str]:
    """``_fmt`` of every element; each distinct value is formatted once.

    Floats are grouped by bit pattern, so -0.0 and 0.0 keep their own text.
    """
    flat = np.ascontiguousarray(values).ravel()
    keys = flat.view(np.uint64) if flat.dtype == np.float64 else flat
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([_fmt(v) for v in flat[first].tolist()], dtype=object)[inverse].tolist()


def write_click_csv(path, cfg: RunConfig, repetition: int, clicks: ClickArrays) -> None:
    m = clicks.noclick.shape[1]
    per_point = (np.arange(clicks.gammas.size), clicks.gammas.real, clicks.gammas.imag)
    per_setting = (
        clicks.alpha, clicks.beta.real, clicks.beta.imag, clicks.nu_c, clicks.nu_d,
        clicks.nu_bar, clicks.y, clicks.n_runs, clicks.noclick,
    )
    columns = [[t for t in _texts(v) for _ in range(m)] for v in per_point]
    columns += [_texts(v) for v in per_setting]
    lines = _header_lines(dump_config(cfg), {"repetition": repetition})
    lines.append(",".join(CLICK_COLUMNS))
    lines.extend(map(",".join, zip(*columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path, columns: tuple[str, ...]) -> tuple[RunConfig, dict, np.ndarray]:
    """-> (embedded config, extras, (rows, columns) floats); a bad row is named by number."""
    config_text, extras, found, body = _split_file(path)
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
    """Read click records grouped by point; settings are re-derived and checked bit-for-bit."""
    cfg, extras, data = _read_table(path, CLICK_COLUMNS)
    try:
        repetition = int(extras.get("repetition", 0))
    except ValueError as exc:
        raise DataError(f"{path}: repetition: {exc}") from exc
    _, re_g, im_g, alpha, re_b, im_b, nu_c, nu_d, nu_bar, y, _, noclick = data.T
    index = _integers(path, data[:, 0], "point_index")
    n_runs = _integers(path, data[:, 10], "n_runs", least=1)
    _reject(path, ~((noclick >= 0.0) & (noclick <= n_runs)), "n_noclick outside [0, n_runs]")

    triples = np.ascontiguousarray(data[:, [3, 6, 7]])
    # one 24-byte key per row: settings are grouped bit for bit
    _, first, inverse = np.unique(triples.view("V24").ravel(), return_index=True, return_inverse=True)
    derived = np.empty(first.size)
    for u, (k, (a, c, d)) in enumerate(zip(first.tolist(), triples[first].tolist())):
        try:
            derived[u] = derive_setting(a, 0j, DetectorPair(c, d)).nu_bar
        except ValueError as exc:
            raise DataError(f"{path}: row {k + 1}: {exc}") from exc
    nb = derived[inverse]
    with np.errstate(all="ignore"):
        y_derived = -np.float_power(np.hypot(re_b, im_b), 2.0) * nu_c * nu_d / nb
    _reject(path, (nb != nu_bar) | (y_derived != y), "stored derived fields disagree with re-derivation")

    order = np.argsort(index, kind="stable")
    points, counts = np.unique(index[order], return_counts=True)
    m = int(counts[0])
    if np.any(counts != m):
        u = int(np.argmax(counts != m))
        raise DataError(f"{path}: point {points[u]} has {counts[u]} settings, expected {m}")
    rows = order.reshape(points.size, m)
    mixed = np.zeros(data.shape[0], dtype=bool)
    mixed[rows] = (re_g[rows] != re_g[rows[:, :1]]) | (im_g[rows] != im_g[rows[:, :1]])
    _reject(path, mixed, "point mixes gamma values")
    other = np.max(np.abs(nb[rows] - nb[rows[0]]), axis=1) > 1e-12
    if np.any(other):
        raise DataError(
            f"{path}: point {points[np.argmax(other)]} uses a different efficiency schedule"
        )
    alpha, nu_c, nu_d, nb, y, noclick, n_runs = (
        f[rows] for f in (alpha, nu_c, nu_d, nb, y, noclick, n_runs)
    )
    gammas = complex_array(re_g[rows[:, 0]], im_g[rows[:, 0]])
    beta = complex_array(re_b[rows], im_b[rows])
    return cfg, repetition, ClickArrays(gammas, alpha, beta, nu_c, nu_d, nb, y, noclick, n_runs)


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
    lines = _header_lines(dump_config(cfg))
    lines.append(",".join(WIGNER_COLUMNS))
    for g, w, e, v, l in zip(flat_g, flat_w, ex, var, ll):
        lines.append(
            ",".join((_fmt(g.real), _fmt(g.imag), _fmt(w), _fmt(e), _fmt(v), _fmt(l)))
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_wigner_csv(path) -> tuple[RunConfig, np.ndarray, dict[str, np.ndarray]]:
    """-> (config, gammas, column arrays for w_rec / w_exact / w_variance / loglik)."""
    cfg, _, data = _read_table(path, WIGNER_COLUMNS)
    gammas = data[:, 0] + 1j * data[:, 1]
    cols = {
        "w_rec": data[:, 2],
        "w_exact": data[:, 3],
        "w_variance": data[:, 4],
        "em_final_loglik": data[:, 5],
    }
    return cfg, gammas, cols


def write_rho_csv(path, cfg: RunConfig, elements: np.ndarray) -> None:
    rho = np.asarray(elements)
    lines = _header_lines(dump_config(cfg))
    lines.append(",".join(RHO_COLUMNS))
    for m in range(rho.shape[0]):
        for n in range(rho.shape[1]):
            lines.append(
                ",".join((str(m), str(n), _fmt(rho[m, n].real), _fmt(rho[m, n].imag)))
            )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
