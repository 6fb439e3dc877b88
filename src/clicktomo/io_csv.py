"""CSV interchange with reproducibility headers.

Every output file starts with comment lines that embed the fully resolved
configuration (and the repetition index for click files), so the exact run
can be re-issued from the file alone.  Floating-point fields use 17
significant digits and round-trip bit-for-bit.

A click file (``# format = 3``) stores one ``point_index,n_noclick_0,...``
row per point: the no-click counts of its M settings.  The embedded config is
the authority for everything else, and the reader rebuilds the settings from it.
"""
import numpy as np

from .config import RunConfig, build_recipe, build_state, dump_config, parse_config
from .errors import ConfigError, DataError
from .measurement import ClickArrays, complex_array

__all__ = [
    "click_columns",
    "WIGNER_COLUMNS",
    "RHO_COLUMNS",
    "click_rows",
    "write_click_csv",
    "read_click_csv",
    "write_wigner_csv",
    "read_wigner_csv",
    "write_rho_csv",
    "read_rho_csv",
    "write_metrics_json",
    "write_json",
    "embedded_config",
]

CLICK_FORMAT = "3"
WIGNER_COLUMNS = ("re_gamma", "im_gamma", "w_rec", "w_exact", "w_variance", "em_final_loglik")
RHO_COLUMNS = ("m", "n", "re", "im")

_CONFIG_BEGIN = "# config-begin"
_CONFIG_END = "# config-end"


def _indexed_rows(values: np.ndarray, start: int = 0):
    """``i,j,v_0,...`` rows of an (I, J, K) table from i = ``start``, one ``str.format`` per i on a J-row template;
    integers are written as integers, floats with 17 significant digits."""
    n_i, n_j, n_k = values.shape
    spec = "" if values.dtype.kind in "iu" else ":.17g"
    cells = [",".join(f"{{{j * n_k + k + 1}{spec}}}" for k in range(n_k)) for j in range(n_j)]
    template = "\n".join(f"{{0}},{j},{c}" for j, c in enumerate(cells))
    return (template.format(i, *row.tolist()) for i, row in enumerate(values.reshape(n_i, -1), start))


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
    """-> (embedded config text, extras, column names, data rows) of the layout
    ``_write_table`` writes; every line after the column names is a data row."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if lines[0] != _CONFIG_BEGIN or _CONFIG_END not in lines:
        raise DataError(f"{path}: missing embedded config header")
    if lines[-1] == "":  # the newline that ends the last row
        lines.pop()
    end = lines.index(_CONFIG_END)
    head = next((k for k in range(end + 1, len(lines)) if not lines[k].startswith("#")), len(lines))
    if head + 1 >= len(lines):
        raise DataError(f"{path}: no data rows")
    config_rows = [line[2:] if line.startswith("# ") else line.lstrip("#") for line in lines[1:end]]
    extras = {}
    for line in lines[end + 1 : head]:
        key, eq, value = line[1:].partition("=")
        if not eq:
            raise DataError(f"{path}: header line {line!r} is not '# key = value'")
        extras[key.strip()] = value.strip()
    return "\n".join(config_rows) + "\n", extras, lines[head].split(","), lines[head + 1 :]


def _parse_embedded(path, config_text: str) -> RunConfig:
    """The file's own configuration, whose state and schedule must build; a broken header is a data error."""
    try:
        cfg = parse_config(config_text)
        build_state(cfg)
    except ConfigError as exc:
        raise DataError(f"{path}: embedded config: {exc}") from exc
    try:
        build_recipe(cfg)
    except ConfigError as exc:
        raise DataError(f"{path}: embedded config declares no valid schedule: {exc}") from exc
    return cfg


def embedded_config(path) -> str:
    """Extract the configuration text embedded in an output file."""
    return _split_file(path)[0]


def click_columns(cfg: RunConfig) -> tuple[str, ...]:
    """``point_index`` and one ``n_noclick_<k>`` column per setting of ``cfg``."""
    return ("point_index", *(f"n_noclick_{k}" for k in range(cfg.detectors.n_settings)))


def click_rows(noclick: np.ndarray, start: int = 0) -> str:
    """One row per point of the (P, M) counts ``noclick`` (int64 if sampled), from point ``start``, as one text;
    integers are written as integers, floats with 17 significant digits."""
    counts = np.asarray(noclick)
    template = "{}" + ("," + ("{}" if counts.dtype.kind in "iu" else "{:.17g}")) * counts.shape[1]
    return "\n".join(template.format(i, *row) for i, row in enumerate(counts.tolist(), start))


def write_click_csv(path, cfg: RunConfig, repetition: int, blocks: "list[str] | tuple[str, ...]") -> None:
    """Counts only: one ``point_index,n_noclick_0,...,n_noclick_{M-1}`` row per point.

    ``blocks`` are the :func:`click_rows` texts of consecutive point blocks.
    The embedded config fixes every other field of a record, so none is stored.
    """
    _write_table(path, cfg, click_columns(cfg), blocks, {"repetition": repetition, "format": CLICK_FORMAT})


def _read_table(path, columns_of, fmt: "str | None" = None) -> tuple[RunConfig, dict, np.ndarray]:
    """-> (embedded config, extras, (rows, columns) floats); a bad row is named by number.

    ``columns_of(cfg)`` names the columns of the embedded config ``cfg``.
    With ``fmt``, the file must carry a ``# format = <fmt>`` line.
    """
    config_text, extras, found, body = _split_file(path)
    if fmt is not None and extras.get("format") != fmt:
        raise DataError(
            f"{path}: old-format click file: expected '# format = {fmt}', "
            f"found {extras.get('format', 'no format line')!r}"
        )
    cfg = _parse_embedded(path, config_text)
    columns = columns_of(cfg)
    if tuple(found) != columns:
        raise DataError(f"{path}: unexpected columns {found}")
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


def _check_order(path, i: np.ndarray, j: np.ndarray, n_i: int, n_j: int, order: str) -> None:
    """DataError naming the first row whose (i, j) leaves the row-major order
    of n_i x n_j, or the first missing or extra row."""
    k = min(len(i), n_i * n_j)
    # n_j may exceed every row count (and int64); below k + 1 it divides the same way
    expected_i, expected_j = np.divmod(np.arange(k), min(n_j, k + 1))
    _reject(path, (i[:k] != expected_i) | (j[:k] != expected_j), f"out of {order}")
    if len(i) != n_i * n_j:
        raise DataError(f"{path}: row {k + 1}: {'missing' if k < n_i * n_j else 'extra'} in {order}")


def read_click_csv(path) -> tuple[RunConfig, int, ClickArrays]:
    """Read a format-3 click file; every field but the counts comes from its embedded config."""
    cfg, extras, data = _read_table(path, click_columns, CLICK_FORMAT)
    rep, n_reps = extras.get("repetition", ""), cfg.repetitions
    # plain decimal digits only; the length bound keeps int() within its digit limit
    if not (rep.isascii() and rep.isdigit() and len(rep) <= len(str(n_reps)) and int(rep) < n_reps):
        raise DataError(f"{path}: repetition {rep!r} is not an integer in [0, {n_reps})")
    p = cfg.grid.n_points
    point = _integers(path, data[:, 0], "point_index")
    _check_order(path, point, np.zeros_like(point), p, 1, f"the order of the {p} points the embedded config declares")
    noclick = data[:, 1:]
    _reject(path, ~((noclick >= 0.0) & (noclick <= cfg.n_runs)).all(axis=1), "n_noclick outside [0, n_runs]")
    gammas = cfg.grid.flat_gammas()
    try:
        sched = build_recipe(cfg).build(gammas)
    except ValueError as exc:
        raise DataError(f"{path}: embedded config declares no valid schedule: {exc}") from exc
    clicks = ClickArrays(gammas, sched.nu_bar, sched.y, noclick, cfg.n_runs)
    return cfg, int(rep), clicks


def write_wigner_csv(
    path,
    cfg: RunConfig,
    w_rec: np.ndarray,
    w_exact: "np.ndarray | None" = None,
    w_variance: "np.ndarray | None" = None,
    loglik: "np.ndarray | None" = None,
) -> None:
    """One row per node of ``cfg.grid``, in ``flat_gammas()`` order; a column not given is NaN."""
    gammas = cfg.grid.flat_gammas()
    nan = np.full(gammas.size, np.nan)
    optional = (nan if c is None else c for c in (w_exact, w_variance, loglik))
    template = ",".join(["{:.17g}"] * len(WIGNER_COLUMNS))
    table = np.column_stack([gammas.real, gammas.imag, w_rec, *optional]).tolist()
    _write_table(path, cfg, WIGNER_COLUMNS, (template.format(*row) for row in table))


def read_wigner_csv(path) -> tuple[RunConfig, np.ndarray, dict[str, np.ndarray]]:
    """-> (config, gammas, column arrays for w_rec / w_exact / w_variance / loglik)."""
    cfg, _, data = _read_table(path, lambda _: WIGNER_COLUMNS)
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
    _write_table(path, cfg, RHO_COLUMNS, _indexed_rows(np.stack([rho.real, rho.imag], axis=-1)))


def read_rho_csv(path) -> tuple[RunConfig, np.ndarray]:
    """The n_trunc x n_trunc matrix of the embedded config, from its rows in row-major order."""
    cfg, _, data = _read_table(path, lambda _: RHO_COLUMNS)
    m, n = _integers(path, data[:, 0], "m"), _integers(path, data[:, 1], "n")
    dim = cfg.trunc.n_trunc
    order = f"the row-major order of the {dim} x {dim} elements the embedded config declares"
    _check_order(path, m, n, dim, dim, order)
    return cfg, complex_array(data[:, 2], data[:, 3]).reshape(dim, dim)


def write_json(path, payload: dict) -> None:
    """``payload`` as strict JSON, indented by 2: every non-finite float is written as null."""
    import json  # imported on first use: most stages write no JSON

    # a round trip through the C codec maps NaN and +-Infinity at any depth json.load accepts
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(strict, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_metrics_json(path, cfg: RunConfig, metrics: dict) -> None:
    write_json(path, {"config": dump_config(cfg), **metrics})
