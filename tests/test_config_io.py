import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from clicktomo.em import EMConfig, NORMALIZATION_MODES
from clicktomo.fock import TruncationConfig, coherent_state, density_from_pure, displaced_diagonals
from clicktomo.measurement import DetectorPair, SingleDetectorRecipe, complex_array, derive_settings, simulate
from clicktomo.wigner import PhaseGrid, WignerEstimate
from clicktomo.config import (
    analytic_wigner_fn,
    build_recipe,
    build_state,
    dump_config,
    parse_config,
)
from clicktomo.errors import ConfigError, DataError
from clicktomo import io_csv

from oracles import indexed_rows_float, point_rows_float


def write_clicks(path, cfg, repetition, clicks):
    """A click file holding ``clicks`` as one block of rows."""
    io_csv.write_click_csv(path, cfg, repetition, [io_csv.click_rows(clicks.noclick)])


BASE = """
[state]
kind = coherent
re_amplitude = 1.0

[truncation]
n_trunc = 12

[detectors]
mode = single
alpha = 0.15
n_efficiencies = 30

[grid]
re_min = -1.2
re_max = 2.5
im_min = -1.2
im_max = 2.5
n_re = 4
n_im = 4

[run]
n_runs = 500
n_iterations = 50
seed = 3
"""


class TestParse:
    def test_round_trip_identity(self):
        cfg = parse_config(BASE)
        again = parse_config(dump_config(cfg))
        assert again == cfg
        assert dump_config(again) == dump_config(cfg)

    def test_defaults_applied(self):
        cfg = parse_config(BASE)
        assert cfg.trunc.n_pad == 44
        assert cfg.repetitions == 1
        assert cfg.normalization == "renormalized"
        assert cfg.analytic_reference is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BASE + "\nwhatever = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(BASE + "\n[extra]\nx = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="n_trunc"):
            parse_config(BASE.replace("n_trunc = 12", ""))

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="n_runs"):
            parse_config(BASE.replace("n_runs = 500", "n_runs = many"))

    def test_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(BASE.replace("kind = coherent", "kind = thermal"))

    def test_grid_bounds_checked(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("re_max = 2.5", "re_max = -2.0"))

    def test_fewer_settings_than_n_trunc_rejected(self):
        with pytest.raises(ConfigError, match="n_efficiencies = 11 is below n_trunc = 12"):
            parse_config(BASE.replace("n_efficiencies = 30", "n_efficiencies = 11"))
        with pytest.raises(ConfigError, match="n_angles = 11 is below n_trunc = 12"):
            parse_config(BASE.replace("mode = single", "mode = dual\nn_angles = 11"))

    def test_fewer_distinct_nu_bar_than_n_trunc_rejected(self):
        # equal efficiencies give every setting one nu_bar, so the EM's model has rank 1;
        # angles symmetric about pi/2 give 15 of 30 settings the nu_bar of the other 15, to a few ulps
        equal = BASE.replace("n_efficiencies = 30", "n_efficiencies = 30\nefficiency_min = 0.5\nefficiency_max = 0.5")
        with pytest.raises(ConfigError, match="single: the schedule has 1 distinct nu_bar values, below n_trunc = 12"):
            build_recipe(parse_config(equal))
        symmetric = BASE.replace("mode = single", f"mode = dual\nangle_min = 0.2\nangle_max = {math.pi - 0.2!r}")
        with pytest.raises(ConfigError, match="dual: the schedule has 15 distinct nu_bar values, below n_trunc = 16"):
            build_recipe(parse_config(symmetric.replace("n_trunc = 12", "n_trunc = 16")))
        build_recipe(parse_config(symmetric))

    def test_overrides(self):
        cfg = parse_config(BASE).with_overrides(seed=9, exact=True)
        assert cfg.seed == 9 and cfg.exact_probabilities


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
BOOL_TEXTS = st.sampled_from(["true", "false", "1", "0", "yes", "no", "on", "off", "True", "OFF"])


@st.composite
def config_texts(draw):
    """A valid config: optional keys may be left out, floats are written with repr."""

    def maybe(strategy):
        return draw(st.none() | strategy)

    n_trunc = draw(st.integers(2, 40))
    n_pad = maybe(st.just(0) | st.integers(n_trunc, 200))
    mode = draw(st.sampled_from(["single", "dual"]))
    count = st.integers(n_trunc, 100)
    # every grid node must have |gamma|^2 <= n_pad/2
    half = 0.49 * math.sqrt(n_pad or 2 * n_trunc + 20)

    def bounds():
        return draw(st.lists(st.floats(-half, half), min_size=2, max_size=2, unique=True).map(sorted))

    re_min, re_max = bounds()
    im_min, im_max = bounds()
    sections = {
        "state": {
            "kind": draw(st.sampled_from(["coherent", "squeezed", "fock"])),
            "re_amplitude": maybe(FLOATS),
            "im_amplitude": maybe(FLOATS),
            "squeeze": maybe(FLOATS),
            "n": maybe(st.integers(-3, 100)),
        },
        "truncation": {"n_trunc": n_trunc, "n_pad": n_pad},
        "detectors": {
            "mode": mode,
            "alpha": maybe(FLOATS),
            "n_efficiencies": draw(count) if mode == "single" else maybe(st.integers(0, 100)),
            "efficiency_min": maybe(FLOATS),
            "efficiency_max": maybe(FLOATS),
            "nu_c": maybe(FLOATS),
            "nu_d": maybe(FLOATS),
            "n_angles": draw(count) if mode == "dual" else maybe(st.integers(0, 100)),
            "angle_min": maybe(FLOATS),
            "angle_max": maybe(FLOATS),
        },
        "grid": {
            "re_min": re_min, "re_max": re_max, "im_min": im_min, "im_max": im_max,
            "n_re": draw(st.integers(1, 500)), "n_im": draw(st.integers(1, 500)),
        },
        "run": {
            "n_runs": maybe(st.integers(1, 10**9)),
            "n_iterations": maybe(st.integers(0, 10**6)),
            "repetitions": maybe(st.integers(1, 20)),
            "seed": maybe(st.integers(0, 2**70)),
            "exact_probabilities": maybe(BOOL_TEXTS),
            "normalization": maybe(st.sampled_from(NORMALIZATION_MODES)),
            "analytic_reference": maybe(BOOL_TEXTS),
        },
    }
    blocks = []
    for name, keys in sections.items():
        rows = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}" for k, v in keys.items() if v is not None]
        blocks.append("\n".join([f"[{name}]", *rows]))
    return "\n\n".join(blocks) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=config_texts())
@example(text=BASE.replace("re_amplitude = 1.0", "re_amplitude = 0.30000000000000004"))
def test_parse_dump_parse_is_identity(text):
    first = parse_config(text)
    dumped = dump_config(first)
    second = parse_config(dumped)
    assert second == first
    assert dump_config(second) == dumped


@settings(max_examples=200, deadline=None)
@given(
    n_trunc=st.integers(2, 16),
    n_re=st.integers(2, 40),
    n_im=st.integers(2, 40),
    angle=st.floats(0.05, 0.5 * math.pi - 0.05),
)
def test_grid_the_config_accepts_the_kernel_accepts(n_trunc, n_re, n_im, angle):
    # the outermost nodes sit on |gamma|^2 = n_pad/2, so rounding decides; the config
    # check and the displacement kernel must decide alike
    text = BASE.replace("n_trunc = 12", f"n_trunc = {n_trunc}")
    radius = math.sqrt(0.5 * TruncationConfig(n_trunc).n_pad)
    re_half = radius * math.cos(angle) * n_re / (n_re - 1)
    im_half = radius * math.sin(angle) * n_im / (n_im - 1)
    grid = f"re_min = {-re_half!r}\nre_max = {re_half!r}\nim_min = {-im_half!r}\nim_max = {im_half!r}\n"
    text = text.replace("re_min = -1.2\nre_max = 2.5\nim_min = -1.2\nim_max = 2.5\nn_re = 4\nn_im = 4\n",
                        f"{grid}n_re = {n_re}\nn_im = {n_im}\n")
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert "[grid] |gamma|^2" in str(exc)
        return
    displaced_diagonals(build_state(cfg), cfg.grid.flat_gammas(), cfg.trunc)


def test_records_compare_by_value_and_refuse_assignment():
    cfg = parse_config(BASE)
    assert parse_config(dump_config(cfg)) == cfg and cfg._replace(seed=6) != cfg
    assert EMConfig() == EMConfig(1000, "renormalized", None) and TruncationConfig(12) == TruncationConfig(12, 44)
    schedule = build_recipe(cfg).build(cfg.grid.flat_gammas())
    assert len(schedule) == cfg.detectors.n_settings == 30
    rho = density_from_pure(coherent_state(1.0, cfg.trunc))
    assert rho != density_from_pure(coherent_state(1.0, cfg.trunc))  # array records compare by identity
    for record, field in [
        (cfg, "seed"), (cfg.state, "kind"), (cfg.detectors, "alpha"), (cfg.trunc, "n_pad"), (cfg.grid, "n_re"),
        (EMConfig(), "init"), (DetectorPair(0.3, 0.6), "nu_c"), (build_recipe(cfg), "alpha"), (schedule, "y"),
        (rho, "elements"), (WignerEstimate(cfg.grid, np.zeros(cfg.grid.n_points)), "w_values"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize(
    "record, field, bad",
    [
        (TruncationConfig(12), "n_pad", 11),
        (PhaseGrid(-1.0, 1.0, -1.0, 1.0, 2, 2), "n_re", 0),
        (EMConfig(), "n_iterations", -1),
        (DetectorPair(0.3, 0.6), "nu_c", 1.2),
    ],
    ids=["truncation", "grid", "em", "detectors"],
)
def test_replace_runs_the_constructor_checks(record, field, bad):
    with pytest.raises(ValueError):
        record._replace(**{field: bad})


class TestBuilders:
    def test_state_kinds(self):
        coherent = build_state(parse_config(BASE))
        assert coherent.elements[0, 0].real == pytest.approx(np.exp(-1.0), rel=1e-12)
        squeezed_cfg = parse_config(
            BASE.replace("kind = coherent", "kind = squeezed").replace(
                "re_amplitude = 1.0", "squeeze = 0.5493061443340549"
            )
        )
        assert build_state(squeezed_cfg).elements[1, 1] == 0.0
        fock_cfg = parse_config(
            BASE.replace("kind = coherent", "kind = fock").replace("re_amplitude = 1.0", "n = 2")
        )
        assert build_state(fock_cfg).elements[2, 2] == 1.0

    def test_single_recipe(self):
        recipe = build_recipe(parse_config(BASE))
        assert isinstance(recipe, SingleDetectorRecipe)
        assert len(recipe.efficiencies) == 30

    def test_dual_recipe_roundtrip(self):
        text = BASE.replace("mode = single", "mode = dual")
        recipe = build_recipe(parse_config(text))
        sched = recipe.build(0.5 + 0.1j)
        pair = recipe.detectors
        gamma = derive_settings(recipe.angles, sched.beta, pair.nu_c, pair.nu_d)[1]
        assert np.all(np.abs(gamma - (0.5 + 0.1j)) <= 1e-12)

    def test_analytic_function(self):
        fn = analytic_wigner_fn(parse_config(BASE))
        assert fn(np.array([1.0 + 0.0j]))[0] == pytest.approx(2.0 / np.pi, rel=1e-12)


class TestClickCsv:
    def _records(self, cfg):
        return simulate(
            build_state(cfg), cfg.grid.flat_gammas(), build_recipe(cfg), cfg.trunc,
            cfg.n_runs, cfg.seed, 0, exact=False,
        )

    def test_round_trip(self, tmp_path):
        cfg = parse_config(BASE)
        clicks = self._records(cfg)
        path = tmp_path / "clicks.csv"
        write_clicks(path, cfg, 0, clicks)
        cfg2, rep, back = io_csv.read_click_csv(path)
        assert cfg2 == cfg and rep == 0
        assert back.gammas.size == clicks.gammas.size
        np.testing.assert_array_equal(back.gammas, clicks.gammas)
        np.testing.assert_array_equal(back.noclick, clicks.noclick)
        np.testing.assert_array_equal(back.nu_bar, clicks.nu_bar)
        np.testing.assert_array_equal(back.y, clicks.y)

    def test_embedded_config_extraction(self, tmp_path):
        cfg = parse_config(BASE)
        path = tmp_path / "clicks.csv"
        write_clicks(path, cfg, 0, self._records(cfg))
        assert io_csv.embedded_config(path) == dump_config(cfg)

    def test_malformed_row_names_line(self, tmp_path):
        cfg = parse_config(BASE)
        path = tmp_path / "clicks.csv"
        write_clicks(path, cfg, 0, self._records(cfg))
        lines = path.read_text().splitlines()
        lines[len(lines) - 1] = "oops"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row"):
            io_csv.read_click_csv(path)

    @pytest.mark.parametrize("line", ["# repetition = 0", "#", ""], ids=["key_value", "comment", "blank"])
    @pytest.mark.parametrize("where", [None, 10], ids=["after_rows", "among_rows"])
    def test_line_among_rows_is_a_bad_row(self, tmp_path, line, where):
        # every line after the column names is a data row, so a header line there is not read as one
        cfg = parse_config(BASE.replace("n_runs = 500", "n_runs = 500\nrepetitions = 2"))
        path = tmp_path / "clicks_rep1.csv"
        write_clicks(path, cfg, 1, self._records(cfg))
        lines = path.read_text().splitlines()
        n_head = lines.index(",".join(io_csv.click_columns(cfg))) + 1
        at = len(lines) if where is None else n_head + where
        lines.insert(at, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"row {at - n_head + 1}: expected 31 fields, found 1"):
            io_csv.read_click_csv(path)

    def test_header_after_rows_rejected(self, tmp_path):
        cfg = parse_config(BASE)
        path = tmp_path / "clicks.csv"
        write_clicks(path, cfg, 0, self._records(cfg))
        lines = path.read_text().splitlines()
        n_head = lines.index(",".join(io_csv.click_columns(cfg)))
        path.write_text("\n".join(lines[n_head:] + lines[:n_head]) + "\n")
        with pytest.raises(DataError, match="missing embedded config header"):
            io_csv.read_click_csv(path)

    def test_header_line_that_is_not_key_value_rejected(self, tmp_path):
        cfg = parse_config(BASE)
        path = tmp_path / "clicks.csv"
        write_clicks(path, cfg, 0, self._records(cfg))
        text = path.read_text().replace("# config-end\n", "# config-end\n# a note\n")
        path.write_text(text)
        with pytest.raises(DataError, match="header line '# a note' is not '# key = value'"):
            io_csv.read_click_csv(path)

    def test_old_format_rejected(self, tmp_path):
        # format 1 had no format line and stored every derived field per row
        cfg = parse_config(BASE)
        path = tmp_path / "clicks.csv"
        write_clicks(path, cfg, 0, self._records(cfg))
        head = [line for line in path.read_text().splitlines() if line[:1] == "#" and line != "# format = 3"]
        columns = "point_index,re_gamma,im_gamma,alpha,re_beta,im_beta,nu_c,nu_d,nu_bar,y,n_runs,n_noclick"
        row = "0,-0.7375,-0.7375,0.15,4.9,4.9,0.1,0,0.0978,0,500,480"
        path.write_text("\n".join(head + [columns, row]) + "\n")
        with pytest.raises(DataError, match="old-format click file: expected '# format = 3'"):
            io_csv.read_click_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("point_index,n_noclick_0\n")
        with pytest.raises(DataError, match="config"):
            io_csv.read_click_csv(path)


@pytest.fixture(scope="module")
def click_bytes(tmp_path_factory):
    text = BASE.replace("n_re = 4", "n_re = 2").replace("n_im = 4", "n_im = 1")
    text = text.replace("n_efficiencies = 30", "n_efficiencies = 3").replace("n_trunc = 12", "n_trunc = 3")
    cfg = parse_config(text)
    clicks = simulate(
        build_state(cfg), cfg.grid.flat_gammas(), build_recipe(cfg), cfg.trunc,
        cfg.n_runs, cfg.seed, 0, exact=False,
    )
    path = tmp_path_factory.mktemp("clicks") / "clicks.csv"
    write_clicks(path, cfg, 0, clicks)
    return path.read_bytes()


# (position, bytes to insert, number of bytes to delete there)
EDIT = st.tuples(
    st.integers(min_value=0),
    st.binary(max_size=4) | st.text("0123456789,.-+eE#=\n ", max_size=4).map(str.encode),
    st.integers(0, 4),
)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=3), cut=st.none() | st.integers(min_value=0))
def test_mutated_click_file_reads_or_raises_data_error(click_bytes, edits, cut):
    data = bytearray(click_bytes)
    for pos, insert, delete in edits:
        pos %= len(data) + 1
        data[pos : pos + delete] = insert
    if cut is not None:
        data = data[: cut % (len(data) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clicks.csv"
        path.write_bytes(bytes(data))
        try:
            io_csv.read_click_csv(path)
        except DataError:
            pass


class TestWignerCsv:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(BASE)
        gammas = cfg.grid.flat_gammas()
        w = np.linspace(-0.5, 0.6, gammas.size)
        path = tmp_path / "wigner.csv"
        io_csv.write_wigner_csv(path, cfg, w, w_exact=w + 0.01)
        cfg2, g2, cols = io_csv.read_wigner_csv(path)
        assert cfg2 == cfg
        np.testing.assert_array_equal(g2, gammas)
        np.testing.assert_array_equal(cols["w_rec"], w)
        np.testing.assert_array_equal(cols["w_exact"], w + 0.01)
        assert np.all(np.isnan(cols["w_variance"]))


class TestRhoCsv:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(BASE.replace("n_trunc = 12", "n_trunc = 5"))
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "rho.csv"
        io_csv.write_rho_csv(path, cfg, mat)
        cfg2, back = io_csv.read_rho_csv(path)
        assert cfg2 == cfg
        np.testing.assert_array_equal(back, mat)

    # the rows must be the n_trunc x n_trunc elements of the embedded config, row-major
    ROW_EDITS = {
        "last_row_removed": (lambda rows: rows[:-1], "row 144: missing in the row-major order of the 12 x"),
        "row_appended": (lambda rows: rows + ["0,0,0.5,0"], "row 145: extra in the row-major order of the 12 x"),
        "rows_swapped": (lambda rows: [rows[1], rows[0]] + rows[2:], "row 1: out of the row-major order"),
    }

    @pytest.mark.parametrize("edit, message", ROW_EDITS.values(), ids=ROW_EDITS.keys())
    def test_rows_must_fill_the_matrix_in_order(self, tmp_path, edit, message):
        cfg = parse_config(BASE)
        path = tmp_path / "rho.csv"
        io_csv.write_rho_csv(path, cfg, np.eye(12) / 12.0)
        lines = path.read_text().splitlines()
        n_head = lines.index(",".join(io_csv.RHO_COLUMNS)) + 1
        path.write_text("\n".join(lines[:n_head] + edit(lines[n_head:])) + "\n")
        with pytest.raises(DataError, match=message):
            io_csv.read_rho_csv(path)


def same_bits(got, want) -> bool:
    """Equal bit patterns, except that NaN matches any NaN: the text 'nan' keeps no sign or payload."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return bool(
        np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    )


# every float: -0.0, subnormals, infinities and NaN included; the node columns come from the grid
WIGNER_ROWS = st.lists(st.tuples(*[st.floats()] * 4), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(rows=WIGNER_ROWS)
@example(rows=[(-0.0, math.nan, -1e-310, math.nan), (2e-320, -0.0, -math.inf, -5e-324)])
def test_wigner_csv_floats_survive_bit_for_bit(rows):
    w_rec, w_exact, w_variance, loglik = map(np.array, zip(*rows))
    cfg = parse_config(BASE.replace("n_re = 4\nn_im = 4", f"n_re = {len(rows)}\nn_im = 1"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wigner.csv"
        io_csv.write_wigner_csv(path, cfg, w_rec, w_exact=w_exact, w_variance=w_variance, loglik=loglik)
        _, gammas, cols = io_csv.read_wigner_csv(path)
    nodes = cfg.grid.flat_gammas()
    assert same_bits(gammas.real, nodes.real) and same_bits(gammas.imag, nodes.imag)
    for name, want in zip(io_csv.WIGNER_COLUMNS[2:], (w_rec, w_exact, w_variance, loglik)):
        assert same_bits(cols[name], want), name


# sampled counts are int64 in [0, n_runs], n_runs <= 2**53, where float64 holds every integer;
# 10**15 is where they reach 16 digits
COUNTS = arrays(
    np.int64,
    st.tuples(st.integers(1, 5), st.integers(1, 4)),
    elements=st.one_of(
        st.integers(0, 2**53), st.sampled_from([0, 1, 2**53 - 1, 2**53]), st.integers(10**15 - 9, 10**15 + 9)
    ),
)


@settings(max_examples=150, deadline=None)
@given(counts=COUNTS, start=st.integers(0, 2**40))
@example(counts=np.array([[0, 2**53], [10**15 - 1, 10**15 + 1]]), start=0)
def test_integer_click_rows_are_the_float_rows(counts, start):
    rows = io_csv.click_rows(counts, start)
    assert rows == "\n".join(point_rows_float(counts.astype(float), start))
    assert "e" not in rows and "." not in rows


def test_counts_above_2_53_would_be_rounded_as_floats():
    # why n_runs stops at 2**53: the float rows the integer rows replaced round such counts
    counts = np.array([[2**53 + 1, 10**16 + 1]])
    assert io_csv.click_rows(counts) == f"0,{2**53 + 1},{10**16 + 1}"
    assert "\n".join(point_rows_float(counts.astype(float))) == f"0,{2**53},{10**16}"


@settings(max_examples=100, deadline=None)
@given(values=arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 2)), elements=st.floats()))
def test_float_rows_are_unchanged(values):
    assert list(io_csv._indexed_rows(values, 7)) == list(indexed_rows_float(values, 7))
    counts = values.reshape(len(values), -1)  # exact-mode counts
    assert io_csv.click_rows(counts, 7) == "\n".join(point_rows_float(counts, 7))


# what a config can declare: 1 to 6 points, 2 to 40 settings (n_trunc = 2) and counts up to n_runs = 2**53,
# sampled (int64) or exact (float)
CLICK_TABLES = st.tuples(st.integers(1, 6), st.integers(2, 40)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 2**53))
    | arrays(float, shape, elements=st.floats(0, 2**53))
)


@settings(max_examples=100, deadline=None)
@given(counts=CLICK_TABLES, data=st.data())
def test_click_rows_read_back_bit_equal(counts, data):
    n_points, n_settings = counts.shape
    cuts = sorted(data.draw(st.lists(st.integers(1, n_points - 1), unique=True))) if n_points > 1 else []
    blocks = [io_csv.click_rows(counts[a:b], a) for a, b in zip([0, *cuts], [*cuts, n_points])]
    assert "\n".join(blocks) == io_csv.click_rows(counts)
    cfg = parse_config(
        BASE.replace("n_trunc = 12", "n_trunc = 2")
        .replace("n_efficiencies = 30", f"n_efficiencies = {n_settings}")
        .replace("n_re = 4\nn_im = 4", f"n_re = {n_points}\nn_im = 1")
        .replace("n_runs = 500", f"n_runs = {2**53}")
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clicks.csv"
        io_csv.write_click_csv(path, cfg, 0, blocks)
        _, _, back = io_csv.read_click_csv(path)
    assert back.noclick.shape == (n_points, n_settings)
    assert same_bits(back.noclick, counts.astype(float))


def test_rho_rows_are_unchanged(tmp_path):
    rng = np.random.default_rng(3)
    cfg = parse_config(BASE)
    n = cfg.trunc.n_trunc
    elements = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    io_csv.write_rho_csv(tmp_path / "rho.csv", cfg, elements)
    rows = (tmp_path / "rho.csv").read_text().split(",".join(io_csv.RHO_COLUMNS) + "\n")[1]
    assert rows == "\n".join(indexed_rows_float(np.stack([elements.real, elements.imag], axis=-1))) + "\n"


# n_trunc is at least 2
RHO_PARTS = st.integers(2, 5).flatmap(lambda n: arrays(float, (2, n, n), elements=st.floats()))


@settings(max_examples=150, deadline=None)
@given(parts=RHO_PARTS)
@example(parts=np.array([-0.0, 5e-324, 0.0, -2.5e-320, math.nan, -0.0, 1e-310, -math.inf]).reshape(2, 2, 2))
def test_rho_csv_floats_survive_bit_for_bit(parts):
    re, im = parts
    cfg = parse_config(BASE.replace("n_trunc = 12", f"n_trunc = {len(re)}"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rho.csv"
        io_csv.write_rho_csv(path, cfg, complex_array(re, im))
        _, rho = io_csv.read_rho_csv(path)
    assert same_bits(rho.real, re) and same_bits(rho.imag, im)
