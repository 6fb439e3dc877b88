import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clicktomo import __main__ as entry
from clicktomo import cli, config, io_csv, measurement, recover
from clicktomo.cli import main
from clicktomo.config import analytic_wigner_fn, build_amplitudes, build_recipe, dump_config, parse_config
from clicktomo.em import run_em_batch
from clicktomo.errors import ConfigError, DataError, NumericalError
from clicktomo.fock import density_from_pure, displaced_diagonals, fock_state
from clicktomo.wigner import W_BOUND_SLACK

from oracles import displaced_diagonal_padded, embedded_config, simulate

SMALL = """
[state]
kind = coherent
re_amplitude = 1.0

[truncation]
n_trunc = 12

[detectors]
mode = single
alpha = 0.15
n_efficiencies = 14

[grid]
re_min = -0.5
re_max = 1.5
im_min = -1.0
im_max = 1.0
n_re = 2
n_im = 2

[run]
n_runs = 400
n_iterations = 60
seed = 5
"""
EXACT = SMALL + "exact_probabilities = true\n"  # the only switch to expected counts


def on_grid(text: str, n_re: int, n_im: int) -> str:
    """The config on an n_re x n_im grid over the same rectangle."""
    return text.replace("n_re = 2\nn_im = 2", f"n_re = {n_re}\nn_im = {n_im}")

VACUUM_POINT = """
[state]
kind = coherent

[truncation]
n_trunc = 12

[detectors]
mode = single
alpha = 0.15
n_efficiencies = 14

[grid]
re_min = -0.5
re_max = 0.5
im_min = -0.5
im_max = 0.5
n_re = 1
n_im = 1

[run]
n_runs = 200
n_iterations = 40
seed = 1
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL)
    return path


def test_simulate_reports_the_largest_truncation_leak(small_cfg, tmp_path, capsys):
    assert main(["simulate", "--config", str(small_cfg), "--out", str(tmp_path)]) == 0
    printed = re.search(r"largest truncation leak (\S+) at gamma = (\S+)\)$", capsys.readouterr().out)
    cfg = parse_config(SMALL)
    rho, gammas = density_from_pure(build_amplitudes(cfg)), cfg.grid.flat_gammas()
    leaks = [1.0 - displaced_diagonal_padded(rho, g, cfg.trunc)[:12].sum() for g in gammas]
    worst = int(np.argmax(leaks))
    assert float(printed[1]) == pytest.approx(leaks[worst], rel=1e-6)
    assert complex(printed[2]) == gammas[worst]


def test_simulate_writes_expected_rows(small_cfg, tmp_path):
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(small_cfg), "--out", str(out)]) == 0
    cfg, noclick = io_csv.read_click_csv(out / "clicks.csv")
    assert cfg.grid.flat_gammas().size == 4
    assert noclick.shape == (4, 14)


def test_simulate_is_deterministic(small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(small_cfg), "--out", str(out1)])
    main(["simulate", "--config", str(small_cfg), "--out", str(out2)])
    assert (out1 / "clicks.csv").read_bytes() == (out2 / "clicks.csv").read_bytes()


def test_rerun_from_embedded_header(small_cfg, tmp_path):
    out1 = tmp_path / "a"
    main(["simulate", "--config", str(small_cfg), "--out", str(out1)])
    embedded = embedded_config(out1 / "clicks.csv")
    cfg2 = tmp_path / "replay.ini"
    cfg2.write_text(embedded)
    out2 = tmp_path / "b"
    main(["simulate", "--config", str(cfg2), "--out", str(out2)])
    assert (out1 / "clicks.csv").read_bytes() == (out2 / "clicks.csv").read_bytes()


def test_vacuum_point_all_noclick(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(VACUUM_POINT)
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    cfg, noclick = io_csv.read_click_csv(out / "clicks.csv")
    assert np.all(noclick == cfg.n_runs)


def test_full_pipeline(small_cfg, tmp_path):
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(small_cfg), "--out", str(out)]) == 0
    assert (
        main(
            [
                "reconstruct",
                "--config",
                str(small_cfg),
                "--records",
                str(out / "clicks.csv"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    cfg, gammas, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    assert gammas.size == 4
    assert np.all(np.isfinite(cols["w_rec"]))
    assert np.all(np.isfinite(cols["w_exact"]))  # analytic reference on by default
    assert (
        main(
            [
                "recover-rho",
                "--config",
                str(small_cfg),
                "--wigner",
                str(out / "wigner.csv"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    metrics = json.loads((out / "metrics.json").read_text())
    assert "trace" in metrics and "fidelity_vs_configured_state" in metrics
    assert (
        main(
            [
                "report",
                "--wigner",
                str(out / "wigner.csv"),
                "--metrics",
                str(out / "metrics.json"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads((out / "report.json").read_text())
    assert report["maps"][0]["n_runs"] == 400
    assert np.isfinite(report["maps"][0]["delta_w"])


def test_reconstruct_variance_from_repetitions(small_cfg, tmp_path):
    text = SMALL.replace("seed = 5", "seed = 5\nrepetitions = 2")
    cfg = tmp_path / "rep.ini"
    cfg.write_text(text)
    out = tmp_path / "art"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert sorted(path.name for path in out.iterdir()) == ["clicks.csv"]
    assert main(["reconstruct", "--config", str(cfg), "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
    _, _, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    assert np.all(np.isfinite(cols["w_variance"]))


# sha256 of the clicks.csv of SMALL at repetitions = 3: the three files clicks_rep{k}.csv
# that simulate wrote while each repetition had its own file, joined (each repetition's
# rows after the first file's header, without its "# repetition = 0" line); exact mode
# takes one repetition
REPETITION_DIGESTS = {
    "sampled": (SMALL, "3c4baef0da0b4642fc4b6ea78289eef848479afaf235f0dfb2d23ee77c0c1d73"),
}


@pytest.mark.parametrize("text, digest", REPETITION_DIGESTS.values(), ids=REPETITION_DIGESTS.keys())
def test_one_click_file_holds_every_repetition(tmp_path, text, digest):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text + "repetitions = 3\n")
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["clicks.csv"]
    assert hashlib.sha256((out / "clicks.csv").read_bytes()).hexdigest() == digest
    run_cfg, noclick = io_csv.read_click_csv(out / "clicks.csv")
    gammas = run_cfg.grid.flat_gammas()
    assert noclick.shape == (3 * gammas.size, run_cfg.detectors.n_settings)  # the counts, and no schedule
    for rep, counts in enumerate(np.split(noclick, 3)):
        whole = simulate(
            build_amplitudes(run_cfg), gammas, build_recipe(run_cfg), run_cfg.trunc, run_cfg.n_runs, run_cfg.seed,
            rep, run_cfg.exact_probabilities,
        )
        assert counts.tolist() == whole.noclick.tolist()


def test_a_click_file_of_one_repetition_of_several_is_refused(tmp_path, capsys):
    # a clicks_rep1.csv of an older version: repetition 1's 4 rows under a "# repetition = 1" line
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL + "repetitions = 2\n")
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "clicks.csv").read_text().splitlines()
    n_head = lines.index("# format = 3")
    old = tmp_path / "clicks_rep1.csv"
    old.write_text("\n".join([*lines[:n_head], "# repetition = 1", *lines[n_head : n_head + 2], *lines[-4:]]) + "\n")
    capsys.readouterr()
    assert main(["reconstruct", "--records", str(old), "--out", str(tmp_path / "wigner")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {old}: row 5: missing in the order of the 4 points of each of the 2 repetitions "
        "the embedded config declares\n"
    )
    assert not (tmp_path / "wigner").exists()


def test_a_click_file_with_a_repetition_line_still_reads(small_wigner, tmp_path):
    # an older version wrote "# repetition = 0" above the format line of every click file
    text = (small_wigner.parent / "clicks.csv").read_text()
    assert text.count("\n# format = 3\n") == 1
    old = tmp_path / "clicks.csv"
    old.write_text(text.replace("\n# format = 3\n", "\n# repetition = 0\n# format = 3\n"))
    assert main(["reconstruct", "--records", str(old), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "wigner.csv").read_bytes() == small_wigner.read_bytes()


def test_exact_flag_writes_expected_counts(tmp_path):
    cfg = tmp_path / "exact.ini"
    cfg.write_text(EXACT)
    out = tmp_path / "art"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    _, noclick = io_csv.read_click_csv(out / "clicks.csv")
    fracs = noclick % 1.0
    assert np.any(fracs != 0.0)


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(SMALL + "\nnonsense = 1\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_missing_records_exit_code(small_cfg, tmp_path):
    code = main(
        ["reconstruct", "--config", str(small_cfg), "--records", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
    )
    assert code == 3


def test_empty_records_exit_code(small_cfg, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(
        ["reconstruct", "--config", str(small_cfg), "--records", str(empty), "--out", str(tmp_path)]
    )
    assert code == 3


def test_malformed_row_exit_code(small_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1] + ",extra"
    path.write_text("\n".join(lines) + "\n")
    code = main(
        ["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)]
    )
    assert code == 3
    assert "row" in capsys.readouterr().err


def test_report_missing_file(tmp_path):
    assert main(["report", "--wigner", str(tmp_path / "none.csv"), "--out", str(tmp_path)]) == 3


@pytest.fixture(scope="module")
def small_wigner(tmp_path_factory):
    out = tmp_path_factory.mktemp("art")
    cfg = out / "run.ini"
    cfg.write_text(SMALL)
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    return out / "wigner.csv"


# SMALL's coherent state on a 30 x 30 grid over [-3, 3]^2: its analytic map integrates to trace 1 within 1e-3
CLEAN_MAP = SMALL.replace(
    "re_min = -0.5\nre_max = 1.5\nim_min = -1.0\nim_max = 1.0\nn_re = 2\nn_im = 2",
    "re_min = -3.0\nre_max = 3.0\nim_min = -3.0\nim_max = 3.0\nn_re = 30\nn_im = 30",
)
W_BOUND = 2.0 / np.pi + W_BOUND_SLACK  # |W| above it is a warning


def _peak_at(value):
    def edit(w):
        w[np.argmax(w)] = value

    return edit


def _bound_nodes_and_trace(w):
    w[::2], w[1] = np.nan, 0.9  # half the nodes lost: the trace falls far from 1


# an edit of CLEAN_MAP's w_rec -> the lines recover-rho prints on stderr, {trace} from metrics.json
RECOVER_RHO_WARNINGS = {
    "clean": (lambda w: None, []),
    "peak_at_the_bound": (_peak_at(W_BOUND), []),
    "peak_above_the_bound": (
        _peak_at(np.nextafter(W_BOUND, np.inf)),
        ["Wigner magnitude 0.636621 exceeds 2/pi; leaving values unclamped"],
    ),
    "bound_nodes_and_trace": (
        _bound_nodes_and_trace,
        [
            "Wigner magnitude 0.900000 exceeds 2/pi; leaving values unclamped",
            "skipping 450 non-finite Wigner nodes in the quadrature",
            "recovered trace {trace:.4f} is far from 1; grid coverage or resolution is suspect",
        ],
    ),
}


@pytest.mark.parametrize("edit, lines", RECOVER_RHO_WARNINGS.values(), ids=RECOVER_RHO_WARNINGS.keys())
def test_recover_rho_prints_its_warnings_on_stderr(tmp_path, capsys, edit, lines):
    cfg = parse_config(CLEAN_MAP)
    w_exact = analytic_wigner_fn(cfg)(cfg.grid.flat_gammas())
    w_rec = w_exact.copy()
    edit(w_rec)
    path = tmp_path / "wigner.csv"
    io_csv.write_wigner_csv(path, cfg, w_rec, w_exact, np.zeros(cfg.grid.n_points))
    capsys.readouterr()
    assert main(["recover-rho", "--wigner", str(path), "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert capsys.readouterr().err.splitlines() == [line.format(trace=metrics["trace"]) for line in lines]
    assert metrics["trace_warning"] == (abs(metrics["trace"] - 1.0) > recover.TRACE_WARN_TOL) == (len(lines) == 3)


# route -> (arguments, the path at fault, exit code)
BAD_FILES = {
    "metrics_not_json": ("report --wigner {wigner} --metrics {not_json} --out {dir}", "not_json", 3),
    "metrics_not_utf8": ("report --wigner {wigner} --metrics {not_utf8} --out {dir}", "not_utf8", 3),
    "metrics_nested_too_deep": ("report --wigner {wigner} --metrics {deep} --out {dir}", "deep", 3),
    "records_a_directory": ("reconstruct --config {cfg} --records {dir} --out {dir}", "dir", 3),
    "config_a_directory": ("simulate --config {dir} --out {dir}", "dir", 3),
    "out_an_existing_file": ("simulate --config {cfg} --out {cfg}", "cfg", 3),
    "config_not_utf8": ("simulate --config {not_utf8} --out {dir}", "not_utf8", 2),
}


@pytest.mark.parametrize("argv, culprit, code", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_file_is_a_one_line_error(small_cfg, small_wigner, tmp_path, capsys, argv, culprit, code):
    paths = {
        "cfg": small_cfg, "wigner": small_wigner, "dir": tmp_path,
        "not_json": tmp_path / "metrics.json", "not_utf8": tmp_path / "latin1.txt", "deep": tmp_path / "deep.json",
    }
    paths["not_json"].write_text('{"trace": 1.0,')
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    paths["not_utf8"].write_bytes("[run]\nseed = 5 \xb1 1\n".encode("latin-1"))
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv.split()]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(paths[culprit]) in err


@pytest.mark.parametrize("value", ["[1, 2]", '"metrics"', "0.5", "null"], ids=["list", "string", "number", "null"])
def test_report_metrics_must_be_a_json_object(small_wigner, tmp_path, capsys, value):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(value + "\n")
    capsys.readouterr()
    argv = ["report", "--wigner", str(small_wigner), "--metrics", str(metrics), "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(metrics) in err
    assert not (tmp_path / "report.json").exists()


def test_config_with_byte_order_mark_runs(tmp_path):
    # some editors save UTF-8 with a byte-order mark; it is not config text
    digests = []
    for encoding in ("utf-8", "utf-8-sig"):
        cfg = tmp_path / f"{encoding}.ini"
        cfg.write_text(SMALL, encoding=encoding)
        out = tmp_path / encoding
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "clicks.csv").read_bytes()).hexdigest())
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf") and digests[0] == digests[1]


@pytest.mark.parametrize(
    "text",
    ["seed = 3\n[run]\n", "[run]\nseed = 3\nnot a key value line\n", "[run]\nseed = 3\nseed = 4\n"],
    ids=["no_section_header", "parsing_error", "duplicate_key"],
)
def test_config_syntax_error_is_one_line(tmp_path, capsys, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config syntax error:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--seed", "9"]], ids=["plain", "run_flags"])
def test_downstream_stages_default_to_the_embedded_config(tmp_path, flags):
    # n_iterations off its default: without --config it must come from the
    # click file's header, and the outputs match a run that passes the config
    text = SMALL.replace("n_iterations = 60", "n_iterations = 35")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    outputs = {}
    for name, config in (("with", ["--config", str(cfg)]), ("without", [])):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["reconstruct", *config, *flags, "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
        assert main(["recover-rho", *config, *flags, "--wigner", str(out / "wigner.csv"), "--out", str(out)]) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("wigner.csv", "rho.csv", "metrics.json")]
    assert outputs["with"] == outputs["without"]
    assert b"# n_iterations = 35" in outputs["without"][0]


def test_simulate_still_needs_a_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_fewer_settings_than_n_trunc_in_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "few.ini"
    cfg.write_text(SMALL.replace("n_efficiencies = 14", "n_efficiencies = 5"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "n_efficiencies = 5 is below n_trunc = 12" in capsys.readouterr().err


def test_equal_efficiencies_exit_code(tmp_path, capsys):
    # every setting has the same nu_bar: the EM cannot tell the 12 components apart
    cfg = tmp_path / "equal.ini"
    cfg.write_text(SMALL.replace("alpha = 0.15", "alpha = 0.15\nefficiency_min = 0.5\nefficiency_max = 0.5"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "config error: [detectors] mode = single: the schedule has 1 distinct nu_bar values, below n_trunc = 12\n"
    )


def test_fewer_settings_than_n_trunc_in_records_exit_code(small_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    head = sum(1 for line in lines if line.startswith("#")) + 1
    # keep the first 5 of the 14 settings at every point
    kept = [",".join(line.split(",")[:6]) for line in lines[head:]]
    path.write_text("\n".join(lines[:head] + kept) + "\n")
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    assert code == 3
    assert "row 1: expected 15 fields, found 6" in capsys.readouterr().err


def _drop_last_setting(head, body):
    # 13 of the 14 settings at every point still cover n_trunc = 12
    return head, [line.rpartition(",")[0] for line in body]


def _drop_row(k):
    return lambda head, body: (head, body[:k] + body[k + 1 :])


def _repeat_row(k):
    return lambda head, body: (head, body[: k + 1] + body[k:])


def _header(key, value):
    def edit(head, body):
        return [f"# {key} = {value}" if line.startswith(f"# {key} = ") else line for line in head], body

    return edit


def _deleted_keys(*lines):
    """Puts back ``[run]`` lines that headers carried until their keys were deleted."""
    def edit(head, body):
        at = next(k for k, row in enumerate(head) if row.startswith("# exact_probabilities = ")) + 1
        return head[:at] + list(lines) + head[at:], body

    return edit


# an edit of the header or of the row layout -> message; the rows must be the
# points the header declares, in order, each with a count per declared setting
SCHEDULE_EDITS = {
    "drop_last_setting": (_drop_last_setting, "row 1: expected 15 fields, found 14"),
    "missing_row": (_drop_row(1), "row 2: out of the order of the 4 points"),
    "missing_last_row": (_drop_row(3), "row 4: missing in the order of the 4 points"),
    "duplicate_row": (_repeat_row(1), "row 3: out of the order of the 4 points"),
    "duplicate_last_row": (_repeat_row(3), "row 5: extra in the order of the 4 points"),
    "degenerate_header_alpha": (_header("alpha", 0.0), "declares no valid schedule"),
    "nu_bar_vanishes": (_header("efficiency_min", 0.0), "declares no valid schedule"),
    "equal_efficiencies": (
        _header("efficiency_max", 0.1),
        "declares no valid schedule: [detectors] mode = single: the schedule has 1 distinct nu_bar values",
    ),
    "runs_below_one": (_header("n_runs", 0), "embedded config: [run] n_runs must be positive"),
    # the header every run wrote until normalization and analytic_reference were deleted
    "deleted_keys": (
        _deleted_keys("# normalization = renormalized", "# analytic_reference = true"),
        "embedded config: unknown key 'normalization' in section [run]",
    ),
    "fractional_runs": (_header("n_runs", 400.5), "[run] n_runs: cannot parse '400.5' as int"),
    "runs_above_int64": (_header("n_runs", 10**29), f"embedded config: [run] n_runs = {10**29} exceeds"),
    "runs_above_2_53": (_header("n_runs", 2**53 + 1), f"embedded config: [run] n_runs = {2**53 + 1} exceeds 2**53"),
    "grid_beyond_n_pad": (
        _header("re_max", 7.0),
        "embedded config: [grid] |gamma|^2 = 26.515624999999996 at gamma = (5.125-0.5j) exceeds n_pad/2 = 22.0",
    ),
    # far beyond what numpy can index, so a missing check fails at once instead of filling memory
    "grid_too_many_nodes": (
        _header("n_re", 10**20), f"embedded config: [grid] n_re x n_im = {2 * 10**20} exceeds"
    ),
    "settings_above_the_limit": (
        _header("n_efficiencies", 10**8), "embedded config: [detectors] n_efficiencies = 100000000 exceeds 4096"
    ),
    "pad_above_the_limit": (_header("n_pad", 100000), "embedded config: [truncation] n_pad = 100000 exceeds 2048"),
    "defaulted_pad_above_the_limit": (
        lambda head, body: _header("n_pad", 0)(*_header("n_trunc", 1015)(head, body)),
        "embedded config: [truncation] n_pad = 2050 (2 * n_trunc + 20 for n_trunc = 1015) exceeds 2048",
    ),
    # the reader takes only the layout the writer writes
    "columns_of_13_settings": (
        lambda head, body: (head[:-1] + [head[-1].rpartition(",")[0]], body), "unexpected columns"
    ),
    "header_after_rows": (lambda head, body: (body, head), "missing embedded config header"),
    "key_value_after_rows": (
        lambda head, body: (head, body + ["# repetition = 0"]), "row 5: expected 15 fields, found 1"
    ),
}


@pytest.mark.parametrize("edit, message", SCHEDULE_EDITS.values(), ids=SCHEDULE_EDITS.keys())
def test_schedule_differing_from_header_exit_code(small_cfg, tmp_path, capsys, edit, message):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    n_head = sum(1 for line in lines if line.startswith("#")) + 1
    head, body = edit(lines[:n_head], lines[n_head:])
    path.write_text("\n".join(head + body) + "\n")
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err


STATES_THAT_DO_NOT_FIT = {
    "fock_negative": "kind = fock\nn = -1",
    "fock_above_n_pad": "kind = fock\nn = 100",
    # |n_trunc> lies outside the EM's block, so recover-rho would compare against the zero matrix
    "fock_at_n_trunc": "kind = fock\nn = 12",
    "coherent_too_bright": "kind = coherent\nre_amplitude = 9",
    "squeezed_too_broad": "kind = squeezed\nsqueeze = 3",
}


@pytest.mark.parametrize("state", STATES_THAT_DO_NOT_FIT.values(), ids=STATES_THAT_DO_NOT_FIT.keys())
def test_state_that_does_not_fit_is_a_config_error(tmp_path, capsys, state):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace("kind = coherent\nre_amplitude = 1.0", state))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [state]") and err.count("\n") == 1


RUNS_THAT_DO_NOT_FIT = {
    "grid_beyond_n_pad": (
        ("re_max = 1.5", "re_max = 7"),
        "config error: [grid] |gamma|^2 = 26.515624999999996 at gamma = (5.125-0.5j) exceeds n_pad/2 = 22.0",
    ),
    "runs_above_int64": (
        ("n_runs = 400", f"n_runs = {10**29}"),
        f"config error: [run] n_runs = {10**29} exceeds 2**53 = {2**53}",
    ),
    # counts pass through float64, which holds every integer up to 2**53 and no further
    "runs_above_2_53": (
        ("n_runs = 400", f"n_runs = {2**53 + 1}"),
        f"config error: [run] n_runs = {2**53 + 1} exceeds 2**53 = {2**53}",
    ),
    # the corner with the largest parts has |gamma|^2 = 22.0, but numpy's abs gives
    # 22.00000000000001 at the opposite corner, which simulate then displaces
    "grid_beyond_n_pad_by_rounding": (
        (
            "re_min = -0.5\nre_max = 1.5\nim_min = -1.0\nim_max = 1.0\nn_re = 2\nn_im = 2",
            "re_min = -3.434244706369118\nre_max = 3.434244706369118\n"
            "im_min = -3.4343862896295136\nim_max = 3.4343862896295136\nn_re = 35\nn_im = 25",
        ),
        "config error: [grid] |gamma|^2 = 22.00000000000001 at gamma = (-3.336123429044286-3.2970108380443333j) "
        "exceeds n_pad/2 = 22.0",
    ),
    "grid_too_many_nodes": (
        ("n_re = 2", f"n_re = {10**20}"),  # as above: a missing check fails at once
        f"config error: [grid] n_re x n_im = {2 * 10**20} exceeds {2**24} nodes",
    ),
    "settings_above_the_limit": (
        ("n_efficiencies = 14", "n_efficiencies = 100000000"),
        "config error: [detectors] n_efficiencies = 100000000 exceeds 4096 settings",
    ),
    # simulate would build (n_pad, n_pad) complex tables: 149 GiB at n_pad = 100000
    "pad_above_the_limit": (
        ("n_trunc = 12", "n_trunc = 12\nn_pad = 100000"),
        "config error: [truncation] n_pad = 100000 exceeds 2048",
    ),
    "defaulted_pad_above_the_limit": (
        ("n_trunc = 12", "n_trunc = 1015"),
        "config error: [truncation] n_pad = 2050 (2 * n_trunc + 20 for n_trunc = 1015) exceeds 2048",
    ),
    # keys that older versions accepted
    "normalization": (
        ("seed = 5", "seed = 5\nnormalization = renormalized"),
        "config error: unknown key 'normalization' in section [run]",
    ),
    "analytic_reference": (
        ("seed = 5", "seed = 5\nanalytic_reference = true"),
        "config error: unknown key 'analytic_reference' in section [run]",
    ),
    # expected counts are the same in every repetition
    "exact_repetitions": (
        ("seed = 5", "seed = 5\nexact_probabilities = true\nrepetitions = 2"),
        "config error: [run] exact_probabilities = true takes repetitions = 1, got 2",
    ),
}


@pytest.mark.parametrize("edit, message", RUNS_THAT_DO_NOT_FIT.values(), ids=RUNS_THAT_DO_NOT_FIT.keys())
def test_run_that_does_not_fit_is_a_config_error(tmp_path, capsys, edit, message):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace(*edit))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "clicks.csv").exists()


def test_runs_at_the_bound_write_integer_counts(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace("n_runs = 400", f"n_runs = {2**53}"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    counts = [line.rsplit(",", 1)[1] for line in (tmp_path / "clicks.csv").read_text().split("\n")[-4:-1]]
    assert all(c.isdigit() and 0 < int(c) <= 2**53 for c in counts), counts
    cfg, noclick = io_csv.read_click_csv(tmp_path / "clicks.csv")
    assert cfg.n_runs == 2**53 and noclick[-1, -1] == int(counts[-1])


NON_FINITE = {
    "alpha_nan": ("alpha = 0.15", "alpha = nan"),
    "re_amplitude_nan": ("re_amplitude = 1.0", "re_amplitude = nan"),
    "efficiency_min_nan": ("n_efficiencies = 14", "n_efficiencies = 14\nefficiency_min = nan"),
    "alpha_inf": ("alpha = 0.15", "alpha = inf"),
}


@pytest.mark.parametrize("edit", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_float_is_a_config_error(tmp_path, capsys, edit):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace(*edit))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "clicks.csv").exists()


@pytest.mark.parametrize("text", [EXACT, SMALL], ids=["exact", "sampled"])
def test_simulate_diagonalizes_nothing(tmp_path, monkeypatch, text):
    # every configured state is pure, so the forward model displaces its amplitudes
    def no_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("text", [EXACT, SMALL], ids=["exact", "sampled"])
def test_a_grid_whose_displacements_overflow_is_a_numerical_error(tmp_path, capsys, text):
    # nodes at |gamma|^2 = 56.5, within n_pad/2 = 200, would overflow the displacement's
    # power tables to NaN: parse_config refuses them before any work, as one line and no file
    # (fock.displaced_diagonals still refuses a non-finite diagonal as a NumericalError)
    path = tmp_path / "run.ini"
    text = text.replace("n_trunc = 12", "n_trunc = 12\nn_pad = 400")
    path.write_text(text.replace("re_min = -0.5\nre_max = 1.5", "re_min = -15\nre_max = 15"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [grid] |gamma| = 7.51665 at gamma = (-7.5-0.5j) overflows the power tables")
    assert err.count("\n") == 1
    assert not (tmp_path / "clicks.csv").exists()


def one_node(text: str, gamma: float, n_pad: int) -> str:
    """The config at ``n_pad`` on a 1 x 1 grid whose node is ``gamma``."""
    grid = f"re_min = {gamma - 0.1}\nre_max = {gamma + 0.1}\nim_min = -0.1\nim_max = 0.1\nn_re = 1\nn_im = 1"
    text = text.replace("re_min = -0.5\nre_max = 1.5\nim_min = -1.0\nim_max = 1.0\nn_re = 2\nn_im = 2", grid)
    return text.replace("n_trunc = 12", f"n_trunc = 12\nn_pad = {n_pad}")


def test_a_node_beyond_the_power_tables_is_a_config_error(tmp_path, capsys):
    # (n_pad - 1) ln|gamma| against ln(DBL_MAX) = 709.78: 704.8 at n_pad 1200 runs, 881.1 at 1500
    # would leave NaN in the forward model
    path = tmp_path / "run.ini"
    path.write_text(one_node(EXACT, 1.8, 1200))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "ran")]) == 0
    path.write_text(one_node(EXACT, 1.8, 1500))
    capsys.readouterr()
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "refused")]) == 2
    assert capsys.readouterr().err == (
        "config error: [grid] |gamma| = 1.8 at gamma = (1.8+0j) overflows the power tables of n_pad = 1500, "
        "which stay finite only for |gamma| < 1.60561; shrink the grid or lower n_pad\n"
    )
    assert not (tmp_path / "refused").exists()


def test_a_quadrature_that_overflows_is_a_numerical_error(tmp_path, capsys):
    # at n_trunc = 300 on a 4 x 4 grid over [-2, 2]^2 the quadrature's moments overflow:
    # reported as one line, with no warning (an error here), no traceback and no file
    text = EXACT.replace("re_amplitude = 1.0", "re_amplitude = 0.5").replace("n_trunc = 12", "n_trunc = 300")
    text = text.replace("n_efficiencies = 14", "n_efficiencies = 300").replace("n_iterations = 60", "n_iterations = 5")
    grid = "re_min = -2\nre_max = 2\nim_min = -2\nim_max = 2\nn_re = 4\nn_im = 4"
    path = tmp_path / "run.ini"
    path.write_text(text.replace("re_min = -0.5\nre_max = 1.5\nim_min = -1.0\nim_max = 1.0\nn_re = 2\nn_im = 2", grid))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert main(["reconstruct", "--records", str(tmp_path / "clicks.csv"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["recover-rho", "--wigner", str(tmp_path / "wigner.csv"), "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: the quadrature at n_trunc = 300 left elements of rho that are not finite\n"
    )
    assert not (tmp_path / "rho.csv").exists() and not (tmp_path / "metrics.json").exists()


def test_a_linear_algebra_failure_is_a_numerical_error(small_wigner, tmp_path, capsys, monkeypatch):
    def no_convergence(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(recover, "integrate_rho", no_convergence)
    capsys.readouterr()
    assert main(["recover-rho", "--wigner", str(small_wigner), "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"
    assert not (tmp_path / "rho.csv").exists()


def test_schedule_that_cannot_be_built_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace("alpha = 0.15", "alpha = 0"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error: [detectors] mode = single: alpha = 0.0 is degenerate" in capsys.readouterr().err


@pytest.fixture(scope="module")
def narrow_chain(tmp_path_factory):
    """clicks.csv and wigner.csv of the SMALL run at n_trunc = 4, where n_pad/2 = 14."""
    out = tmp_path_factory.mktemp("narrow")
    cfg = out / "run.ini"
    cfg.write_text(SMALL.replace("n_trunc = 12", "n_trunc = 4"))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
    return out


# a header edit -> the error it must raise
HEADERS_THAT_DO_NOT_BUILD = {
    "state": (_header("re_amplitude", 9), "embedded config: [state] kind = coherent: |amplitude|^2 = 81.000 exceeds"),
    "schedule": (
        _header("alpha", 0),
        "embedded config declares no valid schedule: [detectors] mode = single: alpha = 0.0 is degenerate",
    ),
    "normalization": (
        _deleted_keys("# normalization = renormalized"),
        "embedded config: unknown key 'normalization' in section [run]",
    ),
    "analytic_reference": (
        _deleted_keys("# analytic_reference = true"),
        "embedded config: unknown key 'analytic_reference' in section [run]",
    ),
    "fock_outside_the_block": (
        lambda head, body: _header("kind", "fock")(*_header("n", 4)(head, body)),
        "embedded config: [state] kind = fock: n = 4 is outside the EM's block of n_trunc = 4",
    ),
    # nodes at |gamma| = 1.82 on a grid to re_max = 2.5; n_pad 2048 keeps the power tables finite below 1.41445
    "power_tables": (
        lambda head, body: _header("n_pad", 2048)(*_header("re_max", 2.5)(head, body)),
        "embedded config: [grid] |gamma| = 1.82003 at gamma = (1.75-0.5j) overflows the power tables of n_pad = 2048",
    ),
    "exact_repetitions": (
        lambda head, body: _header("exact_probabilities", "true")(*_header("repetitions", 2)(head, body)),
        "embedded config: [run] exact_probabilities = true takes repetitions = 1, got 2",
    ),
}


@pytest.mark.parametrize("edit, message", HEADERS_THAT_DO_NOT_BUILD.values(), ids=HEADERS_THAT_DO_NOT_BUILD.keys())
@pytest.mark.parametrize(
    "name, command",
    [("clicks.csv", "reconstruct --records"), ("wigner.csv", "recover-rho --wigner"), ("wigner.csv", "report --wigner")],
    ids=["click-reconstruct", "wigner-recover-rho", "wigner-report"],
)
def test_a_header_whose_state_or_schedule_does_not_build_is_a_data_error(
    narrow_chain, tmp_path, capsys, name, command, edit, message
):
    # every reader builds the embedded run's state and schedule, as simulate does,
    # and refuses a header written before a key was deleted
    lines = (narrow_chain / name).read_text().splitlines()
    n_head = sum(1 for line in lines if line.startswith("#"))
    head, body = edit(lines[:n_head], lines[n_head:])
    path = tmp_path / name
    path.write_text("\n".join(head + body) + "\n")
    capsys.readouterr()
    assert main([*command.split(), str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit", [("re_amplitude = 1.0", "re_amplitude = 0.5"), ("n_trunc = 12", "n_trunc = 10")],
    ids=["state", "n_trunc"],
)
def test_recover_rho_rejects_another_runs_config(small_cfg, tmp_path, capsys, edit):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    other = tmp_path / "other.ini"
    other.write_text(SMALL.replace(*edit))
    code = main(["recover-rho", "--config", str(other), "--wigner", str(out / "wigner.csv"), "--out", str(out)])
    assert code == 3
    assert "differs from the run config" in capsys.readouterr().err
    assert not (out / "rho.csv").exists()


def src_env(**changes) -> dict:
    """This process's environment with the package's source first on PYTHONPATH, then ``changes``
    (a value of None removes its variable)."""
    src = str(Path(io_csv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(changes)
    return {key: value for key, value in env.items() if value is not None}


def test_cli_import_loads_no_scipy():
    # nor a process or thread pool: point blocks run in children forked with os.fork,
    # and importing multiprocessing or concurrent.futures would slow every stage; nor
    # dataclasses, logging or json, which every stage would pay for at start-up; nor
    # clicktomo.recover, which only recover-rho uses
    refused = ("scipy", "multiprocessing", "dataclasses", "logging", "json")
    probe = (
        f"import sys, clicktomo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {refused!r}"
        f" or m.startswith('concurrent.futures') or m == 'clicktomo.recover'))"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_main_leaves_the_collector_as_it_found_it(small_cfg, tmp_path):
    # only the process entry freezes the heap, so tests and in-process chains never get a frozen one
    probe = (
        "import gc, sys, clicktomo.cli; code = clicktomo.cli.main(sys.argv[1:]);"
        " print(code, gc.isenabled(), gc.get_freeze_count())"
    )
    argv = [sys.executable, "-c", probe, "simulate", "--config", str(small_cfg), "--out", str(tmp_path)]
    result = subprocess.run(argv, env=src_env(), capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 True 0"


@pytest.mark.parametrize("status", [cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERICAL])
def test_run_freezes_the_heap_once_main_returns(monkeypatch, status):
    # the process entry turns the collector off before it runs main, and freezes the heap after
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or status)
    monkeypatch.setattr(gc, "disable", lambda: events.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        entry.run()
    assert events == ["disable", "main", "freeze"]
    assert exc.value.code == status


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"clicktomo": "clicktomo.__main__:run"}


def test_a_stage_imports_numpy_and_runs_with_the_collector_off(small_cfg, tmp_path):
    # runpy.run_module is what ``python -m`` calls; the probe reports the collector's state
    # when numpy is first imported and at exit, after the stage has run
    probe = (
        "import atexit, gc, runpy, sys\n"
        "class Watch:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            print('numpy', gc.isenabled())\n"
        "            sys.meta_path.remove(self)\n"
        "sys.meta_path.insert(0, Watch())\n"
        "atexit.register(lambda: print('exit', gc.isenabled()))\n"
        "runpy.run_module('clicktomo', run_name='__main__', alter_sys=True)\n"
    )
    argv = [sys.executable, "-c", probe, "simulate", "--config", str(small_cfg), "--out", str(tmp_path)]
    result = subprocess.run(argv, env=src_env(), capture_output=True, text=True, check=True)
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("numpy False", "exit False")
    assert (tmp_path / "clicks.csv").exists()


def simulate_on_one_cpu(cfg: Path, out: Path, address_space: int) -> subprocess.CompletedProcess:
    """``simulate --config cfg`` in a child limited to one CPU and ``address_space`` bytes."""
    resource = pytest.importorskip("resource")

    def limit():
        os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    argv = [sys.executable, "-m", "clicktomo", "simulate", "--config", str(cfg), "--out", str(out)]
    return subprocess.run(
        argv, env=src_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=limit, capture_output=True, text=True, timeout=60
    )


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_running_out_of_memory_is_one_error_line(tmp_path):
    # 4096 x 4096 nodes pass the size check, and the child's address space ends 64 MiB above
    # what importing the CLI takes, so the first of parse_config's 128 MiB node arrays cannot
    # be allocated; simulate itself would stream such a grid in chunks
    probe = (
        "import clicktomo.cli\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmPeak:')))"
    )
    imported = subprocess.run(
        [sys.executable, "-c", probe], env=src_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, check=True
    )
    cfg = tmp_path / "run.ini"
    cfg.write_text(on_grid(SMALL, 4096, 4096))
    result = simulate_on_one_cpu(cfg, tmp_path, int(imported.stdout) * 2**10 + 2**26)
    assert result.returncode == 3
    assert result.stderr.startswith("out of memory: ") and result.stderr.count("\n") == 1, result.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_the_largest_n_pad_fits_in_1_5_gib(tmp_path):
    # simulate's (n_pad, n_pad) coefficient table, 32 MiB, is what config.MAX_PAD bounds; the stage peaks at 68 MiB here
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL.replace("n_trunc = 12", f"n_trunc = 12\nn_pad = {config.MAX_PAD}"))
    result = simulate_on_one_cpu(cfg, tmp_path, 3 * 2**29)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("text", [SMALL, EXACT], ids=["sampled", "exact"])
def test_simulate_holds_one_chunk_whatever_the_grid(tmp_path, monkeypatch, text):
    # simulate keeps one chunk's tables, so from a 32 x 32 to a 64 x 64 grid over the same
    # rectangle its traced peak grows by at most twice its output, the rows it holds until
    # it writes them; one CPU keeps every block in this process
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    peaks, sizes = [], []
    for n in (2, 32, 64):  # the 2 x 2 run makes the first-call allocations untraced
        cfg = tmp_path / f"grid{n}.ini"
        cfg.write_text(on_grid(text, n, n))
        out = tmp_path / f"grid{n}"
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append((out / "clicks.csv").stat().st_size)
    assert peaks[2] - peaks[1] <= 2 * (sizes[2] - sizes[1])


def test_recover_rho_builds_only_the_n_trunc_reference(tmp_path):
    # the reference is the n_trunc block, built from n_trunc amplitudes: at n_pad 2048
    # recover-rho's traced peak is within 1 MiB of its peak at the default n_pad, and it
    # reports the same comparison
    peaks, metrics = [], []
    for n_pad in (0, 0, config.MAX_PAD):  # the first run makes the first-call allocations untraced
        cfg = parse_config(SMALL.replace("n_trunc = 12", f"n_trunc = 12\nn_pad = {n_pad}"))
        w = analytic_wigner_fn(cfg)(cfg.grid.flat_gammas())
        out = tmp_path / f"pad{n_pad}"
        out.mkdir(exist_ok=True)
        io_csv.write_wigner_csv(out / "wigner.csv", cfg, w, w, np.zeros(w.size))
        tracemalloc.start()
        try:
            assert main(["recover-rho", "--wigner", str(out / "wigner.csv"), "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        metrics.append({k: v for k, v in json.loads((out / "metrics.json").read_text()).items() if k != "config"})
    assert peaks[2] - peaks[1] < 2**20
    assert metrics[1] == metrics[2]


def test_recover_rho_compares_a_state_the_block_leaves_empty():
    # parse_config refuses |n> at or above n_trunc, but the comparison still takes the
    # zero matrix that is the n_trunc block of such a state
    trunc = parse_config(SMALL).trunc
    empty = density_from_pure(fock_state(12, trunc)[:12])
    assert not empty.elements.any()
    vacuum = density_from_pure(fock_state(0, trunc)[:12])
    comparison = recover.compare_states(vacuum.elements, empty.elements)
    assert comparison == {"max_abs_diff": 1.0, "trace_distance": 0.5, "fidelity": 0.0}


def test_process_entry_writes_the_bytes_of_the_in_process_chain(small_cfg, tmp_path):
    names = ("clicks.csv", "wigner.csv", "rho.csv", "metrics.json")
    written = {}
    for side in ("process", "main"):
        out = tmp_path / side
        chain = [
            ["simulate", "--config", str(small_cfg), "--out", str(out)],
            ["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)],
            ["recover-rho", "--wigner", str(out / "wigner.csv"), "--out", str(out)],
        ]
        for argv in chain:
            if side == "process":
                stage = subprocess.run([sys.executable, "-m", "clicktomo", *argv], env=src_env(), capture_output=True)
                code = stage.returncode
            else:
                code = main(argv)
            assert code == 0, (side, argv[0])
        written[side] = {name: (out / name).read_bytes() for name in names}
    assert written["process"] == written["main"]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "command, copies", [("report", 1), ("recover-rho", 1), ("report", 200)],
    ids=["report", "recover-rho", "report-long"],
)
def test_a_closed_standard_output_is_one_io_error_line(small_wigner, tmp_path, command, copies, unbuffered):
    # block-buffered, a short output fails only in the final flush (once exit 120 and a traceback at
    # shutdown); 200 rows of report overflow the buffer, so their write fails inside main, and the
    # final flush must not report it again
    wigner = [str(small_wigner)] * copies
    argv = [sys.executable, "-m", "clicktomo", command, "--wigner", *wigner, "--out", str(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            argv, stdout=write_end, stderr=subprocess.PIPE, env=src_env(PYTHONUNBUFFERED=unbuffered), text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 3
    assert result.stderr.endswith("I/O error: [Errno 32] Broken pipe\n")
    assert result.stderr.count("Broken pipe") == 1, result.stderr


def test_a_process_started_without_standard_output_exits_0(small_wigner, tmp_path):
    # a process started with fd 1 closed has sys.stdout None, and print writes nothing
    argv = [sys.executable, "-m", "clicktomo", "report", "--wigner", str(small_wigner), "--out", str(tmp_path)]
    result = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], env=src_env(), capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "report.json").exists()


# the options of each stage, besides --help
OPTIONS = {
    "simulate": {"--config", "--seed", "--out"},
    "reconstruct": {"--config", "--seed", "--out", "--records"},
    "recover-rho": {"--config", "--seed", "--out", "--wigner"},
    "report": {"--wigner", "--metrics", "--out"},
}
STAGE_ARGV = {
    "simulate": "simulate --config {cfg} --out {out}",
    "reconstruct": "reconstruct --records {clicks} --out {out}",
    "recover-rho": "recover-rho --wigner {wigner} --out {out}",
    "report": "report --wigner {wigner} --out {out}",
}
# argv -> (exit code, what the last error line names); argparse prints its usage before that line
REFUSALS = {
    **{f"threads-{stage}": (f"{argv} --threads 2", 2, "--threads") for stage, argv in STAGE_ARGV.items()},
    **{f"exact-{stage}": (f"{argv} --exact", 2, "--exact") for stage, argv in STAGE_ARGV.items()},
    "config-report": (STAGE_ARGV["report"] + " --config {cfg}", 2, "--config"),
    "seed-report": (STAGE_ARGV["report"] + " --seed 3", 2, "--seed"),
    **{
        f"negative_seed-{stage}": (f"{STAGE_ARGV[stage]} --seed -5", 2, "config error: seed must be non-negative, got -5")
        for stage in ("simulate", "reconstruct", "recover-rho")
    },
    "another_grid-reconstruct": (
        STAGE_ARGV["reconstruct"] + " --config {grid}", 3,
        "{clicks}: --config's n_re = 3 differs from the run config's n_re = 2",
    ),
    "another_grid-recover-rho": (
        STAGE_ARGV["recover-rho"] + " --config {grid}", 3,
        "{wigner}: --config's n_re = 3 differs from the run config's n_re = 2",
    ),
    "edited_node-recover-rho": ("recover-rho --wigner {edited} --out {out}", 3, "{edited}: points do not match"),
    "edited_node-report": ("report --wigner {edited} --out {out}", 3, "{edited}: points do not match"),
    # one click file holds every repetition
    "two_records-reconstruct": (
        "reconstruct --records {clicks} {clicks} --out {out}", 2, "unrecognized arguments: {clicks}",
    ),
}


def test_each_stage_takes_only_its_documented_options():
    parser = cli._build_parser()
    stages = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction)).choices
    options = {name: {s for a in stage._actions for s in a.option_strings} for name, stage in stages.items()}
    assert options == {name: documented | {"-h", "--help"} for name, documented in OPTIONS.items()}


@pytest.mark.parametrize("argv, code, culprit", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refused_flag_or_input_is_one_error_line(small_cfg, small_wigner, tmp_path, capsys, argv, code, culprit):
    paths = {
        "cfg": small_cfg, "clicks": small_wigner.parent / "clicks.csv", "wigner": small_wigner,
        "grid": tmp_path / "grid.ini", "edited": tmp_path / "edited.csv", "out": tmp_path / "out",
    }
    paths["grid"].write_text(SMALL.replace("n_re = 2", "n_re = 3"))
    lines = small_wigner.read_text().splitlines()
    first = lines.index(",".join(io_csv.WIGNER_COLUMNS)) + 1
    re_gamma, rest = lines[first].split(",", 1)
    lines[first] = f"{float(re_gamma) + 0.25!r},{rest}"  # off its node by 0.25
    paths["edited"].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    try:
        status = main(argv.format(**paths).split())
    except SystemExit as exc:  # argparse's refusal
        status = exc.code
    err = capsys.readouterr().err
    assert status == code and culprit.format(**paths) in err.splitlines()[-1]
    assert code == 2 or err.count("\n") == 1
    assert not paths["out"].exists()


def test_reconstruct_writes_the_click_files_config(small_cfg, tmp_path, capsys):
    # a --config is the click file's run up to n_iterations, which it sets, and the seed
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    clicks, other = out / "clicks.csv", tmp_path / "other.ini"
    argv = ["reconstruct", "--config", str(other), "--seed", "99", "--records", str(clicks), "--out", str(out)]
    other.write_text(EXACT.replace("n_iterations = 60", "n_iterations = 70"))
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"data error: {clicks}: --config's exact_probabilities = true "
        "differs from the run config's exact_probabilities = false\n"
    )
    assert not (out / "wigner.csv").exists()
    other.write_text(SMALL.replace("n_iterations = 60", "n_iterations = 70").replace("seed = 5", "seed = 6"))
    assert main(argv) == 0
    click_cfg, _ = io_csv.read_click_csv(clicks)
    wigner_cfg, _, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    assert (wigner_cfg.seed, wigner_cfg.exact_probabilities) == (5, False)
    assert wigner_cfg == click_cfg._replace(n_iterations=70)
    assert np.all(np.isfinite(cols["w_exact"]))


def test_reconstruct_rejects_another_runs_state(small_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    other = tmp_path / "other.ini"
    other.write_text(SMALL.replace("re_amplitude = 1.0", "re_amplitude = 0.5"))
    code = main(["reconstruct", "--config", str(other), "--records", str(out / "clicks.csv"), "--out", str(out)])
    assert code == 3
    message = "--config's re_amplitude = 0.5 differs from the run config's re_amplitude = 1"
    assert message in capsys.readouterr().err
    assert not (out / "wigner.csv").exists()


def test_recover_rho_writes_the_wigner_files_config(small_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    wigner, other = out / "wigner.csv", tmp_path / "other.ini"
    argv = ["recover-rho", "--config", str(other), "--seed", "99", "--wigner", str(wigner), "--out", str(out)]
    other.write_text(EXACT)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"data error: {wigner}: --config's exact_probabilities = true "
        "differs from the run config's exact_probabilities = false\n"
    )
    assert not (out / "rho.csv").exists()
    other.write_text(SMALL.replace("n_iterations = 60", "n_iterations = 70").replace("seed = 5", "seed = 6"))
    assert main(argv) == 0
    wigner_cfg, _, _ = io_csv.read_wigner_csv(out / "wigner.csv")
    rho_cfg, _ = io_csv.read_rho_csv(out / "rho.csv")
    assert rho_cfg == wigner_cfg and rho_cfg.seed == 5
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"] == embedded_config(out / "wigner.csv")


RESOLVED = dump_config(parse_config(SMALL))  # every key of SMALL's run, n_pad resolved
FREE_KEYS = ("n_iterations", "seed")  # a downstream --config may differ from its input's run in these


def _set_key(key: str, value) -> str:
    """RESOLVED with ``key`` set to ``value``: every key is in one section, so its line is unique."""
    old = re.search(rf"^{key} = (.*)$", RESOLVED, re.M)[0]
    return RESOLVED.replace(f"\n{old}\n", f"\n{key} = {value}\n")


@st.composite
def one_key_edits(draw):
    """(key, config text): RESOLVED with one key of config._KEYS set to another value that parses."""
    key, (typ, _) = draw(st.sampled_from([item for keys in config._KEYS.values() for item in keys.items()]))
    old = re.search(rf"^{key} = (.*)$", RESOLVED, re.M)[1]
    if typ is bool:
        value = "true" if old == "false" else "false"
    elif typ is str:
        value = draw(st.sampled_from([v for v in config.STATE_KINDS + config.DETECTOR_MODES if v != old]))
    elif typ is int:
        value = int(old) + draw(st.sampled_from([-2, -1, 1, 2]))
    else:
        value = repr(float(old) + draw(st.sampled_from([-0.25, 0.25])))
    text = _set_key(key, value)
    try:
        parse_config(text)
    except ConfigError:
        assume(False)
    return key, text


@settings(max_examples=100, deadline=None)
@given(edit=one_key_edits())
@example(edit=("n_iterations", _set_key("n_iterations", 70)))
@example(edit=("seed", _set_key("seed", 6)))
def test_a_downstream_config_is_the_inputs_run_up_to_n_iterations_and_the_seed(small_wigner, edit):
    key, text = edit
    stages = {
        "reconstruct": ("--records", small_wigner.parent / "clicks.csv", "wigner.csv"),
        "recover-rho": ("--wigner", small_wigner, "rho.csv"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "edited.ini", Path(tmp) / "out"
        cfg.write_text(text)
        for stage, (flag, source, name) in stages.items():
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([stage, "--config", str(cfg), flag, str(source), "--out", str(out)])
            if key in FREE_KEYS:
                assert code == 0, err.getvalue()
            else:
                assert code == 3 and not (out / name).exists()
                assert err.getvalue().count("\n") == 1
                assert f"data error: {source}: --config's {key} = " in err.getvalue()
        if key in FREE_KEYS:
            run_cfg = io_csv.read_wigner_csv(small_wigner)[0]
            wigner_cfg = io_csv.read_wigner_csv(out / "wigner.csv")[0]
            assert wigner_cfg == run_cfg._replace(n_iterations=parse_config(text).n_iterations)
            assert io_csv.read_rho_csv(out / "rho.csv")[0] == run_cfg


def test_report_identical_inputs_zero_delta(tmp_path):
    cfg = tmp_path / "exact.ini"
    cfg.write_text(EXACT)
    out = tmp_path / "art"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    # overwrite the exact column with the reconstruction itself
    run_cfg, _, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    io_csv.write_wigner_csv(out / "same.csv", run_cfg, cols["w_rec"], cols["w_rec"], cols["em_final_loglik"])
    assert main(["report", "--wigner", str(out / "same.csv"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["maps"][0]["delta_w"] == 0.0


def test_report_json_is_strict_json(small_wigner, tmp_path):
    # one record has no variance, and a metric carried in may be non-finite: both are written as null
    metrics = tmp_path / "metrics.json"
    metrics.write_text('{"trace": NaN, "nested": {"fidelity": -Infinity, "big": 1e400}, "ok": 0.5}\n')
    argv = ["report", "--wigner", str(small_wigner), "--metrics", str(metrics), "--out", str(tmp_path)]
    assert main(argv) == 0

    def refuse(token):
        raise ValueError(f"non-finite constant {token}")

    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    assert report["maps"][0]["mean_variance"] is None
    assert report["rho_metrics"] == {"trace": None, "nested": {"fidelity": None, "big": None}, "ok": 0.5}


def test_report_json_is_reproducible(small_wigner, tmp_path):
    # report.json holds what its inputs say and nothing of the run, such as its time
    written = []
    for name in ("a", "b"):
        assert main(["report", "--wigner", str(small_wigner), "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "report.json").read_bytes())
    assert written[0] == written[1]


def test_reconstruct_is_deterministic(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    first = (out / "wigner.csv").read_bytes()
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    assert (out / "wigner.csv").read_bytes() == first


DEGENERATE = """
[state]
kind = coherent
re_amplitude = 0.3

[truncation]
n_trunc = 12

[detectors]
mode = dual
nu_c = 0.4
nu_d = 0.42
n_angles = 14
angle_min = 0.3
angle_max = 1.2

[grid]
re_min = 0.0
re_max = 2.0
im_min = -0.25
im_max = 0.25
n_re = 4
n_im = 1

[run]
n_runs = 300
n_iterations = 50
seed = 2
exact_probabilities = true
"""


def test_reconstruct_reports_failed_points(tmp_path, capsys):
    cfg = tmp_path / "deg.ini"
    cfg.write_text(DEGENERATE)
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["reconstruct", "--config", str(cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    assert code == 4
    assert "failed" in capsys.readouterr().err


def test_recover_rho_on_a_map_with_no_finite_value_is_one_data_error(tmp_path, capsys):
    # reconstruct fails all of DEGENERATE's 4 points and still writes their map, all NaN
    cfg = tmp_path / "deg.ini"
    cfg.write_text(DEGENERATE)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert main(["reconstruct", "--records", str(tmp_path / "clicks.csv"), "--out", str(tmp_path)]) == 4
    wigner = tmp_path / "wigner.csv"
    assert not np.isfinite(io_csv.read_wigner_csv(wigner)[2]["w_rec"]).any()
    capsys.readouterr()
    assert main(["recover-rho", "--wigner", str(wigner), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"data error: {wigner}: Wigner map holds no finite values\n"
    assert not (tmp_path / "rho.csv").exists() and not (tmp_path / "metrics.json").exists()


def test_failed_points_are_counted_once_over_the_repetitions(tmp_path, monkeypatch, capsys):
    # sampled DEGENERATE's 4 points fail in both repetitions, and point 1 of SMALL is made to fail in
    # repetition 1 alone: a point counts once when its fit fails in any repetition, and its
    # w_variance is NaN; w_rec is repetition 0's
    fits = []

    def fail_point_1_in_repetition_1(freqs, *args, **kwargs):
        values, ll, failed = run_em_batch(freqs, *args, **kwargs)
        fits.append(freqs)
        if len(fits) == 2:  # one block: the fits run in repetition order
            values[1], failed[1] = np.nan, True
        return values, ll, failed

    sampled = DEGENERATE.replace("exact_probabilities = true", "exact_probabilities = false")
    for text, n_failed, n_finite in ((sampled, 4, 0), (SMALL, 1, 4)):
        if text is SMALL:
            monkeypatch.setattr(cli, "run_em_batch", fail_point_1_in_repetition_1)
        cfg = tmp_path / "run.ini"
        cfg.write_text(text + "repetitions = 2\n")
        out = tmp_path / f"art{n_failed}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out.endswith(f"(4 points in 1 block, {n_failed} failed)\n")
        assert captured.err == f"{n_failed} points failed to reconstruct in at least one of 2 repetitions\n"
        cols = io_csv.read_wigner_csv(out / "wigner.csv")[2]
        assert np.isnan(cols["w_variance"]).sum() == n_failed
        assert np.isfinite(cols["w_rec"]).sum() == n_finite
    assert len(fits) == 2


def test_report_sweep_table_sorted(small_cfg, tmp_path):
    # several runs differing in trials and iterations condense into tidy
    # rows ordered by (n_iterations, n_runs)
    out = tmp_path / "art"
    wigner_files = []
    for n_runs, n_it in ((1000, 100), (400, 100), (400, 60)):
        text = SMALL.replace("n_runs = 400", f"n_runs = {n_runs}").replace(
            "n_iterations = 60", f"n_iterations = {n_it}"
        )
        cfg = tmp_path / f"run_{n_runs}_{n_it}.ini"
        cfg.write_text(text)
        sub = out / f"{n_runs}_{n_it}"
        main(["simulate", "--config", str(cfg), "--out", str(sub)])
        main(["reconstruct", "--config", str(cfg), "--records", str(sub / "clicks.csv"), "--out", str(sub)])
        wigner_files.append(str(sub / "wigner.csv"))
    assert main(["report", "--wigner", *wigner_files, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    keys = [(r["n_iterations"], r["n_runs"]) for r in report["maps"]]
    assert keys == sorted(keys)
    assert all(np.isfinite(r["delta_w"]) for r in report["maps"])


def test_negative_seed_override_exit_code(small_cfg, tmp_path, capsys):
    assert main(["simulate", "--config", str(small_cfg), "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_negative_seed_in_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "neg.ini"
    cfg.write_text(SMALL.replace("seed = 5", "seed = -1"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err


# the fields of the last data row (point 3: its index and 14 counts) -> their replacement
BAD_ROWS = {
    "noclick_above_runs": lambda fields: fields[:-1] + ["401"],
    "noclick_negative": lambda fields: fields[:-1] + ["-1"],
    "noclick_nan": lambda fields: fields[:-1] + ["nan"],
    # within [0, n_runs], but a sampled run draws whole counts
    "fractional_noclick": lambda fields: fields[:-1] + [fields[-1] + ".5"],
    "fractional_point_index": lambda fields: ["3.5"] + fields[1:],
    "point_index_out_of_place": lambda fields: ["2"] + fields[1:],
    "m_fields": lambda fields: fields[:-1],
    "m_plus_2_fields": lambda fields: fields + ["0"],
}


@pytest.mark.parametrize("edit", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_bad_click_row_is_a_data_error(small_cfg, tmp_path, capsys, edit):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    lines[-1] = ",".join(edit(lines[-1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    assert code == 3
    assert "row 4" in capsys.readouterr().err


def test_format_2_click_file_is_an_old_format_data_error(small_cfg, tmp_path, capsys):
    # format 2 stored one point_index,setting_index,n_noclick row per (point, setting)
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    head = [line.replace("# format = 3", "# format = 2") for line in lines if line.startswith("#")]
    points = (line.split(",") for line in lines[len(head) + 1 :])
    rows = [f"{p},{j},{n}" for p, *counts in points for j, n in enumerate(counts)]
    path.write_text("\n".join(head + ["point_index,setting_index,n_noclick"] + rows) + "\n")
    capsys.readouterr()
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and "old-format click file: expected '# format = 3'" in err


DUAL = SMALL.replace("mode = single", "mode = dual\nnu_c = 0.3\nnu_d = 0.6\nn_angles = 14")
FOCK = SMALL.replace("kind = coherent\nre_amplitude = 1.0", "kind = fock\nn = 1")

# sha256 of the outputs of the SMALL config; any change here changes every
# downstream file.  The sampled cases were re-pinned when each point got one
# generator, every clicks.csv when click files became counts-only, and the
# exact case when the forward model became one batched displacement kernel
# (its probabilities moved in the last bits), every rho.csv when the
# quadrature became one moment matrix, and every wigner.csv and rho.csv when
# the EM began to normalize once after its last step (w_rec moved by at most
# 5.7e-16, rho by at most 3.5e-13), and the exact case and every rho.csv when
# the displacement coefficients came from their recurrence instead of
# log-factorials (w_rec moved by at most 1.7e-16, rho by at most 1.2e-12),
# and every clicks.csv when click files took one row per point (format 3;
# the counts read back, and every wigner.csv and rho.csv, kept their bytes),
# and every file when the [run] keys normalization and analytic_reference
# were deleted (each file lost those two header lines and nothing else),
# and every sampled file when each group of 8 points began to draw from one
# stream (the exact case kept its bytes), and the exact case when the
# forward model began to displace the state's amplitudes instead of the
# eigenvectors of its density matrix (probabilities moved by at most 2.9e-16,
# w_rec by at most 2.1e-16, rho by at most 2.6e-14), and every clicks.csv
# when one click file began to hold every repetition (each lost its
# "# repetition = 0" line and nothing else).
# The fock case pins the analytic Laguerre column w_exact.
GOLDEN = {
    "sampled": (SMALL, {
        "clicks.csv": "742a3bfad0c3586e7c42ce1420fb8b7f47e88394000d565091af90fe577027f6",
        "wigner.csv": "1704051b097a7706bd08cfc5dcc61bc8ec47008949c0ba4955aa91747e25ca07",
        "rho.csv": "8d664f3c076510839675298d55d6b4013ad7bf30995b3dca8efec45f40fdc307",
    }),
    "exact": (EXACT, {
        "clicks.csv": "700582dfe82248fdf4badaf51305016178b314afd6a68c607144010a3b4a05fc",
        "wigner.csv": "e1ee899ebae45d5fe41b090049acf5ea27c6a03be687d521fe18ffa9d09da256",
        "rho.csv": "afe159d88beec37a6c1cf897c3e737c39185c5ffe7c0e5a4d17b0086f770ced5",
    }),
    "dual": (DUAL, {
        "clicks.csv": "4b579b0205457f1f2b070d33c24502298a4e6d172b02d73f28091e7387e8003f",
        "wigner.csv": "f71cebadeb81c658f93b13f9064a7711b991b3a646e9fed5d816d88440736e3a",
        "rho.csv": "946d9a20edc70110e266eb8359d311a766b26fd589dbf73ff654dbe6c81d845b",
    }),
    "fock": (FOCK, {
        "clicks.csv": "43c85f4ba54105e3b02487562822297305e1b904b597f13907a0187bd5a7bdf0",
        "wigner.csv": "9f6ca66d91e0f34b7ab0f7f656cc467e5d43639b32305c0e8d01222565d57daa",
        "rho.csv": "5f5993e919bfc735dcc4156dddd5fc0db6464283820a93b697b0ae3cc1dca918",
    }),
}


@pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN.keys())
def test_outputs_match_golden_digests(tmp_path, case):
    text, digests = case
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    records = ["--records", str(out / "clicks.csv")]
    assert main(["reconstruct", "--config", str(cfg), *records, "--out", str(out)]) == 0
    wigner = ["--wigner", str(out / "wigner.csv")]
    assert main(["recover-rho", "--config", str(cfg), *wigner, "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def run_stage(argv) -> int:
    """``main(argv)``, after which no child process may be left, reaped or not."""
    try:
        return main(argv)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def wide(text: str) -> str:
    """The config on a 28 x 28 grid: 784 points, enough for 3 blocks of at least 256."""
    return text.replace("n_re = 2\nn_im = 2", "n_re = 28\nn_im = 28")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every ``os.fork`` call, in call order."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


MIN = cli.BLOCK_MIN


@pytest.mark.parametrize(
    "cpus, n_points, min_points, madds, cuts",
    [
        (1, 2500, MIN, 0, [0, 2500]),
        (2, 511, MIN, 0, [0, 511]),
        (2, 512, MIN, 0, [0, 256, 512]),
        (2, 576, MIN, 288, [0, 256, 576]),  # fock_em_long's EM
        (2, 576, MIN, 0, [0, 256, 576]),  # and its simulate
        (2, 2500, MIN, 360, [0, 1216, 2500]),  # coherent_sampled's EM
        (2, 2500, MIN, 0, [0, 1216, 2500]),  # and its simulate
        (3, 784, MIN, 0, [0, 256, 512, 784]),
        (8, 784, MIN, 0, [0, 256, 512, 784]),
        (4, 4, MIN, 0, [0, 4]),
        (3, 3071, 1024, 0, [0, 1472, 3071]),
        (3, 3072, 1024, 0, [0, 1024, 2048, 3072]),
        # above BLAS_SMALL as a whole: 3 blocks of 832 would fall under it, 2 of 1216 not
        (3, 2500, MIN, 1000, [0, 1216, 2500]),
        (3, 2500, MIN, 600, [0, 2500]),
        (3, 2500, MIN, 400, [0, 832, 1664, 2500]),  # under it as a whole
    ],
)
def test_blocks_cut_at_multiples_of_64(monkeypatch, cpus, n_points, min_points, madds, cuts):
    # the cut rule at an alignment of 64 and a minimum of min_points;
    # test_blocks_cut_at_multiples_of_8 pins the shipped constants
    monkeypatch.setattr(cli, "BLOCK_ALIGN", 64)
    monkeypatch.setattr(cli, "BLOCK_MIN", min_points)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    blocks = cli._blocks(n_points, madds)
    assert blocks == [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    assert len(blocks) == 1 or min(b.stop - b.start for b in blocks) >= min_points


@pytest.mark.parametrize(
    "cpus, n_points, min_points, madds, cuts",
    [
        (2, 576, MIN, 288, [0, 288, 576]),  # fock_em_long's EM
        (2, 2500, MIN, 360, [0, 1248, 2500]),  # coherent_sampled's EM
        (2, 2500, MIN, 0, [0, 1248, 2500]),  # and its simulate
        (3, 784, MIN, 0, [0, 256, 520, 784]),
        (3, 2500, MIN, 1000, [0, 1248, 2500]),  # 3 blocks of 832 would fall under BLAS_SMALL
        (3, 2500, MIN, 400, [0, 832, 1664, 2500]),
        (2, 576, MIN, 0, [0, 288, 576]),  # fock_em_long's simulate
    ],
)
def test_blocks_cut_at_multiples_of_8(monkeypatch, cpus, n_points, min_points, madds, cuts):
    assert (cli.BLOCK_ALIGN, cli.BLOCK_MIN) == (8, min_points)
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    assert cli._blocks(n_points, madds) == [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def test_blocks_start_sampling_streams():
    # every cut of cli._blocks is a multiple of BLOCK_ALIGN, and every cut of cli._chunks is a
    # block's start plus a multiple of CHUNK_POINTS, so each starts a stream of STREAM_POINTS points
    assert cli.BLOCK_ALIGN % measurement.STREAM_POINTS == 0
    assert cli.CHUNK_POINTS % measurement.STREAM_POINTS == 0


def test_a_process_with_threads_gets_one_block(monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli._blocks(784) == [slice(0, 784)]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cli._blocks(784) == [slice(0, 392), slice(392, 784)]


def settings(text: str, count: int) -> str:
    """The single-detector config with ``count`` efficiencies on a 50 x 50 grid: 2500 points."""
    text = text.replace("n_efficiencies = 14", f"n_efficiencies = {count}")
    return text.replace("n_re = 2\nn_im = 2", "n_re = 50\nn_im = 50")


CHAIN_FILES = ("clicks.csv", "wigner.csv", "rho.csv")


def chain_digests(cfg, out) -> dict[str, str]:
    """Run the three stages on ``cfg`` into ``out`` and hash their outputs."""
    assert run_stage(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert run_stage(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
    assert run_stage(["recover-rho", "--wigner", str(out / "wigner.csv"), "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CHAIN_FILES}


# config, blocks of simulate and of reconstruct for 1, 2 and 3 CPUs,
# and reconstruct's exit code and failed points
BLOCK_CASES = {
    "sampled": (SMALL, (1, 2, 3), (1, 2, 3), 0, 0),
    "exact": (EXACT, (1, 2, 3), (1, 2, 3), 0, 0),
    # 8 of its 784 points are guarded
    "dual": (DUAL.replace("re_max = 1.5", "re_max = 0.8"), (1, 2, 3), (1, 2, 3), 0, 0),
    # 192 of its 784 points are guarded, 152 of them reach the floor and 64 fail
    "dual_floor": (DUAL, (1, 2, 3), (1, 2, 3), 4, 64),
    "fock": (FOCK, (1, 2, 3), (1, 2, 3), 0, 0),
    # the no-click series, 2500 x 44 x 17 multiply-adds, is above BLAS_SMALL, and its blocks
    # are not: its transposed operand keeps OpenBLAS's kernel
    "series_across_blas_small": (settings(EXACT, 17), (1, 2, 3), (1, 2, 3), 0, 0),
    # the EM's 2500 x 34 x 12 is above BLAS_SMALL, and its blocks would not be
    "em_at_blas_small": (settings(SMALL, 34), (1, 2, 3), (1, 1, 1), 0, 0),
    # 812 points: cuts at 400 for 2 CPUs and at 264 and 536 for 3, multiples of 8 but not of 64
    "cuts_off_64": (SMALL.replace("n_re = 2\nn_im = 2", "n_re = 29\nn_im = 28"), (1, 2, 3), (1, 2, 3), 0, 0),
}


@pytest.mark.parametrize(
    "text, simulated, reconstructed, code, n_failed", BLOCK_CASES.values(), ids=BLOCK_CASES.keys()
)
def test_outputs_do_not_depend_on_the_cpu_count(
    tmp_path, monkeypatch, capsys, forks, text, simulated, reconstructed, code, n_failed
):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(text))
    n_points = parse_config(wide(text)).grid.n_points
    digests = []
    for cpus, sim_blocks, rec_blocks in zip((1, 2, 3), simulated, reconstructed):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        forks.clear()
        assert run_stage(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"({n_points} points x " in printed and f" settings in {sim_blocks} block" in printed
        assert len(forks) == sim_blocks - 1
        forks.clear()
        assert run_stage(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == code
        printed = capsys.readouterr().out
        assert f"({n_points} points in {rec_blocks} block" in printed and f", {n_failed} failed)" in printed
        assert len(forks) == rec_blocks - 1
        assert run_stage(["recover-rho", "--wigner", str(out / "wigner.csv"), "--out", str(out)]) == 0
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CHAIN_FILES})
    assert digests[0] == digests[1] == digests[2]


def test_chain_digests_agree_across_cpu_counts(tmp_path, capsys):
    # tests/chain_digests.py, the byte check between two trees, on SMALL at 784 points: 2 blocks at 2 CPUs
    import chain_digests

    cfg = tmp_path / "small.ini"
    cfg.write_text(wide(SMALL))
    assert chain_digests.main(["--configs", str(cfg), "--seeds", "5", "--cpus", "1", "2"]) == 0
    digests = json.loads(capsys.readouterr().out)
    names = [*chain_digests.OUTPUTS, *(f"{stage}.stderr" for stage in chain_digests.STAGES)]
    assert len(digests) == 2 * len(names) == 14
    for name in names:
        assert digests[f"small/seed5/cpus1/{name}"] == digests[f"small/seed5/cpus2/{name}"]


def test_repetitions_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys):
    # every block formats its own rows, for each repetition, and reconstruct runs every
    # repetition's points as one batch
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL) + "repetitions = 2\n")
    run_cfg = parse_config(wide(SMALL))
    amplitudes, gammas, recipe = build_amplitudes(run_cfg), run_cfg.grid.flat_gammas(), build_recipe(run_cfg)
    files = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run_stage(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.count(f" settings in {cpus} block") == 1
        assert run_stage(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
        files.append([(out / name).read_bytes() for name in ("clicks.csv", "wigner.csv")])
        _, noclick = io_csv.read_click_csv(out / "clicks.csv")
        for rep, counts in enumerate(np.split(noclick, 2)):
            whole = simulate(amplitudes, gammas, recipe, run_cfg.trunc, run_cfg.n_runs, run_cfg.seed, rep, exact=False)
            assert counts.tolist() == whole.noclick.tolist()
        assert noclick[: gammas.size].tolist() != noclick[gammas.size :].tolist()
    assert files[0] == files[1] == files[2]


def test_repetitions_share_each_chunks_forward_model(tmp_path, monkeypatch):
    # 513 points are 2 chunks: every repetition draws from the one probability table of its chunk
    calls = []

    def counted(amplitudes, gammas):
        calls.append(len(gammas))
        return displaced_diagonals(amplitudes, gammas)

    monkeypatch.setattr(measurement, "displaced_diagonals", counted)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(on_grid(SMALL, 27, 19) + "repetitions = 3\n")
    assert run_stage(["simulate", "--config", str(cfg), "--out", str(tmp_path / "art")]) == 0
    assert calls == [256, 257]


def test_repetition_0_keeps_the_bits_of_a_run_of_one(tmp_path, monkeypatch, capsys):
    # one repetition's EM products are at most BLAS_SMALL and two repetitions' are above it: the EM
    # fits one repetition at a time in the blocks of a run of one repetition, so it never switches
    # kernel (one batch of both moved 4 of w_rec and 2 of em_final_loglik)
    text = settings(SMALL, 30).replace("n_iterations = 60", "n_iterations = 5")
    run_cfg = parse_config(text)
    n_points = run_cfg.grid.n_points
    madds = n_points * run_cfg.detectors.n_settings * run_cfg.trunc.n_trunc
    assert madds <= cli.BLAS_SMALL < 2 * madds
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        maps = []
        for reps in (1, 2):
            cfg = tmp_path / f"reps{reps}.ini"
            cfg.write_text(text + f"repetitions = {reps}\n")
            out = tmp_path / f"cpus{cpus}" / f"reps{reps}"
            assert run_stage(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            assert run_stage(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
            assert f"({n_points} points in {cpus} block" in capsys.readouterr().out
            maps.append(io_csv.read_wigner_csv(out / "wigner.csv")[2])
        for name in ("w_rec", "em_final_loglik"):
            assert maps[1][name].tobytes() == maps[0][name].tobytes()
        assert np.isfinite(maps[1]["w_variance"]).all()


# config, the chunk cuts of simulate for 1, 2 and 3 CPUs alike (the last two make blocks
# [0, 256) and [256, P)), and the clicks.csv digest, taken before chunks, when each block ran
# as one batch (re-pinned when click files lost their "# repetition = 0" line)
CHUNK_CASES = {
    # 2 * CHUNK_POINTS + 1 points: the last chunk takes the one-point tail
    "tail_one_sampled": (on_grid(SMALL, 27, 19), [0, 256, 513],
                         "28619f35de3510596998c18ae9284a5b1805da0a669e9670a0e7c09ab8537bb8"),
    "tail_one_exact": (on_grid(EXACT, 27, 19), [0, 256, 513],
                       "204170c8b2c578c050ff9eb0b3513d22bc886b56052cb63a27a3073511f19907"),
    # the last chunk holds 5 points, under STREAM_POINTS
    "short_tail_sampled": (on_grid(SMALL, 47, 11), [0, 256, 512, 517],
                           "76678c6d1e98b059c20fde196f9d7efbef3dd42c6dd9ce82a8368fedf531dc33"),
    "short_tail_exact": (on_grid(EXACT, 47, 11), [0, 256, 512, 517],
                         "10d8e759cceaf3bf60d3e8bec4ffc2e11bb4424aa9ce335aa2319a3e61ce1428"),
}


@pytest.mark.parametrize("text, cuts, digest", CHUNK_CASES.values(), ids=CHUNK_CASES.keys())
def test_chunk_edges_keep_the_bytes(tmp_path, monkeypatch, text, cuts, digest):
    assert cli.CHUNK_POINTS == 256
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    n_points = parse_config(text).grid.n_points
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        chunks = [chunk for block in cli._blocks(n_points) for chunk in cli._chunks(block)]
        assert chunks == [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        out = tmp_path / f"cpus{cpus}"
        assert run_stage(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "clicks.csv").read_bytes()).hexdigest() == digest
    assert cli._chunks(slice(8, 9)) == [slice(8, 9)]  # a one-point block is one chunk


FAULTY_POINT = 600  # in the last block for 2 and for 3 CPUs, never in this process's
STAGES = ["simulate", "reconstruct"]


def fail_at_point(monkeypatch, stage, fault, points=(FAULTY_POINT,)):
    """Make ``stage``'s per-point function (the forward model, or the EM) call ``fault()`` on a block holding
    one of ``points``; ``reconstruct``'s block is known by the schedule it builds before its fits."""
    targets = parse_config(wide(SMALL)).grid.flat_gammas()[list(points)]
    if stage == "simulate":
        def faulty(amplitudes, gammas, *args):
            if np.isin(targets, gammas).any():
                fault()
            return measurement.forward_model(amplitudes, gammas, *args)

        monkeypatch.setattr(cli, "forward_model", faulty)
    else:
        build, held = measurement.SingleDetectorRecipe.build, []  # held[-1]: whether this process's block holds one

        def noting(recipe, gammas):
            held.append(np.isin(targets, gammas).any())
            return build(recipe, gammas)

        def faulty(*args, **kwargs):
            if held[-1]:
                fault()
            return run_em_batch(*args, **kwargs)

        monkeypatch.setattr(measurement.SingleDetectorRecipe, "build", noting)
        monkeypatch.setattr(cli, "run_em_batch", faulty)


def stage_argv(stage, cfg, out):
    if stage == "simulate":
        return ["simulate", "--config", str(cfg), "--out", str(out)]
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    return ["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]


FAULTS = {
    "config": (ConfigError, 2),
    "data": (DataError, 3),
    "io": (OSError, 3),
    "numerical": (NumericalError, 4),
    "memory": (MemoryError, 3),
}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("error, code", FAULTS.values(), ids=FAULTS.keys())
def test_a_failing_block_exits_as_one_block_would(tmp_path, monkeypatch, capsys, stage, error, code):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        argv = stage_argv(stage, cfg, tmp_path / f"cpus{cpus}")
        capsys.readouterr()

        def fault():
            raise error(f"point {FAULTY_POINT} is bad")

        with monkeypatch.context() as patch:
            fail_at_point(patch, stage, fault)
            assert run_stage(argv) == code
        err = capsys.readouterr().err
        assert f"point {FAULTY_POINT} is bad" in err and err.count("\n") == 1


def test_each_block_builds_its_own_schedule(tmp_path, monkeypatch, capsys):
    # at 2 CPUs no schedule spans more than half of the 784 points and the map keeps the
    # 1-CPU bytes; a block whose schedule does not build is one data error
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    gammas = parse_config(wide(SMALL)).grid.flat_gammas()
    clicks = tmp_path / "clicks.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    assert run_stage(["reconstruct", "--records", str(clicks), "--out", str(tmp_path / "one")]) == 0
    derive = measurement.derive_settings

    def half_at_most(alpha, beta, *args):
        if len(np.atleast_2d(beta)) > -(-gammas.size // 2):
            raise AssertionError(f"a schedule of {len(beta)} of {gammas.size} points")
        return derive(alpha, beta, *args)

    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(measurement, "derive_settings", half_at_most)
    capsys.readouterr()
    assert run_stage(["reconstruct", "--records", str(clicks), "--out", str(tmp_path / "two")]) == 0
    assert "(784 points in 2 blocks, 0 failed)" in capsys.readouterr().out
    assert (tmp_path / "two" / "wigner.csv").read_bytes() == (tmp_path / "one" / "wigner.csv").read_bytes()

    build = measurement.SingleDetectorRecipe.build

    def no_schedule_in_block_1(recipe, points):
        if np.isin(gammas[-1], points):
            raise ValueError("derived gamma strays 1.000e-03 from the target")
        return build(recipe, points)

    monkeypatch.setattr(measurement.SingleDetectorRecipe, "build", no_schedule_in_block_1)
    assert run_stage(["reconstruct", "--records", str(clicks), "--out", str(tmp_path / "bad")]) == 3
    assert capsys.readouterr().err == (
        f"data error: {clicks}: embedded config declares no valid schedule: "
        "derived gamma strays 1.000e-03 from the target\n"
    )
    assert not (tmp_path / "bad" / "wigner.csv").exists()


@pytest.mark.parametrize("stage", STAGES)
def test_a_killed_block_is_an_io_error(tmp_path, monkeypatch, capsys, stage):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    argv = stage_argv(stage, cfg, tmp_path)
    capsys.readouterr()
    fail_at_point(monkeypatch, stage, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run_stage(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error: point block 1 (points 392 to 783) ended without a result")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("stage", STAGES)
def test_an_interrupt_kills_and_reaps_every_block(tmp_path, monkeypatch, stage):
    # this process's block is interrupted while the forked one would run for a minute
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    argv = stage_argv(stage, cfg, tmp_path)
    parent = os.getpid()

    def fault():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    fail_at_point(monkeypatch, stage, fault, points=(0, FAULTY_POINT))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_stage(argv)
    assert time.monotonic() - start < 30


def test_a_block_whose_fork_fails_runs_here(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    whole = chain_digests(cfg, tmp_path / "one")
    capsys.readouterr()

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    assert chain_digests(cfg, tmp_path / "three") == whole
    printed = capsys.readouterr().out
    assert "settings in 3 blocks" in printed and "points in 3 blocks" in printed


def test_a_fork_that_warns_keeps_its_child(tmp_path, monkeypatch, capsys):
    # Python 3.12 and later warn in the parent when a process with other OS threads
    # (OpenBLAS's pool) forks; under warnings-as-errors that warning takes the pid's place
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    whole = chain_digests(cfg, tmp_path / "one")
    capsys.readouterr()
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    assert chain_digests(cfg, tmp_path / "two") == whole
    printed = capsys.readouterr().out
    assert "settings in 2 blocks" in printed and "points in 2 blocks" in printed


def record_affinity(monkeypatch, error=None):
    """Replace ``os.sched_setaffinity`` with a fake that records ``(pid, sorted mask)`` and raises ``error``."""
    calls = []

    def set_affinity(pid, mask):
        calls.append((pid, sorted(mask)))
        if error:
            raise error

    monkeypatch.setattr(os, "sched_setaffinity", set_affinity, raising=False)
    return calls


@pytest.mark.parametrize("i, cpu", [(0, 0), (1, 2), (2, 5), (3, 0), (4, 2)])
def test_place_moves_to_its_cpu_then_restores_the_whole_mask(monkeypatch, i, cpu):
    calls = record_affinity(monkeypatch)
    cli._place(i, [0, 2, 5])
    assert calls == [(0, [cpu]), (0, [0, 2, 5])]


def test_place_on_one_cpu_or_refused_does_nothing(monkeypatch):
    calls = record_affinity(monkeypatch, OSError(22, "Invalid argument"))
    cli._place(1, [3])
    assert calls == []
    cli._place(1, [0, 1])  # a cpuset that changed refuses the move; the block runs where it is
    assert calls == [(0, [1])]


def test_map_blocks_places_block_i_on_cpu_i(monkeypatch):
    # each block returns the calls its own process recorded; the parent places itself after
    # forking, so a child inherits none of its calls
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    calls = record_affinity(monkeypatch)
    blocks = [slice(0, 8), slice(8, 16), slice(16, 24)]
    assert cli._map_blocks(lambda b: list(calls), blocks) == [[(0, [i]), (0, [0, 1, 2])] for i in range(3)]
    calls.clear()
    assert cli._map_blocks(lambda b: list(calls), blocks[:1]) == [[]]  # one block is not placed
    monkeypatch.delattr(os, "sched_setaffinity")
    assert cli._map_blocks(lambda b: b.stop, blocks) == [8, 16, 24]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 CPUs"
)
def test_a_forked_stage_leaves_the_cpu_mask_as_it_found_it(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    mask = os.sched_getaffinity(0)
    assert run_stage(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert os.sched_getaffinity(0) == mask
    assert run_stage(["reconstruct", "--records", str(tmp_path / "clicks.csv"), "--out", str(tmp_path)]) == 0
    assert "points in 2 blocks" in capsys.readouterr().out
    assert os.sched_getaffinity(0) == mask
