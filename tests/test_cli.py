import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from clicktomo import cli, io_csv
from clicktomo.cli import main
from clicktomo.config import build_recipe, build_state, parse_config
from clicktomo.errors import ConfigError, DataError, NumericalError
from clicktomo.measurement import simulate
from clicktomo.wigner import reconstruct_clicks

from oracles import displaced_diagonal_padded

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
    rho, gammas = build_state(cfg), cfg.grid.flat_gammas()
    leaks = [1.0 - displaced_diagonal_padded(rho, g, cfg.trunc)[:12].sum() for g in gammas]
    worst = int(np.argmax(leaks))
    assert float(printed[1]) == pytest.approx(leaks[worst], rel=1e-6)
    assert complex(printed[2]) == gammas[worst]


def test_simulate_writes_expected_rows(small_cfg, tmp_path):
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(small_cfg), "--out", str(out)]) == 0
    _, _, clicks = io_csv.read_click_csv(out / "clicks.csv")
    assert clicks.gammas.size == 4
    assert clicks.noclick.shape == (4, 14)


def test_simulate_is_deterministic(small_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(small_cfg), "--out", str(out1)])
    main(["simulate", "--config", str(small_cfg), "--out", str(out2)])
    assert (out1 / "clicks.csv").read_bytes() == (out2 / "clicks.csv").read_bytes()


def test_rerun_from_embedded_header(small_cfg, tmp_path):
    out1 = tmp_path / "a"
    main(["simulate", "--config", str(small_cfg), "--out", str(out1)])
    embedded = io_csv.embedded_config(out1 / "clicks.csv")
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
    _, _, clicks = io_csv.read_click_csv(out / "clicks.csv")
    assert np.all(clicks.noclick == clicks.n_runs)


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
    assert (out / "clicks_rep0.csv").exists() and (out / "clicks_rep1.csv").exists()
    assert (
        main(
            [
                "reconstruct",
                "--config",
                str(cfg),
                "--records",
                str(out / "clicks_rep0.csv"),
                str(out / "clicks_rep1.csv"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    _, _, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    assert np.all(np.isfinite(cols["w_variance"]))


def test_exact_flag_writes_expected_counts(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--exact", "--out", str(out)])
    _, _, clicks = io_csv.read_click_csv(out / "clicks.csv")
    fracs = clicks.noclick % 1.0
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


def test_recover_rho_prints_its_warnings_on_stderr(small_wigner, tmp_path, capsys):
    cfg, _, cols = io_csv.read_wigner_csv(small_wigner)
    w_rec = cols["w_rec"].copy()
    w_rec[1], w_rec[2] = np.nan, 0.9
    path = tmp_path / "wigner.csv"
    io_csv.write_wigner_csv(path, cfg, w_rec)
    capsys.readouterr()
    assert main(["recover-rho", "--wigner", str(path), "--out", str(tmp_path)]) == 0
    trace = json.loads((tmp_path / "metrics.json").read_text())["trace"]
    assert abs(trace - 1.0) > 0.05
    assert capsys.readouterr().err.splitlines() == [
        "Wigner magnitude 0.900000 exceeds 2/pi; leaving values unclamped",
        "skipping 1 non-finite Wigner nodes in the quadrature",
        f"recovered trace {trace:.4f} is far from 1; grid coverage or resolution is suspect",
    ]


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


@pytest.mark.parametrize("flags", [[], ["--seed", "9", "--exact"]], ids=["plain", "run_flags"])
def test_downstream_stages_default_to_the_embedded_config(tmp_path, flags):
    # EM keys off their defaults: without --config they must come from the
    # click file's header, and the outputs match a run that passes the config
    text = SMALL.replace("n_iterations = 60", "n_iterations = 35\nnormalization = literal\nanalytic_reference = false")
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
    assert b"# n_iterations = 35" in outputs["without"][0] and b"# analytic_reference = false" in outputs["without"][0]


def test_simulate_still_needs_a_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_report_refuses_run_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--config", str(tmp_path / "none.ini"), "--seed", "3",
              "--wigner", str(tmp_path / "none.csv"), "--out", str(tmp_path)])
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
    "coherent_too_bright": "kind = coherent\nre_amplitude = 9",
    "squeezed_too_broad": "kind = squeezed\nsqueeze = 3",
}


@pytest.mark.parametrize("state", STATES_THAT_DO_NOT_FIT.values(), ids=STATES_THAT_DO_NOT_FIT.keys())
def test_state_that_does_not_fit_is_a_config_error(tmp_path, capsys, state):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace("kind = coherent\nre_amplitude = 1.0", state))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error: [state]" in capsys.readouterr().err


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
    cfg, _, clicks = io_csv.read_click_csv(tmp_path / "clicks.csv")
    assert cfg.n_runs == 2**53 and clicks.noclick[-1, -1] == int(counts[-1])


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


@pytest.mark.parametrize("flags", [["--exact"], []], ids=["exact", "sampled"])
def test_a_grid_whose_displacements_overflow_is_a_numerical_error(tmp_path, capsys, flags):
    # nodes at |gamma|^2 = 56.5, within n_pad/2 = 200, overflow the displacement's power
    # tables to NaN: reported, with no warning (an error here) and no file
    path = tmp_path / "run.ini"
    text = SMALL.replace("n_trunc = 12", "n_trunc = 12\nn_pad = 400")
    path.write_text(text.replace("re_min = -0.5\nre_max = 1.5", "re_min = -15\nre_max = 15"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path), *flags]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: displaced diagonal entry nan") and err.count("\n") == 1
    assert not (tmp_path / "clicks.csv").exists()


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


# a header edit -> (the key it sets, the error it must raise)
HEADERS_THAT_DO_NOT_BUILD = {
    "state": (("re_amplitude", 9), "embedded config: [state] kind = coherent: |amplitude|^2 = 81.000 exceeds"),
    "schedule": (
        ("alpha", 0),
        "embedded config declares no valid schedule: [detectors] mode = single: alpha = 0.0 is degenerate",
    ),
}


@pytest.mark.parametrize(
    "key_value, message", HEADERS_THAT_DO_NOT_BUILD.values(), ids=HEADERS_THAT_DO_NOT_BUILD.keys()
)
@pytest.mark.parametrize(
    "name, command",
    [("clicks.csv", "reconstruct --records"), ("wigner.csv", "recover-rho --wigner"), ("wigner.csv", "report --wigner")],
    ids=["click-reconstruct", "wigner-recover-rho", "wigner-report"],
)
def test_a_header_whose_state_or_schedule_does_not_build_is_a_data_error(
    narrow_chain, tmp_path, capsys, name, command, key_value, message
):
    # every reader builds the embedded run's state and schedule, as simulate does
    lines = (narrow_chain / name).read_text().splitlines()
    n_head = sum(1 for line in lines if line.startswith("#"))
    head, body = _header(*key_value)(lines[:n_head], lines[n_head:])
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
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or status)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert events == ["main", "freeze"]
    assert exc.value.code == status


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"clicktomo": "clicktomo.cli:run"}


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


@pytest.mark.parametrize(
    "command", [["simulate"], ["reconstruct", "--records", "clicks.csv"], ["recover-rho", "--wigner", "wigner.csv"]],
    ids=["simulate", "reconstruct", "recover-rho"],
)
def test_threads_flag_is_refused(small_cfg, tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(small_cfg), "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_reconstruct_writes_the_click_files_config(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    other = tmp_path / "other.ini"
    other.write_text(
        SMALL.replace("n_iterations = 60", "n_iterations = 70\nnormalization = literal\nanalytic_reference = false")
    )
    code = main(["reconstruct", "--config", str(other), "--exact", "--seed", "99",
                 "--records", str(out / "clicks.csv"), "--out", str(out)])
    assert code == 0
    click_cfg, _, _ = io_csv.read_click_csv(out / "clicks.csv")
    wigner_cfg, _, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    assert (wigner_cfg.seed, wigner_cfg.exact_probabilities) == (5, False)
    assert wigner_cfg == click_cfg._replace(n_iterations=70, normalization="literal", analytic_reference=False)
    assert np.all(np.isnan(cols["w_exact"]))


def test_reconstruct_rejects_another_runs_state(small_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    other = tmp_path / "other.ini"
    other.write_text(SMALL.replace("re_amplitude = 1.0", "re_amplitude = 0.5"))
    code = main(["reconstruct", "--config", str(other), "--records", str(out / "clicks.csv"), "--out", str(out)])
    assert code == 3
    assert "[state] differs from the run config" in capsys.readouterr().err
    assert not (out / "wigner.csv").exists()


def test_reconstruct_rejects_records_of_another_run(small_cfg, tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(small_cfg), "--out", str(first)])
    main(["simulate", "--config", str(small_cfg), "--seed", "6", "--out", str(second)])
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(first / "clicks.csv"),
                 str(second / "clicks.csv"), "--out", str(tmp_path)])
    assert code == 3
    assert "embedded config differs from that of" in capsys.readouterr().err
    assert not (tmp_path / "wigner.csv").exists()


def test_reconstruct_rejects_a_repeated_record(small_cfg, tmp_path, capsys):
    # records of one run share one embedded config; only the repetition tells them apart
    out = tmp_path / "a"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    copy = tmp_path / "copy.csv"
    copy.write_bytes((out / "clicks.csv").read_bytes())
    for records in ([out / "clicks.csv"] * 2, [out / "clicks.csv", copy]):
        capsys.readouterr()
        code = main(["reconstruct", "--records", *map(str, records), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "repetition 0" in err
        assert str(records[0]) in err and str(records[1]) in err
        assert not (tmp_path / "wigner.csv").exists()


def test_recover_rho_writes_the_wigner_files_config(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    code = main(["recover-rho", "--config", str(small_cfg), "--exact", "--seed", "99",
                 "--wigner", str(out / "wigner.csv"), "--out", str(out)])
    assert code == 0
    wigner_cfg, _, _ = io_csv.read_wigner_csv(out / "wigner.csv")
    rho_cfg, _ = io_csv.read_rho_csv(out / "rho.csv")
    assert rho_cfg == wigner_cfg and rho_cfg.seed == 5
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["config"] == io_csv.embedded_config(out / "wigner.csv")


def test_report_identical_inputs_zero_delta(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--exact", "--out", str(out)])
    main(
        ["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)]
    )
    # overwrite the exact column with the reconstruction itself
    cfg, _, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    io_csv.write_wigner_csv(out / "same.csv", cfg, cols["w_rec"], w_exact=cols["w_rec"])
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


# a repetition header that is not a plain decimal in [0, repetitions) of the file's own config (here 1)
REPETITIONS = {"negative": "-1", "beyond": "7", "underscore": "1_0", "plus": "+0", "arabic_indic_zero": "\u0660", "missing": None}


@pytest.mark.parametrize("value", REPETITIONS.values(), ids=REPETITIONS.keys())
def test_repetition_header_outside_the_runs_repetitions_is_a_data_error(small_cfg, tmp_path, capsys, value):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    header = "" if value is None else f"# repetition = {value}\n"
    path.write_text(path.read_text(encoding="utf-8").replace("# repetition = 0\n", header), encoding="utf-8")
    capsys.readouterr()
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and f"{path}: repetition" in err


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
# the counts read back, and every wigner.csv and rho.csv, kept their bytes).
# The fock case pins the analytic Laguerre column w_exact.
GOLDEN = {
    "sampled": (SMALL, [], {
        "clicks.csv": "4c44cfdf02feb23767f744cfb1cf524498816f5aef334d21e1d75fb27663116d",
        "wigner.csv": "901d4bf69e5859390308ee0723b89c654af63e129c1cb0f3abb011c658c60f36",
        "rho.csv": "83f10d1a610839963ebc2ebe508cfb8546e711131048133b431b5b3d6df04117",
    }),
    "exact": (SMALL, ["--exact"], {
        "clicks.csv": "1c39f735163d279336b143e996ce52c4cf5ab89b24d5c6acd0c6991fad716be1",
        "wigner.csv": "768e69eaacc030ed05e539d1697faead879cb340979fba58e538d329b4872423",
        "rho.csv": "52c4ff1abf8fd5f4816937cbf7412930066a58966d8e9660c184558a6c512c9b",
    }),
    "dual": (DUAL, [], {
        "clicks.csv": "9757370b861bdf4a165126e3c8faf2fd41657495a0ee48e9db73c60550ca861b",
        "wigner.csv": "6bd60e5508751b946a648d29e564c8238a2338a96dee8f178fffae5c0d538330",
        "rho.csv": "53163798774caad22dbd7daafbaa64ae5b8d1da0aaaf99c51aef5f9ea802282d",
    }),
    "fock": (FOCK, [], {
        "clicks.csv": "af078730939517ac1641139c27ddcb268ae7219c2557b28aa73f7f0e74bf6b51",
        "wigner.csv": "b9abab37118ad3813f21981ac0f111b750b7aaa877ec6a8840bb1849cd75fe1e",
        "rho.csv": "e3eb3bb37b78e07cb38e2cf643bb52dd2302ef439740cec4fe347951211d86f3",
    }),
}


@pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN.keys())
def test_outputs_match_golden_digests(tmp_path, case):
    text, flags, digests = case
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
    records = ["--records", str(out / "clicks.csv")]
    assert main(["reconstruct", "--config", str(cfg), *records, "--out", str(out), *flags]) == 0
    wigner = ["--wigner", str(out / "wigner.csv")]
    assert main(["recover-rho", "--config", str(cfg), *wigner, "--out", str(out), *flags]) == 0
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


# config, simulate flags, blocks of simulate and of reconstruct for 1, 2 and 3 CPUs,
# and reconstruct's exit code and failed points
BLOCK_CASES = {
    "sampled": (SMALL, [], (1, 2, 3), (1, 2, 3), 0, 0),
    "exact": (SMALL, ["--exact"], (1, 2, 3), (1, 2, 3), 0, 0),
    # 8 of its 784 points are guarded
    "dual": (DUAL.replace("re_max = 1.5", "re_max = 0.8"), [], (1, 2, 3), (1, 2, 3), 0, 0),
    # 192 of its 784 points are guarded, 154 of them reach the floor and 66 fail
    "dual_floor": (DUAL, [], (1, 2, 3), (1, 2, 3), 4, 66),
    "fock": (FOCK, [], (1, 2, 3), (1, 2, 3), 0, 0),
    "literal": (SMALL + "normalization = literal\n", [], (1, 2, 3), (1, 2, 3), 0, 0),
    # the no-click series, 2500 x 44 x 17 multiply-adds, is above BLAS_SMALL, and its blocks
    # are not: its transposed operand keeps OpenBLAS's kernel
    "series_across_blas_small": (settings(SMALL, 17), ["--exact"], (1, 2, 3), (1, 2, 3), 0, 0),
    # the EM's 2500 x 34 x 12 is above BLAS_SMALL, and its blocks would not be
    "em_at_blas_small": (settings(SMALL, 34), [], (1, 2, 3), (1, 1, 1), 0, 0),
    # 812 points: cuts at 400 for 2 CPUs and at 264 and 536 for 3, multiples of 8 but not of 64
    "cuts_off_64": (SMALL.replace("n_re = 2\nn_im = 2", "n_re = 29\nn_im = 28"), [], (1, 2, 3), (1, 2, 3), 0, 0),
}


@pytest.mark.parametrize(
    "text, flags, simulated, reconstructed, code, n_failed", BLOCK_CASES.values(), ids=BLOCK_CASES.keys()
)
def test_outputs_do_not_depend_on_the_cpu_count(
    tmp_path, monkeypatch, capsys, forks, text, flags, simulated, reconstructed, code, n_failed
):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(text))
    n_points = parse_config(wide(text)).grid.n_points
    digests = []
    for cpus, sim_blocks, rec_blocks in zip((1, 2, 3), simulated, reconstructed):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        forks.clear()
        assert run_stage(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
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


def test_repetitions_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys):
    # every block formats its own rows, for each repetition
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL) + "repetitions = 2\n")
    run_cfg = parse_config(wide(SMALL))
    rho, gammas, recipe = build_state(run_cfg), run_cfg.grid.flat_gammas(), build_recipe(run_cfg)
    names = ("clicks_rep0.csv", "clicks_rep1.csv")
    files = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run_stage(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.count(f" settings in {cpus} block") == 2
        files.append([(out / name).read_bytes() for name in names])
        for rep, name in enumerate(names):
            _, read_rep, clicks = io_csv.read_click_csv(out / name)
            whole = simulate(rho, gammas, recipe, run_cfg.trunc, run_cfg.n_runs, run_cfg.seed, rep, exact=False)
            assert read_rep == rep and clicks.noclick.tolist() == whole.noclick.tolist()
    assert files[0] == files[1] == files[2]
    assert files[0][0] != files[0][1]


FAULTY_POINT = 600  # in the last block for 2 and for 3 CPUs, never in this process's
STAGES = ["simulate", "reconstruct"]


def fail_at_point(monkeypatch, stage, fault, points=(FAULTY_POINT,)):
    """Make ``stage``'s per-point function call ``fault()`` on a block holding one of ``points``."""
    targets = parse_config(wide(SMALL)).grid.flat_gammas()[list(points)]
    if stage == "simulate":
        def faulty(rho, gammas, *args, offset=0):
            if any(offset <= p < offset + len(gammas) for p in points):
                fault()
            return simulate(rho, gammas, *args, offset=offset)

        monkeypatch.setattr(cli, "simulate", faulty)
    else:
        def faulty(clicks, *args):
            if np.isin(targets, clicks.gammas).any():
                fault()
            return reconstruct_clicks(clicks, *args)

        monkeypatch.setattr(cli, "reconstruct_clicks", faulty)


def stage_argv(stage, cfg, out):
    if stage == "simulate":
        return ["simulate", "--config", str(cfg), "--out", str(out)]
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    return ["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]


FAULTS = {"config": (ConfigError, 2), "data": (DataError, 3), "io": (OSError, 3), "numerical": (NumericalError, 4)}


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
