import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clicktomo import cli, io_csv
from clicktomo.cli import main
from clicktomo.config import build_state, parse_config
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


def test_fewer_settings_than_n_trunc_in_records_exit_code(small_cfg, tmp_path, capsys):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    head = sum(1 for line in lines if line.startswith("#")) + 1
    # keep the first 5 of the 14 settings at every point
    kept = [line for k, line in enumerate(lines[head:]) if k % 14 < 5]
    path.write_text("\n".join(lines[:head] + kept) + "\n")
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    assert code == 3
    assert "row 6: out of the point-major order of the 4 points x 14 settings" in capsys.readouterr().err


def _drop_last_setting(head, body):
    # 13 of the 14 settings at every point still cover n_trunc = 12
    return head, [line for k, line in enumerate(body) if k % 14 != 13]


def _drop_row(k):
    return lambda head, body: (head, body[:k] + body[k + 1 :])


def _repeat_row(k):
    return lambda head, body: (head, body[: k + 1] + body[k:])


def _header(key, value):
    def edit(head, body):
        return [f"# {key} = {value}" if line.startswith(f"# {key} = ") else line for line in head], body

    return edit


# an edit of the header or of the row layout -> message; every row's
# (point, setting) must follow the schedule the header declares
SCHEDULE_EDITS = {
    "drop_last_setting": (_drop_last_setting, "row 14: out of the point-major order"),
    "missing_row": (_drop_row(19), "row 20: out of the point-major order"),
    "missing_last_row": (_drop_row(55), "row 56: missing in the point-major order of the 4 points x 14"),
    "duplicate_row": (_repeat_row(19), "row 21: out of the point-major order"),
    "duplicate_last_row": (_repeat_row(55), "row 57: extra in the point-major order of the 4 points x 14"),
    "degenerate_header_alpha": (_header("alpha", 0.0), "declares no valid schedule"),
    "nu_bar_vanishes": (_header("efficiency_min", 0.0), "declares no valid schedule"),
    "runs_below_one": (_header("n_runs", 0), "embedded config: [run] n_runs must be positive"),
    "fractional_runs": (_header("n_runs", 400.5), "[run] n_runs: cannot parse '400.5' as int"),
    "runs_above_int64": (_header("n_runs", 10**29), f"embedded config: [run] n_runs = {10**29} exceeds"),
    "grid_beyond_n_pad": (
        _header("re_max", 7.0),
        "embedded config: [grid] |gamma|^2 = 26.515624999999996 at gamma = (5.125-0.5j) exceeds n_pad/2 = 22.0",
    ),
    # far beyond what numpy can index, so a missing check fails at once instead of filling memory
    "grid_too_many_nodes": (
        _header("n_re", 10**20), f"embedded config: [grid] n_re x n_im = {2 * 10**20} exceeds"
    ),
    # the reader takes only the layout the writer writes
    "header_after_rows": (lambda head, body: (body, head), "missing embedded config header"),
    "key_value_after_rows": (
        lambda head, body: (head, body + ["# repetition = 0"]), "row 57: expected 3 fields, found 1"
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
        f"config error: [run] n_runs = {10**29} exceeds 2**63 - 1 = {2**63 - 1}",
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


def test_schedule_that_cannot_be_built_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(SMALL.replace("alpha = 0.15", "alpha = 0"))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error: [detectors] mode = single: alpha = 0.0 is degenerate" in capsys.readouterr().err


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


def test_cli_import_loads_no_scipy():
    # nor a process or thread pool: point blocks run in children forked with os.fork,
    # and importing multiprocessing or concurrent.futures would slow every stage
    src = str(Path(io_csv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, clicktomo.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'multiprocessing') or m.startswith('concurrent.futures')))"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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
    assert wigner_cfg == replace(
        click_cfg, n_iterations=70, normalization="literal", analytic_reference=False
    )
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


# column -> replacement text in the last data row (point 3, setting 13)
BAD_ROWS = {
    "noclick_above_runs": {"n_noclick": "401"},
    "noclick_negative": {"n_noclick": "-1"},
    "noclick_nan": {"n_noclick": "nan"},
    "fractional_point_index": {"point_index": "3.5"},
    "fractional_setting_index": {"setting_index": "13.5"},
    "point_index_out_of_place": {"point_index": "2"},
    "setting_index_out_of_place": {"setting_index": "12"},
}


@pytest.mark.parametrize("edit", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_bad_click_row_is_a_data_error(small_cfg, tmp_path, capsys, edit):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    path = out / "clicks.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    for column, text in edit.items():
        fields[io_csv.CLICK_COLUMNS.index(column)] = text
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = main(["reconstruct", "--config", str(small_cfg), "--records", str(path), "--out", str(out)])
    assert code == 3
    assert "row 56" in capsys.readouterr().err


DUAL = SMALL.replace("mode = single", "mode = dual\nnu_c = 0.3\nnu_d = 0.6\nn_angles = 14")
FOCK = SMALL.replace("kind = coherent\nre_amplitude = 1.0", "kind = fock\nn = 1")

# sha256 of the outputs of the SMALL config; any change here changes every
# downstream file.  The sampled cases were re-pinned when each point got one
# generator, every clicks.csv when click files became counts-only, and the
# exact case when the forward model became one batched displacement kernel
# (its probabilities moved in the last bits), every rho.csv when the
# quadrature became one moment matrix, and every wigner.csv and rho.csv when
# the EM began to normalize once after its last step (w_rec moved by at most
# 5.7e-16, rho by at most 3.5e-13).  The fock case pins the analytic Laguerre
# column w_exact.
GOLDEN = {
    "sampled": (SMALL, [], {
        "clicks.csv": "2764db8739c98929d8cd66a211e03ae3440bb7f97b09c0ddb66debe5aee29cb4",
        "wigner.csv": "901d4bf69e5859390308ee0723b89c654af63e129c1cb0f3abb011c658c60f36",
        "rho.csv": "1a1f3d06ca4cb3da9c7e20b961ea5e5fa234f9b76ede893116e6cdc52334b9fb",
    }),
    "exact": (SMALL, ["--exact"], {
        "clicks.csv": "05ebdbbaeb4e13f9b6576e18fbe3283c52491ff261ab927ba9884ee1cb2fbd0a",
        "wigner.csv": "e0e012e72783991fa4e9bcbed21668162511e0b9dd66c2974cb0b54849ce3fb5",
        "rho.csv": "d23c3ce90bfeda9625addf1dd2209b34df905e7f38a96abedb4a53929f79f8ed",
    }),
    "dual": (DUAL, [], {
        "clicks.csv": "0997321e5792bff1971c36ae64d4001460776880c7076ea933182a5ed8817a6e",
        "wigner.csv": "6bd60e5508751b946a648d29e564c8238a2338a96dee8f178fffae5c0d538330",
        "rho.csv": "98a1c0a5c49d7b8ca10390a6486a96c6e5b451df311eac3bb3dadbebe5be59f8",
    }),
    "fock": (FOCK, [], {
        "clicks.csv": "8f86cbb518de3aeb4fa37c5d66f3a0760d48f7a9f86e46bd7e01f0aa8405dc56",
        "wigner.csv": "b9abab37118ad3813f21981ac0f111b750b7aaa877ec6a8840bb1849cd75fe1e",
        "rho.csv": "b737e18af94f121248d2c933a4a8d960927dfb3f54bf27d04e3442632df0d413",
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
def small_blocks(monkeypatch):
    """Let simulate split the test grids too: how small a block may be changes no output byte."""
    monkeypatch.setattr(cli, "SIMULATE_BLOCK_MIN", cli.EM_BLOCK_MIN)


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


EM, SIM = cli.EM_BLOCK_MIN, cli.SIMULATE_BLOCK_MIN


@pytest.mark.parametrize(
    "cpus, n_points, min_points, madds, cuts",
    [
        (1, 2500, EM, 0, [0, 2500]),
        (2, 511, EM, 0, [0, 511]),
        (2, 512, EM, 0, [0, 256, 512]),
        (2, 576, EM, 288, [0, 256, 576]),  # fock_em_long's EM
        (2, 576, SIM, 0, [0, 576]),  # and its simulate
        (2, 2500, EM, 360, [0, 1216, 2500]),  # coherent_sampled's EM
        (2, 2500, SIM, 0, [0, 1216, 2500]),  # and its simulate
        (3, 784, EM, 0, [0, 256, 512, 784]),
        (8, 784, EM, 0, [0, 256, 512, 784]),
        (4, 4, EM, 0, [0, 4]),
        (3, 3071, SIM, 0, [0, 1472, 3071]),
        (3, 3072, SIM, 0, [0, 1024, 2048, 3072]),
        # above BLAS_SMALL as a whole: 3 blocks of 832 would fall under it, 2 of 1216 not
        (3, 2500, EM, 1000, [0, 1216, 2500]),
        (3, 2500, EM, 600, [0, 2500]),
        (3, 2500, EM, 400, [0, 832, 1664, 2500]),  # under it as a whole
    ],
)
def test_blocks_cut_at_multiples_of_64(monkeypatch, cpus, n_points, min_points, madds, cuts):
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    blocks = cli._blocks(n_points, min_points, madds)
    assert blocks == [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    assert len(blocks) == 1 or min(b.stop - b.start for b in blocks) >= min_points


def test_a_process_with_threads_gets_one_block(monkeypatch):
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli._blocks(784, EM) == [slice(0, 784)]
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cli._blocks(784, EM) == [slice(0, 384), slice(384, 784)]


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


# config, simulate flags, blocks of simulate and of reconstruct for 1, 2 and 3 CPUs
BLOCK_CASES = {
    "sampled": (SMALL, [], (1, 2, 3), (1, 2, 3)),
    "exact": (SMALL, ["--exact"], (1, 2, 3), (1, 2, 3)),
    # 8 of its 784 points are guarded, and the guard clamps its points as one
    "dual": (DUAL.replace("re_max = 1.5", "re_max = 0.8"), [], (1, 2, 3), (1, 1, 1)),
    "fock": (FOCK, [], (1, 2, 3), (1, 2, 3)),
    "literal": (SMALL + "normalization = literal\n", [], (1, 2, 3), (1, 1, 1)),
    # the no-click series, 2500 x 44 x 17 multiply-adds, is above BLAS_SMALL, and its blocks
    # are not: its transposed operand keeps OpenBLAS's kernel
    "series_across_blas_small": (settings(SMALL, 17), ["--exact"], (1, 2, 3), (1, 2, 3)),
    # the EM's 2500 x 34 x 12 is above BLAS_SMALL, and its blocks would not be
    "em_at_blas_small": (settings(SMALL, 34), [], (1, 2, 3), (1, 1, 1)),
}


@pytest.mark.parametrize("text, flags, simulated, reconstructed", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_outputs_do_not_depend_on_the_cpu_count(
    tmp_path, monkeypatch, capsys, small_blocks, forks, text, flags, simulated, reconstructed
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
        assert run_stage(["reconstruct", "--records", str(out / "clicks.csv"), "--out", str(out)]) == 0
        assert f"({n_points} points in {rec_blocks} block" in capsys.readouterr().out
        assert len(forks) == rec_blocks - 1
        assert run_stage(["recover-rho", "--wigner", str(out / "wigner.csv"), "--out", str(out)]) == 0
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CHAIN_FILES})
    assert digests[0] == digests[1] == digests[2]


FAULTY_POINT = 500  # in the last block for 2 and for 3 CPUs, never in this process's
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
def test_a_failing_block_exits_as_one_block_would(tmp_path, monkeypatch, capsys, small_blocks, stage, error, code):
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
def test_a_killed_block_is_an_io_error(tmp_path, monkeypatch, capsys, small_blocks, stage):
    cfg = tmp_path / "run.ini"
    cfg.write_text(wide(SMALL))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 2)
    argv = stage_argv(stage, cfg, tmp_path)
    capsys.readouterr()
    fail_at_point(monkeypatch, stage, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run_stage(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error: point block 1 (points 384 to 783) ended without a result")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("stage", STAGES)
def test_an_interrupt_kills_and_reaps_every_block(tmp_path, monkeypatch, small_blocks, stage):
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


def test_a_block_whose_fork_fails_runs_here(tmp_path, monkeypatch, capsys, small_blocks):
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
