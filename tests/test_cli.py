import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clicktomo import io_csv
from clicktomo.cli import main

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
    assert "5 settings per point, fewer than n_trunc = 12" in capsys.readouterr().err


def _drop_last_setting(head, body):
    # 13 of the 14 settings at every point still cover n_trunc = 12
    return head, [line for k, line in enumerate(body) if k % 14 != 13]


def _header_alpha(value):
    def edit(head, body):
        return [f"# alpha = {value}" if line.startswith("# alpha = ") else line for line in head], body

    return edit


SCHEDULE_EDITS = {
    "drop_last_setting": (_drop_last_setting, "differ from the 14 its embedded config declares"),
    "other_header_alpha": (_header_alpha(0.3), "differ from the 14 its embedded config declares"),
    "degenerate_header_alpha": (_header_alpha(0.0), "declares no valid schedule"),
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
    src = str(Path(io_csv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, clicktomo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_report_identical_inputs_zero_delta(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--exact", "--out", str(out)])
    main(
        ["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)]
    )
    # overwrite the exact column with the reconstruction itself
    cfg, gammas, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    io_csv.write_wigner_csv(
        out / "same.csv", cfg, gammas, cols["w_rec"], w_exact=cols["w_rec"]
    )
    assert main(["report", "--wigner", str(out / "same.csv"), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["maps"][0]["delta_w"] == 0.0


def test_reconstruct_is_deterministic(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    first = (out / "wigner.csv").read_bytes()
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out)])
    assert (out / "wigner.csv").read_bytes() == first


def test_reconstruct_threads_match_serial(small_cfg, tmp_path):
    out = tmp_path / "art"
    main(["simulate", "--config", str(small_cfg), "--out", str(out)])
    main(["reconstruct", "--config", str(small_cfg), "--records", str(out / "clicks.csv"), "--out", str(out / "one")])
    main(["reconstruct", "--config", str(small_cfg), "--threads", "3",
          "--records", str(out / "clicks.csv"), "--out", str(out / "three")])
    import numpy as _np
    _, _, a = io_csv.read_wigner_csv(out / "one" / "wigner.csv")
    _, _, b = io_csv.read_wigner_csv(out / "three" / "wigner.csv")
    _np.testing.assert_allclose(a["w_rec"], b["w_rec"], atol=1e-12)


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
    "runs_below_one": {"n_runs": "0", "n_noclick": "0"},
    "fractional_point_index": {"point_index": "3.5"},
    "fractional_runs": {"n_runs": "400.5"},
    "nu_bar_vanishes": {"alpha": "0", "nu_c": "0"},
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

# sha256 of the outputs of the SMALL config, recorded before the click
# pipeline worked on arrays; any change here changes every downstream file.
# rho.csv pins the quadrature kernel and the fock case pins the analytic
# Laguerre column w_exact; both were recorded while scipy still computed them.
GOLDEN = {
    "sampled": (SMALL, [], {
        "clicks.csv": "d457d5b3a7fa8c7573882ff9221cab7ef9afc77a8c8c12837706f1b7a7f62e67",
        "wigner.csv": "cff1d4cb73f1172309ab787dc3a1209db2b05414948c1e0fb60e2556c65bc98d",
        "rho.csv": "e2123ebb05180fbbfc5811310045b8603257e735ed001866de24688857f7d60e",
    }),
    "exact": (SMALL, ["--exact"], {
        "clicks.csv": "58282c617e525395fb7df0940a2f561223f0105d139beb4f96d36b3b3912901c",
        "wigner.csv": "3deb816186a249e0f92f638989c30cf40192dfc876f35850cc7009c26a16f4f9",
        "rho.csv": "7d65202837cc52dfddf09253be3375841190baf9baa9e079a8d5895ecb1fb14f",
    }),
    "dual": (DUAL, [], {
        "clicks.csv": "8ef3d0cfe5e828532fea6d317c73092650468949d79149e30e644708cd9e6fa6",
        "wigner.csv": "35aad34d07afb293894601691fc45a0a4aa8e195acceb557922f8a103c060f1b",
        "rho.csv": "f564458a1f01949b892d60bcbae560eef94a0708e63e7eecbae97222657454e0",
    }),
    "fock": (FOCK, [], {
        "clicks.csv": "21cc51d88de6bb03280ce08b5854bbded8077c6488f1ce5b44bdbf9406a7466c",
        "wigner.csv": "f983a90df0cde1584ab658ccedee61494aacf940bbb7573ffad99773833dc352",
        "rho.csv": "199fbb1371424ea5ce54a5ebb54ab16448a59621638606db2c58fa458861bafc",
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
