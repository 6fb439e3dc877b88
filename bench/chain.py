"""Run the CLI chain ``simulate -> reconstruct -> recover-rho`` and check its outputs.

A chain runs either as one ``python -m clicktomo`` subprocess per stage (the
way users run it) or in-process through ``clicktomo.cli.main`` (for the
traced run and its untraced twin).  ``check_chain`` is the output gate: it
attributes every failure to the stage that produced the bad output.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

STAGES = ("simulate", "reconstruct", "recover-rho")
DIGESTED = ("clicks.csv", "wigner.csv", "rho.csv")
PRODUCER = {"clicks.csv": "simulate", "wigner.csv": "reconstruct", "rho.csv": "recover-rho"}
REFERENCE = Path(__file__).resolve().parent / "reference.py"

SETUP_SNIPPET = """\
import sys
import clicktomo
from clicktomo.config import build_recipe, build_state, load_config
cfg = load_config(sys.argv[1])
build_state(cfg)
build_recipe(cfg)
"""


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    rss_mb: float = math.nan
    ref_s: float = math.nan  # mean wall of the reference work run just before and just after


def stage_argv(stage: str, config: Path, seed: int, out: Path) -> list[str]:
    argv = [stage, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if stage == "reconstruct":
        argv += ["--records", str(out / "clicks.csv")]
    elif stage == "recover-rho":
        argv += ["--wigner", str(out / "wigner.csv")]
    return argv


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def subprocess_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], env: dict, log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run one process to completion -> (exit code, wall s, max RSS in MB).

    ``os.wait4`` reaps the child and gives its own resource usage; a timer
    kills it if it is still running at ``deadline`` (a ``monotonic`` time).
    """
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(max(deadline - monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def time_setup(config: Path, env: dict, log_path: Path, deadline: float) -> StageRun:
    """Fresh interpreter: import clicktomo, load the config, build state and recipe."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(config)]
    code, wall, rss = run_process(argv, env, log_path, deadline)
    return StageRun("setup", code, wall, rss)


class Reference:
    """Times ``reference.py`` between invocations, so that each invocation is
    bracketed by two reference runs that see the same machine speed."""

    def __init__(self, env: dict, work: Path, deadline: float):
        self.env = env
        self.work = work
        self.deadline = deadline
        self.walls: list[float] = []
        self.time()

    def time(self) -> None:
        argv = [sys.executable, str(REFERENCE), str(self.work / "reference.txt")]
        code, wall, _ = run_process(argv, self.env, self.work / "reference.log", self.deadline)
        if code != 0:
            raise RuntimeError(f"reference work exited with code {code}; see {self.work / 'reference.log'}")
        self.walls.append(wall)

    def around(self) -> float:
        """Run the reference again -> mean wall of the two runs around the last invocation."""
        self.time()
        return statistics.fmean(self.walls[-2:])


def run_chain_subprocess(
    config: Path, seed: int, out: Path, env: dict, deadline: float, reference: Reference
) -> list[StageRun]:
    """One closed-loop chain, one subprocess per stage, the reference work
    after each; stops at the first failure."""
    runs = []
    for stage in STAGES:
        argv = [sys.executable, "-m", "clicktomo", *stage_argv(stage, config, seed, out)]
        code, wall, rss = run_process(argv, env, out / f"{stage}.log", deadline)
        runs.append(StageRun(stage, code, wall, rss, reference.around()))
        if code != 0:
            break
    return runs


def run_chain_inprocess(config: Path, seed: int, out: Path, tracer=None) -> list[StageRun]:
    """The same chain through ``clicktomo.cli.main``; with a tracer, each
    stage is the root span of its own stage invocation."""
    from clicktomo import cli

    runs = []
    for stage in STAGES:
        argv = stage_argv(stage, config, seed, out)
        log = io.StringIO()
        span = tracer.stage(stage) if tracer is not None else contextlib.nullcontext()
        t0 = perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), span:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash of the program under test is a failed stage
                traceback.print_exc(file=log)
                code = 1
        wall = perf_counter() - t0
        (out / f"{stage}.log").write_text(log.getvalue(), encoding="utf-8")
        runs.append(StageRun(stage, code, wall))
        if code != 0:
            break
    return runs


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class ChainCheck:
    """Outcome of the output gate for one chain."""

    failed: dict[str, str] = field(default_factory=dict)  # stage -> first reason
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, stage: str, reason: str) -> None:
        self.failed.setdefault(stage, reason)


def check_chain(runs: list[StageRun], out: Path, workload) -> ChainCheck:
    """Exit codes, reader round trip, workload bounds; digests and the counts
    that depend on the outputs.

    ``rho_fidelity`` is the fidelity of the normalised positive part of the
    recovered rho.  ``fidelity_vs_configured_state`` clips rho's negative
    eigenvalues and is linear in rho's scale, so it exceeds 1 whenever the
    clipped part has trace above 1; dividing by that trace undoes both.
    """
    import numpy as np
    from clicktomo import io_csv

    check = ChainCheck()
    codes = {r.stage: r.code for r in runs}
    for stage in STAGES:
        if stage not in codes:
            check.fail(stage, "not run: an earlier stage failed")
        elif codes[stage] != 0:
            check.fail(stage, f"exit code {codes[stage]}")
    for name in DIGESTED:
        if (out / name).is_file():
            check.digests[name] = sha256(out / name)
    if check.failed:
        return check

    try:
        _, gammas, cols = io_csv.read_wigner_csv(out / "wigner.csv")
    except Exception as exc:  # any reader failure is an output failure
        check.fail("reconstruct", f"wigner.csv does not parse: {exc!r}")
        return check
    try:
        _, rho = io_csv.read_rho_csv(out / "rho.csv")
        with open(out / "metrics.json", "r", encoding="utf-8") as fh:
            rho_metrics = json.load(fh)
        trace = float(rho_metrics["trace"])
        fidelity = float(rho_metrics["fidelity_vs_configured_state"])
    except Exception as exc:
        check.fail("recover-rho", f"rho.csv or metrics.json does not parse: {exc!r}")
        return check

    # as in ``clicktomo report``
    finite = np.isfinite(cols["w_rec"]) & np.isfinite(cols["w_exact"])
    delta_w = float(np.mean(np.abs(cols["w_rec"] - cols["w_exact"])[finite])) if finite.any() else math.nan
    eigenvalues = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    positive_trace = float(np.sum(np.clip(eigenvalues, 0.0, None)))
    rho_fidelity = fidelity / positive_trace if positive_trace > 0 else math.nan

    check.quality = {"delta_w": delta_w, "rho_fidelity": rho_fidelity, "rho_trace_err": abs(trace - 1.0)}
    if not delta_w <= workload.max_delta_w:
        check.fail("reconstruct", f"delta_w {delta_w!r} above {workload.max_delta_w}")
    if not rho_fidelity >= workload.min_fidelity:
        check.fail("recover-rho", f"rho_fidelity {rho_fidelity!r} below {workload.min_fidelity}")
    if not abs(trace - 1.0) <= workload.max_trace_err:
        check.fail("recover-rho", f"rho_trace_err {abs(trace - 1.0)!r} above {workload.max_trace_err}")

    size = {name: (out / name).stat().st_size for name in ("clicks.csv", "wigner.csv", "rho.csv", "metrics.json")}
    rec_finite = int(np.isfinite(cols["w_rec"]).sum())
    check.counts = {
        "io_csv.bytes_written": sum(size.values()),
        "io_csv.bytes_read": size["clicks.csv"] + size["wigner.csv"],
        "em.failed_rows": len(gammas) - rec_finite,
        "recover.kernel_evals": rho.shape[0] ** 2 * rec_finite,
    }
    return check


def compare_digests(checks: list[ChainCheck]) -> None:
    """Fail the producing stage of every output whose digest differs from the first chain's."""
    reference = checks[0].digests
    for check in checks[1:]:
        for name, digest in check.digests.items():
            if name in reference and digest != reference[name]:
                check.fail(PRODUCER[name], f"{name} differs from the first chain's")
