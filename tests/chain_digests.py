"""sha256 of every file and every stage's stderr of the CLI chain, to compare two trees byte for byte.

For each config, seed and CPU count, runs ``simulate -> reconstruct -> recover-rho``
in process through ``cli.main``, with ``cli._cpu_count`` patched to the CPU count so
that each stage splits its points into that many forked blocks, and prints one JSON
object ``{"<config>/seed<s>/cpus<c>/<file>": "<sha256>"}``, where a stage's stderr is
the file ``<stage>.stderr``, so a reworded or dropped warning shows in the same diff.
Comparing two trees is one diff of two runs, each with its own ``src`` on the path:

    PYTHONPATH=src python tests/chain_digests.py --seeds 1 2 3 --cpus 1 2 3 > digests.json

The default configs are the shipped ones and the benchmark's.  pytest does not
collect this module; ``tests/test_cli.py`` runs it on a small config.
"""
import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from clicktomo import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = (
    "configs/coherent_map.ini",
    "configs/squeezed_recovery.ini",
    "bench/configs/coherent_sampled.ini",
    "bench/configs/fock_em_long.ini",
)
OUTPUTS = ("clicks.csv", "wigner.csv", "rho.csv", "metrics.json")
STAGES = ("simulate", "reconstruct", "recover-rho")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_chain(config: Path, seed: int, cpus: int, out: Path) -> dict[str, str]:
    """The three stages on ``config`` at ``seed``, each split for ``cpus`` CPUs, writing into ``out``
    -> each stage's stderr."""
    stages = [
        ["simulate", "--config", str(config), "--seed", str(seed)],
        ["reconstruct", "--records", str(out / "clicks.csv")],
        ["recover-rho", "--wigner", str(out / "wigner.csv")],
    ]
    stderr = {}
    cpu_count = cli._cpu_count
    cli._cpu_count = lambda: cpus
    try:
        for argv in stages:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", str(out)])
            if code:
                where = f"on {config} at seed {seed} and {cpus} CPUs"
                raise RuntimeError(f"{argv[0]} exited {code} {where}: {err.getvalue()}")
            stderr[argv[0]] = err.getvalue()
    finally:
        cli._cpu_count = cpu_count
    return stderr


def chain_digests(configs, seeds, cpus_list, workdir: Path) -> dict[str, str]:
    """``{"<config stem>/seed<s>/cpus<c>/<file>": sha256}`` over every config, seed and CPU count,
    the files being the OUTPUTS and each stage's ``<stage>.stderr``."""
    digests = {}
    for config in map(Path, configs):
        for seed in seeds:
            for cpus in cpus_list:
                out = workdir / config.stem / f"seed{seed}" / f"cpus{cpus}"
                stderr = run_chain(config, seed, cpus, out)
                key = f"{config.stem}/seed{seed}/cpus{cpus}"
                digests.update({f"{key}/{name}": digest((out / name).read_bytes()) for name in OUTPUTS})
                digests.update({f"{key}/{stage}.stderr": digest(text.encode()) for stage, text in stderr.items()})
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--configs", nargs="+", default=[str(ROOT / c) for c in CONFIGS], help="run configs")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1], help="seeds passed to simulate")
    parser.add_argument("--cpus", nargs="+", type=int, default=[1, 2, 3], help="CPU counts to split the stages for")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = chain_digests(args.configs, args.seeds, args.cpus, Path(tmp))
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
