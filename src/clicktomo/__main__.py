"""The process entry of ``python -m clicktomo`` and the ``clicktomo`` command."""
import gc
import os
import sys


def run():
    """Run ``cli.main()`` with the collector off and exit with its status.

    The collector is turned off before ``cli`` is imported: its passes would
    slow numpy's import by 4 ms.  Standard output is flushed here, so that a
    closed pipe is one I/O error line and exit 3, not a traceback from the
    interpreter's own flush at shutdown and exit 120; fd 1 then points at
    os.devnull, so that final flush cannot fail again.  ``gc.freeze()`` moves
    every live object to the collector's permanent generation, which the
    shutdown collection skips.  That collection runs even with the collector
    disabled, and the freeze takes 7 ms off a stage's exit on a 2-vCPU VM.
    """
    gc.disable()
    from . import cli

    status = cli.main()
    if sys.stdout is not None:  # None when the process started with fd 1 closed
        try:
            sys.stdout.flush()
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"I/O error: {exc}", file=sys.stderr)
            status = cli.EXIT_DATA
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
