"""The process entry of ``python -m clicktomo`` and the ``clicktomo`` command."""
import gc


def run():
    """Turn the collector off, then import and run ``cli.run``: its passes would slow numpy's import by 4 ms."""
    gc.disable()
    from .cli import run as run_cli

    run_cli()


if __name__ == "__main__":
    run()
