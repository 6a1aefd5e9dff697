"""``preopt`` CLI with spans: ``python3 perfbench/tracecli.py OUT.json ARGS...``.

Installs the tracer around the library and ``cli.fix``, runs the command
line ARGS exactly as ``python -m preopt.cli ARGS`` would, and writes the
span totals and the spans to OUT.json. The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time

import click

from tracing import Tracer


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import preopt.cli

    tracer = Tracer()
    tracer.install(with_cli=True)
    code = 0
    try:
        preopt.cli.main(args, standalone_mode=False)
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump(
                {
                    "shim_s": (time.perf_counter_ns() - start) / 1e9,
                    "trace": tracer.totals(),
                    "spans": tracer.take_spans(),
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
