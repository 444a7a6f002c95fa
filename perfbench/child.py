"""Runs the rankforge CLI in this process with benchmark instrumentation.

    python3 perfbench/child.py setup MODULE NAME -- CLI_ARGS...
        Run the CLI up to its first call of rankforge.MODULE.NAME, print
        "SETUP <time.monotonic()>" there and exit 0 without computing.
    python3 perfbench/child.py trace SPANS_JSON -- CLI_ARGS...
        Run the CLI with every layer in spans.TARGETS wrapped and write the
        spans to SPANS_JSON when it exits.

The parent (run.py) puts the repository's src on PYTHONPATH. Plain timed
runs use ``python3 -m rankforge.cli`` and never load this file.
"""

import os
import sys
import time

import spans


def _stop_here(*args, **kwargs):
    sys.stdout.flush()
    os.write(1, f"SETUP {time.monotonic()!r}\n".encode())
    os._exit(0)


def main(argv):
    sep = argv.index("--")
    mode, opts, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    from rankforge import cli

    sys.argv = ["rankforge", *cli_args]
    if mode == "setup":
        module, name = opts
        _, found = spans.bind_everywhere(module, name, _stop_here)
        if not found:
            print(f"rankforge.{module}.{name} not found", file=sys.stderr)
            sys.exit(3)
        cli.entrypoint()
        print(f"CLI returned before calling {module}.{name}", file=sys.stderr)
        sys.exit(3)
    elif mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
        try:
            cli.entrypoint()
        finally:
            tracer.uninstall()
            tracer.dump(opts[0])
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
