"""Start ``repro serve`` with the layer wrappers installed (the traced daemon).

Usage (from the checkout root):

    python3 perfbench/serve_launcher.py TRACE_DIR serve --model ... --port 0

Installs the serving wrappers, hands the remaining arguments to the
program's CLI entry point, and writes the recorded spans into
``TRACE_DIR`` once the daemon has drained and returned.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402


def main(argv) -> int:
    trace_dir, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install_serving(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(trace_dir, tracing.process_extra("main"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
