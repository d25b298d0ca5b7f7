"""Run one vknots CLI command under the tracer, as `python -m vknots.cli` would.

Usage: python3 vkbench/cli_child.py SUMMARY_PATH ARG...

The command's stdout and exit code are the CLI's own.  The span summary
of the command goes to SUMMARY_PATH as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import vknots.cli

    try:
        code = vknots.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        Path(summary_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
