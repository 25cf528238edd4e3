"""Run `cauchys3.cli` with the tracer installed, for the traced `cli` pass.

Usage: python3 perfbench/clitrace.py <cauchys3 arguments>

Stdout and the exit code are the CLI's own.  The last line on stderr is
MARK followed by a JSON object of self seconds and call counts.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from workloads import import_package  # noqa: E402

MARK = "perfbench-trace "


def main() -> int:
    import_package()
    from cauchys3 import cli

    tracer = Tracer(keep_spans=False).install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    print(MARK + json.dumps({"self_s": tracer.self_s, "counts": tracer.counts}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
