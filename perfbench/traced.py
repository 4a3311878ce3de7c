"""Run the vccsat CLI with every layer traced, then write the spans.

    python3 perfbench/traced.py SPANS_JSON -- VCCSAT_ARGS...

Exits with the CLI's own code, or 3 if a wrapped binding was not restored.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Recorder  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- VCCSAT_ARGS...", file=sys.stderr)
        return 2
    spans_path, args = Path(argv[0]), argv[2:]
    import vccsat.cli

    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    problems: list[str] = []
    try:
        code = vccsat.cli.main(args)
    finally:
        problems = tracer.restore()
        recorder.dump(spans_path, unrestored=problems)
    return 3 if problems else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
