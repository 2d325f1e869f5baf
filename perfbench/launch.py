"""Run one ``repro`` CLI command with the service layers traced.

Usage: ``python3 perfbench/launch.py TRACE_FILE <repro arguments...>``

Installs the span wrappers of :func:`perfbench.layers.install_service`,
then calls ``repro.cli.main`` with the remaining arguments.  The
process's spans are appended to ``TRACE_FILE`` when the command returns
(``repro serve`` returns on SIGINT); each forked job child appends its
own spans when its job is over.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import install_service  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    trace_file, repro_args = argv[0], argv[1:]
    tracer = Tracer()
    install_service(tracer, trace_file)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
