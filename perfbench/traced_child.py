"""One `icubench run` with every layer boundary traced, in its own process.

Usage: python3 perfbench/traced_child.py SRC_DIR CONFIG_FILE SPANS_JSON

Runs the same command line as an untraced `python -m icubench.cli run
--config CONFIG_FILE`, inside a Tracer, and writes the span summary, the
counters and the exit code to SPANS_JSON.  Its own process, so peak RSS and
import state match an untraced run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(src: str, config: str, out: str) -> int:
    sys.path.insert(0, src)
    from layers import targets
    from tracer import Tracer

    from icubench import cli

    tracer = Tracer(targets())
    with tracer:
        code = cli.main(["run", "--config", config])
    Path(out).write_text(json.dumps({"exit_code": code, "restored": tracer.restored(), **tracer.summary()}),
                         encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
