"""Run one `hamforms` CLI command with layer spans, for the traced run.

Usage: child.py SUMMARY_JSON SUBCOMMAND [ARGS...]

Times `import hamforms.cli`, wraps the layers (see spans.py), runs the
command through `hamforms.cli.main`, writes the span summary plus the
import time to SUMMARY_JSON and exits with the command's exit code.
"""

import json
import sys
from time import perf_counter

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import hamforms.cli
    import_s = perf_counter() - t0
    tracer = spans.Tracer()
    spans.install(tracer)
    code = 1
    try:
        code = tracer.span("cli." + argv[0], hamforms.cli.main, argv)
    finally:
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as fp:
            json.dump(summary, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
