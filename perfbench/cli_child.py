"""One traced `poolmax` CLI invocation, the traced form of a cli-wide op.

    python perfbench/cli_child.py SPANS_OUT ARG...

Times a cold ``import poolmax``, wraps the package's public functions, runs
``poolmax.cli.run(ARG...)``, writes the spans to SPANS_OUT (``.npz``) and exits
with the CLI's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import poolmax  # noqa: E402

import_s = time.perf_counter() - t0

import poolmax.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    code = poolmax.cli.run(argv)
    tracer.save(spans_out, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
