"""Traced CLI operation: ``python bench/cli_runner.py SPANS.npz <entcap.cli argv...>``.

Times ``import entcap.cli`` as a span, installs the tracer's wrappers, calls
``entcap.cli.main(argv)`` inside one operation, saves the spans to SPANS.npz
and exits with main's exit code.  Standard output is the command's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    sid = tracer.begin("import.entcap")
    import entcap.cli

    tracer.end(sid)
    tracer.install()
    try:
        return entcap.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
