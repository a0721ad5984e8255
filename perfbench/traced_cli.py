"""Run ``regmap`` in-process with the layer tracer installed.

    python perfbench/traced_cli.py SPANS.json REGMAP_ARGS...

The regmap package must be importable (PYTHONPATH naming ``src``). The
CLI's own ``main`` runs unchanged; the spans go to SPANS.json.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from regmap import cli

    tracer = spans.install()
    code = cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
