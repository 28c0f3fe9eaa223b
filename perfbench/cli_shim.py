"""`python -m selzeta` with the layer spans installed, for traced cli-cold runs.

Usage: python3 perfbench/cli_shim.py <selzeta arguments>

Runs the command line as `python -m selzeta` would and appends one
`spans.TRACE_MARK <json>` line with the layer totals to stderr.
"""

import json
import sys

import spans

if __name__ == "__main__":
    tracer = spans.install()
    from selzeta import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        print(spans.TRACE_MARK + json.dumps(tracer.raw()), file=sys.stderr)
    sys.exit(code)
