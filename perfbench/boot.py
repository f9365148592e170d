"""Traced CLI bootstrap: ``python -X importtime perfbench/boot.py OUT ARGS...``.

Times its own import of ``repro.cli``, installs the layer wrappers, runs
``repro.cli.main(ARGS)`` and writes the start time, import time and layer
counters to OUT as JSON.  Standard output is the command's own; the exit status is its own.
"""

import time

STARTED_EPOCH = time.time()  # first statement: interpreter start-up is over

import sys  # noqa: E402

import_started = time.perf_counter()
import repro.cli  # noqa: E402

import_s = time.perf_counter() - import_started

import json  # noqa: E402

import layers  # noqa: E402  (perfbench/ is this script's directory)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    layers.install()
    before = layers.snapshot()
    status = repro.cli.main(argv)  # the wrapped main: its span is cli.handler
    sys.stdout.flush()
    record = {
        "started_epoch": STARTED_EPOCH,
        "import_s": import_s,
        "counters": layers.delta(layers.snapshot(), before),
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
