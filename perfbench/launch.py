"""Run one crspin command line the way the ``crspin`` script does, and time it.

Usage::

    python3 perfbench/launch.py RECORD.json TRACE(0|1) run --config cfg.json --out DIR

Writes RECORD.json when the process ends: ``setup_end``, the clock reading
when ``cli.build_model`` returned (the first check starts right after it),
and with TRACE=1 the spans and counters of ``tracing``.  The clock is
``time.perf_counter``, which is system-wide on Linux, so the parent can
subtract its own spawn time from ``setup_end``.  Exits with crspin's code.
"""

import json
import sys
import time


def main(argv) -> int:
    record_path, trace, crspin_argv = argv[0], argv[1] == "1", argv[2:]
    import crspin
    import crspin.cli as cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, crspin)
    record = {"setup_end": None}
    build_model = cli.build_model

    def stamped_build_model(config):
        model = build_model(config)
        record["setup_end"] = time.perf_counter()
        return model

    cli.build_model = stamped_build_model
    try:
        return cli.main(crspin_argv)
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counters"] = tracer.counters
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
