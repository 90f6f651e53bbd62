"""Shared session builder and argument parser of the jobs/ entrypoints.

Run a job as ``spark-submit jobs/<job>.py [args]`` or with plain
``python``; ``-h`` lists its positional arguments and their defaults.
"""
from __future__ import annotations

import argparse
import inspect
import math

from pyspark.sql import SparkSession

from repro.gasx.engine import SQL_CONF, STATIC_CONF


def get_spark(app: str) -> SparkSession:
    builder = SparkSession.builder.appName(app)
    for key, value in {**SQL_CONF, **STATIC_CONF}.items():
        builder = builder.config(key, value)
    s = builder.getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s


def run_main(main, argv: list[str] | None = None) -> None:
    """Call a job's ``main`` with the command line's positional arguments:
    one optional argument per parameter, with ``main``'s default, of the
    default's type (float scale, int k), finite and > 0. A bad value or an
    extra argument exits with status 2 and a usage line before ``main``
    runs, so before any graph is generated or Spark starts."""
    parser = argparse.ArgumentParser()
    for p in inspect.signature(main).parameters.values():
        parser.add_argument(p.name, nargs="?", type=type(p.default), default=p.default,
                            help=f"default {p.default}")
    args = vars(parser.parse_args(argv))
    for name, value in args.items():
        if not (math.isfinite(value) and value > 0):
            parser.error(f"argument {name}: must be finite and > 0, got {value!r}")
    main(**args)
