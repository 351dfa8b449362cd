"""The `growth` command's series and its one JSON byte encoding.

Nothing here reads or writes a file.  The module and `cached_growth` keep
their names only because the benchmark (perfbench/tracing.py) times them by
name; they move when that tracer is next edited.
"""

from __future__ import annotations

import json

from .coxeter import (DEFAULT_ELEMENT_BUDGET, build_affine_system,
                      growth_coefficients)

SCHEMA_VERSION = 1


def canonical_json_bytes(obj):
    """The one JSON byte encoding used everywhere: sorted keys, 2-space indent."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")


def series_to_json_dict(series):
    system = build_affine_system(series.family, series.rank)
    return {
        "schema_version": SCHEMA_VERSION,
        "family": series.family,
        "rank": series.rank,
        "coxeter_matrix": [list(row) for row in system.coxeter_matrix],
        "K": series.truncation,
        "coefficients": list(series.coefficients),
        "source": series.source,
    }


def cached_growth(family, rank, truncation, budget=DEFAULT_ELEMENT_BUDGET):
    """The growth series of an affine type, walked afresh on every call.

    It caches nothing: the coset walks make the series cheap, and the name
    stays only for the benchmark's tracer.
    """
    return growth_coefficients(build_affine_system(family, rank),
                               truncation, budget=budget)
