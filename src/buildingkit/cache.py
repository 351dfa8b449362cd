"""Disk cache for enumerated growth series.

One JSON file per (family, rank, K) under a cache directory, with a readable
name like growth-A2-K12.json.  Writes are atomic (temp file in the same
directory, then rename).  Reads validate everything they depend on; any
corrupt or mismatched file is treated as a miss with a logged warning and is
never silently reused.  A hit reconstructs a series byte-identical to what a
fresh enumeration would serialize to.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile

from .coxeter import (DEFAULT_ELEMENT_BUDGET, GrowthSeries,
                      build_affine_system, growth_coefficients)

log = logging.getLogger(__name__)

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


def cache_path(cache_dir, family, rank, truncation):
    return os.path.join(cache_dir, f"growth-{family}{rank}-K{truncation}.json")


def cache_put(cache_dir, series):
    """Atomically write the series; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, series.family, series.rank, series.truncation)
    payload = canonical_json_bytes(series_to_json_dict(series))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def cache_get(cache_dir, family, rank, truncation):
    """Validated read; returns a GrowthSeries or None on miss.

    A missing file is a plain miss.  A file that exists but fails any check
    (unparsable, wrong schema version, mismatched identity or Coxeter matrix,
    malformed coefficients) is a miss with a warning.
    """
    path = cache_path(cache_dir, family, rank, truncation)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        log.warning("cache file %s unreadable (%s); recomputing", path, exc)
        return None
    try:
        data = json.loads(raw)
        # repr tells JSON true and false from the 1 and 0 they compare equal to
        if repr(data["schema_version"]) != repr(SCHEMA_VERSION):
            raise ValueError(f"schema_version {data['schema_version']}")
        if repr((data["family"], data["rank"], data["K"])) != repr((family, rank, truncation)):
            raise ValueError("identity fields do not match the file name")
        system = build_affine_system(family, rank)
        if repr(data["coxeter_matrix"]) != repr([list(r) for r in system.coxeter_matrix]):
            raise ValueError("stored Coxeter matrix disagrees")
        coeffs = data["coefficients"]
        if (len(coeffs) != truncation + 1
                or not all(type(a) is int and a >= 0 for a in coeffs)
                or coeffs[0] != 1):
            raise ValueError("malformed coefficient list")
        source = data["source"]
        if not isinstance(source, str):
            raise ValueError("malformed source")
    except (ValueError, KeyError, TypeError) as exc:
        log.warning("corrupt cache file %s (%s); recomputing", path, exc)
        return None
    return GrowthSeries(family=family, rank=rank, truncation=truncation,
                        coefficients=tuple(coeffs), source=source)


def cached_growth(family, rank, truncation, cache_dir=None,
                  budget=DEFAULT_ELEMENT_BUDGET):
    """Growth series through the cache; enumeration fills it on a miss.

    A hit is served only within the budget.  Past it the enumeration runs
    and raises the BudgetError an uncached run raises, since the walk fails
    exactly when the cumulative sphere sizes up to K exceed the budget.
    """
    if cache_dir is not None:
        hit = cache_get(cache_dir, family, rank, truncation)
        if hit is not None and sum(hit.coefficients) <= budget:
            return hit
    series = growth_coefficients(build_affine_system(family, rank),
                                 truncation, budget=budget)
    if cache_dir is not None:
        cache_put(cache_dir, series)
    return series
