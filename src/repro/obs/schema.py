"""The metrics-snapshot JSON schema and a dependency-free validator.

``MemoryManager.metrics_snapshot()`` (and ``python -m repro.tools.cli
obs-dump``) emit one JSON document per run; :data:`SNAPSHOT_SCHEMA`
pins its shape so CI can catch accidental format drift.  The checked-in
copy lives at ``docs/obs_snapshot.schema.json``; :func:`validate` is a
minimal JSON-Schema-subset validator (type / required / properties /
patternProperties / additionalProperties / items / minimum) so the
smoke test needs no third-party package.
"""

from __future__ import annotations

import re
from typing import List

_HISTOGRAM_SUMMARY = {
    "type": "object",
    "required": ["count", "min", "max", "mean", "p50", "p90", "p99"],
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "mean": {"type": "number"},
        "p50": {"type": "number"},
        "p90": {"type": "number"},
        "p99": {"type": "number"},
    },
}

#: Shape of one ``metrics_snapshot()`` document.
SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["meta", "counters", "gauges", "histograms"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["manager", "virtual_ms", "generation"],
            "properties": {
                "manager": {"type": "string"},
                "virtual_ms": {"type": "number", "minimum": 0},
                "generation": {"type": "integer", "minimum": 0},
                "page_size": {"type": "integer", "minimum": 1},
            },
        },
        "counters": {
            "type": "object",
            # The staged fault engine's per-stage counters (one per
            # executed pipeline stage: locate, authorize, resolve,
            # materialize, install), the in-flight fault table
            # (begin / coalesced) and the pressure board's
            # per-space ledgers (``space.*{space=N}`` plus rollups) —
            # plus their labeled series.  ``vbus.*`` counts the
            # vectorized access path's batches and fast/fallback split.
            "patternProperties": {
                r"^engine\.stage\.": {"type": "integer", "minimum": 0},
                r"^engine\.inflight\.": {"type": "integer", "minimum": 0},
                r"^space\.": {"type": "integer", "minimum": 0},
                r"^balancer\.": {"type": "integer", "minimum": 0},
                r"^throttle\.": {"type": "integer", "minimum": 0},
                r"^vbus\.": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "gauges": {
            "type": "object",
            # PSI stall fractions are ratios in [0, 1]; the remaining
            # psi.* and space.* gauges (totals, counts, residency) are
            # non-negative scalars.  ``trace.*`` records the last
            # trace replay's access count.
            "patternProperties": {
                r"^trace\.": {"type": "number", "minimum": 0},
                r"^psi\.memory\.(some|full)\.avg": {
                    "type": "number", "minimum": 0,
                },
                r"^psi\.": {"type": "number", "minimum": 0},
                r"^space\.": {"type": "number", "minimum": 0},
                r"^balancer\.": {"type": "number", "minimum": 0},
                r"^ws\.": {"type": "number", "minimum": 0},
                r"^throttle\.": {"type": "number", "minimum": 0},
            },
            "additionalProperties": {"type": "number"},
        },
        "histograms": {
            "type": "object",
            "additionalProperties": _HISTOGRAM_SUMMARY,
        },
    },
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _check_type(instance, expected: str, path: str, errors: List[str]) -> bool:
    if expected == "number":
        ok = isinstance(instance, (int, float)) \
            and not isinstance(instance, bool)
    elif expected == "integer":
        ok = isinstance(instance, int) and not isinstance(instance, bool)
    else:
        ok = isinstance(instance, _TYPES[expected])
    if not ok:
        errors.append(f"{path}: expected {expected}, "
                      f"got {type(instance).__name__}")
    return ok


def _validate(instance, schema: dict, path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None and not _check_type(instance, expected, path,
                                               errors):
        return
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        extra_schema = schema.get("additionalProperties")
        for key, value in instance.items():
            if key in properties:
                _validate(value, properties[key], f"{path}.{key}", errors)
                continue
            matched = False
            for pattern, pattern_schema in patterns.items():
                if re.search(pattern, key):
                    matched = True
                    _validate(value, pattern_schema, f"{path}.{key}",
                              errors)
            if not matched and isinstance(extra_schema, dict):
                _validate(value, extra_schema, f"{path}.{key}", errors)
    elif isinstance(instance, list):
        item_schema = schema.get("items")
        if isinstance(item_schema, dict):
            for index, item in enumerate(instance):
                _validate(item, item_schema, f"{path}[{index}]", errors)
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        minimum = schema.get("minimum")
        if minimum is not None and instance < minimum:
            errors.append(f"{path}: {instance} below minimum {minimum}")


def validate(instance, schema: dict) -> List[str]:
    """Validate *instance* against *schema*; returns a list of error
    strings (empty means valid)."""
    errors: List[str] = []
    _validate(instance, schema, "$", errors)
    return errors
