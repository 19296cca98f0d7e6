"""The validated ``bias-report`` artifact.

One JSON document per lab run: species estimates next to their ground
truth, the optimized placement next to its random baseline, and the
streaming digest-parity verdict.  CI regenerates the seeded scenario
and requires it to equal the committed copy, which
``tests/bias/test_report.py`` gates (estimator accuracy floor,
placement beating random, parity true).
"""

from __future__ import annotations

import json

from repro.bias.lab import BiasLabResult
from repro.validate.schema import ARTIFACT_VERSIONS, parse_artifact, validate_artifact


def build_bias_report(result: BiasLabResult) -> dict:
    """Lift a lab result into the validated artifact payload."""
    payload = {
        "schema": ARTIFACT_VERSIONS["bias-report"],
        "kind": "bias-report",
        "isp": result.isp,
        "seed": result.seed,
        "route_model": result.route_model,
        "vp_count": result.vp_count,
        "targets": result.targets,
        "species": {
            "cos": result.co_species.as_dict(),
            "links": result.link_species.as_dict(),
        },
        "placement": result.placement.as_dict(),
        "streaming": result.stream.as_dict(),
    }
    return validate_artifact(payload, kind="bias-report")


def bias_report_to_json(result: BiasLabResult) -> str:
    return json.dumps(build_bias_report(result), indent=2, sort_keys=True)


def bias_report_from_json(text: str) -> dict:
    """Parse + validate a serialized bias report."""
    return parse_artifact(text, kind="bias-report")
