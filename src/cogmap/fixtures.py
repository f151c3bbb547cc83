"""Bundled example maps and their recorded golden results.

Seven small cognitive maps ship with the package, each as CSV and JSON plus
a golden file under ``fixtures/golden/`` recording the expected influence
matrix (3 decimals), vertex scores, ranking, eigenvalue magnitudes and the
stability verdict.  Golden entries listed under ``*_deviations`` are cells
whose recorded value is known to carry a transcription slip; tests verify
those against an independently coded oracle instead.

The four-vertex trio exercises the method boundaries (stable, unstable with
unit weights, unstable with heavyweight edges); the seven-vertex maps are
classic worked models (urban waste removal, electricity consumption, urban
sanitation, and the sanitation map with all weights doubled).
"""

from __future__ import annotations

import json
from pathlib import Path

from .maps import CognitiveMap, load_map

__all__ = ["FIXTURE_NAMES", "fixture_path", "load_fixture", "golden"]

FIXTURE_NAMES = (
    "four_stable",
    "four_unstable",
    "four_heavy",
    "city_waste",
    "electricity",
    "sanitation",
    "sanitation_doubled",
)

_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str, fmt: str = "csv") -> Path:
    """Path of a bundled map file (``fmt`` is ``"csv"`` or ``"json"``)."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return _DIR / f"{name}.{fmt}"


def load_fixture(name: str, fmt: str = "csv") -> CognitiveMap:
    """Load a bundled map by name."""
    return load_map(fixture_path(name, fmt), fmt)


def golden(name: str) -> dict:
    """Recorded expected results for a bundled map."""
    path = fixture_path(name).parent / "golden" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))
