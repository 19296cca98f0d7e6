"""CLLI-code handling.

Common Language Location Identifier codes name telephone-plant
buildings: four letters of city abbreviation, two letters of state, and
an optional building designator (``SNDGCA01`` = a San Diego, CA
building).  Charter embeds CLLI-style strings in its rDNS (Fig 5a) and
AT&T uses six-character city+state region tags in its lightspeed names
(Fig 12); both geolocate a router to a building or metro.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

_CLLI_RE = re.compile(r"^([A-Z]{4})([A-Z]{2})(\w*)$", re.IGNORECASE)

#: The 50 states + DC, for validating the state part of a CLLI.
_STATES = {
    "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "DC", "FL", "GA", "HI",
    "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD", "MA", "MI", "MN",
    "MS", "MO", "MT", "NE", "NV", "NH", "NJ", "NM", "NY", "NC", "ND", "OH",
    "OK", "OR", "PA", "RI", "SC", "SD", "TN", "TX", "UT", "VT", "VA", "WA",
    "WV", "WI", "WY",
}


@dataclass(frozen=True)
class Clli:
    """A parsed CLLI code: city abbreviation, state, building part."""

    city_code: str
    state: str
    building: str = ""

    @property
    def place(self) -> str:
        """City+state part (the metro identifier)."""
        return f"{self.city_code}{self.state}"


def parse_clli(text: str) -> Optional[Clli]:
    """Parse a CLLI-style string; None when the state part is invalid."""
    match = _CLLI_RE.match(text.strip())
    if match is None:
        return None
    city_code, state, building = match.groups()
    if state.upper() not in _STATES:
        return None
    return Clli(city_code.upper(), state.upper(), building.upper())


def clli_state(text: str) -> Optional[str]:
    """The state encoded in a CLLI-style string, if valid."""
    parsed = parse_clli(text)
    return parsed.state if parsed else None
