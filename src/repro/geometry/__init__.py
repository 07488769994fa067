"""Geometry substrate: wind-tunnel domain, wedge body, reflections.

The paper sets up physical space "to simulate a wind tunnel": hard
(specularly reflecting) walls top and bottom, a soft (sink) boundary
downstream, a plunger-type hard boundary upstream, and an inclined flat
plate (wedge) in the test section.  Cells cut by the wedge surface get
fractional volumes used by the collision selection rule and the density
sampling.
"""

from repro.geometry.domain import Domain
from repro.geometry.wedge import Wedge
from repro.geometry.bodies import BODY_KINDS, Cylinder, Step
from repro.geometry import reflect

__all__ = [
    "Domain",
    "Wedge",
    "Cylinder",
    "Step",
    "BODY_KINDS",
    "reflect",
]
