"""Geo-sanitization mechanisms (the paper's planned extensions).

"We also want to design MapReduced versions of geo-sanitization
mechanisms such as geographical masks that modify the spatial coordinate
of a mobility trace by adding some random noise, or aggregate several
mobility traces into a single spatial coordinate.  More sophisticated
geo-sanitization methods will also be integrated at a later stage, such
as spatial cloaking techniques and mix zones." (Section VIII.)

All mechanisms implement the :class:`~repro.sanitization.base.Sanitizer`
protocol: a pure transformation ``TraceArray -> TraceArray``, applied once
to a release's flat multi-user array, whose privacy/utility trade-off is
measured by :mod:`repro.metrics`.
"""

from repro.sanitization.base import Sanitizer
from repro.sanitization.masks import (
    DonutMask,
    GaussianMask,
    PlanarLaplaceMask,
    RoundingMask,
    UniformNoiseMask,
)
from repro.sanitization.aggregation import SpatialAggregator, TemporalAggregator
from repro.sanitization.cloaking import SpatialCloaking
from repro.sanitization.mixzones import MixZone, MixZoneSanitizer
from repro.sanitization.pseudonyms import ANONYMOUS_ID, Pseudonymizer

__all__ = [
    "ANONYMOUS_ID",
    "Pseudonymizer",
    "Sanitizer",
    "DonutMask",
    "GaussianMask",
    "PlanarLaplaceMask",
    "UniformNoiseMask",
    "RoundingMask",
    "SpatialAggregator",
    "TemporalAggregator",
    "SpatialCloaking",
    "MixZone",
    "MixZoneSanitizer",
]
