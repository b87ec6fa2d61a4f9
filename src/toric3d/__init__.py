"""Superselection-sector decision procedures for the 3d toric code on Z^3.

Submodules:

* ``lattice``    geometry of the cubic lattice and its dual
* ``paths``      finite/infinite dual paths, surfaces, tail analysis
* ``transforms`` energy accounting, straightening, surgery, linking
* ``sectors``    ground-state/ground-sector verdicts, labels, enumeration
* ``stabilizer`` exact F2 verifier on finite blocks
* ``cli``        JSON command line interface
"""

from .lattice import Direction, Edge, Face, Region, Vertex, region_of
from .paths import (
    DirectionSet,
    FinitePath,
    InfinitePathSpec,
    Surface,
    infinity_directions,
    is_monotonic,
    path_equivalent,
    spec_from_strings,
    truncate,
    validate_finite_path,
    validate_surface,
)
from .sectors import (
    SectorLabel,
    SectorVerdict,
    VerdictKind,
    charge_parity,
    classify,
    enumerate_gsc_solutions,
    sector_label,
)
from .transforms import (
    Configuration,
    EnergyReport,
    energy,
    lift,
    linking_parity,
    make_configuration,
    project,
    straighten_fixpoint,
    straighten_once,
    surgery,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Direction",
    "DirectionSet",
    "Edge",
    "EnergyReport",
    "Face",
    "FinitePath",
    "InfinitePathSpec",
    "Region",
    "SectorLabel",
    "SectorVerdict",
    "Surface",
    "VerdictKind",
    "Vertex",
    "charge_parity",
    "classify",
    "energy",
    "enumerate_gsc_solutions",
    "infinity_directions",
    "is_monotonic",
    "lift",
    "linking_parity",
    "make_configuration",
    "path_equivalent",
    "project",
    "region_of",
    "sector_label",
    "spec_from_strings",
    "straighten_fixpoint",
    "straighten_once",
    "surgery",
    "truncate",
    "validate_finite_path",
    "validate_surface",
    "__version__",
]
