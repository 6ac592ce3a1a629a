"""Plumbed surfaces, arc calculus, and partial open books.

Submodules:

* surface: polygon presentations of compact oriented surfaces with boundary
* arcs: properly embedded arcs, intersection counts, veering comparisons
* openbook: partial open books, right-veering reports, contact verdicts
* plumbing: twisted annuli, star plumbings, pretzel Seifert surfaces
* documents: JSON round-tripping for every object above
* cli: the command-line front end
"""

from .arcs import (
    Arc,
    Crossing,
    Divergence,
    first_divergence,
    interior_intersections,
    is_embedded,
    is_isotopic,
    minimal_position,
    reduce,
    reverse,
)
from .openbook import (
    ArcVeer,
    ContactVerdict,
    PartialOpenBook,
    VeeringReport,
    VerdictStatus,
    contact_verdict,
    dividing_set_counts,
    free_site,
    positive_stabilization,
    validate_pob,
    veering_report,
)
from .plumbing import (
    PretzelSpec,
    ProductDiskSystem,
    StarPlumbing,
    TwistedAnnulus,
    associated_pob,
    is_strongly_quasipositive,
    pob_from_product_disks,
    pretzel_decompose,
    product_disk_basis,
    star_sum_surface,
)
from .surface import (
    Boundary,
    BoundaryPoint,
    End,
    Glued,
    PolygonPresentation,
    boundary_components,
    euler_characteristic,
    genus,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcVeer",
    "Boundary",
    "BoundaryPoint",
    "ContactVerdict",
    "Crossing",
    "Divergence",
    "End",
    "Glued",
    "PartialOpenBook",
    "PolygonPresentation",
    "PretzelSpec",
    "ProductDiskSystem",
    "StarPlumbing",
    "TwistedAnnulus",
    "VeeringReport",
    "VerdictStatus",
    "associated_pob",
    "boundary_components",
    "contact_verdict",
    "dividing_set_counts",
    "euler_characteristic",
    "first_divergence",
    "free_site",
    "genus",
    "interior_intersections",
    "is_embedded",
    "is_isotopic",
    "is_strongly_quasipositive",
    "minimal_position",
    "pob_from_product_disks",
    "positive_stabilization",
    "pretzel_decompose",
    "product_disk_basis",
    "reduce",
    "reverse",
    "star_sum_surface",
    "validate",
    "validate_pob",
    "veering_report",
]
