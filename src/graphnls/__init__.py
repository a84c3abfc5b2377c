"""Bound states of the focusing subcritical NLS equation on noncompact
metric graphs, computed by doubly-constrained energy minimization."""

from .graphs import (
    Edge,
    GraphError,
    MetricGraph,
    double_bridge_graph,
    example_graph,
    halfline_graph,
    line_graph,
    load_graph,
    normalize,
    star_graph,
)
from .mesh import GraphFunction, Mesh, MeshError, argmax, build_mesh, interpolate, place_profile
from .soliton import (
    SolitonError,
    SolitonModel,
    compact_competitor,
    energy_levels,
    gn_sharp_constant,
    make_model,
    soliton_profile,
)
from .functional import (
    EnergyBreakdown,
    FunctionalError,
    energy,
    ge3_bound,
    gn_ratio,
    grad_energy,
    kinetic,
    linf_ratio,
    mass,
    preimage_count,
    rearrangement,
)
from .solve import (
    SolveConfig,
    SolveError,
    SolveReport,
    ThresholdReport,
    bound_state_catalogue,
    ground_state,
    lagrange_multiplier,
    minimize_on_edge,
    project_mass,
    scan_mass_threshold,
)
from .verify import (
    VerificationReport,
    certify,
    el_residual,
    kirchhoff_residual,
    localization_margin,
)
from .evolve import (
    EvolveError,
    StabilityReport,
    evolve,
    orbital_distance,
    stability_probe,
)

__version__ = "0.1.0"
