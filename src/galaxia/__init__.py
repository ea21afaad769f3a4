"""Galaxy decompositions, directed star colourings and multi-fibre
wavelength assignment for WDM star networks.

The package is organised by graph class: `galaxy` covers the general
2k+1 bound via forest decompositions, `acyclic` the 2k bound with
cyclic-interval certificates, `subcubic` the 3-colour theorem,
`spanning` the 4-colour theorem for in/outdegree two, `acircuitic` the
4-colour theorem without bicoloured circuits, and `fibre` the
n-fibre/wavelength layer.  `oracle` holds the exact solvers and
verifiers everything else is tested against, `constructions` the
instance generators, `cli` the command line.
"""

from .acircuitic import acircuitic_colouring, list_colouring_acyclic
from .acyclic import star_colouring_acyclic
from .colouring import ArcColouring, from_class_list
from .constructions import (ARC_BUDGET, CUBIC_GRAPHS, GadgetCertificate,
                            GnmkSizes, NpGadget, extremal_gnmk, gnmk_sizes,
                            np_gadget, np_reduction, random_digraph,
                            random_labelled_dag, random_oriented_subcubic,
                            random_subcubic, triangle_multidigraph)
from .digraph import (DegreeProfile, Digraph, LabelledDigraph, degree_profile,
                      find_circuit_arcs, is_acyclic, split_acyclic_eulerian,
                      strong_components, topological_order)
from .errors import (AboveCapError, BadListsError, BadParamsError,
                     BadShapeError, CyclicError, DegreeTooHighError,
                     GalaxiaError, HasDigonError, HasK4Error, InfeasibleError,
                     InternalDefectError, InvalidColouringError,
                     NoApplicableAlgorithmError, NotCubicError, NotForestError,
                     NotNiceError, NotSubcubicError, ParseError,
                     PreconditionViolatedError, SizeOverflowError,
                     TooLargeError, ValidateError)
from .fibre import (FibreColouring, FibreViolation, WavelengthAssignment,
                    WavelengthViolation, expand_to_wavelength_assignment,
                    fibre_colouring_acyclic, fibre_colouring_smallm,
                    fibre_counts, upper_bound_acyclic, verify_fibre_colouring,
                    verify_wavelength_assignment)
from .fileio import (read_colouring, read_digraph, read_wavelengths,
                     write_colouring, write_digraph, write_wavelengths)
from .galaxy import (ForestGalaxyDecomposition, dst_upper_2k1,
                     forest_to_two_galaxies, frank_condition_check,
                     is_forest_arcs, is_galaxy_arcs, is_k_nice,
                     u_suitable_decomposition)
from .intervals import (CyclicInterval, interval_complement, interval_members,
                        sdr_in_cyclic_interval, smallest_interval_containing)
from .oracle import (StarViolation, arc_limit_default, edge_colouring_3regular,
                     exact_dst, exact_lambda_n, find_bicoloured_circuit,
                     verify_star_colouring)
from .spanning import Galaxy, OrderedDigraph, dst4_colouring, ordig_witness, \
    spanning_galaxy
from .subcubic import (brooks_three_colouring, lemma_cycle_colouring,
                       lemma_extension_colouring, star_colouring_subcubic)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
