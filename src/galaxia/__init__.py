"""Galaxy decompositions, directed star colourings and multi-fibre
wavelength assignment for WDM star networks.

The package is organised by graph class: `galaxy` covers the general
2k+1 bound via forest decompositions, `acyclic` the 2k bound with
cyclic-interval certificates, `subcubic` the 3-colour theorem,
`spanning` the 4-colour theorem for in/outdegree two, `acircuitic` the
4-colour theorem without bicoloured circuits, and `fibre` the
n-fibre/wavelength layer.  `theorems.solve` picks one for an instance
and verifies its output.  `oracle` holds the exact solvers and verifiers
everything else is tested against, `constructions` the instance
generators, `cli` the command line.

`import galaxia` loads no submodule: each public name below is imported
from its module on first access (PEP 562), so a program loads only the
modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule with the public names it exports through the package.
_EXPORTS = {
    "acircuitic": ("acircuitic_colouring",),
    "acyclic": ("star_colouring_acyclic",),
    "colouring": ("ArcColouring", "from_class_list"),
    "constructions": ("ARC_BUDGET", "CUBIC_GRAPHS", "GadgetCertificate",
                      "GnmkSizes", "NpGadget", "extremal_gnmk", "gnmk_sizes",
                      "np_gadget", "np_reduction", "random_digraph",
                      "random_labelled_dag", "random_oriented_subcubic",
                      "random_subcubic", "triangle_multidigraph"),
    "digraph": ("DegreeProfile", "Digraph", "LabelledDigraph", "degree_profile",
                "find_circuit_arcs", "is_acyclic", "strong_components",
                "topological_order"),
    "errors": ("AboveCapError", "BadParamsError", "CyclicError", "GalaxiaError",
               "InfeasibleError", "InternalDefectError", "InvalidColouringError",
               "NoApplicableAlgorithmError", "ParseError",
               "PreconditionViolatedError", "TooLargeError", "ValidateError"),
    "fibre": ("FibreColouring", "FibreViolation", "WavelengthAssignment",
              "WavelengthViolation", "expand_to_wavelength_assignment",
              "fibre_colouring_acyclic", "fibre_colouring_smallm",
              "upper_bound_acyclic", "verify_fibre_colouring",
              "verify_wavelength_assignment"),
    "fileio": ("read_colouring", "read_digraph", "read_wavelengths",
               "write_colouring", "write_digraph", "write_wavelengths"),
    "galaxy": ("dst_upper_2k1",),
    "intervals": ("CyclicInterval", "sdr_in_cyclic_interval"),
    "oracle": ("StarViolation", "edge_colouring_3regular", "exact_dst",
               "exact_lambda_n", "find_bicoloured_circuit",
               "verify_star_colouring"),
    "spanning": ("dst4_colouring",),
    "subcubic": ("lemma_cycle_colouring", "lemma_extension_colouring",
                 "star_colouring_subcubic"),
    "theorems": ("Solution", "solve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
