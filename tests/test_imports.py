"""What a fresh interpreter loads, and that every command runs in one.

`import galaxia` resolves its public names on first access, and the CLI
imports each solver, fibre or generator module inside the command that
runs it.  In-process tests run after other tests have loaded every
module, so they cannot see a call-time import that fails on its own;
each check here starts a new interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# galaxia.__all__: its 69 exports and the 14 submodules that importing
# them binds.
PUBLIC_NAMES = [
    "ARC_BUDGET", "AboveCapError", "ArcColouring", "BadParamsError",
    "CUBIC_GRAPHS", "CyclicError", "CyclicInterval", "DegreeProfile",
    "Digraph", "FibreColouring", "FibreViolation", "GadgetCertificate",
    "GalaxiaError", "GnmkSizes", "InfeasibleError", "InternalDefectError",
    "InvalidColouringError", "LabelledDigraph", "NoApplicableAlgorithmError",
    "NpGadget", "ParseError", "PreconditionViolatedError", "Solution",
    "StarViolation", "TooLargeError", "ValidateError", "WavelengthAssignment",
    "WavelengthViolation", "acircuitic", "acircuitic_colouring", "acyclic",
    "colouring", "constructions", "degree_profile", "digraph",
    "dst4_colouring", "dst_upper_2k1", "edge_colouring_3regular", "errors",
    "exact_dst", "exact_lambda_n", "expand_to_wavelength_assignment",
    "extremal_gnmk", "fibre", "fibre_colouring_acyclic",
    "fibre_colouring_smallm", "fileio", "find_bicoloured_circuit",
    "find_circuit_arcs", "from_class_list", "galaxy", "gnmk_sizes",
    "intervals", "is_acyclic", "lemma_cycle_colouring",
    "lemma_extension_colouring", "np_gadget", "np_reduction", "oracle",
    "random_digraph", "random_labelled_dag", "random_oriented_subcubic",
    "random_subcubic", "read_colouring", "read_digraph", "read_wavelengths",
    "sdr_in_cyclic_interval", "solve", "spanning", "star_colouring_acyclic",
    "star_colouring_subcubic", "strong_components", "subcubic", "theorems",
    "topological_order", "triangle_multidigraph", "upper_bound_acyclic",
    "verify_fibre_colouring", "verify_star_colouring",
    "verify_wavelength_assignment", "write_colouring", "write_digraph",
    "write_wavelengths",
]

SUBMODULES = ["acircuitic", "acyclic", "colouring", "constructions", "digraph",
              "errors", "fibre", "fileio", "galaxy", "intervals", "oracle",
              "spanning", "subcubic", "theorems"]

# What `import galaxia.cli` and one acyclic `solve` need: the parser,
# the reader and writer, the star verifier, the theorem choice and the
# acyclic theorem.
ACYCLIC_SOLVE_MODULES = [
    "galaxia", "galaxia.acyclic", "galaxia.cli", "galaxia.colouring",
    "galaxia.digraph", "galaxia.errors", "galaxia.fileio", "galaxia.intervals",
    "galaxia.oracle", "galaxia.theorems",
]

LOADED = "sorted(m for m in sys.modules if m.startswith('galaxia'))"


def fresh(*args):
    """Run `python *args` in a new interpreter with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def fresh_json(program, *args):
    done = fresh("-c", program, *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_galaxia_loads_no_submodule():
    assert fresh_json(f"import json, sys, galaxia; print(json.dumps({LOADED}))") == [
        "galaxia"]


def test_cli_acyclic_solve_loads_ten_modules(tmp_path):
    tiny = tmp_path / "tiny.dsa"
    tiny.write_text("p dsa 4 3 1\na 0 1 1\na 2 1 1\na 1 3 1\n")
    program = ("import json, sys, galaxia.cli\n"
               "code = galaxia.cli.main(['solve', sys.argv[1], '-o', sys.argv[1] + '.out'])\n"
               f"print(json.dumps([code, {LOADED}]))")
    assert fresh_json(program, str(tiny)) == [0, ACYCLIC_SOLVE_MODULES]


# What `dataclasses` loads in a fresh interpreter: nothing that starts a
# command needs them, since the value types share a plain frozen base.
HEAVY = "[m for m in ('ast', 'dataclasses', 'dis', 'inspect', 'tokenize') if m in sys.modules]"


@pytest.mark.parametrize("start", [
    "import galaxia.cli\n"
    "assert galaxia.cli.main(['solve', sys.argv[1], '-o', sys.argv[1] + '.out']) == 0\n",
    "from galaxia import *\n",
], ids=["cli-solve", "star-import"])
def test_start_up_loads_no_dataclasses_or_inspect(tmp_path, start):
    tiny = tmp_path / "tiny.dsa"
    tiny.write_text("p dsa 4 3 1\na 0 1 1\na 2 1 1\na 1 3 1\n")
    program = (f"import json, sys\nbefore = {HEAVY}\n{start}"
               f"print(json.dumps([before, {HEAVY}]))")
    before, after = fresh_json(program, str(tiny))
    assert after == before


def test_public_names_resolve_in_a_fresh_process():
    program = (
        "import json, sys\n"
        "limit = sys.getrecursionlimit()\n"
        "import galaxia\n"
        "names = list(galaxia.__all__)\n"
        "missing = [n for n in names if not hasattr(galaxia, n)]\n"
        "public = [n for n in dir(galaxia) if not n.startswith('_')]\n"
        "print(json.dumps([names, missing, public, sys.getrecursionlimit() == limit]))")
    names, missing, public, same_limit = fresh_json(program)
    assert names == PUBLIC_NAMES
    assert missing == []
    assert public == PUBLIC_NAMES
    assert same_limit


def test_star_import_binds_every_public_name():
    program = (
        "import json, sys\n"
        "limit = sys.getrecursionlimit()\n"
        "from galaxia import *\n"
        "import galaxia\n"
        "bound = sorted(n for n in galaxia.__all__ if globals().get(n) is getattr(galaxia, n))\n"
        f"print(json.dumps([bound, {LOADED}, sys.getrecursionlimit() == limit]))")
    bound, loaded, same_limit = fresh_json(program)
    assert bound == PUBLIC_NAMES
    assert loaded == ["galaxia"] + [f"galaxia.{name}" for name in SUBMODULES]
    assert same_limit


def test_submodule_and_dir_in_process():
    # a submodule name resolves to the module, and dir() lists every
    # public name, whether or not it has been accessed yet, besides the
    # modules other tests imported (galaxia.cli)
    import galaxia
    import galaxia.fibre

    assert galaxia.__getattr__("fibre") is galaxia.fibre
    names = dir(galaxia)
    assert names == sorted(names) and set(PUBLIC_NAMES) <= set(names)


def test_unknown_name_raises_attribute_error():
    import galaxia

    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        galaxia.nonexistent  # noqa: B018


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Instances and outputs for the fresh-process commands."""
    from galaxia import LabelledDigraph, write_digraph
    from galaxia.cli import main

    root = tmp_path_factory.mktemp("fresh")
    instances = {
        "dag": LabelledDigraph(3, 1, ((0, 1, 1), (0, 2, 1), (1, 2, 1))),
        "dag2": LabelledDigraph(4, 2, ((0, 1, 1), (0, 1, 2), (1, 2, 1),
                                       (0, 2, 2), (2, 3, 1))),
        "circuit": LabelledDigraph(5, 1, tuple((i, (i + 1) % 5, 1) for i in range(5))),
    }
    paths = {}
    for name, ld in instances.items():
        paths[name] = str(root / f"{name}.dsa")
        with open(paths[name], "w", encoding="utf-8") as handle:
            write_digraph(handle, ld)
    paths["col"] = str(root / "circuit.col")
    paths["wl"] = str(root / "circuit.wl")
    assert main(["solve", paths["circuit"], "--algorithm", "acircuitic",
                 "-o", paths["col"]]) == 0
    assert main(["solve", paths["circuit"], "--fibres", "2", "-o", paths["wl"]]) == 0
    paths["out"] = str(root / "out.txt")
    return paths


FAMILIES = ["gnmk", "random", "subcubic", "oriented-subcubic", "dag", "triangle"]
COMMANDS = [
    *[(["generate", "--family", family, "-o", "{out}"], None) for family in FAMILIES],
    (["solve", "{dag}"], "algorithm=acyclic "),
    (["solve", "{dag}", "--algorithm", "acyclic"], "algorithm=acyclic "),
    *[(["solve", "{circuit}", "--algorithm", algo, "-o", "{out}"], f"algorithm={algo} ")
      for algo in ("2k1", "subcubic", "diregular4", "acircuitic")],
    (["solve", "{circuit}", "--algorithm", "smallm", "--fibres", "2"],
     "algorithm=smallm fibres=2 "),
    (["solve", "{dag2}", "--fibres", "2", "-o", "{out}"], "algorithm=acyclic fibres=2 "),
    (["solve", "{circuit}", "--fibres", "2", "-o", "{out}"], "algorithm=smallm fibres=2 "),
    (["verify", "{circuit}", "{col}"], "ok"),
    (["verify", "{circuit}", "{col}", "--acircuitic"], "ok"),
    (["verify", "{circuit}", "{wl}", "--fibres", "2"], "ok"),
    (["exact", "{circuit}", "-o", "{out}"], "dst = 3"),
    (["exact", "{circuit}", "--fibres", "2"], "lambda_2 = 1"),
    (["exact", "{circuit}", "--fibres", "2", "-o", "{out}"], "lambda_2 = 1"),
    (["reduce", "--named", "k4", "--check"], "reduced k4: "),
]


@pytest.mark.parametrize("argv, first", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_runs_in_a_fresh_process(files, argv, first):
    done = fresh("-c", "import sys; from galaxia.cli import main; sys.exit(main())",
                 *[arg.format(**files) for arg in argv])
    assert (done.returncode, done.stderr) == (0, "")
    if first is not None:
        assert done.stdout.startswith(first)
