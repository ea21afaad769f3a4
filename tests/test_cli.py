"""End-to-end runs of the console entry point."""
import argparse
import contextlib
import functools
import gc
import hashlib
import io
import os
import random
import re
import stat
import subprocess
import sys
import threading

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import assume, given, settings, strategies as st

from galaxia import (CUBIC_GRAPHS, ArcColouring, CyclicInterval, FibreColouring,
                     LabelledDigraph, WavelengthAssignment, digraph, fibre,
                     read_colouring, read_digraph, read_wavelengths,
                     write_digraph)
from galaxia import cli, errors, fileio
from galaxia.cli import main


def write_instance(path, ld):
    with open(path, "w", encoding="utf-8") as handle:
        write_digraph(handle, ld)


def dag_instance(tmp_path):
    path = tmp_path / "dag.dsa"
    write_instance(path, LabelledDigraph(3, 1, ((0, 1, 1), (0, 2, 1), (1, 2, 1))))
    return str(path)


def circuit_instance(tmp_path, length=5):
    path = tmp_path / "circuit.dsa"
    arcs = tuple((i, (i + 1) % length, 1) for i in range(length))
    write_instance(path, LabelledDigraph(length, 1, arcs))
    return str(path)


def test_generate_writes_provenance(tmp_path, capsys):
    out = tmp_path / "g.dsa"
    code = main(["generate", "--family", "gnmk", "--n", "1", "--m", "1",
                 "--k", "1", "-o", str(out)])
    assert code == 0
    text = out.read_text()
    assert "generator=gnmk" in text
    assert "seed=none" in text
    with open(out, encoding="utf-8") as handle:
        ld = read_digraph(handle)
    assert ld.vertex_count == 9 and ld.arc_count == 8


def test_generate_random_is_seeded(tmp_path):
    first = tmp_path / "a.dsa"
    second = tmp_path / "b.dsa"
    args = ["generate", "--family", "random", "--vertices", "12", "--seed", "3"]
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
    assert "seed=3" in first.read_text()


def test_generate_rejects_bad_params(capsys):
    assert main(["generate", "--family", "gnmk", "--k", "0"]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_generate_triangle_labels_encode_copies(tmp_path):
    out = tmp_path / "t.dsa"
    assert main(["generate", "--family", "triangle", "--multiplicity", "2",
                 "-o", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        ld = read_digraph(handle)
    assert ld.arc_count == 6 and ld.label_count == 2


@pytest.mark.parametrize("argv, digest", [
    (["generate", "--family", "random", "--vertices", "300", "--in-cap", "3",
      "--out-cap", "3", "--seed", "7"],
     "3e1510cf8c51c1aea301c28779e61fffb75bf8211771de489cb03d45e4256a0c"),
    (["generate", "--family", "subcubic", "--vertices", "300", "--seed", "7"],
     "9efde36afefeedfb647b515ce92e30c4af9cd85cbcc4a1cb408f41fa201673c5"),
    (["generate", "--family", "oriented-subcubic", "--vertices", "300",
      "--seed", "7"],
     "6b3d2a7f0b52c751add89afebf49edf74b51f7c0f8c8699fbc370e6b1bee8e8c"),
    (["reduce", "--named", "petersen"],
     "204465864009debeda9d59f77b264169e26201e54e23aaaef270721b9285782d"),
], ids=["random", "subcubic", "oriented-subcubic", "reduce-petersen"])
def test_labelling_a_checked_digraph_checks_no_arc_again(tmp_path, monkeypatch,
                                                          argv, digest):
    # the generator checks its digraph once; labelling its arcs 1 for
    # the file adds no second check and keeps the bytes
    checks = []
    real = digraph._check_arcs

    def counting(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(digraph, "_check_arcs", counting)
    out = tmp_path / "out.dsa"
    assert main([*argv, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if argv[0] == "generate":
        assert len(checks) == 1


def test_solve_auto_picks_acyclic(tmp_path, capsys):
    out = tmp_path / "col.txt"
    code = main(["solve", dag_instance(tmp_path), "-o", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "algorithm=acyclic" in summary
    text = out.read_text()
    assert "c 0 " in text and "i " in text  # colours plus interval report


def test_solve_auto_picks_subcubic_for_circuit(tmp_path, capsys):
    code = main(["solve", circuit_instance(tmp_path)])
    assert code == 0
    assert "algorithm=subcubic" in capsys.readouterr().out


def test_solve_explicit_algorithm_mismatch_exits_3(tmp_path, capsys):
    code = main(["solve", circuit_instance(tmp_path), "--algorithm", "acyclic"])
    assert code == 3
    assert "does not apply" in capsys.readouterr().err


def test_solve_fibres_smallm(tmp_path, capsys):
    code = main(["solve", circuit_instance(tmp_path), "--fibres", "2"])
    assert code == 0
    assert "smallm" in capsys.readouterr().out


def test_solve_fibres_cyclic_large_m_exits_3(tmp_path, capsys):
    code = main(["solve", circuit_instance(tmp_path), "--fibres", "1"])
    assert code == 3
    assert "no applicable algorithm" in capsys.readouterr().err


@pytest.mark.parametrize("make, args", [
    (circuit_instance, ["solve", "--fibres", "0"]),
    (dag_instance, ["solve", "--fibres", "0"]),
    (circuit_instance, ["solve", "--algorithm", "smallm", "--fibres", "-1"]),
    (dag_instance, ["verify", "-", "--fibres", "0"]),
    (circuit_instance, ["exact", "--fibres", "0"]),
    (circuit_instance, ["exact", "--arc-limit", "0"]),
    (circuit_instance, ["exact", "--arc-limit", "many"]),
    (None, ["reduce", "--named", "k4", "--check", "--arc-limit", "0"]),
])
def test_flags_below_one_exit_2_naming_the_flag(tmp_path, capsys, make, args):
    command, *flags = args
    flag, value = flags[-2:]
    inputs = [] if make is None else [make(tmp_path)]
    with pytest.raises(SystemExit) as info:
        main([command, *inputs, *flags])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: must be a positive integer, got {value!r}\n")


def parallel_arc_instance(tmp_path):
    """Valid labelled input whose underlying digraph repeats the arc 0->1
    (under two labels) and has a circuit, so no constructive theorem
    covers it."""
    path = tmp_path / "parallel.dsa"
    path.write_text("p dsa 2 3 2\na 0 1\na 0 1 2\na 1 0 2\n")
    return str(path)


@pytest.mark.parametrize("algorithm", ["auto", "2k1", "subcubic", "diregular4",
                                       "acircuitic"])
def test_solve_non_simple_digraph_exits_3(tmp_path, capsys, algorithm):
    instance = parallel_arc_instance(tmp_path)
    assert main(["solve", instance, "--algorithm", algorithm]) == 3
    err = capsys.readouterr().err
    assert err.startswith("algorithm does not apply: ")
    assert "needs a simple digraph" in err
    assert main(["exact", instance]) == 0
    assert capsys.readouterr().out == "dst = 3\n"


def test_solve_2k1_on_arcless_digraph(tmp_path, capsys):
    path = tmp_path / "arcless.dsa"
    path.write_text("p dsa 3 0 1\n")
    assert main(["solve", str(path), "--algorithm", "2k1"]) == 0
    assert capsys.readouterr().out == (
        "algorithm=2k1 colours=0 bound=1 (2k+1 with k=0)\n")


@pytest.mark.parametrize("argv", [["--fibres", "2"], []])
def test_auto_solve_sorts_acyclic_instance_once(tmp_path, capsys, monkeypatch,
                                                argv):
    # count the runs of Kahn's sort itself, whichever digraph it runs on
    sorts = []
    real = digraph.Digraph.__dict__["_sort"].func

    def counting(d):
        sorts.append(d.vertex_count)
        return real(d)

    cached = functools.cached_property(counting)
    cached.__set_name__(digraph.Digraph, "_sort")
    monkeypatch.setattr(digraph.Digraph, "_sort", cached)
    path = tmp_path / "dag.dsa"
    write_instance(path, LabelledDigraph(4, 2, ((0, 2, 1), (1, 2, 2), (0, 3, 1),
                                                (2, 3, 2))))
    assert main(["solve", str(path), *argv]) == 0
    assert "algorithm=acyclic" in capsys.readouterr().out
    assert len(sorts) == 1


def test_auto_solve_of_cyclic_instance_builds_no_witness(tmp_path, capsys,
                                                         monkeypatch):
    # is_acyclic only asks whether the sort covers every vertex; the
    # circuit search is for topological_order's CyclicError alone
    witnesses = []
    real = digraph.find_circuit_arcs

    def counting(d):
        witnesses.append(d.vertex_count)
        return real(d)

    monkeypatch.setattr(digraph, "find_circuit_arcs", counting)
    assert main(["solve", circuit_instance(tmp_path)]) == 0
    assert "algorithm=" in capsys.readouterr().out
    assert witnesses == []


def test_solve_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.dsa"
    bad.write_text("p dsa nope\n")
    assert main(["solve", str(bad)]) == 2


def test_solve_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "absent.dsa")]) == 2


def test_solve_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a header announcing billions of vertices fails allocation while
    # the digraph is built; stand in for that without allocating
    def exhausted(fh):
        raise MemoryError

    monkeypatch.setattr("galaxia.cli.read_digraph", exhausted)
    assert main(["solve", dag_instance(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: solve:")


def test_solve_clashing_output_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("galaxia.subcubic.star_colouring_subcubic",
                        lambda d: ArcColouring({i: 1 for i in range(d.arc_count)}, 1))
    out = tmp_path / "col.txt"
    assert main(["solve", circuit_instance(tmp_path), "-o", str(out)]) == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


def test_solve_acircuitic_bicoloured_circuit_exits_4(tmp_path, capsys, monkeypatch):
    # 1,2,1,2 round a 4-circuit is a star colouring but a bicoloured circuit
    monkeypatch.setattr("galaxia.acircuitic.acircuitic_colouring",
                        lambda d: ArcColouring({0: 1, 1: 2, 2: 1, 3: 2}, 2))
    out = tmp_path / "col.txt"
    code = main(["solve", circuit_instance(tmp_path, 4), "--algorithm", "acircuitic",
                 "-o", str(out)])
    assert code == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


def test_solve_fibres_invalid_colouring_exits_4(tmp_path, capsys, monkeypatch):
    instance = tmp_path / "star.dsa"
    write_instance(instance, LabelledDigraph(4, 1, ((0, 3, 1), (1, 3, 1), (2, 3, 1))))
    monkeypatch.setattr("galaxia.fibre.fibre_colouring_smallm",
                        lambda ld, n: FibreColouring(n, {0: 1, 1: 1, 2: 1}, 1))
    out = tmp_path / "w.txt"
    assert main(["solve", str(instance), "--fibres", "2", "-o", str(out)]) == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


def test_exact_fibres_invalid_expansion_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("galaxia.fibre.expand_to_wavelength_assignment",
                        lambda ld, fc: WavelengthAssignment(
                            fc.n, {a: (1, 1, 1) for a in range(ld.arc_count)}))
    out = tmp_path / "w.txt"
    code = main(["exact", circuit_instance(tmp_path), "--fibres", "2", "-o", str(out)])
    assert code == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["--fibres", "2"],
                                  ["--fibres", "2", "-o", "w.txt"]])
def test_exact_invalid_witness_exits_4(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("galaxia.cli.exact_dst",
                        lambda d, cap, limit: (1, ArcColouring(
                            {i: 1 for i in range(d.arc_count)}, 1)))
    monkeypatch.setattr("galaxia.cli.exact_lambda_n",
                        lambda ld, n, cap, limit: (1, FibreColouring(
                            n, {i: 1 for i in range(ld.arc_count)}, 1)))
    instance = tmp_path / "star.dsa"
    write_instance(instance, LabelledDigraph(4, 1, ((0, 3, 1), (1, 3, 1), (2, 3, 1))))
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    assert main(["exact", str(instance)] + argv) == 4
    captured = capsys.readouterr()
    assert "internal defect" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "w.txt").exists()


@pytest.fixture
def fibre_verifier_calls(monkeypatch):
    """The outputs passed to either fibre verifier, wherever it is called."""
    calls = []
    for name in ("verify_fibre_colouring", "verify_wavelength_assignment"):
        def counting(ld, output, real=getattr(fibre, name)):
            calls.append(output)
            return real(ld, output)

        for module in ("galaxia.fibre", "galaxia.cli", "galaxia.oracle"):
            monkeypatch.setattr(f"{module}.{name}", counting, raising=False)
    return calls


def test_exact_fibres_verifies_witness_once(tmp_path, capsys,
                                            fibre_verifier_calls):
    # the wavelength verifier on the expansion decides the witness too
    out = tmp_path / "w.txt"
    assert main(["exact", circuit_instance(tmp_path), "--fibres", "2",
                 "-o", str(out)]) == 0
    assert len(fibre_verifier_calls) == 1


def test_solve_and_verify_fibres_verify_once(tmp_path, capsys,
                                             fibre_verifier_calls):
    instance = circuit_instance(tmp_path)
    waves = tmp_path / "w.txt"
    assert main(["solve", instance, "--fibres", "2", "-o", str(waves)]) == 0
    assert len(fibre_verifier_calls) == 1
    assert main(["verify", instance, str(waves), "--fibres", "2"]) == 0
    assert len(fibre_verifier_calls) == 2


def test_verify_roundtrip(tmp_path, capsys):
    instance = circuit_instance(tmp_path)
    colouring = tmp_path / "col.txt"
    assert main(["solve", instance, "-o", str(colouring)]) == 0
    capsys.readouterr()
    assert main(["verify", instance, str(colouring)]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_detects_violation(tmp_path, capsys):
    instance = circuit_instance(tmp_path, 4)
    bad = tmp_path / "bad.txt"
    bad.write_text("c 0 1\nc 1 1\nc 2 2\nc 3 2\n")
    assert main(["verify", instance, str(bad)]) == 1
    assert "violation" in capsys.readouterr().out


def test_verify_acircuitic_flag(tmp_path, capsys):
    instance = circuit_instance(tmp_path, 4)
    bicoloured = tmp_path / "two.txt"
    bicoloured.write_text("c 0 1\nc 1 2\nc 2 1\nc 3 2\n")
    assert main(["verify", instance, str(bicoloured)]) == 0
    assert main(["verify", instance, str(bicoloured), "--acircuitic"]) == 1


@pytest.mark.parametrize("n, colours, code, out", [
    (2, (1, 2), 1, "violation: bicoloured circuit through vertices [0, 1]\n"),
    (4, (1, 10 ** 14, 1, 10 ** 14), 1,
     "violation: bicoloured circuit through vertices [0, 1, 2, 3]\n"),
    (4, (1, 10 ** 14, 3, 10 ** 14), 0, "ok\n"),
])
def test_verify_acircuitic_texts(tmp_path, capsys, n, colours, code, out):
    # one walk per colour pair decides and names the circuit, whatever
    # the size of a colour
    instance = circuit_instance(tmp_path, n)
    colouring = tmp_path / "col.txt"
    colouring.write_text("".join(f"c {a} {c}\n" for a, c in enumerate(colours)))
    assert main(["verify", instance, str(colouring), "--acircuitic"]) == code
    assert capsys.readouterr().out == out


def test_verify_dag_roundtrip_checks_interval_lines(tmp_path, capsys):
    instance = dag_instance(tmp_path)
    colouring = tmp_path / "col.txt"
    assert main(["solve", instance, "-o", str(colouring)]) == 0
    assert "\ni 2 " in colouring.read_text()
    capsys.readouterr()
    assert main(["verify", instance, str(colouring)]) == 0
    assert capsys.readouterr().out == "ok\n"


@pytest.mark.parametrize("line, text", [
    ("i 2 1 2", "violation: arc 0 enters vertex 2 with colour 4 outside its"
                " interval 1..2 mod 4\n"),
    # the interval is named by its ends, not listed: k = 10^12 prints as
    # short a line, at once
    ("i 2 5 1000000000000", "violation: arc 0 enters vertex 2 with colour 4"
                            " outside its interval 5..1000000000004 mod 2000000000000\n"),
    ("i 99 1 5", "violation: interval line names vertex 99 outside 0..2\n"),
])
def test_verify_rejects_bad_interval_line(tmp_path, capsys, line, text):
    # in-colours 4 and 3 at vertex 2 form a proper star colouring
    instance = tmp_path / "in.dsa"
    write_instance(instance, LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1))))
    colouring = tmp_path / "col.txt"
    colouring.write_text(f"c 0 4\nc 1 3\n{line}\n")
    assert main(["verify", str(instance), str(colouring)]) == 1
    assert capsys.readouterr().out == text


def test_verify_interval_start_above_2k_names_its_line(tmp_path, capsys):
    instance = tmp_path / "in.dsa"
    write_instance(instance, LabelledDigraph(3, 1, ((0, 2, 1), (1, 2, 1))))
    colouring = tmp_path / "col.txt"
    colouring.write_text("c 0 1\nc 1 2\ni 1 9 1\n")
    assert main(["verify", str(instance), str(colouring)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: line 3: bad interval line values\n"
    assert captured.out == ""


def test_solve_bad_interval_certificate_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("galaxia.acyclic.star_colouring_acyclic",
                        lambda d: (ArcColouring({0: 1, 1: 2, 2: 3}, 4),
                                   {2: CyclicInterval(4, 1, 2)}))
    out = tmp_path / "col.txt"
    assert main(["solve", dag_instance(tmp_path), "-o", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == ("internal defect: solver output failed"
                            " verification: arc 2 enters vertex 2 with colour 3"
                            " outside its interval 1..2 mod 4\n")
    assert captured.out == ""
    assert not out.exists()


def path_instance(tmp_path):
    path = tmp_path / "path.dsa"
    write_instance(path, LabelledDigraph(3, 1, ((0, 1, 1), (1, 2, 1))))
    return str(path)


@pytest.mark.parametrize("target, output, flags, text", [
    # a solver that leaves an arc uncoloured
    ("galaxia.subcubic.star_colouring_subcubic",
     lambda d: ArcColouring({0: 1}, 3), ["--algorithm", "subcubic"],
     "arc 1 is uncoloured"),
    # a colour outside the range its ArcColouring declares
    ("galaxia.subcubic._colour_subcubic", lambda d: [1, 0],
     ["--algorithm", "subcubic"], "arc 1 has colour 0 outside 1..3"),
    # a fibre colouring that leaves an arc unassigned
    ("galaxia.fibre.fibre_colouring_smallm",
     lambda ld, n: FibreColouring(2, {0: 1}, 1), ["--fibres", "2"],
     "arc 1 is unassigned"),
], ids=["uncoloured", "colour-out-of-range", "unassigned"])
def test_solve_incomplete_or_out_of_range_output_exits_4(
        tmp_path, capsys, monkeypatch, target, output, flags, text):
    # the instance is fine, so what its output lacks is a bug here
    monkeypatch.setattr(target, output)
    out = tmp_path / "out.txt"
    assert main(["solve", path_instance(tmp_path), *flags, "-o", str(out)]) == 4
    assert capsys.readouterr() == (
        "", f"internal defect: solver output failed verification: {text}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["exact", "{path}"],
                                     ["reduce", "--named", "k4", "--check"]])
def test_exact_incomplete_witness_exits_4(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("galaxia.cli.exact_dst", lambda d, *args, **kwargs: (
        1, ArcColouring({0: 1}, 1)))
    argv = [arg.format(path=path_instance(tmp_path)) for arg in command]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        "internal defect: exact witness failed verification: arc 1 is uncoloured\n")


# (name, generate flags, solve flags, verify flags, the solver to stand in for)
PARITY_RUNS = [
    ("2k1", ["random", "--in-cap", "3", "--out-cap", "3"], ["--algorithm", "2k1"], [],
     "galaxia.galaxy.dst_upper_2k1"),
    ("acyclic", ["dag", "--k", "3"], ["--algorithm", "acyclic"], [],
     "galaxia.acyclic.star_colouring_acyclic"),
    ("subcubic", ["subcubic"], ["--algorithm", "subcubic"], [],
     "galaxia.subcubic.star_colouring_subcubic"),
    ("diregular4", ["random", "--in-cap", "2", "--out-cap", "2"],
     ["--algorithm", "diregular4"], [], "galaxia.spanning.dst4_colouring"),
    ("acircuitic", ["oriented-subcubic"], ["--algorithm", "acircuitic"],
     ["--acircuitic"], "galaxia.acircuitic.acircuitic_colouring"),
    ("fibres-smallm", ["random", "--in-cap", "3", "--out-cap", "3"], ["--fibres", "2"],
     ["--fibres", "2"], "galaxia.fibre.expand_to_wavelength_assignment"),
    ("fibres-acyclic", ["dag", "--m", "2", "--k", "3"], ["--fibres", "2"],
     ["--fibres", "2"], "galaxia.fibre.expand_to_wavelength_assignment"),
]


def corrupt_one_line(lines, arcs):
    """The output lines with arc a's line changed, for the first arcs a
    and b that a valid output must tell apart: a colour line takes b's
    colour (b enters a's head or tail, or leaves a's head), a wavelength
    line b's wavelength and in-fibre (b enters a's head)."""
    kind = lines[0].split()[0]
    fields = {int(line.split()[1]): line.split()[2:]
              for line in lines if line.startswith(kind)}
    for a, (ta, ha, _) in enumerate(arcs):
        for b, (tb, hb, _) in enumerate(arcs):
            if a != b and (ha == hb if kind == "w" else ha in (hb, tb) or hb == ta):
                new = fields[b][:1] if kind == "c" else [
                    fields[b][0], fields[a][1], fields[b][2]]
                at = lines.index(" ".join([kind, str(a), *fields[a]]))
                return lines[:at] + [" ".join([kind, str(a), *new])] + lines[at + 1:]
    raise AssertionError("no two arcs meet")


@pytest.mark.parametrize("family, flags, check, solver",
                         [run[1:] for run in PARITY_RUNS],
                         ids=[run[0] for run in PARITY_RUNS])
@pytest.mark.parametrize("seed", [1, 2])
def test_solve_and_verify_decide_one_output_alike(tmp_path, capsys, monkeypatch,
                                                  family, flags, check, solver, seed):
    """`verify` passes what `solve` writes; on a copy with one line
    corrupted it prints `violation: X`, and `solve` whose solver returns
    that same output exits 4 with the same X.  On a fibre path the
    corrupted assignment stands in for the expansion."""
    instance, good, bad = (str(tmp_path / name) for name in ("in.dsa", "good", "bad"))
    assert main(["generate", "--family", family[0], *family[1:], "--vertices", "24",
                 "--seed", str(seed), "-o", instance]) == 0
    assert main(["solve", instance, *flags, "-o", good]) == 0
    capsys.readouterr()
    assert main(["verify", instance, good, *check]) == 0
    assert capsys.readouterr().out == "ok\n"

    with open(instance, encoding="utf-8") as fh:
        arcs = read_digraph(fh).arcs
    with open(good, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{line}\n" for line in corrupt_one_line(lines, arcs)))
    assert main(["verify", instance, bad, *check]) == 1
    stdout = capsys.readouterr().out
    assert stdout.startswith("violation: ")
    text = stdout[len("violation: "):-1]

    with open(bad, encoding="utf-8") as fh:
        if "--fibres" in flags:
            triples = read_wavelengths(fh, arc_count=len(arcs))
            output = lambda ld, fc: WavelengthAssignment(fc.n, triples)
        else:
            colours, intervals = read_colouring(fh, arc_count=len(arcs))
            colouring = ArcColouring(colours, max(colours.values()))
            # star_colouring_acyclic returns its interval certificates too
            output = lambda d: (colouring, intervals) if intervals else colouring
    monkeypatch.setattr(solver, output)
    assert main(["solve", instance, *flags, "-o", str(tmp_path / "never")]) == 4
    assert capsys.readouterr() == (
        "", f"internal defect: solver output failed verification: {text}\n")
    assert not (tmp_path / "never").exists()


def test_verify_fibres(tmp_path, capsys):
    instance = circuit_instance(tmp_path)
    waves = tmp_path / "w.txt"
    assert main(["solve", instance, "--fibres", "2", "-o", str(waves)]) == 0
    capsys.readouterr()
    assert main(["verify", instance, str(waves), "--fibres", "2"]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("arcs, lines, code, out, err", [
    # vertex 1 takes two arcs in and sends one out, all in colour 1
    (((0, 1, 1), (3, 1, 1), (1, 2, 1)), "w 0 1 1 1\nw 1 1 1 2\nw 2 1 1 1\n", 1,
     "violation: vertex 1 colour 1 has in+out = 2+1 > 2\n", ""),
    # two arcs enter vertex 2 on one fibre, though two fibres would fit
    (((0, 2, 1), (1, 2, 1)), "w 0 1 1 1\nw 1 1 1 1\n", 1,
     "violation: WavelengthViolation(condition='ii', first_arc=0,"
     " second_arc=1)\n", ""),
    (((0, 2, 1), (1, 2, 1)), "w 0 1 1 1\n", 2, "",
     "error: arc 1 is unassigned\n"),
])
def test_verify_fibres_violation_text(tmp_path, capsys, arcs, lines, code,
                                      out, err):
    instance = tmp_path / "in.dsa"
    write_instance(instance, LabelledDigraph(4, 1, arcs))
    waves = tmp_path / "w.txt"
    waves.write_text(lines)
    assert main(["verify", str(instance), str(waves), "--fibres", "2"]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("make, flags, err", [
    (circuit_instance, ["--algorithm", "smallm"],
     "no applicable algorithm: smallm needs --fibres\n"),
    (circuit_instance, ["--algorithm", "smallm", "--fibres", "1"],
     "no applicable algorithm: smallm needs m < n, instance has m=1, n=1\n"),
    (dag_instance, ["--algorithm", "acyclic", "--fibres", "2"],
     "no applicable algorithm: the acyclic bound needs m >= n,"
     " instance has m=1, n=2\n"),
    (circuit_instance, ["--algorithm", "subcubic", "--fibres", "1"],
     "no applicable algorithm: subcubic does not apply to --fibres runs\n"),
    (circuit_instance, ["--algorithm", "acyclic", "--fibres", "1"],
     "algorithm does not apply: digraph contains a circuit: [0, 1, 2, 3, 4]\n"),
])
def test_solve_explicit_algorithm_outside_its_theorem_exits_3(
        tmp_path, capsys, make, flags, err):
    assert main(["solve", make(tmp_path), *flags]) == 3
    assert capsys.readouterr() == ("", err)


# Per error class: the exit code of `galaxia` and the prefix of its
# standard error line; a class without a row fails the test below.
EXIT_BY_CLASS = {
    "InternalDefectError": (4, "internal defect: "),
    "NoApplicableAlgorithmError": (3, "no applicable algorithm: "),
    "PreconditionViolatedError": (3, "algorithm does not apply: "),
    "CyclicError": (3, "algorithm does not apply: "),
    "AboveCapError": (1, ""),
    "InvalidColouringError": (1, ""),
    "GalaxiaError": (2, "error: "),
    "ParseError": (2, "error: "),
    "ValidateError": (2, "error: "),
    "InfeasibleError": (2, "error: "),
    "BadParamsError": (2, "error: "),
    "TooLargeError": (2, "error: "),
}
# The constructor arguments of the classes that take no plain message.
ERROR_ARGS = {"ParseError": (3, "why"), "CyclicError": ((0, 1, 2),),
              "AboveCapError": (2, "why")}


def test_every_error_class_has_one_exit_code(monkeypatch, capsys):
    classes = [value for value in vars(errors).values() if isinstance(value, type)
               and issubclass(value, errors.GalaxiaError)]
    assert sorted(cls.__name__ for cls in classes) == sorted(EXIT_BY_CLASS)
    for cls in classes:
        exc = cls(*ERROR_ARGS.get(cls.__name__, ("why",)))

        def failing(path, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_read_instance", failing)
        code, prefix = EXIT_BY_CLASS[cls.__name__]
        assert main(["solve", "in.dsa"]) == code, cls
        assert capsys.readouterr() == ("", f"{prefix}{exc}\n"), cls


def test_exact_dst(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path)]) == 0
    assert "dst = 3" in capsys.readouterr().out


def test_exact_long_path_under_raised_arc_limit(tmp_path, capsys):
    n = 2 * sys.getrecursionlimit()
    path = tmp_path / "path.dsa"
    write_instance(path, LabelledDigraph(n + 1, 1, tuple((i, i + 1, 1)
                                                          for i in range(n))))
    assert main(["exact", str(path), "--arc-limit", str(n)]) == 0
    assert "dst = 2" in capsys.readouterr().out


def test_exact_lambda(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path), "--fibres", "2"]) == 0
    assert "lambda_2 = 1" in capsys.readouterr().out


def test_exact_above_cap_exits_1(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path), "--colour-cap", "2"]) == 1


@pytest.mark.parametrize("value", ["-1", "two"])
def test_exact_colour_cap_below_zero_exits_2_naming_the_flag(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["exact", circuit_instance(tmp_path), "--colour-cap", value])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --colour-cap: must be a non-negative integer,"
        f" got {value!r}\n")


def test_exact_colour_cap_zero_on_empty_instance(tmp_path, capsys):
    path = tmp_path / "empty.dsa"
    write_instance(path, LabelledDigraph(2, 1, ()))
    assert main(["exact", str(path), "--colour-cap", "0"]) == 0
    assert capsys.readouterr().out == "dst = 0\n"


def test_exact_arc_limit_exits_2(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path), "--arc-limit", "2"]) == 2


def test_exact_writes_witness(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    instance = circuit_instance(tmp_path)
    assert main(["exact", instance, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", instance, str(out)]) == 0


@pytest.mark.parametrize("name, arc_count, verdict", [
    ("k4", 12, "3-edge-colourable=True dst=3"),
    ("k33", 18, "3-edge-colourable=True dst=3"),
    ("prism", 18, "3-edge-colourable=True dst=3"),
    ("petersen", 30, "3-edge-colourable=False dst=4"),
], ids=["k4", "k33", "prism", "petersen"])
def test_reduce_named_with_check(capsys, name, arc_count, verdict):
    # the four named graphs whose reductions fit the default arc limit
    assert main(["reduce", "--named", name, "--check"]) == 0
    summary, last = capsys.readouterr().out.splitlines()
    assert summary.endswith(f" -> {2 * arc_count // 3} vertices, {arc_count} arcs")
    assert last == verdict


def test_reduce_writes_instance(tmp_path):
    out = tmp_path / "red.dsa"
    assert main(["reduce", "--named", "k4", "-o", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        ld = read_digraph(handle)
    assert ld.vertex_count == 8 and ld.arc_count == 12


@pytest.mark.parametrize("output", [None, "-", "file"])
def test_reduce_check_over_the_arc_limit(tmp_path, capsys, output):
    # without a named -o the reduced line is printed before the exact
    # search fails; with one, nothing is printed and no file is made
    out = tmp_path / "red.dsa"
    flags = {None: [], "-": ["-o", "-"], "file": ["-o", str(out)]}[output]
    assert main(["reduce", "--named", "k4", "--check", "--arc-limit", "1",
                 *flags]) == 2
    reduced = "reduced k4: 4 vertices, 6 edges -> 8 vertices, 12 arcs\n"
    assert tuple(capsys.readouterr()) == (
        "" if output == "file" else reduced,
        "error: 12 arcs exceed the limit 1\n")
    assert not out.exists()


def test_reduce_input_reads_arcs_as_edges(tmp_path, capsys):
    vertex_count, edges = CUBIC_GRAPHS["k4"]
    source = tmp_path / "k4.dsa"
    write_instance(source, LabelledDigraph(
        vertex_count, 1, tuple((t, h, 1) for t, h in edges)))
    from_file, named = tmp_path / "file.dsa", tmp_path / "named.dsa"
    assert main(["reduce", "--input", str(source), "--check",
                 "-o", str(from_file)]) == 0
    assert capsys.readouterr().out == (
        f"reduced {source}: 4 vertices, 6 edges -> 8 vertices, 12 arcs\n"
        "3-edge-colourable=True dst=3\n")
    assert main(["reduce", "--named", "k4", "-o", str(named)]) == 0
    # the same reduction; only the source named in the comment differs
    assert (from_file.read_text().split("\n", 1)[1]
            == named.read_text().split("\n", 1)[1])


def test_reduce_check_obeys_the_arc_limit_alone(tmp_path, capsys):
    # the 22-vertex Moebius ladder is past the edge-colouring search's
    # default vertex limit, but its 66-arc reduction is within the arc
    # limit given, and that limit alone decides
    edges = [(i, (i + 1) % 22) for i in range(22)]
    edges += [(i, (i + 11) % 22) for i in range(11)]
    source = tmp_path / "ladder.dsa"
    write_instance(source, LabelledDigraph(
        22, 1, tuple((t, h, 1) for t, h in edges)))
    assert main(["reduce", "--input", str(source), "--check",
                 "--arc-limit", "66"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "3-edge-colourable=True dst=3")
    assert main(["reduce", "--input", str(source), "--check"]) == 2
    assert capsys.readouterr().err == "error: 66 arcs exceed the limit 40\n"


def test_reduce_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["reduce", "--named", "nonagon"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    # argparse wraps the usage by terminal width and Python version
    assert err.startswith("usage: galaxia reduce [-h]")
    assert "(--named {k33,k4,moebius-kantor,petersen,prism} |" in err
    assert err.endswith(
        "galaxia reduce: error: argument --named: invalid choice: 'nonagon'"
        " (choose from 'k33', 'k4', 'moebius-kantor', 'petersen', 'prism')\n")


def test_stdin_instance(capsys, monkeypatch):
    buf = io.StringIO()
    write_digraph(buf, LabelledDigraph(2, 1, ((0, 1, 1),)))
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["exact", "-"]) == 0
    assert "dst = 1" in capsys.readouterr().out


@pytest.mark.parametrize("command, bad_file", [("solve", 0), ("exact", 0),
                                               ("verify", 0), ("verify", 1)])
def test_non_utf8_input_exits_2(tmp_path, capsys, command, bad_file):
    files = [circuit_instance(tmp_path), str(tmp_path / "col.txt")]
    (tmp_path / "col.txt").write_text("c 0 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p dsa 2 1 1\na 0 1 \xff\n")
    files[bad_file] = str(bad)
    argv = [command] + files[:2 if command == "verify" else 1]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {command}: input is not UTF-8 text\n"


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    instance = circuit_instance(tmp_path)
    waves = tmp_path / "w.txt"
    for _ in range(3):
        assert main(["solve", instance, "--fibres", "2", "-o", str(waves)]) == 0
        assert main(["solve", instance]) == 0
        assert main(["exact", instance]) == 0
    assert built.count("galaxia") <= 1
    # options of one call do not carry over into the next
    out = capsys.readouterr().out.splitlines()
    assert "fibres=2" in out[0]
    assert out[1].startswith("algorithm=subcubic") and "fibres" not in out[1]
    assert out[2] == "dst = 3"
    assert out == out[:3] * 3


# valid argvs of every command, then malformed ones
PARSER_ARGVS = [
    ["generate", "--family", "dag", "--vertices", "12", "--k", "2", "-o", "x.dsa"],
    ["generate", "--family=gnmk", "--n", "2", "--y-cap", "3", "--seed", "7"],
    ["solve", "in.dsa"],
    ["solve", "in.dsa", "--algorithm", "acyclic", "-o", "-"],
    ["solve", "--fibres", "2", "in.dsa"],
    ["solve", "in.dsa", "--fibres=3", "--output", "out.wl"],
    ["solve", "--", "in.dsa"],
    ["verify", "in.dsa", "c.col", "--acircuitic"],
    ["verify", "--fibres", "2", "--", "in.dsa", "c.wl"],
    ["exact", "in.dsa", "--colour-cap", "3", "--arc-limit", "20"],
    ["exact", "-", "--fibres", "2", "-o", "w.wl"],
    ["reduce", "--named", "k4", "--check"],
    ["reduce", "--input", "g.dsa", "--arc-limit", "30", "-o", "r.dsa"],
    [],
    ["-h"],
    ["--help"],
    ["solv", "in.dsa"],
    ["-x", "solve", "in.dsa"],
    ["--", "solve", "in.dsa"],
    ["solve"],
    ["verify", "in.dsa"],
    ["generate"],
    ["solve", "in.dsa", "--bogus"],
    ["solve", "in.dsa", "extra", "--bogus"],
    ["solve", "in.dsa", "-o"],
    ["solve", "in.dsa", "--fib", "2"],
    ["solve", "in.dsa", "--", "extra"],
    ["solve", "in.dsa", "--algorithm", "fastest"],
    ["solve", "in.dsa", "--fibres", "0"],
    ["verify", "in.dsa", "c.wl", "--fibres", "2", "--acircuitic"],
    ["exact", "in.dsa", "--arc-limit", "many"],
    ["reduce", "--named", "k4", "--input", "g.dsa"],
    ["reduce", "--named", "nonagon"],
    ["reduce"],
    ["solve", "--help"],
    ["exact", "in.dsa", "-h"],
]


def parse_outcome(parse, argv):
    """(namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_command_parse_matches_the_full_parser(argv):
    # main hands a command's arguments to its subparser directly; the
    # namespace, exit code and every printed byte must be what the top
    # parser's parse_args gives on this Python's argparse
    parser, _ = cli._build_parser()
    assert parse_outcome(cli._parse, argv) == parse_outcome(parser.parse_args,
                                                            argv)


def test_main_without_argv_reads_sys_argv(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["galaxia", "solve", dag_instance(tmp_path)])
    assert main() == 0
    assert capsys.readouterr().out.startswith("algorithm=acyclic")
    monkeypatch.setattr(sys, "argv", ["galaxia"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: galaxia [-h]")


@st.composite
def mutated_instances(draw):
    """A valid instance file with up to three random byte edits."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 3))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                   st.integers(1, m)),
                         min_size=3, max_size=10, unique=True).map(
        lambda raw: [(t, (t + d) % n, l) for t, d, l in raw]))
    lines = [f"p dsa {n} {len(arcs)} {m}"] + [f"a {t} {h} {l}" for t, h, l in arcs]
    data = bytearray("\n".join(lines).encode() + b"\n")
    byte = st.one_of(st.sampled_from(b"0123456789 _-+#apdsx\t\n"), st.integers(0, 255))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(range(len(data) + 1)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert":
            data[at:at] = bytes([draw(byte)])
        elif at < len(data):
            data[at:at + 1] = b"" if edit == "delete" else bytes([draw(byte)])
    return bytes(data)


@settings(max_examples=200)
@given(mutated_instances())
def test_hostile_input_never_raises_or_exits_4(tmp_path_factory, data):
    # numbers of at most four digits keep the vertex count at most 9,999
    assume(re.search(r"[\d_]{5}", data.decode("utf-8", "replace")) is None)
    path = tmp_path_factory.getbasetemp() / "hostile.dsa"
    path.write_bytes(data)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert main(["solve", str(path)]) != 4
        assert main(["exact", str(path)]) != 4


def huge_numbers():
    """Numbers past every limit, as text: above the vertex limit with at
    most 40 digits, or 5,000 nines, past int()'s default digit limit."""
    return st.one_of(st.integers(fileio.VERTEX_LIMIT + 1, 10**40).map(str),
                     st.just("9" * 5000))


@st.composite
def hostile_number_calls(draw):
    """(file text, argv) of a `solve` or `exact` call on at most 8 arcs,
    with huge numbers in some of the header's vertex and arc counts and
    the numeric options.  A vertex count is at most 64 or past the limit,
    so no call builds tables of millions of entries; the label count
    stays 1-3."""
    n = draw(st.integers(0, 64))
    m = draw(st.integers(1, 3))
    arcs = []
    if n >= 2:  # a head at a nonzero offset from its tail: no self-loop
        arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                       st.integers(1, m)),
                             max_size=8, unique=True).map(
            lambda raw: sorted({(t, (t + d) % n, l) for t, d, l in raw})))
    vertices = draw(st.one_of(st.just(str(n)), huge_numbers()))
    arc_count = draw(st.one_of(st.just(str(len(arcs))), huge_numbers()))
    lines = [f"p dsa {vertices} {arc_count} {m}", *(f"a {t} {h} {l}" for t, h, l in arcs)]
    command = draw(st.sampled_from(("solve", "exact")))
    argv = [command]
    options = ("--fibres", "--colour-cap", "--arc-limit") if command == "exact" else ("--fibres",)
    for option in options:
        value = draw(st.one_of(st.none(), st.integers(0, 4).map(str), huge_numbers()))
        if value is not None:
            argv += [option, value]
    return "\n".join(lines) + "\n", argv


@settings(max_examples=150)
@given(hostile_number_calls())
def test_huge_numbers_end_in_a_documented_exit(tmp_path_factory, call):
    text, argv = call
    path = tmp_path_factory.getbasetemp() / "numbers.dsa"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([argv[0], str(path), *argv[1:]])
        except SystemExit as exc:  # argparse refuses an option
            code = exc.code
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def seeded_subcubic(n, seed):
    """A seeded simple digraph of total degree at most 3: three stubs per
    vertex paired at random, each pair oriented at random."""
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    seen = set()
    arcs = []
    for u, v in zip(stubs[::2], stubs[1::2]):
        if rng.random() < 0.5:
            u, v = v, u
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            arcs.append((u, v, 1))
    return LabelledDigraph(n, 1, tuple(arcs))


def solve_digests(path, out, capsys, algorithm):
    capsys.readouterr()
    assert main(["solve", str(path), "--algorithm", algorithm, "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest())


def test_solve_pinned_acyclic_output(tmp_path, capsys):
    """A generated 3,000-vertex DAG with k=3: colour and interval lines."""
    path, out = tmp_path / "dag.dsa", tmp_path / "dag.col"
    assert main(["generate", "--family", "dag", "--vertices", "3000", "--k", "3",
                 "--seed", "7", "-o", str(path)]) == 0
    assert solve_digests(path, out, capsys, "acyclic") == (
        "89bf2f550bfe891e647c42aa21e6b848de9434e4d698f3b9bfe4178519d57777",
        "b35102d5059ebf1193e177c936dd28cb896daaead24270485df93d0dcc183c7f")


def test_solve_pinned_subcubic_output(tmp_path, capsys):
    path, out = tmp_path / "sub.dsa", tmp_path / "sub.col"
    with open(path, "w", encoding="utf-8") as handle:
        write_digraph(handle, seeded_subcubic(3000, 7), comments=["seeded subcubic"])
    assert solve_digests(path, out, capsys, "subcubic") == (
        "6bba94d6b164698c426e3c54b3e4266e56d4db88bc448990e7c00f2ab23ce8af",
        "d15f9cdd8a66d2eb9c20e289bea60267f844b0e76b42f1d6aaedb4d8d9a3dbae")


def test_generated_file_reads_as_without_its_comment(tmp_path):
    path = tmp_path / "g.dsa"
    assert main(["generate", "--family", "dag", "--vertices", "40", "--m", "2",
                 "--k", "3", "--seed", "5", "-o", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# generator=")
    bare = text.split("\n", 1)[1]
    assert bare.startswith("p dsa ")
    assert read_digraph(io.StringIO(text)) == read_digraph(io.StringIO(bare))


# ---------------------------------------------------------------------------
# -o: an existing file is written in place and cut to the new length


WRITERS = [
    ["generate", "--family", "dag", "--vertices", "12", "--k", "2"],
    ["solve", "INSTANCE"],
    ["solve", "INSTANCE", "--fibres", "2"],
    ["exact", "INSTANCE"],
    ["exact", "INSTANCE", "--fibres", "2"],
    ["reduce", "--named", "k4"],
]
STALE = "stale text that no output of these commands holds\n" * 100


def write_to(tmp_path, capsys, argv, out):
    """Run `argv` (INSTANCE standing for a small DAG) with `-o out`:
    (exit code, stdout, stderr)."""
    instance = dag_instance(tmp_path)
    capsys.readouterr()
    code = main([instance if arg == "INSTANCE" else arg for arg in argv]
                + ["-o", str(out)])
    return (code, *capsys.readouterr())


def test_generate_without_output_prints_what_output_writes(tmp_path, capsys):
    argv = ["generate", "--family", "dag", "--vertices", "5", "--seed", "3"]
    out = tmp_path / "g.dsa"
    assert main(argv + ["-o", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", WRITERS, ids=" ".join)
def test_output_over_a_longer_file_equals_a_fresh_write(tmp_path, capsys, argv):
    fresh, old = tmp_path / "fresh.out", tmp_path / "old.out"
    first = write_to(tmp_path, capsys, argv, fresh)
    assert first[0] == 0
    old.write_text(STALE)
    assert old.stat().st_size > fresh.stat().st_size
    assert write_to(tmp_path, capsys, argv, old) == first
    assert old.read_bytes() == fresh.read_bytes()


def test_output_keeps_mode_hard_links_and_symlinks(tmp_path, capsys):
    argv = ["solve", "INSTANCE"]
    fresh = tmp_path / "fresh.col"
    assert write_to(tmp_path, capsys, argv, fresh)[0] == 0
    expected = fresh.read_bytes()
    private, link = tmp_path / "private.col", tmp_path / "link.col"
    private.write_text(STALE)
    private.chmod(0o600)
    os.link(private, link)
    inode = private.stat().st_ino
    assert write_to(tmp_path, capsys, argv, private)[0] == 0
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    assert private.stat().st_ino == inode
    assert link.read_bytes() == private.read_bytes() == expected
    target, alias = tmp_path / "target.col", tmp_path / "alias.col"
    target.write_text(STALE)
    alias.symlink_to(target)
    assert write_to(tmp_path, capsys, argv, alias)[0] == 0
    assert alias.is_symlink()
    assert target.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("argv", WRITERS, ids=" ".join)
def test_output_to_dev_null_exits_0(tmp_path, capsys, argv):
    assert write_to(tmp_path, capsys, argv, "/dev/null")[0] == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_output_to_fifo_delivers_everything(tmp_path, capsys):
    argv = ["solve", "INSTANCE"]
    fresh, fifo = tmp_path / "fresh.col", tmp_path / "fifo"
    assert write_to(tmp_path, capsys, argv, fresh)[0] == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert write_to(tmp_path, capsys, argv, fifo)[0] == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [fresh.read_bytes()]


def test_failed_write_leaves_only_what_was_written(tmp_path, capsys, monkeypatch):
    def write_one_line_then_fail(handle, *args, **kwargs):
        handle.write("c 0 1\n")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("galaxia.cli.write_colouring", write_one_line_then_fail)
    out = tmp_path / "col.txt"
    out.write_text(STALE)
    assert write_to(tmp_path, capsys, ["solve", "INSTANCE"], out) == (
        2, "", "error: [Errno 28] No space left on device\n")
    assert out.read_text() == "c 0 1\n"


@pytest.mark.skipif(resource is None, reason="no resource module")
def test_failed_flush_still_cuts_the_old_tail(tmp_path, capsys, monkeypatch):
    # a file-size limit makes the flush at the end of the block fail
    # after a partial write; the file keeps that prefix of the output and
    # none of the longer old file
    argv = ["generate", "--family", "dag", "--vertices", "200", "--k", "2"]
    fresh, out = tmp_path / "fresh.dsa", tmp_path / "old.dsa"
    assert write_to(tmp_path, capsys, argv, fresh)[0] == 0
    expected = fresh.read_bytes()
    limit = 1000
    assert limit < len(expected) < 8192  # one flush, at the end of the block
    out.write_bytes(b"x" * 100_000)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    real_write = write_digraph

    def write_under_a_size_limit(*args, **kwargs):
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
        real_write(*args, **kwargs)

    monkeypatch.setattr("galaxia.cli.write_digraph", write_under_a_size_limit)
    try:
        result = write_to(tmp_path, capsys, argv, out)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert result == (2, "", "error: [Errno 27] File too large\n")
    assert out.read_bytes() == expected[:limit]


@pytest.mark.parametrize("target, err", [
    ("", "[Errno 21] Is a directory: '{}'"),
    ("missing/x", "[Errno 2] No such file or directory: '{}'"),
    ("/dev/full", "[Errno 28] No space left on device"),
], ids=["directory", "missing directory", "/dev/full"])
@pytest.mark.parametrize("argv", WRITERS[1:], ids=" ".join)
def test_failed_write_exits_2_and_prints_no_report(tmp_path, capsys, argv,
                                                   target, err):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    out = os.path.join(tmp_path, target)  # /dev/full stays absolute
    assert write_to(tmp_path, capsys, argv, out) == (
        2, "", f"error: {err.format(out)}\n")


def _raise_runtime_error(monkeypatch):
    def broken(d):
        raise RuntimeError(f"solver ran with gc.isenabled() = {gc.isenabled()}")

    monkeypatch.setattr("galaxia.acyclic.star_colouring_acyclic", broken)


def _clash(monkeypatch):
    monkeypatch.setattr("galaxia.subcubic.star_colouring_subcubic",
                        lambda d: ArcColouring({i: 1 for i in range(d.arc_count)}, 1))


# (argv builder, patch, expected exit code or exception type)
EXIT_PATHS = {
    "exit 0": (lambda t: ["solve", dag_instance(t)], None, 0),
    "exit 1": (lambda t: ["exact", circuit_instance(t), "--colour-cap", "2"], None, 1),
    "exit 2": (lambda t: ["solve", str(t / "absent.dsa")], None, 2),
    "exit 3": (lambda t: ["solve", circuit_instance(t), "--algorithm", "acyclic"],
               None, 3),
    "exit 4": (lambda t: ["solve", circuit_instance(t)], _clash, 4),
    "escaping exception": (lambda t: ["solve", dag_instance(t)],
                           _raise_runtime_error, RuntimeError),
    "usage error": (lambda t: ["solve"], None, SystemExit),
}


@pytest.fixture
def gc_state():
    """Put the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", EXIT_PATHS)
def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch,
                                          gc_state, path, enabled):
    argv_of, patch, expected = EXIT_PATHS[path]
    argv = argv_of(tmp_path)
    if patch is not None:
        patch(monkeypatch)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if isinstance(expected, int):
        assert main(argv) == expected
    else:
        with pytest.raises(expected) as info:
            main(argv)
        assert "gc.isenabled() = True" not in str(info.value)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_import_leaves_the_collector_state_alone(enabled):
    # a new interpreter, since this one imported galaxia long ago
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import gc, sys\n"
            f"gc.{'enable' if enabled else 'disable'}()\n"
            "import galaxia, galaxia.cli\n"
            f"sys.exit(0 if gc.isenabled() is {enabled} else 1)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.fixture(scope="module")
def thousands_of_arcs(tmp_path_factory):
    """Generated instances of about 1,500-3,000 arcs, one per family."""
    folder = tmp_path_factory.mktemp("garbage")
    families = {
        "dag": ["--family", "dag", "--vertices", "1000", "--k", "3"],
        "labelled-dag": ["--family", "dag", "--vertices", "1000", "--m", "2",
                         "--k", "3"],
        "random": ["--family", "random", "--vertices", "1500"],
        "subcubic": ["--family", "subcubic", "--vertices", "2000"],
        "oriented-subcubic": ["--family", "oriented-subcubic",
                              "--vertices", "2000"],
    }
    paths = {}
    for name, flags in families.items():
        paths[name] = str(folder / f"{name}.dsa")
        assert main(["generate", *flags, "-o", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("family, flags, algorithm", [
    ("random", ["--algorithm", "2k1"], "2k1"),
    ("dag", ["--algorithm", "acyclic"], "acyclic"),
    ("subcubic", ["--algorithm", "subcubic"], "subcubic"),
    ("random", ["--algorithm", "diregular4"], "diregular4"),
    ("oriented-subcubic", ["--algorithm", "acircuitic"], "acircuitic"),
    ("labelled-dag", ["--fibres", "2"], "acyclic"),
    ("random", ["--fibres", "2"], "smallm"),
], ids=["2k1", "acyclic", "subcubic", "diregular4", "acircuitic",
        "fibres acyclic", "fibres smallm"])
def test_solve_leaves_no_cyclic_garbage(tmp_path, capsys, thousands_of_arcs,
                                        family, flags, algorithm):
    # what makes pausing the collector safe: a command frees all it
    # allocates by reference counting, so a pass after it finds nothing
    argv = ["solve", thousands_of_arcs[family], *flags,
            "-o", str(tmp_path / "out")]
    assert main(argv) == 0  # warm-up: the first call imports the solver
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0
    assert capsys.readouterr().out.startswith(f"algorithm={algorithm} ")


@pytest.mark.parametrize("flags", [[], ["--fibres", "2"]], ids=["dst", "lambda"])
def test_exact_leaves_no_cyclic_garbage(tmp_path, capsys, flags):
    argv = ["exact", circuit_instance(tmp_path, 7), *flags,
            "-o", str(tmp_path / "witness")]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() == 0
