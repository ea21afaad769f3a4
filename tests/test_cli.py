"""End-to-end runs of the console entry point."""
import io

import pytest

from galaxia import (ArcColouring, FibreColouring, LabelledDigraph,
                     WavelengthAssignment, read_digraph, write_digraph)
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


def test_solve_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.dsa"
    bad.write_text("p dsa nope\n")
    assert main(["solve", str(bad)]) == 2


def test_solve_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "absent.dsa")]) == 2


def test_solve_clashing_output_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("galaxia.cli.star_colouring_subcubic",
                        lambda d: ArcColouring({i: 1 for i in range(d.arc_count)}, 1))
    out = tmp_path / "col.txt"
    assert main(["solve", circuit_instance(tmp_path), "-o", str(out)]) == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


def test_solve_acircuitic_bicoloured_circuit_exits_4(tmp_path, capsys, monkeypatch):
    # 1,2,1,2 round a 4-circuit is a star colouring but a bicoloured circuit
    monkeypatch.setattr("galaxia.cli.acircuitic_colouring",
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
    monkeypatch.setattr("galaxia.cli.fibre_colouring_smallm",
                        lambda ld, n: FibreColouring(n, {0: 1, 1: 1, 2: 1}, 1))
    out = tmp_path / "w.txt"
    assert main(["solve", str(instance), "--fibres", "2", "-o", str(out)]) == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


def test_exact_fibres_invalid_expansion_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("galaxia.cli.expand_to_wavelength_assignment",
                        lambda ld, fc: WavelengthAssignment(
                            fc.n, {a: (1, 1, 1) for a in range(ld.arc_count)}))
    out = tmp_path / "w.txt"
    code = main(["exact", circuit_instance(tmp_path), "--fibres", "2", "-o", str(out)])
    assert code == 4
    assert "internal defect" in capsys.readouterr().err
    assert not out.exists()


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


def test_verify_fibres(tmp_path, capsys):
    instance = circuit_instance(tmp_path)
    waves = tmp_path / "w.txt"
    assert main(["solve", instance, "--fibres", "2", "-o", str(waves)]) == 0
    capsys.readouterr()
    assert main(["verify", instance, str(waves), "--fibres", "2"]) == 0
    assert "ok" in capsys.readouterr().out


def test_exact_dst(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path)]) == 0
    assert "dst = 3" in capsys.readouterr().out


def test_exact_lambda(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path), "--fibres", "2"]) == 0
    assert "lambda_2 = 1" in capsys.readouterr().out


def test_exact_above_cap_exits_1(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path), "--colour-cap", "2"]) == 1


def test_exact_arc_limit_exits_2(tmp_path, capsys):
    assert main(["exact", circuit_instance(tmp_path), "--arc-limit", "2"]) == 2


def test_exact_env_arc_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GALAXIA_ARC_LIMIT", "2")
    assert main(["exact", circuit_instance(tmp_path)]) == 2
    monkeypatch.setenv("GALAXIA_ARC_LIMIT", "40")
    assert main(["exact", circuit_instance(tmp_path)]) == 0


def test_exact_writes_witness(tmp_path, capsys):
    out = tmp_path / "witness.txt"
    instance = circuit_instance(tmp_path)
    assert main(["exact", instance, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", instance, str(out)]) == 0


def test_reduce_named_with_check(capsys):
    assert main(["reduce", "--named", "k4", "--check"]) == 0
    out = capsys.readouterr().out
    assert "12" in out  # arc count of the reduced instance


def test_reduce_writes_instance(tmp_path):
    out = tmp_path / "red.dsa"
    assert main(["reduce", "--named", "k4", "-o", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        ld = read_digraph(handle)
    assert ld.vertex_count == 8 and ld.arc_count == 12


def test_reduce_unknown_name_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["reduce", "--named", "nonagon"])
    assert info.value.code == 2


def test_bench_emits_table(capsys):
    assert main(["bench", "--family", "subcubic", "--sizes", "8,12"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("instance\t")
    assert len(lines) == 3


def test_stdin_instance(capsys, monkeypatch):
    buf = io.StringIO()
    write_digraph(buf, LabelledDigraph(2, 1, ((0, 1, 1),)))
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["exact", "-"]) == 0
    assert "dst = 1" in capsys.readouterr().out
