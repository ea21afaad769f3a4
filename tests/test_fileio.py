"""Text format round-trips and parse errors."""
import io

import pytest
from hypothesis import given, settings, strategies as st

from galaxia import (
    LabelledDigraph,
    ParseError,
    ValidateError,
    fileio,
    random_labelled_dag,
    read_colouring,
    read_digraph,
    read_wavelengths,
    write_colouring,
    write_digraph,
    write_wavelengths,
)


def triples(ld):
    """ld's (tail, head, label) triples in arc order."""
    return tuple((*arc, label) for arc, label in zip(ld.arcs, ld.labels))


def roundtrip(ld):
    buf = io.StringIO()
    write_digraph(buf, ld)
    return read_digraph(io.StringIO(buf.getvalue()))


def test_digraph_roundtrip():
    ld = LabelledDigraph(3, 2, ((0, 1, 1), (1, 2, 2), (0, 2, 1)))
    assert roundtrip(ld) == ld


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\np dsa 2 1 1\n  # indented comment\na 0 1\n"
    ld = read_digraph(io.StringIO(text))
    assert triples(ld) == ((0, 1, 1),)


def test_label_defaults_to_one():
    ld = read_digraph(io.StringIO("p dsa 2 2 3\na 0 1\na 1 0 3\n"))
    assert triples(ld) == ((0, 1, 1), (1, 0, 3))


def test_label_zero_rejected():
    with pytest.raises((ParseError, ValidateError)):
        read_digraph(io.StringIO("p dsa 2 1 1\na 0 1 0\n"))


def test_duplicate_triple_rejected():
    with pytest.raises(ValidateError):
        read_digraph(io.StringIO("p dsa 2 2 1\na 0 1\na 0 1\n"))


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        read_digraph(io.StringIO("a 0 1\n"))


def test_arc_count_mismatch_rejected():
    with pytest.raises((ParseError, ValidateError)):
        read_digraph(io.StringIO("p dsa 2 2 1\na 0 1\n"))


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        read_digraph(io.StringIO("p dsa 2 1 1\na zero 1\n"))
    assert "2" in str(info.value)


def test_garbage_record_rejected():
    with pytest.raises(ParseError):
        read_digraph(io.StringIO("p dsa 2 1 1\nq 0 1\n"))


def test_colouring_roundtrip_with_intervals():
    colours = (1, 2)
    from galaxia import CyclicInterval
    intervals = {0: CyclicInterval(4, 3, 2)}
    buf = io.StringIO()
    write_colouring(buf, colours, intervals)
    got_colours, got_intervals = read_colouring(io.StringIO(buf.getvalue()), 2)
    assert got_colours == colours
    assert got_intervals == intervals


def test_colouring_arc_count_check():
    with pytest.raises(ParseError, match="out of range"):
        read_colouring(io.StringIO("c 5 1\n"), arc_count=2)


def test_wavelength_roundtrip():
    assignment = ((1, 1, 2), (2, 1, 1))
    buf = io.StringIO()
    write_wavelengths(buf, assignment)
    assert read_wavelengths(io.StringIO(buf.getvalue()), 2) == assignment


def test_write_digraph_emits_comments():
    buf = io.StringIO()
    write_digraph(buf, LabelledDigraph(1, 1, ()), comments=("hello",))
    assert "# hello" in buf.getvalue()


@given(st.integers(1, 20), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 999))
def test_roundtrip_random_instances(n, m, k, seed):
    ld = random_labelled_dag(n, m, k, seed)
    assert roundtrip(ld) == ld


@pytest.mark.parametrize("text, error, message", [
    ("p dsa 2 0 1\n# c\np dsa 2 0 1\n", ParseError, "line 3: second problem line"),
    ("p dsb 2 0 1\n", ParseError, "line 1: problem line must be 'p dsa <n> <arcs> <m>'"),
    ("\np dsa 2 0\n", ParseError, "line 2: problem line must be 'p dsa <n> <arcs> <m>'"),
    ("p dsa two 0 1\n", ParseError, "line 1: expected integer, got 'two'"),
    ("p dsa 2 0 0\n", ParseError, "line 1: bad problem-line counts"),
    ("p dsa -1 0 1\n", ParseError, "line 1: bad problem-line counts"),
    ("p dsa 2 -1 1\n", ParseError, "line 1: bad problem-line counts"),
    ("p dsa 3000000000 1 1\na 0 1 1\n", ParseError,
     "line 1: 3000000000 vertices exceed the limit 16777216"),
    ("# big\np dsa 16777217 1 1\na 0 1\n", ParseError,
     "line 2: 16777217 vertices exceed the limit 16777216"),
    ("a 0 1\np dsa 2 1 1\n", ParseError, "line 1: arc line before problem line"),
    ("a 0\n", ParseError, "line 1: arc line before problem line"),
    ("p dsa 2 1 1\na 0\n", ParseError, "line 2: arc line must be 'a <tail> <head> [<label>]'"),
    ("p dsa 2 1 1\na 0 1 1 1\n", ParseError,
     "line 2: arc line must be 'a <tail> <head> [<label>]'"),
    ("p dsa 2 1 1\na 0 x\n", ParseError, "line 2: expected integer, got 'x'"),
    ("p dsa 2 1 1\na x 7 y\n", ParseError, "line 2: expected integer, got 'x'"),
    ("p dsa 2 1 1\na 0 1 1.5\n", ParseError, "line 2: expected integer, got '1.5'"),
    ("p dsa 2 1 1\na 0 1 #\n", ParseError, "line 2: expected integer, got '#'"),
    ("p dsa 2 1 1\na 0 2\n", ParseError, "line 2: vertex id outside 0..1"),
    ("p dsa 2 1 1\n\na -1 0\n", ParseError, "line 3: vertex id outside 0..1"),
    ("p dsa 0 1 1\na 0 0\n", ParseError, "line 2: vertex id outside 0..-1"),
    ("p dsa 2 1 2\na 0 1 3\n", ParseError, "line 2: label 3 outside 1..2"),
    ("p dsa 2 1 2\na 0 1 0\n", ParseError, "line 2: label 0 outside 1..2"),
    ("p dsa 2 1 1\na 1 1\n", ValidateError, "arc 0 is a self-loop at 1"),
    ("p dsa 2 2 1\na 0 1\na 0 1 1\n", ValidateError, "arc 1 duplicates (0,1,1)"),
    ("p dsa 2 2 1\na 0 1\n", ValidateError, "problem line promises 2 arcs, file has 1"),
    ("p dsa 2 0 1\na 0 1\n", ValidateError, "problem line promises 0 arcs, file has 1"),
    ("", ParseError, "line 0: missing problem line"),
    ("# p dsa 2 0 1\n", ParseError, "line 0: missing problem line"),
    ("p dsa 2 1 1\nq 0 1\n", ParseError, "line 2: unknown line type 'q'"),
    ("p dsa 2 1 1\nA 0 1\n", ParseError, "line 2: unknown line type 'A'"),
])
def test_read_digraph_error_text(text, error, message):
    with pytest.raises(error) as info:
        read_digraph(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("text, arcs", [
    ("#p dsa 9 9 9\n\t# indented\np dsa 3 2 2\n  #a 0 0\n#\na 0 1\n a 1 2 2 \n",
     ((0, 1, 1), (1, 2, 2))),
    ("p dsa 2 1 1\r\na 0 1\r\n", ((0, 1, 1),)),
    ("p\tdsa 2 1 1\na\t1 0", ((1, 0, 1),)),
])
def test_read_digraph_skips_comment_tokens(text, arcs):
    assert triples(read_digraph(io.StringIO(text))) == arcs


def outcome(read, text):
    try:
        return read(io.StringIO(text))
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)


def written(n, m, arcs, comments=()):
    buf = io.StringIO()
    write_digraph(buf, LabelledDigraph(n, m, tuple(arcs)), comments=comments)
    return buf.getvalue()


def test_canonical_text_takes_the_one_pass_reader():
    text = written(3, 2, [(0, 1, 1), (1, 2, 2)], comments=["generator=x"])
    assert fileio._read_canonical(text) == read_digraph(io.StringIO(text))
    assert fileio._read_canonical(text.replace("\n", "\r\n")) is None
    assert fileio._read_canonical(text.replace("a 0 1 1", "a 0 1")) is None
    assert fileio._read_canonical(text.replace("a 0 1 1", "a 0 3 1")) is None
    assert fileio._read_canonical(text.replace("p dsa 3 2", "p dsa 3 3")) is None
    big = written(3000, 2, triples(random_labelled_dag(3000, 2, 3, 1)))
    assert len(big) > 3 * fileio._SLICE  # read in several slices
    assert fileio._read_canonical(big) == fileio._read_lines(io.StringIO(big))


@st.composite
def instance_texts(draw):
    """Instance text in the canonical layout or a looser one, with at most
    one planted fault and up to three random character edits."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 3))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                   st.integers(1, m)),
                         max_size=12, unique=True).map(
        lambda raw: [[t, (t + d) % n, l] for t, d, l in raw]))
    count = len(arcs)
    fault = draw(st.sampled_from((None, None, None, "id", "label", "count",
                                  "duplicate", "loop", "no labels")))
    if fault == "count":
        count += draw(st.sampled_from((-1, 1)))
    elif fault == "no labels":
        m = 0
    elif fault == "duplicate" and arcs:
        arcs.append(list(draw(st.sampled_from(arcs))))
    elif arcs and fault is not None:
        arc = draw(st.sampled_from(arcs))
        if fault == "id":
            arc[draw(st.integers(0, 1))] = n + draw(st.integers(0, 2))
        elif fault == "label":
            arc[2] = draw(st.sampled_from((0, m + 1)))
        else:
            arc[1] = arc[0]
    loose = draw(st.booleans())
    comment = st.text(st.characters(blacklist_characters="\n"), max_size=6)
    lines = [f"#{c}" for c in draw(st.lists(comment, max_size=2))]
    lines.append(f"p dsa {n} {count} {m}")
    for t, h, l in arcs:
        fields = ["a", str(t), str(h)]
        if not (loose and l == 1 and draw(st.booleans())):
            fields.append(str(l))
        if loose:
            fields[1:] = [draw(st.sampled_from((f, f, f"+{f}", f"{f[0]}_{f[1:] or 0}")))
                          for f in fields[1:]]
            lines.append(draw(st.sampled_from((" ", "\t", "  "))).join(fields))
            lines.extend([""] * draw(st.integers(0, 1)))
        else:
            lines.append(" ".join(fields))
    end = draw(st.sampled_from(("\r\n", "\n"))) if loose else "\n"
    text = "".join(line + end for line in lines)
    char = st.one_of(st.sampled_from("0123456789 _+#apds\t\n\r"), st.characters())
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        rest = text[at:] if edit == "insert" else text[at + 1:]
        text = text[:at] + ("" if edit == "delete" else draw(char)) + rest
    return text


@settings(max_examples=400)
@given(instance_texts())
def test_one_pass_reader_agrees_with_line_reader(text):
    assert outcome(read_digraph, text) == outcome(fileio._read_lines, text)


@st.composite
def canonical_texts(draw):
    """A text in the canonical layout and the one fault planted in it, or
    None: each fault is one the column checks must find."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 3))
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1),
                                   st.integers(1, m)),
                         min_size=1, max_size=12, unique=True).map(
        lambda raw: [[t, (t + d) % n, l] for t, d, l in raw]))
    extra = 0  # arcs the problem line promises beyond those written
    fault = draw(st.sampled_from((None, "label 0", "label m+1", "m = 0",
                                  "end n", "loop", "repeat", "count")))
    arc = draw(st.sampled_from(arcs))
    if fault == "label 0":
        arc[2] = 0
    elif fault == "label m+1":
        arc[2] = m + 1
    elif fault == "m = 0":
        m = 0
    elif fault == "end n":
        arc[draw(st.integers(0, 1))] = n
    elif fault == "loop":
        arc[1] = arc[0]
    elif fault == "repeat":
        arcs.insert(draw(st.integers(0, len(arcs))), list(arc))
    elif fault == "count":
        extra = draw(st.sampled_from((-1, 1)))
    comments = draw(st.lists(st.text(st.characters(blacklist_characters="\n"),
                                     max_size=6), max_size=2))
    text = "".join(f"#{c}\n" for c in comments) + f"p dsa {n} {len(arcs) + extra} {m}\n"
    return text + "".join(f"a {t} {h} {l}\n" for t, h, l in arcs), fault


@settings(max_examples=400)
@given(canonical_texts())
def test_column_checks_agree_with_line_reader(case):
    text, fault = case
    assert (fileio._read_canonical(text) is None) == (fault is not None)
    assert outcome(read_digraph, text) == outcome(
        lambda stream: fileio._read_lines(stream.getvalue().split("\n")), text)


@pytest.mark.parametrize("read, text, error, message", [
    (read_colouring, "c 0\n", ParseError,
     "line 1: colour line must be 'c <arc_index> <colour>'"),
    (read_colouring, "# c 5 1\n\nc 5 1\n", ParseError,
     "line 3: arc index 5 out of range"),
    (read_colouring, "c -1 1\n", ParseError, "line 1: arc index -1 out of range"),
    (read_colouring, "c 0 1\nc 1 0\n", ParseError, "line 2: colours are positive"),
    (read_colouring, "c 0 x\n", ParseError, "line 1: expected integer, got 'x'"),
    (read_colouring, "c 0 1\n\nc 0 2\n", ValidateError, "arc 0 coloured twice"),
    (read_colouring, "c 0 1\ni 0 1\n", ParseError,
     "line 2: interval line must be 'i <vertex> <start> <k>'"),
    (read_colouring, "i 0 0 1\n", ParseError, "line 1: bad interval line values"),
    (read_colouring, "i 0 3 1\n", ParseError, "line 1: bad interval line values"),
    (read_colouring, "i 0 1 1\ni 0 2 1\n", ValidateError,
     "vertex 0 has two interval lines"),
    (read_colouring, "c 0 1\nw 0 1 1 1\n", ParseError,
     "line 2: unknown line type 'w'"),
    (read_wavelengths, "w 0 1 1 1\nc 1 1\n", ParseError,
     "line 2: unknown line type 'c'"),
    (read_wavelengths, "w 0 1 1\n", ParseError,
     "line 1: wavelength line must be 'w <arc> <colour> <f_out> <f_in>'"),
    (read_wavelengths, "#\n\nw 2 1 1 1\n", ParseError,
     "line 3: arc index 2 out of range"),
    (read_wavelengths, "w 0 1 0 1\n", ParseError,
     "line 1: wavelength and fibres are positive"),
    (read_wavelengths, "w 0 1 1 one\n", ParseError,
     "line 1: expected integer, got 'one'"),
    (read_wavelengths, "w 0 1 1 1\nw 0 2 1 1\n", ValidateError,
     "arc 0 assigned twice"),
])
def test_colouring_and_wavelength_error_text(read, text, error, message):
    with pytest.raises(error) as info:
        read(io.StringIO(text), arc_count=2)
    assert type(info.value) is error
    assert str(info.value) == message


def test_read_digraph_takes_lines_without_a_stream():
    lines = ["# comment\n", "p dsa 2 1 1\n", "a 0 1\n"]
    assert read_digraph(lines) == read_digraph(io.StringIO("".join(lines)))
    with pytest.raises(ParseError) as info:
        read_digraph(iter(["p dsa 2 1 1", "a 0 2"]))
    assert str(info.value) == "line 2: vertex id outside 0..1"
