"""Graph loading, key packing, and induced-subgraph behavior."""

import ast
import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triprof import (Engine, ParseError, UndirectedGraph, UsageError, engine, graph,
                     load_edge_list, profiles)
from triprof.ego import _dedup_centers
from triprof.oracle import induced_subgraph

from conftest import load_text


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_text("0 1\n1 2\n2 0\n")
        assert g.vertex_count == 3
        assert g.edge_count == 3

    def test_self_loop_and_reverse_duplicate(self):
        g = load_text("a b\nb a\na a\n")
        assert g.vertex_count == 2
        assert g.edge_count == 1
        assert g.label_of(0) == "a"
        assert g.label_of(1) == "b"

    def test_comment_and_duplicate(self):
        g = load_text("# c\n0 1\n0 1\n")
        assert g.edge_count == 1

    def test_empty_input(self):
        g = load_text("")
        assert g.vertex_count == 0
        assert g.edge_count == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_text("0 1\n0 1 2\n")

    def test_first_appearance_order(self):
        g = load_text("z y\nx z\n")
        assert [g.label_of(i) for i in range(3)] == ["z", "y", "x"]

    def test_vertex_count_override(self):
        g = load_text("0 1\n", vertex_count=5)
        assert g.vertex_count == 5
        assert g.degree(4) == 0

    def test_padding_labels_are_decimal_ids_after_file_labels(self):
        # load_edge_list refuses these labels (see the test below); a graph
        # built from them directly resolves a stored label first
        g = UndirectedGraph.from_edges([(0, 1)], vertex_count=10, labels=["a", "7"])
        assert g.labels == ["a", "7"]
        assert [g.label_of(v) for v in (0, 1, 2, 7, 9)] == ["a", "7", "2", "7", "9"]
        # the stored "7" wins over padding vertex 7's label
        assert [g.id_of_label(x) for x in ("a", "7", "2", "9")] == [0, 1, 2, 9]
        for unknown in ("10", "07", "+9", " 9", "b", "-1"):
            with pytest.raises(UsageError, match="unknown vertex label"):
                g.id_of_label(unknown)

    @pytest.mark.parametrize("vertex_count", [8, 10])
    def test_label_spelling_a_padding_id_is_refused(self, vertex_count):
        text = "a b\nb c\nc a\n7 a\n7 b\n7 c\n"
        with pytest.raises(UsageError, match="input label '7' is also the label of padding"):
            load_text(text, vertex_count=vertex_count)
        with pytest.raises(UsageError, match="label '4' .* adds ids 4 to"):  # the first padding id
            load_text("a b\nb c\nc 4\n", vertex_count=vertex_count)
        # padding that stops below id 7, and labels that only look like it, load
        assert load_text(text, vertex_count=7).id_of_label("7") == 3
        for label in ("07", "+7", "7.0", "\u0667"):
            g = load_text(f"a b\n{label} a\n", vertex_count=vertex_count)
            assert g.labels == ["a", "b", label]

    def test_padding_keeps_no_label_per_vertex(self):
        tracemalloc.start()
        try:
            g = load_text("a b\nb c\nc a\n", vertex_count=10 ** 6)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g.labels == ["a", "b", "c"]
        assert g.label_of(999_999) == "999999"
        assert g.id_of_label("999999") == 999_999
        # the degrees hold 8 MB; a str per padding vertex would add more
        # than 50 MB
        assert held < 24 * 2 ** 20, held

    def test_override_below_seen_rejected(self):
        with pytest.raises(UsageError):
            load_text("0 1\n1 2\n", vertex_count=2)

    def test_from_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.edge_count == 2

    def test_non_utf8_file_reports_number(self, tmp_path):
        # the text layer decodes ahead in blocks, so the bad line lies far past
        # the last line the loop has seen when the error surfaces
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n" * 3000 + b"0 \xe9\n" + b"1 2\n" * 3000)
        with pytest.raises(ParseError, match="line 3001: not UTF-8"):
            load_edge_list(path)


# -- the whole-text tokenizer against the line loop it replaced --------------

def reference_load(lines) -> UndirectedGraph:
    """The line-by-line parser the loader replaced, over an iterable of lines."""
    ids: dict[str, int] = {}
    pairs = []
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two vertex labels, got {len(tokens)}")
        pairs.append([ids.setdefault(tok, len(ids)) for tok in tokens])
    return UndirectedGraph.from_edges(pairs, vertex_count=len(ids), labels=list(ids))


def assert_same_parse(expect, got) -> None:
    """Both calls give the same ids (canonical edges and degrees), labels and
    CSR, or the same ParseError message."""
    try:
        want = expect()
    except ParseError as exc:
        with pytest.raises(ParseError) as raised:
            got()
        assert str(raised.value) == str(exc)
        return
    g = got()
    assert g.labels == want.labels
    assert np.array_equal(g.edge_u, want.edge_u)
    assert np.array_equal(g.edge_w, want.edge_w)
    assert np.array_equal(g.degrees, want.degrees)
    assert np.array_equal(g.indptr, want.indptr)
    assert np.array_equal(g.indices, want.indices)


LABELS = ["0", "1", "7", "07", "7\x00", "a#b", "b#", "#c", "été", "漢字", "\U0001f642",
          "abcdefg", "abcdefgh", "abcdefghi", "abcdefghij", "abcdefghik",
          "αβγδεζηθ", "αβγδεζηι", "a-label-longer-than-24-bytes-0",
          "a-label-longer-than-24-bytes-1", "a-label-longer-than-24-bytes"]
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\u00a0", "\u2003", "\x85", " \t\u3000"]
ENDINGS = ["\n", "\r\n", "\r"]
label = st.one_of(
    st.sampled_from(LABELS),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=graph.WHITESPACE),
            min_size=1, max_size=11))
space = st.sampled_from(SPACES)


@st.composite
def token_line(draw, count: int, first=label) -> str:
    tokens = [draw(first)] + [draw(label) for _ in range(count - 1)]
    gaps = [draw(space) for _ in range(count + 1)]
    return ((gaps[0] if draw(st.booleans()) else "") + "".join(
        t + g for t, g in zip(tokens, gaps[1:-1] + [""]))
        + (gaps[-1] if draw(st.booleans()) else ""))


@st.composite
def edge_list_text(draw) -> str:
    lines = draw(st.lists(st.one_of(
        token_line(2), token_line(2), token_line(2),
        st.integers(1, 3).flatmap(lambda k: token_line(k, first=label.map("#".__add__))),
        st.just(""), space), max_size=14))
    wrong = draw(st.sampled_from([None, "first", "middle", "last"]))
    if wrong and lines:
        at = {"first": 0, "middle": len(lines) // 2, "last": len(lines) - 1}[wrong]
        lines[at] = draw(st.sampled_from([1, 3]).flatmap(
            lambda k: token_line(k, first=label.filter(lambda t: not t.startswith("#")))))
    ends = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=300, deadline=None)
@given(edge_list_text())
def test_loader_matches_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.txt"
    path.write_bytes(text.encode("utf-8"))

    def from_file():
        with open(path, encoding="utf-8") as handle:
            return reference_load(handle)

    assert_same_parse(from_file, lambda: load_edge_list(path))
    assert_same_parse(from_file, lambda: load_edge_list(str(path)))


# -- decimal labels: the decimal keys against the line loop --------------------

DIGIT_LABELS = ["0", "00", "07", "007", "7", "70", "0000000", "9999999", "9999998",
                "1000000", "0999999", "1234567"]
digit_label = st.one_of(st.sampled_from(DIGIT_LABELS),
                        st.text("0123456789", min_size=1, max_size=7))
ASCII_GAPS = [" ", "\t", "  ", " \t", "\x0b", "\x0c", "\x1c", "\x1f"]
COMMENTS = ["#", "# 1 2", "#7 8", "# x y z", "#\u00e9t\u00e9 1"]
# tokens that leave the decimal keys: 8 digits, or not only ASCII digits
NOT_DIGITS = ["12345678", "00000000", "x", "7a", "a7", "#7", "1.5", "-1", "+7", "7\x00",
              ":", "7?", "/0", "\u0667", "\uff17", "7\u00e9"]


@st.composite
def digit_edge_list_text(draw) -> tuple[str, str | None]:
    """(text, intruder): an edge list of at least one data line whose labels
    are 1 to 7 ASCII digits, with comments, blank lines and every line end,
    and maybe one label swapped for an intruder from NOT_DIGITS."""
    kinds = draw(st.lists(st.sampled_from(["data", "data", "data", "comment", "blank"]),
                          min_size=1, max_size=14))
    kinds[draw(st.integers(0, len(kinds) - 1))] = "data"
    intruder = draw(st.sampled_from([None] * len(NOT_DIGITS) + NOT_DIGITS))
    swapped = draw(st.sampled_from([i for i, kind in enumerate(kinds) if kind == "data"]))
    lines = []
    for i, kind in enumerate(kinds):
        if kind == "data":
            second = intruder if intruder and i == swapped else draw(digit_label)
            lines.append(draw(st.sampled_from(["", " "])) + draw(digit_label)
                         + draw(st.sampled_from(ASCII_GAPS)) + second
                         + draw(st.sampled_from(["", " ", "\t"])))
        else:
            lines.append(draw(st.sampled_from(COMMENTS if kind == "comment" else ["", " "])))
    ends = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), intruder


@settings(max_examples=200, deadline=None)
@given(digit_edge_list_text())
@example(("0 00\n007 7\n07 0000000\n7 0\n", None))  # one value, five labels
@example(("9999999 9999998\n", None))  # a tiny file whose keys are near the table's top
@example(("9999999 1\n1000000 9999999\r\n#x\n\n0999999 9999998", None))
@example(("0 7\n007 12345678\n", "12345678"))  # an 8-digit intruder
def test_digit_labels_match_line_loop(tmp_path_factory, drawn):
    """Files of decimal labels take the decimal keys, and a file with one
    other token the general keys; both give what the line loop gives."""
    text, intruder = drawn
    path = tmp_path_factory.getbasetemp() / "digits.txt"
    path.write_bytes(text.encode("utf-8"))

    def from_file():
        with open(path, encoding="utf-8") as handle:
            return reference_load(handle)

    taken, real = [], graph._decimal_keys

    def spy(*args):
        keys = real(*args)
        taken.append(keys is not None)
        return keys

    with mock.patch.object(graph, "_decimal_keys", spy):
        assert_same_parse(from_file, lambda: load_edge_list(path))
    assert taken == [intruder is None]


@pytest.mark.parametrize("intruder_line", [0, 1, 2500, 4999])
def test_non_decimal_file_refused_on_a_first_look(tmp_path, intruder_line):
    """A file with a 7-byte 'v'-prefixed label among its first tokens is
    refused after the word work on the first _PROBE tokens only; one whose
    first _PROBE tokens are digits still gets the full check. Both load as
    the line loop loads them."""
    rng = np.random.default_rng(intruder_line)
    lines = [f"{a} {b}\n" for a, b in rng.integers(0, 10 ** 6, size=(5000, 2)).tolist()]
    lines[intruder_line] = "v123456 7\n"  # token 2 * intruder_line
    path = tmp_path / "g.txt"
    path.write_text("".join(lines))
    checked, real = [], graph._digit_words

    def spy(data, starts, length):
        checked.append(len(starts))
        return real(data, starts, length)

    with mock.patch.object(graph, "_digit_words", spy):
        assert_same_parse(lambda: reference_load(lines), lambda: load_edge_list(path))
    if 2 * intruder_line < graph._PROBE:
        assert checked == [graph._PROBE]
    else:
        assert checked == [graph._PROBE, 10_000]


@pytest.mark.parametrize("text", [
    b"1 2\n2 3 4\n", b"0 00\n007\n", b"9999999 9999998\r1\r\n", b"1 2\n# 3\n7 \xe9\n",
    b"1 2\n12345678 3 4\n"])
def test_decimal_label_errors_match_line_loop(tmp_path, text):
    """A file of decimal labels with a wrong token count or a line that is
    not UTF-8 fails on the line, and with the message, of the line loop."""
    path = tmp_path / "g.txt"
    path.write_bytes(text)
    lines = text.splitlines(keepends=True)
    assert_same_parse(lambda: reference_load(lines), lambda: load_edge_list(path))
    with pytest.raises(ParseError):
        load_edge_list(path)


@pytest.mark.parametrize("byte", range(128), ids=lambda b: f"{b:#04x}")
def test_each_ascii_byte_between_digit_labels(tmp_path, byte):
    """Read from a file, each ASCII byte separates two digit labels exactly
    when str.split does and ends a line exactly when the line loop does; this
    pins both ends of the space ranges 9-13 and 28-32, and NUL as a token byte."""
    c = chr(byte)
    path = tmp_path / "g.txt"
    # the second file also has labels that differ only in leading zeros, the
    # largest 7-digit label, and a 7-digit label that the byte, when it is
    # a digit, makes 8 digits long
    for text in (f"12{c}34 56\n78 9{c}0\n",
                 f"12{c}34 0\n00 9{c}0\n007 7\n9999999 7{c}\n9{c}999999 07\n"):
        path.write_bytes(text.encode())

        def from_file():
            with open(path, encoding="utf-8") as handle:
                return reference_load(handle)

        assert_same_parse(from_file, lambda: load_edge_list(path))


def test_path_that_is_not_a_regular_file(tmp_path):
    """A FIFO reports no size, so it is read whole after the sized read."""
    fifo = tmp_path / "g.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=("0 1\n1 2\n2 0\n",), daemon=True)
    writer.start()
    g = load_edge_list(fifo)
    writer.join(timeout=10)
    assert g.labels == ["0", "1", "2"]
    assert g.edge_count == 3


def test_non_utf8_file_after_every_line_end(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\r\n" * 3 + b"0 1\r" * 2 + b"0 1\n0 \xe9\n")
    with pytest.raises(ParseError, match="^line 7: not UTF-8"):
        load_edge_list(path)


# -- pieces: the text cut after LF bytes, one piece a step ------------------------

def load_in_pieces(path, piece_bytes: int, workers: int):
    """``load_edge_list`` with pieces of at most about ``piece_bytes`` bytes
    on an engine of ``workers`` workers, as many as run on any machine."""
    with mock.patch.object(graph, "PIECE_BYTES", piece_bytes), \
            mock.patch.object(engine, "usable_cpus", lambda: workers):
        return load_edge_list(path, engine=Engine(workers))


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(edge_list_text(), digit_edge_list_text().map(lambda drawn: drawn[0])),
       piece_bytes=st.integers(1, 24), workers=st.integers(1, 3))
def test_pieced_loader_matches_whole_file_loader(tmp_path_factory, text, piece_bytes, workers):
    """Cut every few bytes, next to comments, blank lines, every line end,
    wide spaces and lines of one or three tokens, and with decimal pieces
    beside others, the pieces load as the whole file does."""
    path = tmp_path_factory.getbasetemp() / "pieces.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_same_parse(lambda: load_edge_list(path),
                      lambda: load_in_pieces(path, piece_bytes, workers))


@pytest.mark.parametrize("text, message", [
    (b"0 1\r\n" * 40 + b"# 1 2 3\n\n2 3 4\n5 6\n",
     "line 43: expected two vertex labels, got 3"),
    (b"0 1\r" * 20 + b"0 1\n" * 20 + b"2\n" + b"1 \xe9\n",
     "line 41: expected two vertex labels, got 1"),
    (b"0 1\n" * 30 + b"1 \xe9\n" + b"0\n" + b"1 2\n" * 10,
     "line 31: not UTF-8 text (invalid continuation byte)"),
    (b"a b\n" * 30 + b"\n\n\xff\n",
     "line 33: not UTF-8 text (invalid start byte)"),
    (b"0 1\n" * 20 + b"2\n" + b"0 1\n" * 20 + b"3 4 5\n",
     "line 21: expected two vertex labels, got 1"),
], ids=["wrong-count-after-crlf", "wrong-count-before-bad-utf8",
        "bad-utf8-before-wrong-count", "bad-utf8-in-last-piece", "two-wrong-counts"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_bad_line_over_all_pieces(tmp_path, text, message, workers):
    """The first bad line of the whole file, a wrong token count or bytes
    that are not UTF-8, fails the load with its number and message, whichever
    piece it lies in."""
    path = tmp_path / "g.txt"
    path.write_bytes(text)
    with pytest.raises(ParseError) as whole:
        load_edge_list(path)
    assert str(whole.value) == message
    for piece_bytes in (4, 16, 64):
        with pytest.raises(ParseError) as pieced:
            load_in_pieces(path, piece_bytes, workers)
        assert str(pieced.value) == message


@pytest.mark.parametrize("size, piece_bytes, workers, count", [
    (100, 100, 2, 1), (101, 100, 2, 2), (101, 100, 3, 3), (450, 100, 2, 6), (450, 100, 1, 5)])
def test_cuts_are_balanced_after_line_feeds(size, piece_bytes, workers, count):
    """Past PIECE_BYTES the text is cut into the fewest pieces of at most
    about PIECE_BYTES that are a multiple of the workers, each cut just after
    an LF, at most one line past the end of an even share."""
    data = np.zeros(size + 8, dtype=np.uint8)
    data[:size] = np.frombuffer((b"0 1\n" * size)[:size], dtype=np.uint8)
    with mock.patch.object(graph, "PIECE_BYTES", piece_bytes):
        cuts = graph._cuts(data, size, workers)
    assert len(cuts) - 1 == count
    assert cuts[0] == 0 and cuts[-1] == size
    assert all(data[c - 1] == 10 for c in cuts[1:-1])
    share = size / count  # each cut lies less than one 4-byte line past its share's end
    assert all(k * share < c <= k * share + 4 for k, c in enumerate(cuts[1:-1], 1))
    assert max(np.diff(cuts)) <= piece_bytes + 4


def test_a_line_longer_than_its_share_leaves_fewer_pieces():
    text = b"0 1\n" + b"x" * 200 + b" y\n" + b"0 1\n"
    data = np.zeros(len(text) + 8, dtype=np.uint8)
    data[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    with mock.patch.object(graph, "PIECE_BYTES", 20):
        assert graph._cuts(data, len(text), 2) == [0, len(text) - 4, len(text)]


def test_pieces_start_one_thread_on_two_cpus(tmp_path, monkeypatch):
    """Eight workers asked for on two CPUs: the pieces' pass starts one
    thread, and the graph is the whole-file loader's."""
    class Counting(threading.Thread):
        started = 0

        def start(self):
            Counting.started += 1
            super().start()

    rng = np.random.default_rng(2)
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in rng.integers(0, 300, (2000, 2)).tolist()))
    whole = load_edge_list(path)
    monkeypatch.setattr(graph, "PIECE_BYTES", 512)
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "Thread", Counting)
    assert_same_parse(lambda: whole, lambda: load_edge_list(path, engine=Engine(8)))
    assert Counting.started == 1


def test_other_labels_are_keyed_once_over_all_pieces(tmp_path, monkeypatch):
    """A file whose pieces do not all take the decimal keys, here a piece of
    digits, one of comments only and one of other labels, builds the general
    keys in one pass over every token, and loads as the whole file does."""
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n1 2\n" * 8 + b"# x y\n" * 12 + b"a b\nb 3\n" * 8)
    whole = load_edge_list(path)
    keyed, real = [], graph._words

    def spy(data, offsets, nbytes):
        keyed.append(len(offsets))
        return real(data, offsets, nbytes)

    monkeypatch.setattr(graph, "_words", spy)
    assert_same_parse(lambda: whole, lambda: load_in_pieces(path, 64, 3))
    assert keyed == [64]  # the 32 data lines' tokens


def test_whitespace_is_what_str_split_splits_on():
    assert graph.WHITESPACE == "".join(c for c in map(chr, range(0x110000)) if c.isspace())
    assert ("a" + graph.WHITESPACE + "b").split() == ["a", "b"]


def test_labels_differ_by_length_and_bytes():
    long = "x" * 40
    g = load_text(
        f"7 07\n7\x00 abcdefghij\nabcdefghik 7\n{long}a {long}b\n{long} {long}a\n")
    assert g.labels == ["7", "07", "7\x00", "abcdefghij", "abcdefghik",
                        f"{long}a", f"{long}b", long]
    assert g.edge_count == 5


def test_parse_memory_is_bounded(tmp_path):
    """Parsing a 200k-line file peaks well below what per-line Python objects
    took: the line-loop parser peaked at 52 MiB on the decimal file. Its
    copy with 13-byte labels takes the byte groups, which peak at about
    24 MiB; the 7-byte keys and rounds of ranked pairs they replace peaked
    at about 44 MiB."""
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 50_000, size=(200_000, 2)).tolist()
    for label, bound in [("{}", 32 << 20), ("user_{:08d}", 32 << 20)]:
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{label.format(a)} {label.format(b)}\n" for a, b in pairs))
        tracemalloc.start()
        try:
            g = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count > 190_000
        assert peak < bound, label


def first_appearance(values) -> tuple[list[int], list[int]]:
    """Reference numbering by a dict: each value's id, and the index where
    each id first appears."""
    ids, heads = {}, []
    for i, v in enumerate(values):
        if v not in ids:
            ids[v] = len(ids)
            heads.append(i)
    return [ids[v] for v in values], heads


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0, 1, 7, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]),
                          st.integers(0, 2 ** 64 - 1)), max_size=40))
@example([])
@example([5])
@example([2 ** 64 - 1] * 6)
@example([2 ** 63, 3, 2 ** 63 + 1, 3, 2 ** 63])
def test_table_ids_of_ranks_number_by_first_appearance(values):
    """The load's one numbering, ranks then the table, over uint64 keys."""
    rank, count = graph._rank(np.array(values, dtype=np.uint64))
    assert rank.tolist() == [sorted(set(values)).index(v) for v in values]
    assert count == len(set(values))
    ids, heads = graph._table_ids(rank)
    assert (ids.tolist(), heads.tolist()) == first_appearance(values)


def byte_groups(tokens: list[bytes]) -> list[int]:
    """graph._byte_groups of the tokens laid end to end, so that the bytes
    after each token are the next token's."""
    length = np.array([len(t) for t in tokens], dtype=np.int32)
    starts = np.zeros(len(tokens), dtype=np.int32)
    np.cumsum(length[:-1], out=starts[1:])
    return graph._byte_groups(graph._padded(b"".join(tokens)), starts, length).tolist()


# Prefixes that end inside, at and past the first and second 8-byte words.
BYTE_PREFIXES = ["", "abcdefg", "abcdefgh", "abcdefgh\x00", "p" * 16, "p" * 16 + "q"]


@st.composite
def byte_tokens(draw) -> list[bytes]:
    """Non-empty UTF-8 tokens, with NUL bytes, multi-byte characters, shared
    prefixes and repeats."""
    tail = st.text(st.sampled_from(["\x00", "a", "h", "p", "\xe9", "\u20ac", "\U0001f600"]),
                   max_size=20)
    token = st.builds(lambda p, t: (p + t).encode(), st.sampled_from(BYTE_PREFIXES), tail)
    base = draw(st.lists(token.filter(bool), min_size=1, max_size=30))
    repeats = draw(st.lists(st.sampled_from(base), max_size=30))
    return draw(st.permutations(base + repeats))


@settings(max_examples=300, deadline=None)
@given(byte_tokens())
@example([b"a" * n for n in (1, 7, 8, 9, 15, 16, 17, 24, 30)] * 2)
@example([b"abcdefg", b"abcdefg\x00", b"abcdefgh", b"abcdefgh\x00", b"\x00", b"\x00" * 8])
@example(["\xe9".encode() * n for n in (4, 5, 8, 9, 12)] + ["\u20ac".encode() * 3] * 3)
def test_byte_groups_equal_exactly_when_bytes_are(tokens):
    groups = byte_groups(tokens)
    assert min(groups) >= 0
    assert len(set(groups)) == len(set(tokens)) == len(set(zip(groups, tokens)))


def test_byte_groups_past_int32_products():
    """Dense group ids are int32 here, but the last group's id times the
    2**16 distinct second words reaches 2**32: groups 0 and 2**16 share both
    their second words, and every token still gets a group of its own."""
    k = 2 ** 16
    tokens = [b"%08d%08d" % (g, (g + e) % k) for g in range(k + 1) for e in (0, 1)]
    assert len(set(byte_groups(tokens))) == len(tokens)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 11), max_size=40))
@example([])
@example([4])
@example([11] * 5)
def test_dedup_centers_keeps_first_appearances(centers):
    g = UndirectedGraph.from_edges([], vertex_count=12)
    _, heads = first_appearance(centers)
    assert _dedup_centers(g, centers).tolist() == [centers[i] for i in heads]


def test_one_first_appearance_numbering():
    """``graph._table_ids`` is the package's one first-appearance numbering:
    no ``np.unique(..., return_index=...)`` and no ``minimum.reduceat``
    under ``src/triprof``, so a second numbering cannot come back unseen."""
    found = []
    for path in sorted(Path(graph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and any(k.arg == "return_index" for k in node.keywords)):
                found.append((path.name, node.lineno, "unique(return_index)"))
            if (isinstance(node, ast.Attribute) and node.attr == "reduceat"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "minimum"):
                found.append((path.name, node.lineno, "minimum.reduceat"))
    assert found == []


class TestKeyPackingLimit:
    LIMIT = 3_037_000_499

    def test_limit_is_the_largest_packable_count(self):
        # the largest key over n vertices is (n - 1) * n + (n - 1) = n**2 - 1
        assert self.LIMIT ** 2 - 1 <= np.iinfo(np.int64).max < (self.LIMIT + 1) ** 2 - 1
        graph.check_key_packing(self.LIMIT)
        with pytest.raises(UsageError, match="int64"):
            graph.check_key_packing(self.LIMIT + 1)

    @pytest.mark.parametrize("build", [
        lambda n: UndirectedGraph.from_edges([(0, 1)], vertex_count=n),
        lambda n: load_text("0 1\n", vertex_count=n),
    ], ids=["from_edges", "load_edge_list"])
    def test_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="int64"):
                build(self.LIMIT + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_key_users_check_the_limit(self, k4, monkeypatch):
        monkeypatch.setattr(graph, "MAX_PACKABLE_VERTICES", 3)
        with pytest.raises(UsageError, match="int64"):
            k4.pos_to_edge
        with pytest.raises(UsageError, match="int64"):
            profiles.edge_triangle_counts(k4)


class TestStructure:
    def test_adjacency_symmetric_and_sorted(self, c5):
        for v in range(c5.vertex_count):
            nb = c5.neighbors(v)
            assert list(nb) == sorted(set(int(x) for x in nb))
            for w in nb:
                assert v in c5.neighbors(int(w))

    def test_degree_sum_is_twice_edges(self, k4, c5, star3):
        for g in (k4, c5, star3):
            assert int(g.degrees.sum()) == 2 * g.edge_count

    def test_canonical_edges_sorted(self, k4, c5, star3):
        for g in (k4, c5, star3):
            assert np.all(g.edge_u < g.edge_w)
            assert np.all(np.diff(g.edge_u * g.vertex_count + g.edge_w) > 0)
            rows = np.repeat(np.arange(g.vertex_count), g.degrees)
            upper = g.indices > rows
            assert np.array_equal(g.pos_to_edge[upper], np.arange(g.edge_count))

    def test_round_trip(self, tmp_path):
        g = load_text("b a\nc b\na c\nd a\n")
        g.write_edge_list(tmp_path / "g.txt")
        again = load_edge_list(tmp_path / "g.txt")
        assert sorted(again.labels) == sorted(g.labels)
        assert again.canonical_edge_lines() == g.canonical_edge_lines() == [
            "a b", "a c", "a d", "b c"]

    def test_pos_to_edge_covers_both_directions(self, c5):
        counts = np.bincount(c5.pos_to_edge, minlength=c5.edge_count)
        assert np.all(counts == 2)

    def test_stores_only_degrees_and_canonical_edges(self):
        g = UndirectedGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], vertex_count=6)
        arrays = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
        n, m = g.vertex_count, g.edge_count
        assert sum(a.nbytes for a in arrays) == 8 * (n + 2 * m)
        assert g._adjacency is None and g._pos_to_edge is None
        # the CSR is built on first use, once
        assert np.array_equal(g.indptr, [0, 2, 4, 7, 8, 8, 8])
        assert np.array_equal(g.indices, [1, 2, 0, 2, 0, 1, 3, 2])
        assert g._csr_arrays() is g._csr_arrays()


class TestInducedSubgraph:
    def test_k4_neighborhood_is_triangle(self, k4):
        sub = induced_subgraph(k4, k4.neighbors(0))
        assert sub.vertex_count == 3
        assert sub.edge_count == 3

    def test_c5_neighborhood_has_no_edges(self, c5):
        sub = induced_subgraph(c5, c5.neighbors(0))
        assert sub.vertex_count == 2
        assert sub.edge_count == 0

    def test_empty_set(self, k4):
        sub = induced_subgraph(k4, [])
        assert sub.vertex_count == 0
        assert sub.edge_count == 0

    def test_out_of_range_rejected(self, k4):
        with pytest.raises(UsageError):
            induced_subgraph(k4, [0, 9])

    def test_labels_retained(self):
        g = load_text("a b\nb c\nc a\n")
        sub = induced_subgraph(g, [0, 2])
        assert sorted(sub.label_of(v) for v in range(2)) == ["a", "c"]
        assert sub.edge_count == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60),
       st.integers(0, 5))
def test_pos_to_edge_matches_canonical_pairs(pairs, isolated):
    n = 1 + max((max(pair) for pair in pairs), default=0) + isolated
    g = UndirectedGraph.from_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2),
                                   vertex_count=n)
    canonical = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    assert list(zip(g.edge_u.tolist(), g.edge_w.tolist())) == canonical
    rows = np.repeat(np.arange(n), g.degrees)
    ends = np.sort(np.stack([rows, g.indices], axis=1), axis=1)
    assert np.array_equal(g.edge_u[g.pos_to_edge], ends[:, 0])
    assert np.array_equal(g.edge_w[g.pos_to_edge], ends[:, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60))
def test_from_edges_normalizes(pairs):
    g = UndirectedGraph.from_edges(pairs) if pairs else UndirectedGraph.from_edges([])
    expect = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    got = set(zip(map(int, g.edge_u), map(int, g.edge_w)))
    assert got == expect
    assert int(g.degrees.sum()) == 2 * g.edge_count
