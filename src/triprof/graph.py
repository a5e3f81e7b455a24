"""Immutable undirected graph: degrees and canonical edges, adjacency on demand.

Vertices are dense integers in [0, vertex_count). Graphs loaded from
edge-list files keep the original labels so per-vertex output can be written
back in the source vocabulary; a vertex with no stored label, such as one
added by ``vertex_count``, is labeled by its decimal id. Each edge also has a
canonical orientation (u < w) and a stable index in [0, edge_count), which
every per-edge phase keys on.

A graph stores its degrees and its canonical edges; every triprof command
reads nothing else. The CSR (``indptr`` and ``indices``, sorted neighbor
lists) is built on first use, and so is ``pos_to_edge``, the ordinal of
every CSR position. Only the reference paths read them: ``neighbors``
(which ``oracle.ego_serial`` and ``oracle.brute_force_ego`` call),
``pos_to_edge`` and ``sparse_adjacency``. Labels read from a file are kept
as their UTF-8 bytes joined by LF and decoded when first read, so a command
that writes no label never builds them.

``load_edge_list`` reads a file straight into one zero-padded byte array
and tokenizes it with array operations, a file above PIECE_BYTES in pieces
cut after LF bytes, one piece a step of the engine's workers; numbering and
the first-error rule stay whole-file passes. ASCII whitespace is the bytes
9-13 and 28-32, two unsigned range compares; the wider whitespace characters
are looked for only among bytes of 0xC2 and above, and only in files that
have such bytes. One list of the space offsets gives every token's bounds,
and a running count of the line ends among those spaces gives its line.
A label of L = 1 to 7 ASCII digits, as in SNAP-style files, is keyed by its
value plus (10**L - 1) // 9, which maps the digit strings one to one onto
1 to 11 111 110 and so keeps ``7``, ``07`` and ``007`` apart. Any other
label is keyed by its group among the tokens of equal bytes, found 8 bytes
a round, with 0xFF read past each token's end. One table indexed by key
numbers either kind by first appearance.
"""

from __future__ import annotations

import os
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import engine as engine_mod
from .engine import Engine
from .errors import ParseError, UsageError

# Largest vertex count whose packed edge keys u*n + w (u, w < n) fit in int64.
MAX_PACKABLE_VERTICES = 3_037_000_499


def check_key_packing(n: int) -> None:
    """Raise UsageError when u*n + w keys over n vertices would overflow int64."""
    if n > MAX_PACKABLE_VERTICES:
        raise UsageError(
            f"{n} vertices exceed the {MAX_PACKABLE_VERTICES} that int64 edge keys can pack")


def _ends(keys: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the keys tail*n + head: heads = key - (key // n)*n, in place."""
    tails = keys // n
    heads = tails * n
    np.subtract(keys, heads, out=heads)
    return tails, heads


class UndirectedGraph:
    """Simple undirected graph: no loops, no duplicates, sorted canonical edges.

    Instances are immutable after construction and safe to share across
    parallel readers; a lazy cache (the CSR, ``pos_to_edge``, the decoded
    labels) may be filled by more than one of them, with equal values.
    Construct via :meth:`from_edges` or :func:`load_edge_list`.
    """

    def __init__(self, degrees: np.ndarray, edge_u: np.ndarray, edge_w: np.ndarray,
                 labels: list[str] | _LabelText | None = None):
        self._degrees = degrees
        # canonical edges (u < w), ordered lexicographically by (u, w)
        self._edge_u = edge_u
        self._edge_w = edge_w
        self._labels = labels  # a _LabelText is decoded into a list when first read
        self._label_index: dict[str, int] | None = None
        self._adjacency: tuple[np.ndarray, np.ndarray] | None = None
        self._pos_to_edge = None
        self._csr = None
        for arr in (self._degrees, self._edge_u, self._edge_w):
            arr.setflags(write=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, pairs, vertex_count: int | None = None,
                   labels: list[str] | _LabelText | None = None) -> "UndirectedGraph":
        """Build from (u, w) integer pairs; drops self-loops and duplicate/reversed edges.

        ``labels`` name the first len(labels) vertices; every later vertex is
        labeled by its decimal id when asked for.

        Edges are deduplicated by sorting their packed keys lo*n + hi, which
        also orders the canonical edges; the degrees are two bincounts of
        their endpoints.
        """
        a = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                       dtype=np.int64).reshape(-1, 2)
        if a.size and a.min() < 0:
            raise UsageError("vertex ids must be non-negative")
        seen = int(a.max()) + 1 if a.size else 0
        if vertex_count is None:
            n = seen
        else:
            if vertex_count < seen:
                raise UsageError(
                    f"vertex_count {vertex_count} is below the largest id seen ({seen - 1})")
            n = int(vertex_count)
        check_key_packing(n)
        if labels is not None and len(labels) > n:
            raise UsageError("more labels than vertices")

        width = np.int64(max(n, 1))
        lo = np.minimum(a[:, 0], a[:, 1])
        hi = np.maximum(a[:, 0], a[:, 1])
        del a
        keys = lo * width + hi
        keys = _sorted_distinct(keys[lo != hi])
        del lo, hi
        edge_u, edge_w = _ends(keys, width)
        del keys
        degrees = np.bincount(edge_u, minlength=n)
        degrees += np.bincount(edge_w, minlength=n)
        return cls(degrees, edge_u, edge_w, labels)

    # -- basic accessors ----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._degrees)

    @property
    def edge_count(self) -> int:
        return len(self._edge_u)

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    @property
    def edge_u(self) -> np.ndarray:
        return self._edge_u

    @property
    def edge_w(self) -> np.ndarray:
        return self._edge_w

    @cached_property
    def labels(self) -> list[str] | None:
        """The stored labels of the first len(labels) vertices, or None.
        Labels kept as joined bytes are decoded on the first read; cached,
        so that ``label_of`` reads a plain attribute after that."""
        if isinstance(self._labels, _LabelText):
            self._labels = self._labels.decode()
        return self._labels

    def label_of(self, v: int) -> str:
        labels = self.labels
        return labels[v] if labels is not None and v < len(labels) else str(v)

    def id_of_label(self, label: str) -> int:
        """Dense id for a source label: a stored label first, else the
        decimal id of a vertex with no stored label."""
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels or ())}
        v = self._label_index.get(label)
        if v is not None:
            return v
        try:
            v = int(label)
        except ValueError:
            v = -1
        if str(v) != label or not len(self.labels or ()) <= v < self.vertex_count:
            raise UsageError(f"unknown vertex label {label!r}")
        return v

    # -- adjacency (lazy, cached; only reference paths read it) ---------------

    def _both_keys(self) -> np.ndarray:
        """Packed keys row*n + col of both directions of every edge: the
        canonical edges' first, then their reverses'."""
        check_key_packing(self.vertex_count)
        n = np.int64(self.vertex_count)
        u, w = self._edge_u, self._edge_w
        return np.concatenate([u * n + w, w * n + u])

    def _csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the sorted adjacency, from one sort of both
        directions' keys, built on first use."""
        if self._adjacency is None:
            keys = self._both_keys()
            keys.sort()
            indices = keys % np.int64(max(self.vertex_count, 1))
            del keys
            indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._adjacency = indptr, indices
        return self._adjacency

    @property
    def indptr(self) -> np.ndarray:
        return self._csr_arrays()[0]

    @property
    def indices(self) -> np.ndarray:
        return self._csr_arrays()[1]

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view)."""
        indptr, indices = self._csr_arrays()
        return indices[indptr[v]:indptr[v + 1]]

    @property
    def pos_to_edge(self) -> np.ndarray:
        """Edge ordinal for every CSR position (both directions of each edge);
        the positions with col > row are the canonical edges in order.

        The CSR positions are the sorted order of both directions' keys, and
        the key at i or i + |E| is that of edge i, so one argsort of those
        keys gives the ordinals. No triprof computation reads it.
        ``perfbench/tracing.py`` wraps this property and its ``_pos_to_edge``
        cache slot, and tests use it as a reference.
        """
        if self._pos_to_edge is None:
            out = np.argsort(self._both_keys())
            out %= max(self.edge_count, 1)
            out.setflags(write=False)
            self._pos_to_edge = out
        return self._pos_to_edge

    def sparse_adjacency(self):
        """Boolean adjacency as a scipy CSR matrix with int32 data (cached),
        built from the lazy CSR.

        No triprof computation uses it; ``perfbench/tracing.py`` still calls it.
        """
        if self._csr is None:
            import scipy.sparse as sp

            n = self.vertex_count
            indptr, indices = self._csr_arrays()
            self._csr = sp.csr_matrix(
                (np.ones(len(indices), dtype=np.int32),
                 indices.astype(np.int32), indptr.astype(np.int64)),
                shape=(n, n))
        return self._csr

    # -- output ------------------------------------------------------------

    def canonical_edge_lines(self) -> list[str]:
        """One 'u w' pair per edge over original labels, pairs and lines sorted."""
        pairs = []
        for u, w in zip(self._edge_u, self._edge_w):
            a, b = self.label_of(int(u)), self.label_of(int(w))
            if b < a:
                a, b = b, a
            pairs.append((a, b))
        pairs.sort()
        return [f"{a} {b}" for a, b in pairs]

    def write_edge_list(self, path: str | Path) -> None:
        text = "\n".join(self.canonical_edge_lines())
        Path(path).write_text(text + "\n" if text else text)

    def __repr__(self) -> str:
        return f"UndirectedGraph(|V|={self.vertex_count}, |E|={self.edge_count})"


# Every character that str.split() separates tokens on, i.e. every character
# for which str.isspace() is true. Lines end at '\n', '\r\n' or a lone '\r'.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
              "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f"
              "\u205f\u3000")
# The ASCII ones are the bytes 9-13 and 28-32, two ranges that one unsigned
# compare each tests. The others encode to 2 or 3 bytes, led by one of four
# byte values, all at least 0xC2; only where those occur are the following
# bytes compared.
_WIDE_SPACES = [c.encode() for c in WHITESPACE if not c.isascii()]
_WIDE_LEAD = np.zeros(256, dtype=bool)
_WIDE_LEAD[[b[0] for b in _WIDE_SPACES]] = True
_WIDE_MIN = min(b[0] for b in _WIDE_SPACES)
_WIDE_2 = np.array([int.from_bytes(b, "big") for b in _WIDE_SPACES if len(b) == 2])
_WIDE_3 = np.array([int.from_bytes(b, "big") for b in _WIDE_SPACES if len(b) == 3])
# Zero bytes kept after the text, so any 8 bytes from a token start can be read.
_PAD = 8
_ALL_BITS = np.uint64(2 ** 64 - 1)
# Longest token that takes the decimal keys. A token's 8 bytes, read
# little-endian, are shifted so that its digits fill the top bytes; three
# multiply-add stages then fold the bytes into pairs, quads and the whole.
_DIGITS = 7
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_DIGIT_HIGH = np.uint64(0x3030303030303030)  # '0'-'9' are 0x30-0x39
_SIXES = np.uint64(0x0606060606060606)  # a low nibble above 9 carries into the high
_ONES = np.uint64(0x0101010101010101)
_FOLDS = ((np.uint64(10 << 8 | 1), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
          (np.uint64(100 << 16 | 1), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
          (np.uint64(10000 << 32 | 1), np.uint64(32), np.uint64(0x00000000FFFFFFFF)))
# Tokens _decimal_keys checks first, so that most files of other labels are
# refused at the cost of these few rather than of every token.
_PROBE = 4096
# Most bytes of text one step of the load tokenizes. A larger text is cut
# into pieces of at most about this many bytes, as many as a multiple of the
# workers, so that they share the steps evenly. On a 1.2M-edge, 16.6 MB file
# on 2 CPUs, two 8.3 MB pieces took the load from 0.31 to 0.23 s and its
# traced peak from 92 to 77 MiB; four 4 MiB pieces took 0.24 s.
PIECE_BYTES = 8 << 20


class _Text(NamedTuple):
    """An edge list as one zero-padded UTF-8 byte array.

    Lines end at each LF, CR LF and lone CR. ``ascii`` is true when no byte
    is 0x80 or above. ``bad`` is None, or the number of the first line
    that is not UTF-8 text paired with the error message for it.
    """

    data: np.ndarray
    size: int
    ascii: bool
    bad: tuple[int, str] | None


def load_edge_list(path: str | Path, vertex_count: int | None = None,
                   engine: Engine | None = None) -> UndirectedGraph:
    """Parse a whitespace edge list into a graph.

    Lines beginning '#' are comments, blank lines are skipped, and every data
    line must hold exactly two labels. Labels map to dense ids in
    first-appearance order. Self-loops are dropped; duplicate and reversed
    duplicate edges are merged. ``vertex_count`` may exceed the number of
    labels seen, adding isolated vertices that are labeled by their decimal
    ids when asked for; no label is stored for them, and an input label that
    spells one of those ids is a usage error.

    ``path`` names a UTF-8 file. Tokens are separated by every character
    for which ``str.isspace()`` holds. The text is tokenized with array
    operations: ASCII whitespace is two byte-range compares, one list of the
    space bytes gives every token's bounds, and a running count of the line
    ends among those spaces gives its line. When every label is 1 to 7 ASCII
    digits, each is keyed by its value plus (10**L - 1) // 9 for its L
    digits, so ``7`` and ``07`` stay apart, and ids come from one table
    indexed by key; other labels are keyed by groups of equal bytes.
    The distinct labels are kept as their joined bytes and decoded when the
    graph's labels are first read.

    A text of more than PIECE_BYTES is cut after LF bytes into pieces that
    are tokenized and keyed as the steps of one ``engine.sum_steps`` pass
    (``engine`` defaults to ``Engine()``); the numbering, and the choice of
    the first bad line, are made once over the whole file.
    """
    pairs, labels = _tokenize(_read_path(path), engine or Engine())
    seen = len(labels)
    if vertex_count is not None and vertex_count < seen:
        raise UsageError(
            f"--vertex-count {vertex_count} is below the {seen} labels in the input")
    n = seen if vertex_count is None else int(vertex_count)
    if n > seen:  # padding vertex v is labeled str(v)
        labels = labels.decode()
        for x in labels:
            if x.isdecimal() and seen <= int(x) < n and str(int(x)) == x:
                raise UsageError(f"input label {x!r} is also the label of padding vertex {x} "
                                 f"(--vertex-count {n} adds ids {seen} to {n - 1})")
    return UndirectedGraph.from_edges(pairs, vertex_count=n, labels=labels)


def _padded(raw: bytes) -> np.ndarray:
    data = np.zeros(len(raw) + _PAD, dtype=np.uint8)
    data[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return data


def _read_path(path) -> _Text:
    """The file read straight into the padded array; it is decoded only to
    check it when some byte is not ASCII."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        data = np.zeros(size + _PAD, dtype=np.uint8)
        with memoryview(data) as view:
            got = 0
            while got < size and (read := handle.readinto(view[got:size])):
                got += read
            rest = handle.read()
            if got < size or rest:  # not a regular file, or one that changed
                data = _padded(view[:got].tobytes() + rest)
                size = got + len(rest)
    body = data[:size]
    ascii = bool(body.max(initial=0) < 0x80)
    return _Text(data, size, ascii, None if ascii else _utf8_error(body))


def _break_count(body: np.ndarray) -> int:
    """Number of line ends in the bytes: every LF and CR, less each CR LF."""
    crlf = np.count_nonzero((body[:-1] == 13) & (body[1:] == 10)) if body.size else 0
    return int(np.count_nonzero(body == 10) + np.count_nonzero(body == 13) - crlf)


def _utf8_error(body: np.ndarray) -> tuple[int, str] | None:
    """(line number, message) of the line holding the first byte that is not
    UTF-8, or None."""
    try:
        str(body.data, "utf-8")
    except UnicodeDecodeError as exc:
        line = _break_count(body[:exc.start]) + 1
        return line, f"line {line}: not UTF-8 text ({exc.reason})"
    return None


def _tokenize(text: _Text, engine: Engine) -> tuple[np.ndarray, _LabelText]:
    """(label id pairs, labels in id order, still joined) of the text's data lines.

    Raises the ParseError of the first line that holds neither 0 nor 2
    tokens (comment lines aside) or is not UTF-8, whichever comes first.
    The pieces of ``_cuts`` are tokenized and keyed on ``engine``'s workers,
    one piece a step (one piece runs on the calling thread). Each piece makes
    its own first look at _PROBE tokens for the decimal keys, so the steps
    never wait on one another; the text takes the decimal keys only when
    every piece with tokens did, and is otherwise keyed whole by
    ``_byte_groups``.
    """
    data = text.data
    cuts = _cuts(data, text.size, min(engine.workers, engine_mod.usable_cpus()))
    pieces: list = [None] * (len(cuts) - 1)

    def tokenize_piece(_, k: int) -> None:
        pieces[k] = _piece(data, cuts[k], cuts[k + 1], text)

    engine.sum_steps(len(pieces), [], tokenize_piece)

    wrong = next((k for k, piece in enumerate(pieces) if piece.wrong is not None), None)
    if wrong is not None:  # its line number: the line ends before its piece, plus its own
        line, count = pieces[wrong].wrong
        line += _break_count(data[:cuts[wrong]]) + 1
    if text.bad is not None and (wrong is None or text.bad[0] <= line):
        raise ParseError(text.bad[1])
    if wrong is not None:
        raise ParseError(f"line {line}: expected two vertex labels, got {count}")

    starts, length, keys = zip(*((p.starts, p.length, p.keys) for p in pieces))
    del pieces
    starts, length = _joined(starts), _joined(length)
    if all(k is not None for k in keys):
        keys = _joined(keys)
    else:  # the bytes are UTF-8 by now, so no token holds the 0xFF that _words fills in
        keys = _byte_groups(data, starts, length)
    ids, heads = _table_ids(keys)
    del keys
    return ids.reshape(-1, 2), _joined_labels(data, starts[heads], length[heads])


def _cuts(data: np.ndarray, size: int, workers: int) -> list[int]:
    """Offsets 0 = c0 < c1 < ... < ck = size of the pieces the text is
    tokenized in. A text of at most PIECE_BYTES is one piece; a larger one
    is cut into the fewest pieces of at most PIECE_BYTES that are a multiple
    of ``workers`` in number, each cut just after the first LF at or after
    its even share. A cut after LF splits no CR LF and no UTF-8 sequence, and
    a line longer than a share leaves fewer pieces."""
    if size <= PIECE_BYTES:
        return [0, size]
    count = workers * -(-size // (PIECE_BYTES * workers))
    cuts = [0]
    for k in range(1, count):
        at = max(k * size // count, cuts[-1])
        while at < size:
            window = data[at:min(at + 4096, size)]
            hit = np.flatnonzero(window == 10)
            if hit.size:
                at += int(hit[0]) + 1
                break
            at += len(window)
        if at >= size:  # no LF after this share: none after the later ones
            break
        if at > cuts[-1]:
            cuts.append(at)
    return cuts + [size]


class _Piece(NamedTuple):
    """The tokens of one piece of the text, lines of comments dropped.

    ``starts`` are offsets into the whole text. ``keys`` are the decimal
    keys, or None when the piece's tokens are not all decimal labels or the
    text will be refused; a piece without tokens has an empty array, so it
    has no say in which keys the text takes. ``wrong`` is None, or (line
    within the piece, 0-based, and its token count) of the piece's first
    line holding neither 0 nor 2 tokens.
    """

    starts: np.ndarray
    length: np.ndarray
    keys: np.ndarray | None
    wrong: tuple[int, int] | None


def _piece(data: np.ndarray, lo: int, hi: int, text: _Text) -> _Piece:
    """The tokens and decimal keys of the text's bytes lo:hi, which start a line."""
    piece = data[lo:]
    starts, ends, line = _token_spans(piece, hi - lo, text.ascii)
    first = np.ones(len(starts), dtype=bool)
    np.not_equal(line[1:], line[:-1], out=first[1:])
    comment = first & (piece[starts] == ord("#"))
    if comment.any():
        keep = ~comment[first][np.cumsum(first) - 1]
        starts, ends, line = starts[keep], ends[keep], line[keep]
    del first, comment
    counts = np.bincount(line)
    del line
    wrong = np.flatnonzero((counts != 0) & (counts != 2))
    length = ends - starts
    del ends
    if lo:
        starts = _offsets(starts, text.size)  # int64 when the whole text needs it
        starts += lo
    if wrong.size or text.bad is not None:
        return _Piece(starts, length, None,
                      (int(wrong[0]), int(counts[wrong[0]])) if wrong.size else None)
    del counts, wrong
    if not len(starts):
        return _Piece(starts, length, np.empty(0, dtype=np.int64), None)
    return _Piece(starts, length, _decimal_keys(data, starts, length), None)


def _joined(arrays) -> np.ndarray:
    """The arrays end to end; one array is returned as it is, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _token_spans(data: np.ndarray, size: int,
                 ascii: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and end (exclusive) offsets and 0-based line of every maximal
    run of non-space bytes.

    The offsets of the space bytes, with one more space before the text and
    one after it, are listed once; a token fills each gap of more than one
    byte between consecutive spaces. A token's line is the number of line
    ends among the spaces before it: the LFs, and the CRs that no LF follows.
    """
    space = _space_mask(data, size, ascii)
    at = _offsets(np.flatnonzero(space), size)  # each space's offset plus one
    del space
    gap = _offsets(np.flatnonzero(np.diff(at) > 1), size)
    starts = at[gap]
    ends = at[gap + 1]
    ends -= 1
    byte = data[at - 1]  # the spaces; the one before the text reads a zero pad byte
    ends_line = byte == 10
    carriage = byte == 13
    del byte
    if carriage.any():
        carriage &= data[at] != 10
        ends_line |= carriage
    del carriage, at
    line = np.cumsum(ends_line, dtype=starts.dtype)
    del ends_line
    return starts, ends, line[gap]


def _space_mask(data: np.ndarray, size: int, ascii: bool) -> np.ndarray:
    """True for every whitespace byte of the text, framed by one True on
    either side: entry i + 1 is that of byte i."""
    body = data[:size]
    space = np.empty(size + 2, dtype=bool)
    space[0] = space[-1] = True
    inner = space[1:-1]
    # unsigned wraparound takes each range to 0-4 and every other byte above 4
    shifted = np.subtract(body, np.uint8(9))
    np.less(shifted, 5, out=inner)
    np.subtract(body, np.uint8(28), out=shifted)
    hit = shifted.view(bool)
    np.less(shifted, 5, out=hit)
    inner |= hit
    del shifted, hit
    if not ascii:
        high = np.flatnonzero(body >= _WIDE_MIN)
        lead = high[_WIDE_LEAD[body[high]]]
        del high
        code = ((data[lead].astype(np.int64) << 16) | (data[lead + 1].astype(np.int64) << 8)
                | data[lead + 2])
        three = np.isin(code, _WIDE_3)
        hit = lead[three | np.isin(code >> 8, _WIDE_2)] + 1
        space[hit] = space[hit + 1] = True
        space[lead[three] + 3] = True
    return space


def _offsets(values: np.ndarray, size: int) -> np.ndarray:
    """Byte offsets into a text of ``size`` bytes, as int32 when they fit,
    else int64; uncopied when they have that type already."""
    fits = size + _PAD <= np.iinfo(np.int32).max
    return values.astype(np.int32 if fits else np.int64, copy=False)


def _word_view(data: np.ndarray, dtype: str) -> np.ndarray:
    """The 8 bytes at every offset of data, as one unaligned integer each."""
    return np.ndarray(buffer=data, dtype=dtype, shape=(len(data) - 7,), strides=(1,))


def _words(data: np.ndarray, offsets: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """The 8 bytes at each offset as a big-endian uint64, those past the
    first nbytes (1 or more) set to 0xFF, a byte that UTF-8 never holds."""
    words = _word_view(data, ">u8")[offsets]
    words = words.byteswap(inplace=True).view(words.dtype.newbyteorder())
    fill = np.minimum(nbytes, 8).astype(np.uint64)
    fill *= np.uint64(8)
    np.subtract(np.uint64(64), fill, out=fill)
    np.left_shift(_ALL_BITS, fill, out=fill)  # the kept bytes' bits
    words |= np.invert(fill, out=fill)
    return words


def _decimal_keys(data: np.ndarray, starts: np.ndarray,
                  length: np.ndarray) -> np.ndarray | None:
    """int64 keys value + (10**L - 1) // 9 of tokens of L = 1 to 7 ASCII
    digits, or None unless every token is one.

    The key is a one-to-one map of the digit strings onto 1 to 11 111 110:
    the strings of L digits take the 10**L keys after those of fewer digits,
    so '7', '07' and '007' stay apart. A token's 8 bytes are read
    little-endian, its first byte lowest, and shifted left so that its L
    bytes fill the top of the word and zeros the rest. Each digit is then
    replaced by itself plus 1 and the bytes are folded as decimal digits, so
    the L ones added come to (10**L - 1) // 9.
    """
    if length.max() > _DIGITS:
        return None
    if len(starts) > _PROBE and _digit_words(data, starts[:_PROBE], length[:_PROBE]) is None:
        return None  # refused on a first look, before the word work on every token
    word = _digit_words(data, starts, length)
    if word is None:
        return None
    shift = _top_shifts(length)
    np.left_shift(_ONES, shift, out=shift)
    word += shift
    del shift
    for scale, bits, mask in _FOLDS:
        word *= scale
        word >>= bits
        word &= mask
    return word.view(np.int64)


def _digit_words(data: np.ndarray, starts: np.ndarray,
                 length: np.ndarray) -> np.ndarray | None:
    """Each token's 8 bytes, read little-endian, with each digit's byte
    turned into its value and shifted left by 64 - 8L bits, so that its L
    bytes fill the top of the word. None unless every token is L = 1 to 7
    ASCII digits (``length`` is at most 7)."""
    word = _word_view(data, "<u8")[starts]
    word ^= _DIGIT_HIGH  # a digit's byte becomes its value
    shift = _top_shifts(length)
    word <<= shift  # the bytes past the token leave the word
    # every byte is now a digit's value, 0-9, exactly when its high nibble
    # is 0 and adding 6 carries nothing into it; a byte plus 6 carries into
    # the next byte only when it fails itself. The check reuses the shifts'
    # array, so a step holds two word arrays at once, not three.
    off = np.add(word, _SIXES, out=shift)
    off |= word
    off &= _HIGH_NIBBLES
    return None if off.any() else word


def _top_shifts(length: np.ndarray) -> np.ndarray:
    """64 - 8L as uint64 for tokens of L bytes: the left shift that moves a
    token's bytes to the top of its little-endian word."""
    shift = length.astype(np.uint64)
    shift *= np.uint64(8)
    np.subtract(np.uint64(64), shift, out=shift)
    return shift


def _byte_groups(data: np.ndarray, starts: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Group ids of the tokens, small non-negative integers that are equal
    exactly when the tokens' bytes are.

    Tokens are grouped by their first 8-byte word, then, round by round,
    each group of two or more is split by the next word of its members that
    have bytes left. ``_words`` sets the bytes past a token's end to 0xFF,
    which UTF-8 never holds, so tokens that end at different bytes of a word
    never share it, and a token that ends at a word's end differs from the
    longer members of its group: it keeps its id, and they get new ones.
    Each split ranks the pairs (dense group id, rank of the word), packed as
    id * words + rank in int64, since the product may pass int32.
    """
    split, count = _rank(_words(data, starts, length))
    group = split.astype(starts.dtype, copy=False)  # ids stay below N + size / 8, which it holds
    on, offset = None, 8  # None: every token
    while True:
        left = length[on] > offset if on is not None else length > offset
        if not left.any():
            return group
        left &= np.bincount(split)[split] > 1
        on = on[left] if on is not None else np.flatnonzero(left)
        word, width = _rank(_words(data, starts[on] + offset, length[on] - offset))
        split, parts = _rank(np.multiply(_table_ids(group[on])[0], width, dtype=np.int64) + word)
        group[on] = np.add(split, count, dtype=group.dtype)
        count += parts
        offset += 8


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, by one sort and an adjacent-difference mask."""
    values = np.sort(values)
    if values.size:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Index of each value among the sorted distinct values, in
    _index_dtype, and their number. The sorted copy is freed once it has
    marked where each run of equal values begins."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.ones(len(values), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered
    small = _index_dtype(len(values))
    run = np.cumsum(new, dtype=small)
    del new
    run -= 1
    rank = np.empty(len(values), dtype=small)
    rank[order] = run
    return rank, int(run[-1]) + 1 if len(run) else 0


def _index_dtype(count: int):
    """int32 when every index below ``count`` fits it, else int64."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


def _table_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of equal keys, numbered in order of first appearance, and
    the index where each id first appears, for small non-negative keys
    (decimal label keys, byte groups of other labels, or vertex ids).

    One zero-initialised table of max(keys) + 1 entries is indexed by key;
    its pages that no key touches are never written. Each key's entry takes
    the largest N - index, so its first index, for the N keys. The indices
    whose entry matches are the heads, in order of first appearance; their
    entries are then overwritten with their ids, which every key reads back.
    """
    small = _index_dtype(len(keys))
    table = np.zeros(int(keys.max(initial=-1)) + 1, dtype=small)
    first = np.arange(len(keys), 0, -1, dtype=small)  # N - index
    np.maximum.at(table, keys, first)
    heads = np.flatnonzero(table[keys] == first)
    del first
    table[keys[heads]] = np.arange(len(heads), dtype=small)
    return table[keys], heads


class _LabelText:
    """Labels as their UTF-8 bytes joined by LF, split and decoded into a
    list of str by ``decode``."""

    __slots__ = ("text", "count")

    def __init__(self, text: bytes, count: int):
        self.text = text
        self.count = count

    def __len__(self) -> int:
        return self.count

    def decode(self) -> list[str]:
        return self.text.decode("utf-8").split("\n") if self.count else []


def _joined_labels(data: np.ndarray, starts: np.ndarray, length: np.ndarray) -> _LabelText:
    """The tokens at (starts, length), joined by LF into one bytes object.

    Each token is copied with the byte after it, a space or a pad byte,
    which then becomes the LF.
    """
    if not len(starts):
        return _LabelText(b"", 0)
    span = length + 1
    ends = np.cumsum(span, dtype=span.dtype)  # where each copy ends in the output
    at = np.repeat(starts - (ends - span), span)
    at += np.arange(len(at), dtype=at.dtype)
    out = data[at]
    out[ends - 1] = ord("\n")
    return _LabelText(out[:-1].tobytes(), len(starts))
