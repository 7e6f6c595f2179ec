"""Mined-data containers and the knowledge-base interchange format.

A data tuple pairs a deformation gradient with the nominal stress the
microscale oracle returned for it, plus provenance (which loop iteration and
macro path produced it).  The on-disk format is line-delimited: one record
per tuple with provenance, pseudo-time and the 18 tensor components written
as shortest round-trip decimal literals, so a load followed by a save is
byte-identical.

A loaded set keeps the file it read as one bytes buffer, with the span of
each record's 19 numbers in it, and the values parsed from them; subsets
and merges carry both along.  :func:`save_kbase` writes a row's stored text
again when its numbers are bitwise those values and formats every other row
afresh, so saving a large loaded base costs per changed row, and unchanged
records keep a hand-edited literal such as ``1.50`` as it was read.
"""

from __future__ import annotations

import array
import locale
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import tensors
from .errors import CorruptRecord, EmptyDataSet, FormatVersionMismatch

KBASE_VERSION = "matmine-kbase-v1"
_N_FIELDS = 5 + 9 + 9
_N_NUMBERS = _N_FIELDS - 4


@dataclass
class _RecordText:
    """The numeric fields of loaded records, kept as read.

    ``span[i]`` is the ``[start, end)`` of row ``i``'s 19 numbers (pseudo-time,
    F, P) in ``buffer``, ``(-1, -1)`` for a row without ASCII text to reuse;
    ``values[i]`` are the numbers parsed from that text.
    """

    buffer: bytes
    span: np.ndarray
    values: np.ndarray

    @classmethod
    def absent(cls, n):
        return cls(b"", np.full((n, 2), -1), np.zeros((n, _N_NUMBERS)))

    def take(self, idx):
        return _RecordText(self.buffer, self.span[idx], self.values[idx])

    def merged_with(self, other: "_RecordText"):
        if not other.buffer or other.buffer is self.buffer:
            buffer, shift = self.buffer, 0
        elif not self.buffer:
            buffer, shift = other.buffer, 0
        else:
            buffer, shift = self.buffer + other.buffer, len(self.buffer)
        span = np.where(other.span >= 0, other.span + shift, -1)
        return _RecordText(buffer, np.concatenate([self.span, span]),
                           np.concatenate([self.values, other.values]))


@dataclass
class DataSet:
    """Columnar set of (F, P) tuples with provenance.

    ``source`` names where a tuple came from (for example
    ``init:uniaxial-tension-x1`` or ``mined``), ``iteration`` the mining-loop
    iteration that added it (0 for the initial suite), ``path_id`` the load
    path it belongs to and ``step``/``t`` the position along that path.
    """

    F: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    P: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 3)))
    source: list = field(default_factory=list)
    iteration: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    path_id: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    step: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    t: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # set by load_kbase, carried by subset and merged_with, read by save_kbase
    _text: _RecordText = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float).reshape(-1, 3, 3)
        self.P = np.asarray(self.P, dtype=float).reshape(-1, 3, 3)
        self.source = list(self.source)
        self.iteration = np.asarray(self.iteration, dtype=int).reshape(-1)
        self.path_id = np.asarray(self.path_id, dtype=int).reshape(-1)
        self.step = np.asarray(self.step, dtype=int).reshape(-1)
        self.t = np.asarray(self.t, dtype=float).reshape(-1)
        n = len(self.F)
        for name in ("P", "source", "iteration", "path_id", "step", "t"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has inconsistent length")
        if self._text is not None and len(self._text.span) != n:
            raise ValueError("record text has inconsistent length")

    def __len__(self):
        return self.F.shape[0]

    def subset(self, idx):
        idx = np.atleast_1d(np.asarray(idx))
        # an empty list arrives as a float array
        idx = np.flatnonzero(idx) if idx.dtype == bool else idx.astype(np.intp)
        return DataSet(self.F[idx], self.P[idx],
                       [self.source[i] for i in idx],
                       self.iteration[idx], self.path_id[idx],
                       self.step[idx], self.t[idx],
                       None if self._text is None else self._text.take(idx))

    def merged_with(self, other: "DataSet"):
        text = None
        if self._text is not None or other._text is not None:
            text = (self._text or _RecordText.absent(len(self))).merged_with(
                other._text or _RecordText.absent(len(other)))
        return DataSet(np.concatenate([self.F, other.F]),
                       np.concatenate([self.P, other.P]),
                       self.source + other.source,
                       np.concatenate([self.iteration, other.iteration]),
                       np.concatenate([self.path_id, other.path_id]),
                       np.concatenate([self.step, other.step]),
                       np.concatenate([self.t, other.t]), text)

    def invariant_values(self, fiber_axis):
        """Transversely isotropic invariant image of every tuple, (m, 6)."""
        if len(self) == 0:
            raise EmptyDataSet("no tuples to map")
        C = tensors.right_cauchy_green(self.F)
        return tensors.invariants(C, tensors.structural_tensor(fiber_axis))


def from_records(records):
    """Build a DataSet from an iterable of (F, P, source, iteration, path_id,
    step, t) tuples."""
    records = list(records)
    if not records:
        return DataSet()
    F = np.stack([r[0] for r in records])
    P = np.stack([r[1] for r in records])
    return DataSet(F, P, [r[2] for r in records],
                   np.array([r[3] for r in records], dtype=int),
                   np.array([r[4] for r in records], dtype=int),
                   np.array([r[5] for r in records], dtype=int),
                   np.array([r[6] for r in records], dtype=float))


@contextmanager
def atomic_write(path, mode="w"):
    """File handle whose content replaces ``path`` only once complete.

    ``mode`` is ``"w"`` for text or ``"wb"`` for bytes.  Writes go to
    ``path.tmp``, renamed over ``path`` when the block exits normally; when
    it raises, the temporary file is removed and ``path`` keeps its previous
    content.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_kbase(dataset: DataSet, path):
    """Write the knowledge base as line-delimited records with a version header.

    A row whose 19 numbers are bitwise the values its stored text was parsed
    from (``-0.0`` differs from ``0.0``) is written with that text; every
    other row's numbers are formatted as shortest round-trip literals.
    """
    columns = [np.asarray(x, dtype=float).reshape(-1, width)
               for x, width in ((dataset.t, 1), (dataset.F, 9), (dataset.P, 9))]
    text = dataset._text or _RecordText.absent(len(dataset))
    fresh = text.span[:, 0] < 0
    for col, read in zip(columns, np.split(text.values, [1, 10], axis=1)):
        fresh |= (col.view(np.int64) != read.view(np.int64)).any(axis=1)
    formatted = iter(np.concatenate([col[fresh] for col in columns],
                                    axis=1).tolist())
    with atomic_write(path) as fh:
        fh.write(f"# {KBASE_VERSION}\n")
        fh.write("# source iteration path step t F(9 row-major) P(9 row-major)\n")
        for src, it, pid, stp, new, a, b in zip(
                dataset.source, dataset.iteration.tolist(),
                dataset.path_id.tolist(), dataset.step.tolist(), fresh.tolist(),
                text.span[:, 0].tolist(), text.span[:, 1].tolist()):
            src = str(src).replace(" ", "_") or "unknown"
            numeric = (" ".join(map(repr, next(formatted))) if new
                       else text.buffer[a:b].decode("ascii"))
            fh.write(f"{src} {it} {pid} {stp} {numeric}\n")


def _check_finite(values, line_nos):
    """Raise :class:`CorruptRecord` at the first record with an inf or NaN."""
    bad = ~np.isfinite(values).all(axis=-1)
    if bad.any():
        raise CorruptRecord("non-finite value", line_no=line_nos[np.argmax(bad)])


def _lines(buffer, encoding):
    """``(offset, line)`` for each line of the bytes ``buffer``, decoded one
    at a time."""
    start = 0
    while start < len(buffer):
        stop = buffer.find(b"\n", start)
        if stop < 0:
            stop = len(buffer)
        yield start, buffer[start:stop].decode(encoding)
        start = stop + 1


def load_kbase(path):
    """Read a knowledge base written by :func:`save_kbase`.

    Raises :class:`FormatVersionMismatch` for a missing or unknown header and
    :class:`CorruptRecord` (with line number) for malformed records.  The
    file's bytes stay with the set as its record text.
    """
    sources, labels, line_nos = [], [], []
    numbers, spans = array.array("d"), array.array("q")
    with open(path, "rb") as fh:
        buffer = fh.read()
    if b"\r" in buffer:   # newlines as text mode reads them
        buffer = buffer.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = _lines(buffer, locale.getpreferredencoding(False))
    first = next(lines, (0, ""))[1].strip()
    if first != f"# {KBASE_VERSION}":
        raise FormatVersionMismatch(
            f"expected header '# {KBASE_VERSION}', found {first!r}")
    for line_no, (start, line) in enumerate(lines, start=2):
        parts = line.split(None, 4)
        if not parts or parts[0].startswith("#"):
            continue
        numeric = parts[4].rstrip() if len(parts) == 5 else ""
        fields = numeric.split()
        try:
            if len(fields) != _N_NUMBERS:
                raise ValueError(f"expected {_N_FIELDS} fields, "
                                 f"found {len(parts[:4]) + len(fields)}")
            labels.append((int(parts[1]), int(parts[2]), int(parts[3])))
            numbers.extend(map(float, fields))
        except ValueError as exc:
            # an inf or NaN on an earlier line is the first fault
            _check_finite(np.frombuffer(numbers)[:_N_NUMBERS * len(line_nos)]
                          .reshape(-1, _N_NUMBERS), line_nos)
            raise CorruptRecord(str(exc), line_no=line_no) from None
        sources.append(parts[0])
        line_nos.append(line_no)
        if line.isascii():   # offsets in characters are offsets in bytes
            stop = start + len(line.rstrip())
            spans.extend((stop - len(numeric), stop))
        else:
            spans.extend((-1, -1))
    values = np.frombuffer(numbers).reshape(-1, _N_NUMBERS)
    _check_finite(values, line_nos)
    labels = np.array(labels, dtype=int).reshape(-1, 3)
    text = _RecordText(buffer, np.frombuffer(spans, dtype=np.int64).reshape(-1, 2),
                       values)
    return DataSet(values[:, 1:10].copy(), values[:, 10:].copy(), sources,
                   labels[:, 0], labels[:, 1], labels[:, 2], values[:, 0].copy(),
                   text)
