"""Mined-data containers and the knowledge-base interchange format.

A data tuple pairs a deformation gradient with the nominal stress the
microscale oracle returned for it, plus provenance (which loop iteration and
macro path produced it).  The on-disk format is UTF-8 whatever the locale,
one line per tuple with fields split on ASCII whitespace: provenance,
pseudo-time and the 18 tensor components as shortest round-trip decimal
literals, so a load followed by a save is byte-identical.

A loaded set keeps the file it read as one bytes buffer, with the byte span
of each record's 19 numbers in it, and the values parsed from them.  The
text covers the rows the set starts with: :meth:`DataSet.merged_with` keeps
the left operand's and :meth:`DataSet.subset` keeps none.  :func:`save_kbase`
writes a covered row's stored bytes again when its numbers are bitwise those
values and formats every other row afresh, so saving a large loaded base
with rows appended costs per new or changed row, and every unchanged record
keeps a hand-edited literal such as ``1.50`` as it was read.
"""

from __future__ import annotations

import array
import io
import json
import os
import re
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
    """The numeric fields of the loaded records a set starts with, as read.

    ``span[i]`` is the ``[start, end)`` byte range of row ``i``'s 19 numbers
    (pseudo-time, F, P) in ``buffer``; ``values[i]`` are the numbers parsed
    from those bytes.
    """

    buffer: bytes
    span: np.ndarray
    values: np.ndarray


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
    # set by load_kbase, kept by merged_with's left operand, read by save_kbase
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
        if self._text is not None and len(self._text.span) > n:
            raise ValueError("record text covers more rows than the set")

    def __len__(self):
        return self.F.shape[0]

    def subset(self, idx):
        idx = np.atleast_1d(np.asarray(idx))
        # an empty list arrives as a float array
        idx = np.flatnonzero(idx) if idx.dtype == bool else idx.astype(np.intp)
        return DataSet(self.F[idx], self.P[idx],
                       [self.source[i] for i in idx],
                       self.iteration[idx], self.path_id[idx],
                       self.step[idx], self.t[idx])

    def merged_with(self, other: "DataSet"):
        return DataSet(np.concatenate([self.F, other.F]),
                       np.concatenate([self.P, other.P]),
                       self.source + other.source,
                       np.concatenate([self.iteration, other.iteration]),
                       np.concatenate([self.path_id, other.path_id]),
                       np.concatenate([self.step, other.step]),
                       np.concatenate([self.t, other.t]), self._text)

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
    content.  A ``path`` that exists and is not a regular file, such as a
    device or a FIFO, cannot be replaced atomically and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode) as fh:
            yield fh
        return
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(path, doc, sort_keys=False):
    """Write ``doc`` atomically as strict JSON, one-space indented.

    Non-finite floats, such as the holdout loss of a fit without holdout
    rows, become ``null``: ``NaN`` and ``Infinity`` are not JSON.  Finite
    floats survive the round trip that finds them bit for bit.
    """
    strict = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    with atomic_write(path) as fh:
        json.dump(strict, fh, indent=1, sort_keys=sort_keys, allow_nan=False)
        fh.write("\n")


def save_kbase(dataset: DataSet, path):
    """Write the knowledge base as UTF-8 records with a version header.

    A row covered by loaded record text whose 19 numbers are bitwise the
    values that text was parsed from (``-0.0`` differs from ``0.0``) is
    written with those bytes; every other row's numbers are formatted as
    shortest round-trip literals.  A source is written with each whitespace
    character as ``_`` and a leading ``#``, which would start a comment, as
    ``_#``.
    """
    columns = [np.asarray(x, dtype=float).reshape(-1, width)
               for x, width in ((dataset.t, 1), (dataset.F, 9), (dataset.P, 9))]
    text = dataset._text or _RecordText(b"", np.zeros((0, 2), dtype=int),
                                        np.zeros((0, _N_NUMBERS)))
    fresh = np.ones(len(dataset), dtype=bool)
    covered = len(text.span)
    fresh[:covered] = False
    for col, read in zip(columns, np.split(text.values, [1, 10], axis=1)):
        fresh[:covered] |= (col[:covered].view(np.int64)
                            != read.view(np.int64)).any(axis=1)
    formatted = iter(np.concatenate([col[fresh] for col in columns],
                                    axis=1).tolist())
    starts, stops = np.zeros((2, len(dataset)), dtype=int)
    starts[:covered], stops[:covered] = text.span.T
    fields = {}
    with atomic_write(path, "wb") as fh:
        fh.write(f"# {KBASE_VERSION}\n".encode())
        fh.write(b"# source iteration path step t F(9 row-major) P(9 row-major)\n")
        for src, it, pid, stp, new, a, b in zip(
                dataset.source, dataset.iteration.tolist(),
                dataset.path_id.tolist(), dataset.step.tolist(), fresh.tolist(),
                starts.tolist(), stops.tolist()):
            if src not in fields:   # escape and encode each distinct source once
                name = re.sub(r"\s", "_", str(src)) or "unknown"
                fields[src] = ("_" + name if name.startswith("#")
                               else name).encode()
            numeric = (" ".join(map(repr, next(formatted))).encode() if new
                       else text.buffer[a:b])
            fh.write(b"%s %d %d %d %s\n" % (fields[src], it, pid, stp, numeric))


def _check_records(values, line_nos, path):
    """Raise :class:`CorruptRecord` at the first record with an inf or NaN,
    or with det F <= 0."""
    finite = np.isfinite(values).all(axis=-1)
    bad = ~finite
    bad[finite] = np.linalg.det(values[finite, 1:10].reshape(-1, 3, 3)) <= 0.0
    if bad.any():
        k = np.argmax(bad)
        raise CorruptRecord("det F <= 0" if finite[k] else "non-finite value",
                            line_nos[k], path)


def load_kbase(path):
    """Read a knowledge base written by :func:`save_kbase`.

    Raises :class:`FormatVersionMismatch` for a missing or unknown header and
    :class:`CorruptRecord` (with line number) for malformed records, such as
    a source that is not UTF-8, an inf or NaN, or an F with det F <= 0; both
    messages name ``path``.  The file's bytes stay with the set as its
    record text.
    """
    sources, labels, line_nos = [], [], []
    numbers, spans = array.array("d"), array.array("q")
    with open(path, "rb") as fh:
        buffer = fh.read()
    if b"\r" in buffer:   # newlines as text mode reads them
        buffer = buffer.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = io.BytesIO(buffer)
    header = lines.readline()
    start = len(header)
    try:
        first = header.decode().strip()
    except UnicodeDecodeError:
        raise CorruptRecord("not UTF-8 text", 1, path) from None
    if first != f"# {KBASE_VERSION}":
        raise FormatVersionMismatch(
            f"{path}: expected header '# {KBASE_VERSION}', found {first!r}")
    for line_no, line in enumerate(lines, start=2):
        parts = line.split(None, 4)
        if parts and not parts[0].startswith(b"#"):
            numeric = parts[4].rstrip() if len(parts) == 5 else b""
            fields = numeric.split()
            try:
                if len(fields) != _N_NUMBERS:
                    raise ValueError(f"expected {_N_FIELDS} fields, "
                                     f"found {len(parts[:4]) + len(fields)}")
                labels.append((int(parts[1]), int(parts[2]), int(parts[3])))
                numbers.extend(map(float, fields))
                sources.append(parts[0].decode())
            except ValueError as exc:   # UnicodeDecodeError is one too
                # a bad value on an earlier line is the first fault
                _check_records(np.frombuffer(numbers)[:_N_NUMBERS * len(line_nos)]
                              .reshape(-1, _N_NUMBERS), line_nos, path)
                raise CorruptRecord(str(exc), line_no, path) from None
            line_nos.append(line_no)
            stop = start + len(line.rstrip())
            spans.extend((stop - len(numeric), stop))
        start += len(line)
    values = np.frombuffer(numbers).reshape(-1, _N_NUMBERS)
    _check_records(values, line_nos, path)
    labels = np.array(labels, dtype=int).reshape(-1, 3)
    text = _RecordText(buffer, np.frombuffer(spans, dtype=np.int64).reshape(-1, 2),
                       values)
    return DataSet(values[:, 1:10].copy(), values[:, 10:].copy(), sources,
                   labels[:, 0], labels[:, 1], labels[:, 2], values[:, 0].copy(),
                   text)
