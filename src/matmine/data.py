"""Mined-data containers and the knowledge-base interchange format.

A data tuple pairs a deformation gradient with the nominal stress the
microscale oracle returned for it, plus provenance (which loop iteration and
macro path produced it).  The on-disk format is line-delimited: one record
per tuple with provenance, pseudo-time and the 18 tensor components written
as shortest round-trip decimal literals, so a load followed by a save is
byte-identical.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import tensors
from .errors import CorruptRecord, EmptyDataSet, FormatVersionMismatch

KBASE_VERSION = "matmine-kbase-v1"
_N_FIELDS = 5 + 9 + 9


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

    def __len__(self):
        return self.F.shape[0]

    def subset(self, idx):
        idx = np.atleast_1d(np.asarray(idx))
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
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
                       np.concatenate([self.t, other.t]))

    def invariant_values(self, fiber_axis=None):
        """Invariant image of every tuple, shape (m, 6) or (m, 4)."""
        if len(self) == 0:
            raise EmptyDataSet("no tuples to map")
        C = tensors.right_cauchy_green(self.F)
        M = None if fiber_axis is None else tensors.structural_tensor(fiber_axis)
        return tensors.invariants(C, M)


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
    """Write the knowledge base as line-delimited records with a version header."""
    numbers = np.concatenate([dataset.t[:, None], dataset.F.reshape(-1, 9),
                              dataset.P.reshape(-1, 9)], axis=1)
    with atomic_write(path) as fh:
        fh.write(f"# {KBASE_VERSION}\n")
        fh.write("# source iteration path step t F(9 row-major) P(9 row-major)\n")
        for src, it, pid, stp, row in zip(
                dataset.source, dataset.iteration.tolist(),
                dataset.path_id.tolist(), dataset.step.tolist(), numbers.tolist()):
            src = str(src).replace(" ", "_") or "unknown"
            fh.write(f"{src} {it} {pid} {stp} {' '.join(map(repr, row))}\n")


def _check_finite(values, line_nos):
    """Raise :class:`CorruptRecord` at the first record with an inf or NaN."""
    bad = ~np.isfinite(values).all(axis=-1)
    if bad.any():
        raise CorruptRecord("non-finite value", line_no=line_nos[np.argmax(bad)])


def load_kbase(path):
    """Read a knowledge base written by :func:`save_kbase`.

    Raises :class:`FormatVersionMismatch` for a missing or unknown header and
    :class:`CorruptRecord` (with line number) for malformed records.
    """
    sources, labels, numbers, line_nos = [], [], [], []
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# {KBASE_VERSION}":
            raise FormatVersionMismatch(
                f"expected header '# {KBASE_VERSION}', found {first!r}")
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if len(parts) != _N_FIELDS:
                    raise ValueError(
                        f"expected {_N_FIELDS} fields, found {len(parts)}")
                labels.append((int(parts[1]), int(parts[2]), int(parts[3])))
                numbers.append(list(map(float, parts[4:])))
            except ValueError as exc:
                # an inf or NaN on an earlier line is the first fault
                _check_finite(np.array(numbers), line_nos)
                raise CorruptRecord(str(exc), line_no=line_no) from None
            sources.append(parts[0])
            line_nos.append(line_no)
    values = np.array(numbers).reshape(-1, _N_FIELDS - 4)
    _check_finite(values, line_nos)
    labels = np.array(labels, dtype=int).reshape(-1, 3)
    return DataSet(values[:, 1:10].copy(), values[:, 10:].copy(), sources,
                   labels[:, 0], labels[:, 1], labels[:, 2], values[:, 0].copy())
