"""Bipolar activation patterns, clamp sets, RNA encoding, and pattern loaders.

Patterns are plain numpy vectors with entries in {+1, -1, 0}; 0 marks an
unknown neuron. Fully specified patterns contain no zeros. A clamp set is a
probe, the pattern with zeros on its unknown neurons; only
ClampSet.from_pattern takes indices, and they are 1-based.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Two bits per RNA base. The map is injective, so sequences are recoverable.
BASE_TO_BITS = {
    "A": (-1, -1),
    "C": (-1, +1),
    "G": (+1, -1),
    "U": (+1, +1),
}


class HopfieldWarning(UserWarning):
    """An advisory about a call's inputs or results, such as a weak regularization.

    Not a RuntimeWarning, so a filter that makes numpy's floating-point
    RuntimeWarnings errors leaves these as warnings.
    """


def as_pattern(values, d: int | None = None, allow_unknown: bool = True) -> np.ndarray:
    """Validate and return a pattern as a float64 vector.

    Entries must come from {+1, -1, 0}; zeros are rejected when
    allow_unknown is False.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("pattern must be a non-empty 1-d vector")
    if d is not None and x.size != d:
        raise ValueError(f"pattern has length {x.size}, expected {d}")
    ok = np.abs(x) == 1.0
    if allow_unknown:
        ok |= x == 0.0
    if not np.all(ok):
        allowed = [-1.0, 0.0, 1.0] if allow_unknown else [-1.0, 1.0]
        bad = (np.flatnonzero(~ok)[:8] + 1).tolist()
        raise ValueError(f"pattern entries outside {allowed} at positions {bad}")
    return x


def _count(value, name: str, low: int = 1) -> int:
    """value as an int >= low. Python and numpy integers pass; a bool or a float (2.0 too) fails."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(value, name: str, zero: bool = False) -> float:
    """value as a finite float > 0, or >= 0 if zero. A bool, str, None, array, NaN or inf fails."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0 <= value if zero else 0 < value) or value == math.inf):
        raise ValueError(f"{name} must be {'>= 0' if zero else 'positive'} and finite")
    return float(value)


def _finite_vector(values, d: int, name: str) -> np.ndarray:
    """values as a finite float64 vector of length d."""
    v = np.asarray(values, dtype=float)
    if v.shape != (d,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be a finite vector of shape ({d},)")
    return v


def as_thresholds(theta, d: int) -> np.ndarray:
    """Validate thresholds as a finite float64 vector of length d; None means zeros."""
    return np.zeros(d) if theta is None else _finite_vector(theta, d, "thresholds")


@dataclass(frozen=True)
class TrainingSet:
    """M fully specified patterns stacked row-wise into an (M, d) array."""

    patterns: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.patterns, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("training set must be a non-empty (M, d) array")
        if not np.all(np.abs(p) == 1.0):
            raise ValueError("training patterns must be fully specified (+1/-1 only)")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "patterns", p)

    @property
    def m(self) -> int:
        return self.patterns.shape[0]

    @property
    def d(self) -> int:
        return self.patterns.shape[1]


@dataclass(frozen=True)
class ClampSet:
    """A probe x_inc: +/-1 on the clamped (known) neurons and 0 elsewhere.

    The clamp set is the support of values; at least one neuron is clamped.
    """

    values: np.ndarray

    def __post_init__(self):
        v = as_pattern(self.values).copy()
        if not v.any():
            raise ValueError("probe clamps nothing: every entry is zero")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def l(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def d(self) -> int:
        return self.values.size

    def mask(self) -> np.ndarray:
        """Boolean vector, True on clamped neurons (values is +/-1 there and 0 elsewhere)."""
        return self.values != 0.0

    @classmethod
    def from_pattern(cls, pattern, indices) -> "ClampSet":
        """Clamp the given distinct 1-based indices to their values in pattern."""
        x = as_pattern(pattern, allow_unknown=False)
        values = np.zeros(x.size)
        for i in indices:
            if not 1 <= i <= x.size:
                raise ValueError(f"clamp index {i} outside 1..{x.size}")
            i = _count(i, "clamp index")
            if values[i - 1]:
                raise ValueError(f"clamp index {i} repeated")
            values[i - 1] = x[i - 1]
        return cls(values)


def _byte_codes() -> np.ndarray:
    """Row of _BASE_BITS for each byte: A, C, G and U in either case, T read as U; -1 otherwise."""
    codes = np.full(256, -1, dtype=np.intp)
    for row, base in enumerate(BASE_TO_BITS):
        codes[[ord(base), ord(base.lower())]] = row
    codes[[ord("T"), ord("t")]] = codes[ord("U")]
    return codes


_BYTE_CODES = _byte_codes()
_BASE_BITS = np.array(list(BASE_TO_BITS.values()), dtype=float)  # (4, 2)


class _UnknownBase(ValueError):
    """A symbol that is not a base, as written, at 0-based index of the encoded sequence."""

    def __init__(self, text: str, index: int):
        self.index, self.symbol = index, text[index]
        super().__init__(f"unknown base {self.symbol!r} at position {index + 1}")


def encode_rna(sequence: str) -> np.ndarray:
    """Encode an RNA string into a bipolar pattern, two neurons per base.

    T is accepted as a synonym for U so DNA-alphabet FASTA files work, and
    lower case as upper case. The first unknown symbol is rejected as
    written, with its 1-based position. Each ASCII byte indexes the byte
    table, and the codes gather rows of the bit table (take is several
    times faster than [] there); a non-ASCII symbol becomes "?", which is
    no base, so it is found at its own position, whatever its width.
    """
    if not sequence:
        raise ValueError("cannot encode an empty sequence")
    codes = _BYTE_CODES[np.frombuffer(sequence.encode("ascii", "replace"), dtype=np.uint8)]
    if codes.min() < 0:
        raise _UnknownBase(sequence, int(np.argmax(codes < 0)))
    return _BASE_BITS.take(codes, axis=0).ravel()


def load_pattern_lines(lines, source: str = "<patterns>") -> np.ndarray:
    """Parse whitespace-separated +1/-1/0 rows into an (n, d) array."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = [float(tok) for tok in stripped.split()]
        except ValueError:
            raise ValueError(f"{source}:{lineno}: non-numeric entry") from None
        if any(v not in (-1.0, 0.0, 1.0) for v in row):
            raise ValueError(f"{source}:{lineno}: entries must be +1, -1 or 0")
        rows.append(row)
    if not rows:
        raise ValueError(f"{source}: no patterns found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{source}: inconsistent pattern lengths {sorted(widths)}")
    return np.array(rows)


def _text_lines(path) -> list[str]:
    """The lines of a text file read as UTF-8, whatever the locale.

    The file is decoded whole, so a byte that is not UTF-8 is named by its
    1-based offset in the file (a line-by-line read would give its offset
    in a read-ahead chunk).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text at byte {exc.start + 1} ({exc.reason})") from None


def load_patterns(path) -> np.ndarray:
    """Load a pattern file: one pattern per line, entries +1/-1/0."""
    return load_pattern_lines(_text_lines(path), source=str(path))


def load_fasta(path) -> list[tuple[str, str]]:
    """Load (name, sequence) records from a FASTA file."""
    records: list[tuple[str, list[str]]] = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            records.append((line[1:].strip(), []))
        else:
            if not records:
                raise ValueError(f"{path}:{lineno}: sequence data before any '>' header")
            records[-1][1].append(line)
    if not records:
        raise ValueError(f"{path}: no FASTA records found")
    return [(name, "".join(chunks)) for name, chunks in records]
