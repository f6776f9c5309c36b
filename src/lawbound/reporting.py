"""Persistence: LBF files, JSON manifests, reports, CSV curves.

All JSON is written canonically (sorted keys, fixed separators) so that
identical configurations and results serialize to identical bytes; wall
time is the single non-deterministic report field and is excluded from
comparisons by `strip_timing`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ensemble import Ensemble, LawCurve, LazyEnsembles, _check_times
from .fields import Grid

__all__ = [
    "write_ensemble",
    "read_ensemble",
    "manifest_kind",
    "write_lawcurve",
    "write_lawcurve_slices",
    "read_lawcurve",
    "Check",
    "Report",
    "canonical_json",
    "config_hash",
    "validate_config",
    "Range",
    "strip_timing",
    "write_csv",
]

SCHEMA_VERSION = 1
_MAGIC = b"LBF1"


# -------------------------------------------------------------------- LBF

def _write_lbf(path, e: Ensemble) -> None:
    """Write the members (N, m, *shape) as one version-2 LBF file; its
    header ends with the u32 member count N after the grid."""
    grid = e.grid
    payload = np.ascontiguousarray(e.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBBH", 2, grid.d, e.m, 0))
        fh.write(struct.pack(f"<{grid.d}I", *([grid.n] * grid.d)))
        fh.write(struct.pack("<I", e.size))
        fh.write(memoryview(payload).cast("B"))


def _read_exact(fh, size: int, path) -> bytes:
    chunk = fh.read(size)
    if len(chunk) != size:
        raise ValueError(f"{path}: truncated LBF file")
    return chunk


def _read_header(fh, path) -> tuple:
    """Check a version-2 LBF header and the file's exact length; returns
    (grid, m, N), N being the member count."""
    magic = fh.read(4)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    version, d, m, reserved = struct.unpack("<IBBH", _read_exact(fh, 8, path))
    if version != 2:
        raise ValueError(f"{path}: unsupported version {version}")
    if reserved != 0:
        raise ValueError(f"{path}: nonzero reserved field")
    ns = struct.unpack(f"<{d}I", _read_exact(fh, 4 * d, path))
    if len(set(ns)) != 1:
        raise ValueError(f"{path}: anisotropic grids unsupported, n={ns}")
    try:
        grid = Grid(d, ns[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    size = struct.unpack("<I", _read_exact(fh, 4, path))[0]
    # the length check comes before any payload buffer is allocated
    length = fh.tell() + 8 * size * m * grid.n**d
    actual = os.fstat(fh.fileno()).st_size
    if actual < length:
        raise ValueError(f"{path}: truncated LBF file")
    if actual > length:
        raise ValueError(f"{path}: trailing bytes after the payload")
    return grid, m, size


def _read_payload(fh, path, out: np.ndarray) -> None:
    """Read the payload into the little-endian float64 array `out`."""
    view = memoryview(out).cast("B")
    if fh.readinto(view) != view.nbytes:
        raise ValueError(f"{path}: truncated LBF file")
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after the payload")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: non-finite field values")


# -------------------------------------------------------------- manifests

def write_ensemble(directory, e: Ensemble, time: float = 0.0) -> Path:
    """Write the members as one version-2 LBF file, `ensemble.lbf`, plus
    the JSON manifest `ensemble.json` naming it; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_lbf(directory / "ensemble.lbf", e)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ensemble",
        "grid": {"d": e.grid.d, "n": e.grid.n},
        "m": e.m,
        "time": time,
        "members": "ensemble.lbf",
        "size": e.size,
    }
    path = directory / "ensemble.json"
    path.write_text(canonical_json(manifest) + "\n")
    return path


def _parse_manifest(path: Path) -> dict:
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: cannot read manifest: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed manifest JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported manifest schema "
                         f"{doc.get('schema_version')!r}")
    return doc


def manifest_kind(path) -> str:
    """The kind of a manifest, "ensemble" or "lawcurve"."""
    path = Path(path)
    return _field(_parse_manifest(path), "kind",
                  lambda v: v in ("ensemble", "lawcurve"),
                  "'ensemble' or 'lawcurve'", path)


def _load_manifest(path: Path, kind: str) -> dict:
    doc = _parse_manifest(path)
    _field(doc, "kind", lambda v: v == kind, repr(kind), path)
    return doc


def _field(doc: dict, key: str, valid, expected: str, path):
    """doc[key], or a ValueError naming the manifest and the field."""
    value = doc.get(key)
    if not valid(value):
        raise ValueError(f"{path}: field {key} must be {expected}, "
                         f"got {value!r}")
    return value


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    if not (_is_int(v) or isinstance(v, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_list_of(item):
    return lambda v: (isinstance(v, list) and len(v) > 0
                      and all(item(x) for x in v))


def _is_name(v) -> bool:
    return isinstance(v, str) and v != ""


@dataclass(frozen=True)
class _EnsembleFile:
    """An ensemble on disk whose manifest, header and file length are
    checked; `load` reads the payload at `offset` of `path`, with its
    finite-value check."""

    grid: Grid
    m: int
    size: int
    path: Path
    offset: int

    def load(self) -> Ensemble:
        values = np.empty((self.size, self.m) + self.grid.shape, dtype="<f8")
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            _read_payload(fh, self.path, values)
        return Ensemble(self.grid, values)


def _open_ensemble(path: Path) -> tuple:
    """Check an ensemble manifest and the header and exact length of its
    file; returns (_EnsembleFile, time) without reading the payload."""
    doc = _load_manifest(path, "ensemble")
    spec = _field(doc, "grid", lambda v: isinstance(v, dict)
                  and _is_int(v.get("d")) and _is_int(v.get("n")),
                  "an object with integer d and n", path)
    m = _field(doc, "m", lambda v: _is_int(v) and v >= 1,
               "a positive integer", path)
    time = float(_field(doc, "time", _is_finite, "a finite number", path))
    name = _field(doc, "members", _is_name, "a file name", path)
    size = _field(doc, "size", lambda v: _is_int(v) and v >= 1,
                  "a positive integer", path)
    member = path.parent / name
    try:
        fh = open(member, "rb")
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: field members: cannot open "
                         f"{name!r}: {exc}") from None
    with fh:
        grid, m_file, size_file = _read_header(fh, member)
        if (grid.d, grid.n, m_file, size_file) != (spec["d"], spec["n"],
                                                   m, size):
            raise ValueError(
                f"{path}: fields grid, m and size (d={spec['d']}, "
                f"n={spec['n']}, m={m}, size={size}) disagree with "
                f"{member} (d={grid.d}, n={grid.n}, m={m_file}, "
                f"size={size_file})")
        return _EnsembleFile(grid, m, size, member, fh.tell()), time


def read_ensemble(manifest_path) -> tuple:
    """Returns (Ensemble, time).

    `members` names one version-2 file holding `size` members, which must
    carry the manifest's grid and component count; its header and length
    are checked before the members are read into one (N, m, *shape)
    array."""
    on_disk, time = _open_ensemble(Path(manifest_path))
    return on_disk.load(), time


def write_lawcurve(directory, curve: LawCurve) -> Path:
    """Write a law curve with `write_lawcurve_slices`."""
    return write_lawcurve_slices(directory, curve.times, curve.ensembles)


def write_lawcurve_slices(directory, times, ensembles) -> Path:
    """Write a law curve one slice at a time: slice s goes to `t_ssss/` by
    `write_ensemble` as soon as the iterable `ensembles` yields it, and
    `lawcurve.json` lists the slices at the end.  The times are checked as
    LawCurve checks them before anything is written."""
    times = np.asarray(times, dtype=np.float64)
    _check_times(times, len(times))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries, grid = [], None
    # no zip over `ensembles`: its cached result tuple would keep a
    # finished slice alive while the next one is drawn
    for s, e in enumerate(ensembles):
        if s == len(times):
            raise ValueError("more law curve ensembles than times")
        if grid is None:
            grid = e.grid
        elif e.grid != grid:
            raise ValueError("law curve ensembles must share the grid")
        t = float(times[s])
        write_ensemble(directory / f"t_{s:04d}", e, time=t)
        entries.append({"time": t, "ensemble": f"t_{s:04d}/ensemble.json"})
    _check_times(times, len(entries))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "lawcurve",
        "entries": entries,
    }
    path = directory / "lawcurve.json"
    path.write_text(canonical_json(manifest) + "\n")
    return path


def read_lawcurve(manifest_path) -> LawCurve:
    """Check the curve manifest, every ensemble manifest and entry time,
    and every LBF header and file length; returns a LawCurve whose
    `ensembles` is a LazyEnsembles, reading slice i's payload (with its
    finite-value check) each time item i is accessed."""
    path = Path(manifest_path)
    doc = _load_manifest(path, "lawcurve")
    entries = _field(doc, "entries", _is_list_of(
        lambda v: isinstance(v, dict) and _is_finite(v.get("time"))
        and _is_name(v.get("ensemble"))),
        "a non-empty list of {time, ensemble} objects", path)
    times, slices = [], []
    for entry in entries:
        on_disk, t_stored = _open_ensemble(path.parent / entry["ensemble"])
        if abs(t_stored - entry["time"]) > 1e-12:
            raise ValueError(f"{path}: entry time {entry['time']!r} disagrees "
                             f"with ensemble manifest {entry['ensemble']}")
        times.append(entry["time"])
        slices.append(on_disk)
    try:
        return LawCurve(np.array(times, dtype=np.float64),
                        LazyEnsembles(slices))
    except ValueError as exc:
        raise ValueError(f"{path}: field entries: {exc}") from None


# ---------------------------------------------------------------- reports

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# A check's comparison: name -> (its printed rule, its verdict)
COMPARISONS = {
    "at_most": ("value <= bound", lambda v, b, tol: v <= b),
    "at_most_rel": ("value <= bound*(1+tol)",
                    lambda v, b, tol: v <= b * (1 + tol)),
    "within": ("|value - bound| <= tol", lambda v, b, tol: abs(v - b) <= tol),
    "above": ("value > bound", lambda v, b, tol: v > b),
    "at_least": ("value >= bound", lambda v, b, tol: v >= b),
}


@dataclass
class Check:
    """One report row: `value` against `bound` by the declared comparison,
    which decides `satisfied`.  A check whose printed numbers cannot decide
    its verdict passes it in as `flag` instead (README, "Checks")."""

    name: str
    value: float
    bound: float
    tolerance: float = 0.0
    compare: str = "at_most"
    flag: bool | None = None

    @classmethod
    def holds(cls, name, ok, tolerance=0.0) -> "Check":
        """A boolean condition, reported as 1.0 (or 0.0) against 1.0."""
        return cls(name, float(ok), 1.0, tolerance, "at_least")

    @property
    def satisfied(self) -> bool:
        if self.flag is not None:
            return bool(self.flag)
        return bool(COMPARISONS[self.compare][1](self.value, self.bound,
                                                 self.tolerance))

    def __str__(self):
        rule = "flag" if self.flag is not None else COMPARISONS[self.compare][0]
        return (f"[{'PASS' if self.satisfied else 'FAIL'}] {self.name}: "
                f"value={self.value:.6g} bound={self.bound:.6g} "
                f"tol={self.tolerance:g} ({rule})")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "bound": float(self.bound),
            "satisfied": self.satisfied,
            "tolerance": float(self.tolerance),
        }


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config_hash": config_hash(self.config),
            "checks": [c.as_dict() for c in self.checks],
            "extra": self.extra,
            "wall_time_s": self.wall_time_s,
        }

    def write(self, path) -> None:
        Path(path).write_text(canonical_json(self.as_dict()) + "\n")


def strip_timing(report_text: str) -> str:
    """Canonical report bytes with the wall-time field removed."""
    doc = json.loads(report_text)
    doc.pop("wall_time_s", None)
    return canonical_json(doc)


class Range(NamedTuple):
    """Numbers from `lo` (exclusive if `strict`) up to `hi` inclusive."""

    lo: float
    strict: bool = False
    hi: float = math.inf

    def holds(self, x) -> bool:
        return (x > self.lo if self.strict else x >= self.lo) and x <= self.hi

    def __str__(self):
        if self.hi < math.inf:
            return f"in {'(' if self.strict else '['}{self.lo}, {self.hi}]"
        if self.lo == 0:
            return "positive" if self.strict else "non-negative"
        return f"{'greater than' if self.strict else 'at least'} {self.lo}"


def validate_config(config: dict, allowed: dict, command: str) -> dict:
    """Reject unknown keys, check the schema version, fill defaults.

    `allowed` maps key -> (type, default[, range]); a default of None and
    absence of the key is an error.  Numbers must be finite, and a bool is
    not a number.  A range is a `Range` for a number or for each entry of a
    non-empty list of finite numbers, and the allowed values for a str.
    """
    if not isinstance(config, dict):
        raise ValueError(f"{command}: config must be a JSON object")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"{command}: unsupported schema_version {version!r}")
    unknown = set(config) - set(allowed) - {"schema_version"}
    if unknown:
        raise ValueError(f"{command}: unknown config fields {sorted(unknown)}")
    out = {}
    for key, (types, default, *limits) in allowed.items():
        if key in config:
            val = config[key]
            if types is float and _is_int(val):
                big = abs(val) > sys.float_info.max
                val = math.inf if big else float(val)
            if not isinstance(val, types) or (isinstance(val, bool)
                                              and types is not bool):
                raise ValueError(f"{command}: field {key} has wrong type")
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"{command}: field {key} must be a finite "
                                 f"number, got {val}")
            for r in limits:
                if types is list:
                    ok = val and all(_is_finite(x) and r.holds(x) for x in val)
                    what = f"a non-empty list of finite numbers each {r}"
                elif isinstance(r, Range):
                    ok, what = r.holds(val), r
                else:
                    ok, what = val in r, f"one of {list(r)}"
                if not ok:
                    raise ValueError(f"{command}: field {key} must be {what}, "
                                     f"got {val!r}")
            out[key] = val
        elif default is None:
            raise ValueError(f"{command}: missing required field {key}")
        else:
            out[key] = default
    return out


# -------------------------------------------------------------------- CSV

def write_csv(path, header, rows) -> None:
    """Deterministic CSV with repr-formatted floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
