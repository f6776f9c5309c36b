"""Persistence: LBF1 field files, JSON manifests, reports, CSV curves.

All JSON is written canonically (sorted keys, fixed separators) so that
identical configurations and results serialize to identical bytes; wall
time is the single non-deterministic report field and is excluded from
comparisons by `strip_timing`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ensemble import Ensemble, LawCurve
from .fields import Grid, GridField

__all__ = [
    "write_lbf",
    "read_lbf",
    "write_ensemble",
    "read_ensemble",
    "write_lawcurve",
    "read_lawcurve",
    "Check",
    "Report",
    "canonical_json",
    "config_hash",
    "validate_config",
    "strip_timing",
    "write_csv",
]

SCHEMA_VERSION = 1
_MAGIC = b"LBF1"


# ------------------------------------------------------------------- LBF1

def write_lbf(path, f: GridField) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IBBH", 1, g.d, f.m, 0))
        fh.write(struct.pack(f"<{g.d}I", *([g.n] * g.d)))
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def _read_exact(fh, size: int, path) -> bytes:
    chunk = fh.read(size)
    if len(chunk) != size:
        raise ValueError(f"{path}: truncated LBF file")
    return chunk


def read_lbf(path) -> GridField:
    """Read one LBF1 field; the file must end exactly at its payload."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        version, d, m, reserved = struct.unpack("<IBBH", _read_exact(fh, 8, path))
        if version != 1:
            raise ValueError(f"{path}: unsupported version {version}")
        if reserved != 0:
            raise ValueError(f"{path}: nonzero reserved field")
        ns = struct.unpack(f"<{d}I", _read_exact(fh, 4 * d, path))
        if len(set(ns)) != 1:
            raise ValueError(f"{path}: anisotropic grids unsupported, n={ns}")
        grid = Grid(d, ns[0])
        count = m * grid.n**d
        data = np.frombuffer(_read_exact(fh, count * 8, path), dtype="<f8")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the payload")
        values = data.reshape((m,) + grid.shape).astype(np.float64)
        return GridField(grid, values)


# -------------------------------------------------------------- manifests

def write_ensemble(directory, e: Ensemble, time: float = 0.0,
                   prefix: str = "member") -> Path:
    """Write members as LBF1 files plus a JSON manifest; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(e.size):
        name = f"{prefix}_{i:04d}.lbf"
        write_lbf(directory / name, e.member(i))
        names.append(name)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ensemble",
        "grid": {"d": e.grid.d, "n": e.grid.n},
        "m": e.m,
        "time": time,
        "members": names,
    }
    path = directory / "ensemble.json"
    path.write_text(canonical_json(manifest) + "\n")
    return path


def read_ensemble(manifest_path) -> tuple:
    """Returns (Ensemble, time)."""
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema {doc.get('schema_version')}")
    if doc.get("kind") != "ensemble":
        raise ValueError("manifest is not an ensemble manifest")
    members = [read_lbf(manifest_path.parent / name) for name in doc["members"]]
    e = Ensemble.from_fields(members)
    if (e.grid.d, e.grid.n, e.m) != (doc["grid"]["d"], doc["grid"]["n"], doc["m"]):
        raise ValueError("manifest grid descriptor disagrees with member files")
    return e, float(doc["time"])


def write_lawcurve(directory, curve: LawCurve) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for s, (t, e) in enumerate(zip(curve.times, curve.ensembles)):
        sub = directory / f"t_{s:04d}"
        write_ensemble(sub, e, time=float(t))
        entries.append({"time": float(t), "ensemble": f"t_{s:04d}/ensemble.json"})
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "lawcurve",
        "entries": entries,
    }
    path = directory / "lawcurve.json"
    path.write_text(canonical_json(manifest) + "\n")
    return path


def read_lawcurve(manifest_path) -> LawCurve:
    manifest_path = Path(manifest_path)
    doc = json.loads(manifest_path.read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema {doc.get('schema_version')}")
    if doc.get("kind") != "lawcurve":
        raise ValueError("manifest is not a law-curve manifest")
    times, ensembles = [], []
    for entry in doc["entries"]:
        e, t_stored = read_ensemble(manifest_path.parent / entry["ensemble"])
        if abs(t_stored - entry["time"]) > 1e-12:
            raise ValueError("curve entry time disagrees with ensemble manifest")
        times.append(entry["time"])
        ensembles.append(e)
    return LawCurve(np.array(times), ensembles)


# ---------------------------------------------------------------- reports

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


@dataclass
class Check:
    name: str
    value: float
    bound: float
    satisfied: bool
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "bound": float(self.bound),
            "satisfied": bool(self.satisfied),
            "tolerance": float(self.tolerance),
        }


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def add(self, name, value, bound, satisfied, tolerance) -> None:
        self.checks.append(Check(name, value, bound, satisfied, tolerance))

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)

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


def read_report(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {doc.get('schema_version')}")
    return doc


def strip_timing(report_text: str) -> str:
    """Canonical report bytes with the wall-time field removed."""
    doc = json.loads(report_text)
    doc.pop("wall_time_s", None)
    return canonical_json(doc)


def validate_config(config: dict, allowed: dict, command: str) -> dict:
    """Reject unknown keys, check the schema version, fill defaults.

    `allowed` maps key -> (type or tuple of types, default); a default of
    None and absence of the key is an error.
    """
    if not isinstance(config, dict):
        raise ValueError(f"{command}: config must be a JSON object")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"{command}: unsupported schema_version {version}")
    unknown = set(config) - set(allowed) - {"schema_version"}
    if unknown:
        raise ValueError(f"{command}: unknown config fields {sorted(unknown)}")
    out = {}
    for key, (types, default) in allowed.items():
        if key in config:
            val = config[key]
            if types is float and isinstance(val, int):
                val = float(val)
            if not isinstance(val, types):
                raise ValueError(f"{command}: field {key} has wrong type")
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
