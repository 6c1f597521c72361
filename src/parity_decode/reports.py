"""Report containers and file formats.

A BenchmarkReport is a config echo plus homogeneous rows of scalars. It
serializes to JSON (full fidelity) and to CSV whose first line embeds
the config as a JSON comment; individual cells are JSON-encoded scalars
and None an empty cell, written and read in the csv module's default
dialect, so parsing an emitted file reproduces the report exactly,
floats included. File names embed a short config hash and the master seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

from .code import _parse_spin_rows


@dataclass
class BenchmarkReport:
    kind: str
    config: dict
    rows: list[dict] = field(default_factory=list)

    def config_hash(self) -> str:
        blob = json.dumps({"kind": self.kind, "config": self.config}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:10]

    def default_stem(self) -> str:
        seed = self.config.get("seed", "noseed")
        return f"{self.kind}_{self.config_hash()}_s{seed}"

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"kind": self.kind, "config": self.config, "rows": self.rows},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "BenchmarkReport":
        with open(path) as fh:
            data = json.load(fh)
        return cls(kind=data["kind"], config=data["config"], rows=data["rows"])

    def to_csv(self, path) -> None:
        header = sorted({k for row in self.rows for k in row})
        with open(path, "w", newline="") as fh:
            fh.write(
                "# "
                + json.dumps({"kind": self.kind, "config": self.config}, sort_keys=True)
                + "\n"
            )
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in self.rows:
                writer.writerow(None if row.get(k) is None else json.dumps(row[k])
                                for k in header)

    @classmethod
    def from_csv(cls, path) -> "BenchmarkReport":
        with open(path, newline="") as fh:
            meta_line = fh.readline()
            if not meta_line.startswith("# "):
                raise ValueError("missing config comment line")
            meta = json.loads(meta_line[2:])
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [
                {k: json.loads(c) if c else None for k, c in zip(header, cells)}
                for cells in reader
                if cells
            ]
        return cls(kind=meta["kind"], config=meta["config"], rows=rows)


@dataclass
class TrajectoryDump:
    """Per-iteration snapshots of a decode, with error counts against a
    known target. CSV form: one block per iteration, each block headed
    by '# iteration=<n> errors=<m>' followed by the K rows."""

    meta: dict
    snapshots: list
    error_counts: list

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(self.meta, sort_keys=True) + "\n")
            for n, (snap, errs) in enumerate(zip(self.snapshots, self.error_counts)):
                fh.write(f"# iteration={n} errors={errs}\n")
                for row in snap:
                    fh.write(",".join(str(int(v)) for v in row) + "\n")
                fh.write("\n")

    @classmethod
    def read_csv(cls, path) -> "TrajectoryDump":
        """Parse a dump; each snapshot is validated as a spin-matrix file
        is, and a refusal names its line in the dump."""
        meta = {}
        snapshots: list = []
        error_counts: list = []
        block: list = []
        with open(path) as fh:
            lines = list(enumerate(fh, start=1))
        if lines and lines[0][1].startswith("# ") and "iteration=" not in lines[0][1]:
            meta = json.loads(lines.pop(0)[1][2:])
        for ln, line in lines:
            line = line.strip()
            if line.startswith("#"):
                if block:
                    snapshots.append(_parse_spin_rows(block))
                    block = []
                error_counts.append(int(line.split("errors=")[1]))
            elif line:
                block.append((ln, line))
        if block:
            snapshots.append(_parse_spin_rows(block))
        return cls(meta=meta, snapshots=snapshots, error_counts=error_counts)
