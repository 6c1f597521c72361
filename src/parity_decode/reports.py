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
import re
from dataclasses import dataclass, field

from .code import MatrixFormatError, _parse_spin_rows, _write_spin_rows


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


_ITERATION_HEADER = re.compile(r"# iteration=([0-9]+) errors=([0-9]+)")


@dataclass(eq=False)
class TrajectoryDump:
    """Per-iteration snapshots of a decode, with error counts against a
    known target. CSV form: one block per iteration, each block headed
    by '# iteration=<n> errors=<m>' followed by the K rows. Compared and
    hashed by identity, as its snapshots are arrays."""

    meta: dict
    snapshots: list
    error_counts: list

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# " + json.dumps(self.meta, sort_keys=True) + "\n")
            for n, (snap, errs) in enumerate(zip(self.snapshots, self.error_counts)):
                fh.write(f"# iteration={n} errors={errs}\n")
                _write_spin_rows(fh, snap)
                fh.write("\n")

    @classmethod
    def read_csv(cls, path) -> "TrajectoryDump":
        """Parse a dump as write_csv writes it: headers
        '# iteration=<n> errors=<m>' with n = 0, 1, 2, ... and m >= 0,
        each followed by one K x K snapshot, K the meta's (else the first
        snapshot's). The meta must be a JSON object, its K an integer
        >= 1. Each snapshot is validated as a spin-matrix file is; every
        refusal is a MatrixFormatError naming its line in the dump."""
        meta = {}
        with open(path) as fh:
            lines = list(enumerate(fh, start=1))
        # line 1 is the meta line unless it is the first iteration header,
        # whatever text the meta holds
        if (lines and lines[0][1].startswith("# ")
                and not _ITERATION_HEADER.fullmatch(lines[0][1].strip())):
            try:
                meta = json.loads(lines.pop(0)[1][2:])
            except json.JSONDecodeError:
                raise MatrixFormatError("expected '# iteration=0 errors=<m>' or a JSON meta line",
                                        1) from None
            if not isinstance(meta, dict):
                raise MatrixFormatError("meta line must be a JSON object", 1)
            if "K" in meta and (type(meta["K"]) is not int or meta["K"] < 1):
                raise MatrixFormatError(f"meta K must be an integer >= 1, got {meta['K']!r}", 1)
        blocks: list = []  # (header line, error count, [(line, row text)])
        for ln, line in lines:
            line = line.strip()
            if line.startswith("#"):
                header = _ITERATION_HEADER.fullmatch(line)
                if not header or header[1] != str(len(blocks)):
                    raise MatrixFormatError(f"expected '# iteration={len(blocks)} errors=<m>'", ln)
                blocks.append((ln, int(header[2]), []))
            elif line:
                if not blocks:
                    raise MatrixFormatError("spin row before the first iteration header", ln)
                blocks[-1][2].append((ln, line))
        snapshots: list = []
        for ln, _, rows in blocks:
            if not rows:
                raise MatrixFormatError(f"iteration {len(snapshots)} has no snapshot", ln)
            snap = _parse_spin_rows(rows)
            K = meta.get("K", len(snapshots[0]) if snapshots else len(snap))
            if len(snap) != K:
                raise MatrixFormatError(f"snapshot is {len(snap)}x{len(snap)}, expected K={K}", ln)
            snapshots.append(snap)
        return cls(meta=meta, snapshots=snapshots, error_counts=[errs for _, errs, _ in blocks])
