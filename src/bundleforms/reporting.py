"""Task reports: one entry per task, deterministic machine rendering.

Statuses: pass, fail, error, unknown.  The machine rendering is JSON with
sorted keys and no timing data, so identical seeds give byte-identical
output; the human rendering adds wall times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleformsError


@dataclass
class TaskEntry:
    name: str
    status: str                     # pass | fail | error | unknown
    max_residual: float | None = None
    mean_residual: float | None = None
    min_abs_det: float | None = None
    witness_point: list | None = None
    invariants: dict = field(default_factory=dict)
    message: str = ""
    wall_time: float = 0.0

    def machine_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "max_residual": _round_float(self.max_residual),
            "mean_residual": _round_float(self.mean_residual),
            "min_abs_det": _round_float(self.min_abs_det),
            "witness_point": (None if self.witness_point is None
                              else [_round_float(v) for v in self.witness_point]),
            "invariants": {k: self.invariants[k] for k in sorted(self.invariants)},
            "message": self.message,
        }
        return out


def _round_float(v):
    if v is None:
        return None
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        return repr(v)
    return float(f"{v:.12g}")


_STATUS_ORDER = {"error": 2, "fail": 1, "unknown": 3, "pass": 0}


@dataclass
class Report:
    seed: int
    entries: list = field(default_factory=list)

    def add(self, entry: TaskEntry):
        self.entries.append(entry)

    def exit_code(self) -> int:
        statuses = {e.status for e in self.entries}
        if "error" in statuses:
            return 2
        if "fail" in statuses:
            return 1
        if "unknown" in statuses:
            return 3
        return 0

    def machine_text(self) -> str:
        doc = {
            "seed": self.seed,
            "tasks": [e.machine_dict() for e in self.entries],
            "exit_code": self.exit_code(),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def human_text(self) -> str:
        lines = [f"report (seed {self.seed})"]
        for e in self.entries:
            bits = [f"[{e.status:7s}]", e.name]
            if e.max_residual is not None:
                bits.append(f"residual {e.max_residual:.3e}")
            if e.min_abs_det is not None:
                bits.append(f"min|det| {e.min_abs_det:.3e}")
            if e.invariants:
                inv = ", ".join(f"{k}={v}" for k, v in sorted(e.invariants.items()))
                bits.append(f"({inv})")
            if e.witness_point is not None:
                coords = ", ".join(f"{float(v):.6g}" for v in e.witness_point)
                bits.append(f"at ({coords})")
            if e.message:
                bits.append(f"- {e.message}")
            bits.append(f"[{e.wall_time * 1000:.0f} ms]")
            lines.append("  " + " ".join(bits))
        lines.append(f"exit code {self.exit_code()}")
        return "\n".join(lines) + "\n"


class timed_entry:
    """Context manager building a TaskEntry and catching task errors."""

    def __init__(self, report: Report, name: str):
        self.report = report
        self.entry = TaskEntry(name=name, status="error")
        self.start = 0.0

    def __enter__(self):
        self.start = time.perf_counter()
        return self.entry

    def __exit__(self, exc_type, exc, tb):
        self.entry.wall_time = time.perf_counter() - self.start
        if exc is not None:
            # a spec too deep for the recursive evaluator, or a singular
            # kernel outside the guards, is the task's error, not a crash
            if isinstance(exc, (BundleformsError, RecursionError,
                                np.linalg.LinAlgError)):
                self.entry.status = "error"
                self.entry.message = f"{type(exc).__name__}: {exc}"
                point = getattr(exc, "point", None)
                if point is not None:
                    self.entry.witness_point = list(point)
                self.report.add(self.entry)
                return True
            return False
        self.report.add(self.entry)
        return True
