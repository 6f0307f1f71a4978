"""Experiment reports and the append-only CSV ledger."""
from __future__ import annotations

import datetime
import os
from dataclasses import dataclass, field

LEDGER_HEADER = "timestamp,lemma_id,instance_id,bound,measured,status,trials,seed"
LEDGER_ENV_VAR = "FORESTLAB_LEDGER"


@dataclass
class ExperimentReport:
    """Outcome of one verification or experiment run.

    `status` is ok | precondition_violation | fail.  A violated claim
    precondition is reported through it instead of an exception, so sweeps
    can tabulate guard rates, and "fail" marks a side condition of the
    claim that does not hold.  With status ok the verdict follows
    `direction`: "le" passes when measured <= bound + tolerance, "ge" when
    measured >= bound - tolerance, and None asserts nothing and passes.
    `csv_status` is that verdict, pass | fail | precondition_violation.
    """

    lemma_id: str
    bound: float | None
    measured: float
    direction: str | None
    status: str = "ok"
    mode: str = "exact"
    trials: int | None = None
    seed: int | None = None
    tolerance: float = 1e-9
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.direction not in ("le", "ge", None):
            raise ValueError(f"direction must be 'le', 'ge' or None, got {self.direction!r}")

    @property
    def csv_status(self) -> str:
        if self.status != "ok":
            return self.status
        if self.direction == "le":
            held = self.measured <= self.bound + self.tolerance
        elif self.direction == "ge":
            held = self.measured >= self.bound - self.tolerance
        else:
            held = True
        return "pass" if held else "fail"

    @property
    def passed(self) -> bool:
        return self.csv_status == "pass"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def ledger_row(report: ExperimentReport, instance_id: str) -> str:
    """Deterministic CSV cell block, everything except the timestamp."""
    return ",".join(
        [
            report.lemma_id,
            instance_id,
            _fmt(report.bound),
            _fmt(report.measured),
            report.csv_status,
            _fmt(report.trials),
            _fmt(report.seed),
        ]
    )


def default_ledger_path() -> str | None:
    return os.environ.get(LEDGER_ENV_VAR)


def append_ledger(path: str, rows, fresh: bool = False) -> None:
    """Append fully formed rows, creating the header when needed.

    Each row is written with its own timestamp column so reruns differ only
    there.  `fresh` truncates the file first.
    """
    exists = os.path.exists(path) and not fresh
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    mode = "a" if exists else "w"
    with open(path, mode) as fh:
        if not exists:
            fh.write(LEDGER_HEADER + "\n")
        for row in rows:
            fh.write(f"{stamp},{row}\n")
