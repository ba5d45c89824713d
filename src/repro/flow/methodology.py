"""The end-to-end Symbad flow report.

:class:`FlowReport` is everything one complete four-level campaign
produces, with the cross-level pass gates and a schema-stable
``to_dict``.  :meth:`repro.api.session.Session.report` assembles it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.level1 import Level1Result
from repro.flow.level2 import Level2Result
from repro.flow.level3 import Level3Result
from repro.flow.level4 import Level4Result
from repro.flow.reportgen import flow_figure


@dataclass
class FlowReport:
    """Everything one end-to-end flow run produces."""

    workload_name: str
    params: dict
    shots: list
    level1: Level1Result
    level2: Level2Result
    level3: Level3Result
    level4: Level4Result
    recognition_accuracy: float
    sim_speed_ratio: float  # level2 speed / level3 speed (paper ~6.7x)
    min_accuracy: float = 0.0  # the workload's level-1 pass threshold

    @property
    def accuracy_ok(self) -> bool:
        """The workload's application-level pass threshold holds."""
        return self.recognition_accuracy >= self.min_accuracy

    @property
    def passed(self) -> bool:
        """All cross-level consistency checks and verifications hold.

        The criteria are :data:`repro.api.campaign.LEVEL_GATES` plus the
        workload's accuracy threshold — the single definition shared
        with campaign runs, so ``repro flow`` and ``repro campaign`` can
        never disagree on pass/fail.
        """
        from repro.api.campaign import LEVEL_GATES

        levels = {1: self.level1, 2: self.level2, 3: self.level3,
                  4: self.level4}
        return self.accuracy_ok and all(
            gate(levels[lv]) for lv, gate in LEVEL_GATES.items())

    def to_dict(self) -> dict:
        """The schema-stable JSON document of one flow run."""
        from repro.serialize import json_safe

        return {
            "schema": "repro.flow_report/v2",
            "workload": {
                "name": self.workload_name,
                **json_safe(self.params),
                "frames": len(self.shots),
            },
            "shots": json_safe([list(shot) if isinstance(shot, (tuple, list))
                                else shot for shot in self.shots]),
            "levels": {
                "level1": self.level1.to_dict(),
                "level2": self.level2.to_dict(),
                "level3": self.level3.to_dict(),
                "level4": self.level4.to_dict(),
            },
            "recognition_accuracy": self.recognition_accuracy,
            "min_accuracy": self.min_accuracy,
            "accuracy_ok": self.accuracy_ok,
            "sim_speed_ratio": self.sim_speed_ratio,
            "passed": self.passed,
        }

    def describe(self) -> str:
        sections = [
            flow_figure(),
            self.level1.describe(),
            "",
            self.level2.describe(),
            "",
            self.level3.describe(),
            "",
            self.level4.describe(),
            "",
            f"recognition accuracy over {len(self.shots)} probe inputs "
            f"({self.workload_name}): {self.recognition_accuracy:.1%} "
            f"(threshold {self.min_accuracy:.0%}: "
            f"{'ok' if self.accuracy_ok else 'FAIL'})",
            f"level-2/level-3 simulation speed ratio: {self.sim_speed_ratio:.1f}x "
            "(paper: 200 kHz / 30 kHz = 6.7x)",
        ]
        return "\n".join(sections)
