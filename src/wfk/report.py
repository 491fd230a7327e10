"""Verification reports: one probe per checked identity, machine-readable."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Probe:
    probe: str
    lhs: str
    rhs: str
    equal: bool
    note: str = ""


@dataclass
class VerificationReport:
    suite: str
    probes: list[Probe] = field(default_factory=list)

    def add(self, probe: str, lhs, rhs, equal: bool, note: str = "") -> None:
        self.probes.append(Probe(probe, str(lhs), str(rhs), bool(equal), note))

    @property
    def passed(self) -> bool:
        return all(p.equal for p in self.probes)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "probes": [
                {"probe": p.probe, "lhs": p.lhs, "rhs": p.rhs, "equal": p.equal,
                 **({"note": p.note} if p.note else {})}
                for p in self.probes
            ],
            "pass": self.passed,
        }
