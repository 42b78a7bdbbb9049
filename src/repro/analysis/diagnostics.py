"""Structured diagnostics for the fabric linter.

Every finding the static verifier emits is a :class:`Diagnostic`: a
stable rule code (``FAB001``...), a severity, the offending location
(switch / LID / virtual lane where applicable) and a machine-readable
*witness* — the concrete certificate that reproduces the defect (the
looping table walk, the CDG cycle as an ordered channel list, the
black-holed ``(source, dlid)`` pair).  Findings aggregate into a
:class:`LintReport` that renders as text for humans and serialises to
JSON for CI gates and tooling.

The rule catalogue below is the contract: codes are stable across
releases, tests assert on them, and DESIGN.md maps each one to the
paper mechanism it guards (criterion (4) of section 3.2, the LMC
multi-pathing of PARX, the virtual-lane deadlock avoidance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

import numpy as np


def _to_builtin(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays to JSON-native builtins.

    Witness certificates are built straight off dense-array walks, so
    ``np.int64`` / ``np.bool_`` / ``np.ndarray`` payloads leak in
    naturally; ``json.dumps`` either rejects them (arrays, and bools on
    older numpy) or bloats the output.  Coercing once at
    :class:`Diagnostic` construction keeps every downstream consumer
    (reports, ledgers, CI gates) on plain builtins.  Tuples become
    lists — the JSON round-trip did that anyway.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_to_builtin(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {_to_builtin(k): _to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_builtin(v) for v in value]
    return value


class Severity(str, Enum):
    """Severity of a diagnostic; errors gate CI, warnings inform."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One entry of the stable rule catalogue.

    Attributes
    ----------
    code:
        Stable identifier (``FAB001``...); never renumbered.
    slug:
        Short kebab-case name used in text output.
    default_severity:
        Severity a diagnostic of this rule carries unless overridden.
    summary:
        One-line description of the defect class.
    guards:
        The paper mechanism this rule protects (for DESIGN.md and
        ``repro lint --format json`` consumers).
    """

    code: str
    slug: str
    default_severity: Severity
    summary: str
    guards: str


_RULE_LIST: tuple[Rule, ...] = (
    Rule(
        "FAB001", "lft-black-hole", Severity.ERROR,
        "a (source, destination-LID) pair is dropped by a missing, "
        "disabled or mis-ejecting forwarding entry",
        "criterion (4) fault tolerance: every LID must stay reachable "
        "on the degraded fabric (section 3.2)",
    ),
    Rule(
        "FAB002", "lft-forwarding-loop", Severity.ERROR,
        "a table walk revisits a switch: packets for the destination "
        "LID cycle forever",
        "criterion (4) loop freedom — the paper's triangle "
        "counter-example in section 3.2",
    ),
    Rule(
        "FAB003", "cdg-credit-loop", Severity.ERROR,
        "the channel-dependency graph of one virtual lane contains a "
        "cycle: a packet chain can deadlock on credits",
        "criterion (4) deadlock freedom via VL layering (Dally & "
        "Seitz; DFSSSP/LASH/Nue, section 3.2)",
    ),
    Rule(
        "FAB004", "lid-duplicate", Severity.ERROR,
        "two ports claim the same LID (overlapping LMC blocks): "
        "forwarding entries alias two endpoints",
        "LMC multi-pathing — PARX's four LIDs per port must be "
        "distinct fabric-wide (footnote 5)",
    ),
    Rule(
        "FAB005", "lid-unassigned", Severity.ERROR,
        "a node has no LID assigned: it cannot be addressed",
        "destination-based forwarding needs a LID per endpoint "
        "(section 3.2)",
    ),
    Rule(
        "FAB006", "lid-out-of-range", Severity.ERROR,
        "a LID falls outside the 16-bit unicast range [1, 0xBFFF]",
        "InfiniBand addressing limits; the quadrant policy packs "
        "quadrants below LID 14000 (footnote 9)",
    ),
    Rule(
        "FAB007", "lft-entry-invalid", Severity.ERROR,
        "a forwarding entry references a foreign or unknown link",
        "LFT hygiene: OpenSM only installs entries over live local "
        "ports",
    ),
    Rule(
        "FAB008", "hyperx-irregular", Severity.WARNING,
        "a HyperX switch misses intra-dimension neighbours, or a link "
        "violates the one-differing-coordinate rule",
        "HyperX dimension regularity (Ahn et al.); 15 missing AOCs "
        "degrade but must not break the 12x8 plane (section 2.3)",
    ),
    Rule(
        "FAB009", "tree-level-skip", Severity.ERROR,
        "a fat-tree cable connects non-adjacent levels",
        "fat-tree level consistency: edge -> line -> spine wiring of "
        "the director plane (section 2.3)",
    ),
    Rule(
        "FAB010", "port-capacity", Severity.ERROR,
        "a terminal is multi-homed or detached, a switch is isolated, "
        "or a link carries non-positive capacity",
        "single-homed HCA-port-per-plane wiring and live cable "
        "capacities (section 2.3)",
    ),
    Rule(
        "FAB011", "hot-link", Severity.WARNING,
        "static forwarding-table traversal counts predict a hot link "
        "well above the fabric mean under minimal routing",
        "the paper's core HyperX pathology: minimal routing "
        "concentrates bisection traffic on few links (section 3.1)",
    ),
    Rule(
        "FAB012", "vl-out-of-range", Severity.ERROR,
        "a destination is assigned a virtual lane outside the fabric's "
        "lane count or the hardware budget",
        "the QDR hardware offers 8 VLs; layering must stay within "
        "them (section 3.2)",
    ),
    Rule(
        "FAB013", "lft-disabled-link", Severity.ERROR,
        "a forwarding entry points at a disabled link: the table is "
        "stale relative to the fabric's fault state and traffic for "
        "that destination would be black-holed at line rate",
        "fault tolerance (section 2.3): after a cable fails the SM must "
        "re-sweep; simulating a stale path would flatter the faulty "
        "fabric",
    ),
    Rule(
        "FAB014", "whatif-single-point-of-failure", Severity.ERROR,
        "a cable is a bridge of the switch graph: if it fails, some "
        "terminal pair has no surviving path and no re-sweep can "
        "recover it",
        "criterion (4) fault tolerance: the paper's machine ran with "
        "15 missing AOCs and stayed fully connected (section 2.3)",
    ),
    Rule(
        "FAB015", "whatif-credit-loop-exposure", Severity.WARNING,
        "after a single-cable failure the surviving forwarding entries "
        "still contain a credit loop on some virtual lane: a mid-run "
        "fault leaves the fabric deadlock-prone until the re-sweep",
        "criterion (4) deadlock freedom must hold on the degraded "
        "fabric too — SSSP's failure mode on the HyperX (section 3.2)",
    ),
    Rule(
        "FAB016", "whatif-load-shift", Severity.WARNING,
        "failing a cable would displace its predicted traversals onto "
        "a surviving link already near the hot-link threshold",
        "the paper's HyperX pathology (section 3.1): minimal routing "
        "concentrates bisection traffic; a failure concentrates it "
        "further",
    ),
    Rule(
        "FAB017", "whatif-blast-radius", Severity.WARNING,
        "a single cable failure would invalidate forwarding entries "
        "for a large fraction of all destinations, forcing the SM "
        "re-sweep to recompute most of the fabric",
        "fault tolerance economics: the incremental re-sweep "
        "(section 2.3 recovery path) only pays off when failures stay "
        "local",
    ),
)

#: Stable rule catalogue, keyed by code.
RULES: dict[str, Rule] = {r.code: r for r in _RULE_LIST}

#: Correctness rules every experiment preflights (cheap, no estimators).
CORE_RULES: frozenset[str] = frozenset(
    ("FAB001", "FAB002", "FAB003", "FAB004", "FAB005", "FAB006",
     "FAB007", "FAB010", "FAB012", "FAB013")
)

#: What-if fault-certification rules (:mod:`repro.analysis.whatif`):
#: they audit *hypothetical* single-cable failures, not the fabric as
#: routed, and are opt-in (``repro lint --what-if``).
WHATIF_RULES: frozenset[str] = frozenset(
    ("FAB014", "FAB015", "FAB016", "FAB017")
)

#: All as-routed rules, including topology shape checks and the load
#: estimator.  Deliberately excludes :data:`WHATIF_RULES` so a default
#: ``lint_fabric`` run never pays for (or fails on) hypothetical-failure
#: certification; pass ``ALL_RULES | WHATIF_RULES`` to run everything.
ALL_RULES: frozenset[str] = frozenset(RULES) - WHATIF_RULES


@dataclass
class Diagnostic:
    """One finding of the fabric linter.

    Attributes
    ----------
    code:
        Rule code from :data:`RULES`.
    message:
        Human-readable one-liner naming the offender.
    severity:
        Defaults to the rule's severity; rules may downgrade specific
        instances (e.g. a missing *switch* LID is only a warning).
    switch / lid / vl:
        The offending location, where the rule has one.
    witness:
        JSON-serialisable certificate reproducing the defect.
    """

    code: str
    message: str
    severity: Severity | None = None
    switch: int | None = None
    lid: int | None = None
    vl: int | None = None
    witness: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.code not in RULES:
            raise ValueError(f"unknown rule code {self.code!r}")
        if self.severity is None:
            self.severity = RULES[self.code].default_severity
        # Witnesses built from dense-array walks carry numpy scalars;
        # coerce once here so every serialisation stays JSON-native.
        if self.switch is not None:
            self.switch = int(self.switch)
        if self.lid is not None:
            self.lid = int(self.lid)
        if self.vl is not None:
            self.vl = int(self.vl)
        self.witness = _to_builtin(self.witness)

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.message}"

    def __contains__(self, needle: str) -> bool:
        # str()-compatible shim: legacy RoutingAudit.failures consumers
        # probed failures with substring checks on plain strings.
        return needle in str(self)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "rule": self.rule.slug,
            "severity": str(self.severity),
            "message": self.message,
            "switch": self.switch,
            "lid": self.lid,
            "vl": self.vl,
            "witness": self.witness,
        }


@dataclass
class LintReport:
    """Aggregated findings of one linter run over one fabric."""

    network: str = ""
    engine: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    #: Per-rule count of findings suppressed beyond the emission cap.
    suppressed: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        code: str,
        message: str,
        *,
        severity: Severity | None = None,
        switch: int | None = None,
        lid: int | None = None,
        vl: int | None = None,
        witness: dict[str, Any] | None = None,
    ) -> Diagnostic:
        diag = Diagnostic(
            code, message, severity=severity, switch=switch, lid=lid,
            vl=vl, witness=witness or {},
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    # --- queries ------------------------------------------------------------
    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def clean(self) -> bool:
        """No errors (warnings and infos do not gate)."""
        return not self.errors

    def codes(self) -> set[str]:
        """Distinct rule codes that fired (incl. suppressed overflow)."""
        return {d.code for d in self.diagnostics} | set(self.suppressed)

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    # --- serialisation ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "fabric": {"network": self.network, "engine": self.engine},
            "summary": {
                "clean": self.clean,
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "info": len(self.infos),
                "rules_fired": sorted(self.codes()),
                "suppressed": dict(self.suppressed),
            },
            "stats": self.stats,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render_text(self) -> str:
        """Multi-line human-readable report (the CLI's text format)."""
        head = (
            f"lint {self.network} engine={self.engine}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s), {len(self.infos)} info"
        )
        lines = [head]
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        for diag in sorted(
            self.diagnostics, key=lambda d: (order[d.severity or Severity.INFO], d.code)
        ):
            lines.append(f"  {diag}")
            for key in ("walk", "cycle", "channels"):
                if key in diag.witness:
                    lines.append(f"      {key}: {diag.witness[key]}")
        for code in sorted(self.suppressed):
            lines.append(
                f"  {code}: {self.suppressed[code]} further finding(s) "
                "suppressed (see --format json)"
            )
        if not self.diagnostics and not self.suppressed:
            lines.append("  fabric verified: no findings")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render_text()
