"""Deterministic fault injection: seeded plans over named sites.

A :class:`FaultPlan` is parsed from a compact grammar::

    PIGEON_FAULTS='shard.write:crash@3;router.forward:timeout@0.1'

Each rule is ``site:kind@arg``:

``crash@N``
    hard-kill the process (``os._exit(137)``) on the N-th hit of the
    site -- the chaos suite's SIGKILL stand-in.
``error@N``
    raise :class:`FaultInjected` on the N-th hit.
``timeout@P`` / ``unavail@P``
    with probability ``P`` per hit (per-site ``random.Random`` seeded
    from the plan seed, so runs are reproducible), tell the site to
    stall or report unavailability.  Sites act on the returned action.

Sites are plain strings fired through the module-level singleton:
``faults.fire("shard.write")``.  With no plan installed ``fire`` is a
few-nanosecond no-op, so production paths pay nothing.  Every firing is
recorded in memory and, when ``PIGEON_FAULT_LOG`` is set, appended as a
JSONL line -- CI uploads those logs when a chaos job fails.

The known sites are listed in :data:`SITES`; a rule naming any other
site is refused at parse time, so a typo cannot arm a rule that never
fires.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Exit status used by ``crash`` rules -- matches SIGKILL's 128+9.
CRASH_EXIT_CODE = 137

#: How long a site sleeps when a ``timeout`` rule fires.
TIMEOUT_SLEEP_S = 0.5

ENV_PLAN = "PIGEON_FAULTS"
ENV_SEED = "PIGEON_FAULTS_SEED"
ENV_LOG = "PIGEON_FAULT_LOG"

_KINDS = ("crash", "error", "timeout", "unavail")

#: The sites the program fires; :meth:`FaultPlan.parse` refuses any other.
SITES = (
    "atomic.commit",
    "shard.write",
    "pipeline.save",
    "checkpoint.save",
    "train.epoch",
    "replica.accept",
    "replica.respond",
    "router.forward",
)


class FaultInjected(RuntimeError):
    """An ``error`` fault rule fired at a named site."""

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"injected fault at site {site!r}")


@dataclass(frozen=True)
class FaultRule:
    site: str
    kind: str  # crash | error | timeout | unavail
    arg: float  # hit count (crash/error) or probability (timeout/unavail)


@dataclass
class FaultPlan:
    """A seeded set of fault rules with per-site hit accounting."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0
    log_path: Optional[str] = None
    hits: Dict[str, int] = field(default_factory=dict)
    fired: List[dict] = field(default_factory=list)
    _rngs: Dict[str, random.Random] = field(default_factory=dict)

    @classmethod
    def parse(
        cls,
        text: str,
        seed: Optional[int] = None,
        log_path: Optional[str] = None,
    ) -> "FaultPlan":
        if seed is None:
            seed = int(os.environ.get(ENV_SEED, "0"))
        if log_path is None:
            log_path = os.environ.get(ENV_LOG) or None
        rules = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                site, spec = chunk.split(":", 1)
                kind, arg = spec.split("@", 1)
                value = float(arg)
            except ValueError:
                raise ValueError(
                    f"bad fault rule {chunk!r}: expected 'site:kind@arg'"
                ) from None
            site, kind = site.strip(), kind.strip()
            if kind not in _KINDS:
                raise ValueError(
                    f"bad fault rule {chunk!r}: unknown kind {kind!r} "
                    f"(expected one of {', '.join(_KINDS)})"
                )
            if kind in ("crash", "error") and (value < 1 or value != int(value)):
                raise ValueError(
                    f"bad fault rule {chunk!r}: {kind} takes a hit count >= 1"
                )
            if kind in ("timeout", "unavail") and not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"bad fault rule {chunk!r}: {kind} takes a probability in [0, 1]"
                )
            if site not in SITES:
                raise ValueError(
                    f"bad fault rule {chunk!r}: unknown site {site!r} "
                    f"(expected one of {', '.join(SITES)})"
                )
            rules.append(FaultRule(site, kind, value))
        return cls(rules=rules, seed=seed, log_path=log_path)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        text = os.environ.get(ENV_PLAN)
        if not text:
            return None
        return cls.parse(text)

    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
        return rng

    def _record(self, site: str, kind: str, hit: int) -> None:
        event = {"site": site, "kind": kind, "hit": hit, "seed": self.seed}
        self.fired.append(event)
        if self.log_path:
            line = json.dumps(event, separators=(",", ":")) + "\n"
            try:
                with open(self.log_path, "a", encoding="utf-8") as handle:
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError:
                pass  # logging must never mask the fault itself

    def fire(self, site: str) -> Optional[str]:
        """Account a hit at ``site``; crash, raise, or return an action.

        Returns ``None`` (no fault), or ``"timeout"`` / ``"unavail"``
        for the site to act on.  ``crash`` rules ``os._exit`` after
        recording; ``error`` rules raise :class:`FaultInjected`.
        """
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        for rule in self.rules:
            if rule.site != site:
                continue
            if rule.kind == "crash":
                if hit == int(rule.arg):
                    self._record(site, "crash", hit)
                    os._exit(CRASH_EXIT_CODE)
            elif rule.kind == "error":
                if hit == int(rule.arg):
                    self._record(site, "error", hit)
                    raise FaultInjected(site)
            elif self._rng(site).random() < rule.arg:
                self._record(site, rule.kind, hit)
                return rule.kind
        return None


_active: Optional[FaultPlan] = None
_env_checked = False


def install(plan_: Optional[FaultPlan]) -> None:
    """Install (or clear, with ``None``) the process-wide fault plan."""
    global _active, _env_checked
    _active = plan_
    _env_checked = True


def reset() -> None:
    """Clear the plan and re-arm the environment lookup."""
    global _active, _env_checked
    _active = None
    _env_checked = False


def plan() -> Optional[FaultPlan]:
    """The active plan, lazily loaded from ``PIGEON_FAULTS`` once."""
    global _env_checked, _active
    if not _env_checked:
        _env_checked = True
        _active = FaultPlan.from_env()
    return _active


def fire(site: str) -> Optional[str]:
    """Fire ``site`` against the active plan; no-op when none is set."""
    active = plan()
    if active is None:
        return None
    return active.fire(site)
