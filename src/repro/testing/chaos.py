"""Deterministic fault injection: named fault points, seed-keyed plans.

The resilience machinery of the experiment stack (retries, checkpointed
recovery, atomic writes, checksummed envelopes) is only trustworthy
if its failure paths can be exercised *deterministically*.  This module
provides that: production code is instrumented with **named fault
points** —

    from repro.testing import chaos
    ...
    chaos.fault_point("checkpoint.write")

— which are inert no-ops (a single ``None`` check) until a
:class:`FaultPlan` is installed.  A plan is a list of :class:`FaultSpec`
entries, each naming a point (glob patterns allowed), a fault ``kind``,
and the traversal window it fires in (``after``/``count`` hit counters),
so the *n*-th chunk checkpoint, the *second* store write, or the first
queue persist can be failed precisely and repeatably.

Fault kinds
-----------
``error``
    Raise :class:`ChaosError` (an ``OSError`` subclass, so every
    production handler that tolerates I/O failure tolerates injection).
``delay``
    Sleep ``delay`` seconds, then continue — stalls that trip timeouts
    and deadlines.
``crash``
    ``os._exit(exit_code)`` — the process dies as if SIGKILLed, with no
    atexit/finally cleanup.  Never fired in a process whose
    ``REPRO_CHAOS_ALLOW_CRASH`` environment variable is unset, so an
    installed plan cannot take down a test runner by accident.
``enospc``
    Raise ``OSError(ENOSPC)`` — the disk-full write failure.
``partial_write`` / ``corrupt``
    *Cooperative* kinds: :func:`fault_point` returns the kind string and
    the instrumented site implements the semantics (write a truncated
    file, flip a payload bit) because only the site knows how.
    ``corrupt`` sites call :func:`corrupt_bytes` to obtain the
    deterministically bit-flipped payload — the flipped byte and bit are a
    pure function of the plan ``seed``, the point name and the traversal
    number, so a corruption scenario is exactly repeatable.

Activation
----------
Programmatic: :func:`install_plan` / :func:`uninstall_plan` or the
:func:`active_plan` context manager.  Cross-process: set
``REPRO_FAULT_PLAN`` to the plan's JSON (or ``@/path/to/plan.json``) —
spawned daemons inherit the variable, which is how a chaos test reaches
into a ``python -m repro serve`` subprocess.  Every firing is recorded;
:func:`fired` returns the log for assertions.
"""

from __future__ import annotations

import errno
import fnmatch
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Environment variable carrying a JSON plan (or ``@path`` indirection).
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable gating the ``crash`` kind (see module docstring).
ALLOW_CRASH_ENV = "REPRO_CHAOS_ALLOW_CRASH"

#: The fault kinds a plan may request.
KINDS = (
    "error",
    "delay",
    "crash",
    "enospc",
    "partial_write",
    "corrupt",
)

#: Kinds :func:`fault_point` returns to the site instead of acting itself.
COOPERATIVE_KINDS = ("partial_write", "corrupt")


class ChaosError(OSError):
    """An injected generic failure.

    Subclasses ``OSError`` deliberately: every production handler written
    to tolerate real I/O failure (lost connections, torn segments, full
    disks) tolerates injected failure identically, so chaos tests exercise
    the exact recovery paths production takes.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it fires, what it does, and in which hit window.

    ``point`` names a fault point and may be an :mod:`fnmatch` glob
    (``"store.*"``).  The fault fires on traversals ``after`` through
    ``after + count - 1`` of any matching point (1-based, counted per
    point name), so "the third checkpoint" or "every store write from the
    second on" (``count`` large) are both expressible.
    """

    point: str
    kind: str
    after: int = 1
    count: int = 1
    delay: float = 0.0
    message: str = "injected fault"
    exit_code: int = 137

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {KINDS}")
        if self.after < 1:
            raise ValueError(f"after must be >= 1 (1-based hit index), got {self.after}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def matches(self, point: str, hit: int) -> bool:
        """Whether this fault fires for traversal number ``hit`` of ``point``."""
        if not fnmatch.fnmatchcase(point, self.point):
            return False
        return self.after <= hit < self.after + self.count

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description; inverse of :meth:`from_dict`."""
        return {
            "point": self.point,
            "kind": self.kind,
            "after": self.after,
            "count": self.count,
            "delay": self.delay,
            "message": self.message,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        """Rebuild a fault from :meth:`to_dict` output."""
        return cls(
            point=payload["point"],
            kind=payload["kind"],
            after=int(payload.get("after", 1)),
            count=int(payload.get("count", 1)),
            delay=float(payload.get("delay", 0.0)),
            message=payload.get("message", "injected fault"),
            exit_code=int(payload.get("exit_code", 137)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seed-keyed, JSON-round-trippable set of faults.

    The ``seed`` names the plan (chaos matrices key their scenarios by it
    and derive deterministic variations from it); the faults are plain
    :class:`FaultSpec` data.  Plans are immutable — the mutable traversal
    counters live in the installed :class:`_ActivePlan`, so installing the
    same plan twice starts counting from zero both times.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable description; inverse of :meth:`from_dict`."""
        return {"seed": self.seed, "faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            faults=tuple(FaultSpec.from_dict(f) for f in payload.get("faults", ())),
            seed=int(payload.get("seed", 0)),
        )

    def to_json(self) -> str:
        """The compact JSON form ``REPRO_FAULT_PLAN`` carries."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def single(cls, point: str, kind: str, **kwargs: Any) -> "FaultPlan":
        """Convenience: a one-fault plan (keyword args go to the spec)."""
        return cls(faults=(FaultSpec(point=point, kind=kind, **kwargs),))


class _ActivePlan:
    """An installed plan plus its per-point traversal counters and log."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.hits: Dict[str, int] = {}
        self.fired: List[Tuple[str, str]] = []
        self.lock = threading.Lock()

    def visit(self, point: str) -> Optional[FaultSpec]:
        """Count one traversal of ``point``; the fault to fire, if any."""
        with self.lock:
            hit = self.hits.get(point, 0) + 1
            self.hits[point] = hit
            for fault in self.plan.faults:
                if fault.matches(point, hit):
                    self.fired.append((point, fault.kind))
                    return fault
        return None


#: The installed plan.  ``_UNRESOLVED`` means "not yet checked the
#: environment": the first fault_point call resolves ``REPRO_FAULT_PLAN``,
#: so spawned subprocesses inheriting the variable self-activate.
_UNRESOLVED = object()
_active: Any = _UNRESOLVED
_state_lock = threading.Lock()


def plan_from_env(env: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan ``REPRO_FAULT_PLAN`` describes, or ``None``.

    The value is either inline JSON or ``@/path/to/plan.json``.  A value
    that fails to parse raises immediately — a chaos run with a broken
    plan must never silently run fault-free.
    """
    env = os.environ if env is None else env
    raw = env.get(PLAN_ENV)
    if not raw:
        return None
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text()
    return FaultPlan.from_json(raw)


def install_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide (traversal counters start at zero)."""
    global _active
    with _state_lock:
        _active = _ActivePlan(plan)


def uninstall_plan() -> None:
    """Deactivate fault injection (also stops env re-resolution)."""
    global _active
    with _state_lock:
        _active = None


def reset() -> None:
    """Forget any installed plan AND re-arm env resolution (test helper)."""
    global _active
    with _state_lock:
        _active = _UNRESOLVED


class active_plan:
    """Context manager: install a plan on entry, restore the prior on exit.

    ``with chaos.active_plan(plan): ...`` is the idiomatic way tests scope
    injection; nested use restores the outer plan correctly.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._installed = _ActivePlan(plan)
        self._previous: Any = None

    def __enter__(self) -> "active_plan":
        global _active
        with _state_lock:
            self._previous = _active
            _active = self._installed
        return self

    def __exit__(self, *exc_info) -> None:
        global _active
        with _state_lock:
            _active = self._previous

    @property
    def fired(self) -> List[Tuple[str, str]]:
        """The ``(point, kind)`` firings this plan recorded (usable after exit)."""
        with self._installed.lock:
            return list(self._installed.fired)


def fired() -> List[Tuple[str, str]]:
    """Every ``(point, kind)`` the installed plan has fired so far."""
    current = _resolve()
    if current is None:
        return []
    with current.lock:
        return list(current.fired)


def _resolve() -> Optional[_ActivePlan]:
    """The active plan, resolving ``REPRO_FAULT_PLAN`` on first use."""
    global _active
    current = _active
    if current is not _UNRESOLVED:
        return current
    with _state_lock:
        if _active is _UNRESOLVED:
            plan = plan_from_env()
            _active = None if plan is None else _ActivePlan(plan)
        return _active


def fault_point(name: str) -> Optional[str]:
    """Declare a named fault point; inert unless an installed fault matches.

    Returns ``None`` on the (overwhelmingly common) no-fault path.  For a
    matched fault the non-cooperative kinds act here — raise, sleep, or
    exit — and the cooperative kinds (``partial_write``, ``corrupt``)
    return the kind string for the calling site to implement.
    """
    current = _active
    if current is None:
        return None
    if current is _UNRESOLVED:
        current = _resolve()
        if current is None:
            return None
    fault = current.visit(name)
    if fault is None:
        return None
    if fault.kind == "error":
        raise ChaosError(f"chaos[{name}]: {fault.message}")
    if fault.kind == "enospc":
        raise OSError(errno.ENOSPC, f"chaos[{name}]: No space left on device")
    if fault.kind == "delay":
        time.sleep(fault.delay)
        return None
    if fault.kind == "crash":
        if os.environ.get(ALLOW_CRASH_ENV):
            os._exit(fault.exit_code)
        raise ChaosError(
            f"chaos[{name}]: crash requested but {ALLOW_CRASH_ENV} is unset"
        )
    return fault.kind  # cooperative: partial_write / corrupt


def corrupt_bytes(data: bytes, point: str) -> bytes:
    """The deterministically bit-flipped form of ``data`` for ``point``.

    Called by a site after :func:`fault_point` returned ``"corrupt"``.
    The flipped position is derived from the installed plan's ``seed``,
    the point name and the point's current traversal number, so the same
    plan corrupts the same byte of the same write every run.  Empty
    payloads are returned unchanged (there is no bit to flip).
    """
    if not data:
        return data
    current = _resolve()
    seed, hit = 0, 0
    if current is not None:
        seed = current.plan.seed
        with current.lock:
            hit = current.hits.get(point, 0)
    rng = random.Random(f"{seed}:{point}:{hit}")
    index = rng.randrange(len(data))
    mutated = bytearray(data)
    mutated[index] ^= 1 << rng.randrange(8)
    return bytes(mutated)
