"""Chaos layer: fault specs, plan activation, kinds, env inheritance."""

import errno
import time

import pytest

from repro.testing import chaos
from repro.testing.chaos import (
    ALLOW_CRASH_ENV,
    PLAN_ENV,
    ChaosError,
    FaultPlan,
    FaultSpec,
)


@pytest.fixture(autouse=True)
def _clean_chaos_state(monkeypatch):
    """Every test starts (and leaves) with no plan and no env activation."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(ALLOW_CRASH_ENV, raising=False)
    chaos.reset()
    yield
    chaos.reset()


class TestFaultSpec:
    def test_hit_window(self):
        fault = FaultSpec(point="store.write", kind="error", after=2, count=2)
        assert not fault.matches("store.write", 1)
        assert fault.matches("store.write", 2)
        assert fault.matches("store.write", 3)
        assert not fault.matches("store.write", 4)

    def test_glob_points(self):
        fault = FaultSpec(point="store.*", kind="error")
        assert fault.matches("store.write", 1)
        assert fault.matches("store.index", 1)
        assert not fault.matches("queue.persist", 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(point="x", kind="meteor-strike")
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(point="x", kind="disconnect")  # retired with the TCP backend
        with pytest.raises(ValueError):
            FaultSpec(point="x", kind="error", after=0)
        with pytest.raises(ValueError):
            FaultSpec(point="x", kind="error", count=0)
        # No fault point implements dropping, so a plan naming it would
        # record a firing that nothing acts on.
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(point="x", kind="drop")

    def test_round_trip(self):
        fault = FaultSpec(point="a.b", kind="delay", after=3, count=2, delay=0.5)
        assert FaultSpec.from_dict(fault.to_dict()) == fault


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(point="store.write", kind="partial_write"),
                FaultSpec(point="checkpoint.write", kind="corrupt", exit_code=9),
            ),
            seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_single_convenience(self):
        plan = FaultPlan.single("queue.persist", "enospc", after=2)
        assert len(plan.faults) == 1
        assert plan.faults[0].after == 2


class TestActivation:
    def test_inert_without_a_plan(self):
        assert chaos.fault_point("store.write") is None
        assert chaos.fired() == []

    def test_install_and_uninstall(self):
        chaos.install_plan(FaultPlan.single("store.write", "error"))
        with pytest.raises(ChaosError):
            chaos.fault_point("store.write")
        assert chaos.fired() == [("store.write", "error")]
        chaos.uninstall_plan()
        assert chaos.fault_point("store.write") is None

    def test_counters_restart_on_reinstall(self):
        plan = FaultPlan.single("p", "error", after=1)
        chaos.install_plan(plan)
        with pytest.raises(ChaosError):
            chaos.fault_point("p")
        assert chaos.fault_point("p") is None  # window passed
        chaos.install_plan(plan)
        with pytest.raises(ChaosError):
            chaos.fault_point("p")  # counters started over

    def test_active_plan_restores_and_records(self):
        outer = FaultPlan.single("a", "error")
        chaos.install_plan(outer)
        with chaos.active_plan(FaultPlan.single("b", "error")) as scope:
            assert chaos.fault_point("a") is None  # outer plan not active
            with pytest.raises(ChaosError):
                chaos.fault_point("b")
        assert scope.fired == [("b", "error")]  # usable after exit
        with pytest.raises(ChaosError):
            chaos.fault_point("a")  # outer plan restored

    def test_env_activation_is_lazy(self, monkeypatch):
        plan = FaultPlan.single("store.write", "enospc")
        monkeypatch.setenv(PLAN_ENV, plan.to_json())
        chaos.reset()
        with pytest.raises(OSError) as excinfo:
            chaos.fault_point("store.write")
        assert excinfo.value.errno == errno.ENOSPC

    def test_env_plan_from_file(self, monkeypatch, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(FaultPlan.single("q", "error").to_json())
        monkeypatch.setenv(PLAN_ENV, f"@{plan_path}")
        chaos.reset()
        with pytest.raises(ChaosError):
            chaos.fault_point("q")

    def test_broken_env_plan_raises(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "{not json")
        chaos.reset()
        with pytest.raises(ValueError):
            chaos.fault_point("anything")


class TestKinds:
    def test_error_is_oserror(self):
        chaos.install_plan(FaultPlan.single("p", "error"))
        with pytest.raises(OSError):
            chaos.fault_point("p")

    def test_delay_sleeps_then_continues(self):
        chaos.install_plan(FaultPlan.single("p", "delay", delay=0.05))
        start = time.monotonic()
        assert chaos.fault_point("p") is None
        assert time.monotonic() - start >= 0.04

    def test_crash_is_gated_by_env(self):
        # Without REPRO_CHAOS_ALLOW_CRASH the process must survive: the
        # crash degrades to a ChaosError instead of os._exit.
        chaos.install_plan(FaultPlan.single("p", "crash"))
        with pytest.raises(ChaosError, match="crash requested"):
            chaos.fault_point("p")

    def test_cooperative_kinds_are_returned(self):
        chaos.install_plan(
            FaultPlan(
                faults=(
                    FaultSpec(point="store.write", kind="partial_write"),
                    FaultSpec(point="checkpoint.write", kind="corrupt"),
                )
            )
        )
        assert chaos.fault_point("store.write") == "partial_write"
        assert chaos.fault_point("checkpoint.write") == "corrupt"


class TestCorruptBytes:
    def test_flips_exactly_one_bit(self):
        data = bytes(range(64))
        mutated = chaos.corrupt_bytes(data, "store.write")
        assert len(mutated) == len(data)
        diff = [
            (i, a ^ b) for i, (a, b) in enumerate(zip(data, mutated)) if a != b
        ]
        assert len(diff) == 1
        assert bin(diff[0][1]).count("1") == 1  # single-bit flip

    def test_deterministic_in_plan_seed_and_hit(self):
        data = b"x" * 128
        chaos.install_plan(FaultPlan.single("p", "corrupt"), )
        first = chaos.corrupt_bytes(data, "p")
        # Same seed, same hit count: identical flip.
        chaos.install_plan(FaultPlan.single("p", "corrupt"))
        assert chaos.corrupt_bytes(data, "p") == first
        # A different seed picks a different flip (for this data length).
        chaos.install_plan(
            FaultPlan(faults=(FaultSpec(point="p", kind="corrupt"),), seed=99)
        )
        assert chaos.corrupt_bytes(data, "p") != first

    def test_empty_payload_passes_through(self):
        assert chaos.corrupt_bytes(b"", "p") == b""
