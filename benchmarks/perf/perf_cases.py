"""Microbenchmark workloads: the compiled tier vs its loop references.

Each case builds one shared workload and exposes a ``reference`` and a
``numpy`` callable that perform the *same* computation: the ``reference``
tier's loop oracles and the ``compiled`` tier's array algorithms, both on
the NumPy kernels.  The model-forward-bound cases additionally expose a
``compiled`` callable running the compiled algorithms on the
:mod:`repro.nn.kernels` registry's C kernels (``run_perf.py`` only times it
when a kernel backend is actually available, with the kernel build
excluded).  The golden-equivalence tests under ``tests/`` prove every leg
produces bit-identical outputs; this module only measures them.

The ten cases mirror the perf-critical layers:

* ``bit_search_iteration`` — the intra-layer proposal stage of the
  progressive bit search over every quantized tensor (core + nn layers).
* ``bank_profile`` — a whole-chip RowHammer + RowPress profiling campaign
  (faults + dram layers).
* ``flip_sweep`` — the Fig. 6 cumulative flip-curve sweeps (faults layer);
  the compiled engine evaluates all budget steps in one threshold pass.
* ``dram_timeline_sweep`` — a long multi-aggressor hammer timeline with a
  random-policy TRR sampler (dram timeline layer): the per-command event
  loop against one aggregation pass over all tREFI windows.
* ``victim_evaluation`` — repeated full-test-set victim evaluation with a
  committed flip moving across the network between measurements: the
  full-forward reference against the incremental suffix-re-execution
  engine (nn inference layer).  Flips cycle through *every* quantized
  tensor, so the measured speedup is the honest average over flip depths.
* ``trial_scoring_batched`` — the inter-layer stage in isolation: scoring
  one realistic top-k shortlist, the PR-4 sequential apply -> suffix-peek
  -> revert loop against the batched ``peek_many`` cascade (flipped stages
  run per trial, shared downstream stages run once on the stacked trials).
* ``end_to_end_attack`` — the paper-shaped headline workload: a targeted
  bit-flip attack evaluated on the full test set after every committed
  flip.  Targeted attacks concentrate flips in the classifier head, which
  is exactly the regime the incremental engine accelerates most.
* ``end_to_end_attack_deep`` — the same evaluation-bound attack on a
  deeper (depth-14) surrogate with the original BFA's *every-layer*
  inter-layer stage, where each saved forward pass is larger and every
  iteration scores a full trial roster through the batched cascade.
* ``runner_shared_memory`` — the experiment layer: one comparison spec on
  a 2-worker process pool, per-worker victim retraining vs the parent
  seeding every worker with the trained clean state through the pool
  initializer.
* ``runner_service_throughput`` — the service layer: a campaign of
  comparison specs sharing one surrogate, a fresh runner per spec (victim
  retrained each time) vs one experiment service whose victim cache
  trains it once and serves every later job from memory.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core.bfa import BitFlipAttack, BitSearchConfig
from repro.core.objective import AttackObjective, TargetedMisclassification
from repro.nn import kernels
from repro.dram.chip import DramChip
from repro.dram.geometry import DramGeometry
from repro.dram.vulnerability import VulnerabilityParameters
from repro.faults.profiler import ChipProfiler, ProfilingConfig
from repro.faults.sweep import rowhammer_flip_curve, rowpress_flip_curve
from repro.models.resnet_cifar import ResNetCifar
from repro.nn.bitops import bit_flip_delta
from repro.nn.data import make_cifar_like
from repro.nn.inference import SuffixEvaluator
from repro.nn.quantization import quantize_model, quantized_parameters
from repro.nn.training import train

#: Names of the tracked cases, in the order ``build_cases`` produces them.
#: ``check_regression.py --check-case-sync`` compares the committed
#: ``BENCH_perf.json`` against this tuple, so adding or removing a case
#: without re-running ``run_perf.py`` fails CI instead of silently
#: drifting.  Importing this must stay cheap (no workload construction).
CASE_NAMES = (
    "bit_search_iteration",
    "bank_profile",
    "flip_sweep",
    "dram_timeline_sweep",
    "victim_evaluation",
    "trial_scoring_batched",
    "end_to_end_attack",
    "end_to_end_attack_deep",
    "runner_shared_memory",
    "runner_service_throughput",
)

# ----------------------------------------------------------------------
# Workload metadata — the single source the case *descriptions* derive
# from.  The factories below consume the same constants that the
# descriptions cite, so a committed BENCH_perf.json can no longer drift
# from the code driving the measurement; ``check_regression.py
# --check-case-sync`` re-derives every description and compares.
# ----------------------------------------------------------------------
#: Chip shape shared by the profiling-flavoured cases.
PROFILE_BANKS = 2
PROFILE_COLS = 1024
SWEEP_ROWS_PER_BANK = 128
#: Budget grids of the ``flip_sweep`` case (Fig. 6 shaped).
HAMMER_COUNTS = (100_000, 300_000, 600_000, 885_000)
OPEN_CYCLES = (10_000_000, 30_000_000, 60_000_000, 100_000_000)
#: Command stream of the ``dram_timeline_sweep`` case: six round-robin
#: aggressors hammered at (nearly) the tREFI slot limit every window.
TIMELINE_AGGRESSORS = (20, 22, 50, 52, 80, 82)
TIMELINE_ACTS_PER_WINDOW = 300
TIMELINE_SAMPLER_CAPACITY = 4
#: Class count of the synthetic CIFAR-like surrogate dataset.
SURROGATE_CLASSES = 4


def profile_sizes(profile: str) -> Dict[str, int]:
    """Workload sizes of the requested profile (quick = CI, full = local)."""
    if profile == "quick":
        return {
            "iterations": 30, "rows_per_bank": 96, "max_rows": 16,
            "evaluations": 12, "eval_per_class": 96, "max_flips": 6, "deep_depth": 14,
            "scoring_rounds": 20, "scoring_depth": 26, "scoring_batch": 4,
            "runner_repetitions": 2, "service_specs": 3, "timeline_windows": 64,
        }
    if profile == "full":
        return {
            "iterations": 100, "rows_per_bank": 128, "max_rows": 32,
            "evaluations": 24, "eval_per_class": 192, "max_flips": 8, "deep_depth": 20,
            "scoring_rounds": 50, "scoring_depth": 32, "scoring_batch": 8,
            "runner_repetitions": 3, "service_specs": 4, "timeline_windows": 256,
        }
    raise ValueError(f"profile must be 'quick' or 'full', got {profile!r}")


def case_description(name: str, sizes: Dict[str, int]) -> str:
    """The tracked description of case ``name`` at workload ``sizes``.

    Derived from the same module constants the factories consume, and
    cheap to import (no workload construction) so the CI sync gate can
    call it without paying for surrogate training.
    """
    if name == "bit_search_iteration":
        return (
            f"{sizes['iterations']} intra-layer proposal passes over every "
            "quantized tensor of the tiny surrogate"
        )
    if name == "bank_profile":
        return (
            f"RowHammer + RowPress profiling of {PROFILE_BANKS} banks x "
            f"{sizes['rows_per_bank']} rows x {PROFILE_COLS} cols, both polarities"
        )
    if name == "flip_sweep":
        return (
            f"RowHammer + RowPress cumulative flip curves, {len(HAMMER_COUNTS)} "
            f"budget steps, up to {sizes['max_rows']} rows per bank"
        )
    if name == "dram_timeline_sweep":
        return (
            f"{sizes['timeline_windows']}-window hammer timeline "
            f"({TIMELINE_ACTS_PER_WINDOW} ACTs/window over "
            f"{len(TIMELINE_AGGRESSORS)} aggressors, capacity-"
            f"{TIMELINE_SAMPLER_CAPACITY} random-policy TRR sampler): "
            "per-command event loop vs one aggregation pass over all tREFI windows"
        )
    if name == "victim_evaluation":
        return (
            f"{sizes['evaluations']} full-test-set evaluations with a committed "
            "MSB flip cycling through every quantized tensor between measurements"
        )
    if name == "trial_scoring_batched":
        return (
            f"{sizes['scoring_rounds']} every-layer inter-layer scoring rounds "
            f"(full layer roster, attack batch {sizes['scoring_batch']}) on a "
            f"depth-{sizes['scoring_depth']} surrogate: sequential suffix peeks "
            "vs one stacked peek_many cascade"
        )
    if name in ("end_to_end_attack", "end_to_end_attack_deep"):
        depth = 8 if name == "end_to_end_attack" else sizes["deep_depth"]
        scope = "top-5" if name == "end_to_end_attack" else "every-layer"
        samples = sizes["eval_per_class"] * SURROGATE_CLASSES
        return (
            f"targeted progressive bit search ({sizes['max_flips']} flips max, "
            f"depth-{depth} surrogate, {scope} inter-layer stage) with "
            f"full-test-set ASR evaluation ({samples} samples) per committed flip"
        )
    if name == "runner_shared_memory":
        return (
            f"comparison experiment ({sizes['runner_repetitions']} repetitions x "
            "2 mechanisms) on a 2-worker process pool: per-worker victim "
            "retraining vs clean state seeded through the pool initializer"
        )
    if name == "runner_service_throughput":
        return (
            f"{sizes['service_specs']} comparison specs sharing one surrogate: "
            "a fresh runner per spec (victim retrained each time) vs one "
            "experiment service whose victim cache trains it once"
        )
    raise KeyError(f"unknown perf case {name!r}")


@dataclass(frozen=True)
class PerfCase:
    """One microbenchmark: two or three legs computing the same workload.

    ``reference`` runs the loop oracles, ``numpy`` the compiled algorithms
    on the NumPy kernels and ``compiled`` the same algorithms on the C
    kernels.  ``compiled`` is present only on the cases whose hot loop goes
    through the :mod:`repro.nn.kernels` dispatch layer (model forwards);
    the chip/runner-flavoured cases have no kernel-accelerated path to
    measure.
    """

    name: str
    description: str
    reference: Callable[[], object]
    numpy: Callable[[], object]
    compiled: Optional[Callable[[], object]] = None


def _on_kernels(backend: str, leg: Callable[[], Any]) -> Callable[[], Any]:
    """``leg`` run inside ``kernels.use(backend)``.

    The harness's process-wide backend is ``cc``, so the NumPy legs pin
    their kernels explicitly.
    """

    def run():
        with kernels.use(backend):
            return leg()

    return run


def _surrogate(seed: int = 0, epochs: int = 2, depth: int = 8, test_per_class: int = 12):
    dataset = make_cifar_like(
        num_classes=4, image_size=8, train_per_class=24, test_per_class=test_per_class,
        seed=5, noise_std=1.0, basis_dim=3,
    )
    model = ResNetCifar(
        depth=depth, num_classes=dataset.num_classes, base_width=8,
        rng=np.random.default_rng(seed),
    )
    train(model, dataset, epochs=epochs, batch_size=16, lr=3e-3, seed=1)
    return model, model.state_dict(), dataset


def _objective(dataset, seed: int = 2) -> AttackObjective:
    return AttackObjective.from_dataset(
        dataset, attack_batch_size=16, eval_samples=24, seed=seed,
        tolerance=1.0, relative_factor=1.05,
    )


# ----------------------------------------------------------------------
# Case 1: intra-layer bit-search iteration
# ----------------------------------------------------------------------
def _make_bit_search_case(iterations: int) -> PerfCase:
    model, clean_state, dataset = _surrogate()
    model.load_state_dict(clean_state)
    quantize_model(model)
    objective = _objective(dataset)
    objective.attack_loss_and_gradients(model)

    def propose_all(engine: str):
        attack = BitFlipAttack(model, objective, engine=engine)
        tensor_names = attack.candidates.tensors()
        proposals = []
        with attack.kernel_scope():
            for _ in range(iterations):
                proposals = [attack._propose_for_tensor(name) for name in tensor_names]
        return proposals

    return PerfCase(
        name="bit_search_iteration",
        description=case_description("bit_search_iteration", {"iterations": iterations}),
        reference=lambda: propose_all("reference"),
        numpy=_on_kernels("none", lambda: propose_all("compiled")),
        compiled=_on_kernels("cc", lambda: propose_all("compiled")),
    )


# ----------------------------------------------------------------------
# Case 2: whole-chip profiling campaign
# ----------------------------------------------------------------------
def _make_bank_profile_case(rows_per_bank: int) -> PerfCase:
    geometry = DramGeometry(
        num_banks=PROFILE_BANKS, rows_per_bank=rows_per_bank, cols_per_row=PROFILE_COLS
    )
    config = ProfilingConfig(hammer_count=600_000, open_cycles=60_000_000)

    def profile(engine: str):
        chip = DramChip(geometry, seed=0, engine=engine)
        return ChipProfiler(chip, config, engine=engine).profile()

    return PerfCase(
        name="bank_profile",
        description=case_description("bank_profile", {"rows_per_bank": rows_per_bank}),
        reference=lambda: profile("reference"),
        numpy=lambda: profile("compiled"),
    )


# ----------------------------------------------------------------------
# Case 3: Fig. 6 budget sweeps
# ----------------------------------------------------------------------
def _make_flip_sweep_case(max_rows_per_bank: int) -> PerfCase:
    geometry = DramGeometry(
        num_banks=PROFILE_BANKS,
        rows_per_bank=SWEEP_ROWS_PER_BANK,
        cols_per_row=PROFILE_COLS,
    )
    params = VulnerabilityParameters()

    def sweep(engine: str):
        chip = DramChip(geometry, vulnerability_parameters=params, seed=0, engine=engine)
        rh = rowhammer_flip_curve(
            chip, list(HAMMER_COUNTS), max_rows_per_bank=max_rows_per_bank, engine=engine
        )
        rp = rowpress_flip_curve(
            chip, list(OPEN_CYCLES), max_rows_per_bank=max_rows_per_bank, engine=engine
        )
        return rh, rp

    return PerfCase(
        name="flip_sweep",
        description=case_description("flip_sweep", {"max_rows": max_rows_per_bank}),
        reference=lambda: sweep("reference"),
        numpy=lambda: sweep("compiled"),
    )


# ----------------------------------------------------------------------
# Case 4: command-timeline execution under a TRR sampler
# ----------------------------------------------------------------------
def _make_timeline_sweep_case(windows: int) -> PerfCase:
    from repro.defenses.trr import TrrSampler
    from repro.dram.timeline import TimelineEngine, build_hammer_timeline
    from repro.dram.timing import DramTimings

    timings = DramTimings()
    geometry = DramGeometry(
        num_banks=1, rows_per_bank=SWEEP_ROWS_PER_BANK, cols_per_row=PROFILE_COLS
    )
    # Thresholds low enough that rows escaping the sampler flip within the
    # run, so both engines pay the flip-latching path, not just accounting.
    params = VulnerabilityParameters(
        rh_density=0.05,
        rh_threshold_min=600.0,
        rh_threshold_log_mean=float(np.log(1200.0)),
        rh_threshold_log_sigma=0.6,
    )
    timeline = build_hammer_timeline(
        timings, bank=0, aggressor_rows=TIMELINE_AGGRESSORS,
        windows=windows, acts_per_window=TIMELINE_ACTS_PER_WINDOW,
    )

    def run(engine: str):
        chip = DramChip(
            geometry, timings=timings, vulnerability_parameters=params,
            seed=0, engine=engine,
        )
        sampler = TrrSampler(
            capacity=TIMELINE_SAMPLER_CAPACITY, policy="random", seed=3
        )
        return TimelineEngine(
            chip, sampler=sampler, refresh_bins=8, engine=engine
        ).run(timeline)

    return PerfCase(
        name="dram_timeline_sweep",
        description=case_description(
            "dram_timeline_sweep", {"timeline_windows": windows}
        ),
        reference=lambda: run("reference"),
        numpy=lambda: run("compiled"),
    )


# ----------------------------------------------------------------------
# Case 5: repeated victim evaluation under a moving committed flip
# ----------------------------------------------------------------------
def _make_victim_evaluation_case(evaluations: int, test_per_class: int) -> PerfCase:
    model, clean_state, dataset = _surrogate(test_per_class=test_per_class)

    def evaluate_with_flips(engine: str):
        model.load_state_dict(clean_state)
        quantize_model(model)
        parameters = quantized_parameters(model)
        names = sorted(parameters)
        objective = AttackObjective.from_dataset(
            dataset, attack_batch_size=16, eval_samples=None, seed=2,
            tolerance=1.0, relative_factor=1.05,
        )
        evaluator = None if engine == "reference" else SuffixEvaluator(model)
        accuracies = []
        for index in range(evaluations):
            parameter = parameters[names[index % len(names)]]
            value = int(parameter.int_repr.flat[0])
            parameter.int_repr.flat[0] = value + bit_flip_delta(
                value, parameter.num_bits - 1, parameter.num_bits
            )
            parameter.sync_from_int()
            if evaluator is not None:
                evaluator.invalidate_from(evaluator.stage_of(parameter))
            accuracies.append(objective.evaluate(model, evaluator=evaluator).accuracy)
        return accuracies

    return PerfCase(
        name="victim_evaluation",
        description=case_description("victim_evaluation", {"evaluations": evaluations}),
        reference=_on_kernels("none", lambda: evaluate_with_flips("reference")),
        numpy=_on_kernels("none", lambda: evaluate_with_flips("compiled")),
        compiled=_on_kernels("cc", lambda: evaluate_with_flips("compiled")),
    )


# ----------------------------------------------------------------------
# Case 6: batched vs sequential inter-layer trial scoring
# ----------------------------------------------------------------------
def _make_trial_scoring_case(rounds: int, depth: int, attack_batch: int) -> PerfCase:
    model, clean_state, dataset = _surrogate(depth=depth)
    model.load_state_dict(clean_state)
    quantize_model(model)
    # The original BFA's inter-layer stage measures the realised loss of
    # *every* layer's best candidate (top_k_layers is this repo's own
    # efficiency bound), so the tracked workload scores the full layer
    # roster — the regime the stacked cascade exists for.
    objective = AttackObjective.from_dataset(
        dataset, attack_batch_size=attack_batch, eval_samples=24, seed=2,
        tolerance=1.0, relative_factor=1.05,
    )
    attack = BitFlipAttack(model, objective, engine="compiled")
    objective.attack_loss_and_gradients(model, attack._evaluator)
    proposals = [
        proposal
        for proposal in (
            attack._propose_for_tensor(name) for name in attack.candidates.tensors()
        )
        if proposal is not None and np.isfinite(proposal.estimated_gain)
    ]
    proposals.sort(key=lambda p: p.estimated_gain, reverse=True)
    shortlist = proposals

    def sequential():
        losses = []
        for _ in range(rounds):
            losses = []
            for proposal in shortlist:
                attack._apply(proposal)
                losses.append(
                    objective.attack_loss(
                        model,
                        flip_stage=attack._stage_of_tensor[proposal.tensor_name],
                        evaluator=attack._evaluator,
                    )
                )
                attack._revert(proposal)
        return losses

    def batched():
        losses = []
        for _ in range(rounds):
            losses = attack._score_shortlist(objective, shortlist)
        return losses

    return PerfCase(
        name="trial_scoring_batched",
        description=case_description(
            "trial_scoring_batched",
            {"scoring_rounds": rounds, "scoring_depth": depth,
             "scoring_batch": attack_batch},
        ),
        reference=_on_kernels("none", sequential),
        numpy=_on_kernels("none", batched),
        compiled=_on_kernels("cc", batched),
    )


# ----------------------------------------------------------------------
# Cases 7 + 8: end-to-end evaluation-bound attacks
# ----------------------------------------------------------------------
def _make_end_to_end_case(
    name: str,
    depth: int,
    max_flips: int,
    test_per_class: int,
    source_class: int,
    target_class: int,
    seed: int,
    top_k_layers: int = 5,
) -> PerfCase:
    model, clean_state, dataset = _surrogate(depth=depth, test_per_class=test_per_class)

    def attack(engine: str):
        model.load_state_dict(clean_state)
        quantize_model(model)
        objective = TargetedMisclassification.from_dataset(
            dataset, source_class=source_class, target_class=target_class,
            attack_batch_size=16, eval_samples=None, success_threshold=99.0,
            seed=seed,
        )
        run = BitFlipAttack(
            model, objective,
            config=BitSearchConfig(max_flips=max_flips, top_k_layers=top_k_layers),
            engine=engine,
        )
        return run.run()

    return PerfCase(
        name=name,
        description=case_description(
            name,
            {"max_flips": max_flips, "deep_depth": depth,
             "eval_per_class": test_per_class},
        ),
        reference=lambda: attack("reference"),
        numpy=_on_kernels("none", lambda: attack("compiled")),
        compiled=_on_kernels("cc", lambda: attack("compiled")),
    )


# ----------------------------------------------------------------------
# Cases 9 + 10: the experiment and service layers
# ----------------------------------------------------------------------
def _on_process_numpy(leg: Callable[[], Any]) -> Callable[[], Any]:
    """``leg`` run with ``REPRO_KERNEL_BACKEND=none``, restored afterwards.

    The runner cases' committed ratios were measured on the NumPy
    kernels, so both legs pin them.  Forked pool workers inherit the
    environment but not a ``kernels.use`` scope, hence the variable.
    """

    def run():
        previous = os.environ.get("REPRO_KERNEL_BACKEND")
        os.environ["REPRO_KERNEL_BACKEND"] = "none"
        try:
            return leg()
        finally:
            if previous is None:
                del os.environ["REPRO_KERNEL_BACKEND"]
            else:
                os.environ["REPRO_KERNEL_BACKEND"] = previous

    return run


def _make_runner_shared_memory_case(repetitions: int) -> PerfCase:
    from repro.core.bfa import BitSearchConfig
    from repro.experiments import (
        ComparisonSpec,
        ExperimentRunner,
        ProcessPoolBackend,
        VictimCache,
    )

    spec = ComparisonSpec(
        model_keys=("resnet20",),
        repetitions=repetitions,
        eval_samples=32,
        search=BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32),
        training_epochs=2,
        seed=11,
        profile_seed=11,
    )
    # The parent cache is pre-warmed (production runners keep victims hot
    # across experiments), so the measurement isolates what each backend
    # pays to get the trained victim into its workers: a from-scratch
    # retrain per worker vs materialising the seeded clean state.
    cache = VictimCache()
    cache.get_or_prepare_by_key("resnet20", seed=11, training_epochs=2)

    def run(share_victims: bool):
        backend = ProcessPoolBackend(max_workers=2, share_victims=share_victims)
        runner = ExperimentRunner(backend=backend, victim_cache=cache)
        return runner.run(spec).payload

    return PerfCase(
        name="runner_shared_memory",
        description=case_description(
            "runner_shared_memory", {"runner_repetitions": repetitions}
        ),
        reference=_on_process_numpy(lambda: run(False)),
        numpy=_on_process_numpy(lambda: run(True)),
    )


def _make_runner_service_throughput_case(num_specs: int) -> PerfCase:
    import tempfile

    from repro.core.bfa import BitSearchConfig
    from repro.experiments import ComparisonSpec, ExperimentRunner, ExperimentService

    # A small campaign of specs that share one victim (identical model,
    # seed and epochs) but attack different chips: the regime the daemon's
    # victim cache serves.  The cold path trains the surrogate per spec;
    # the service trains it once and every later job reuses it.
    specs = [
        ComparisonSpec(
            model_keys=("resnet20",),
            repetitions=1,
            eval_samples=32,
            search=BitSearchConfig(max_flips=2, top_k_layers=2, eval_batch_size=32),
            training_epochs=2,
            seed=11,
            profile_seed=11 + offset,
        )
        for offset in range(num_specs)
    ]

    def cold_runners():
        outputs = []
        for spec in specs:
            runner = ExperimentRunner()  # fresh cache: retrains the victim
            outputs.append(runner.run(spec).payload)
        return outputs

    def warm_service():
        with tempfile.TemporaryDirectory() as root:
            service = ExperimentService(
                queue_dir=Path(root) / "queue", store_dir=Path(root) / "store"
            )
            for spec in specs:
                service.queue.submit(spec.to_dict())
            service.drain()
            return [service.store.load(name).payload for name in service.store.names()]

    return PerfCase(
        name="runner_service_throughput",
        description=case_description(
            "runner_service_throughput", {"service_specs": num_specs}
        ),
        reference=_on_process_numpy(cold_runners),
        numpy=_on_process_numpy(warm_service),
    )


def build_cases(profile: str = "quick") -> List[PerfCase]:
    """The ten tracked microbenchmarks at the requested workload size."""
    sizes = profile_sizes(profile)
    cases = [
        _make_bit_search_case(sizes["iterations"]),
        _make_bank_profile_case(sizes["rows_per_bank"]),
        _make_flip_sweep_case(sizes["max_rows"]),
        _make_timeline_sweep_case(sizes["timeline_windows"]),
        _make_victim_evaluation_case(sizes["evaluations"], sizes["eval_per_class"]),
        _make_trial_scoring_case(
            sizes["scoring_rounds"], depth=sizes["scoring_depth"],
            attack_batch=sizes["scoring_batch"],
        ),
        _make_end_to_end_case(
            "end_to_end_attack", depth=8, max_flips=sizes["max_flips"],
            test_per_class=sizes["eval_per_class"], source_class=1, target_class=0,
            seed=3,
        ),
        _make_end_to_end_case(
            "end_to_end_attack_deep", depth=sizes["deep_depth"],
            max_flips=sizes["max_flips"], test_per_class=sizes["eval_per_class"],
            source_class=2, target_class=0, seed=2,
            # The deep case runs the original BFA's inter-layer semantics —
            # every layer's best candidate gets a realised-loss trial — which
            # is the regime the batched peek_many cascade serves.
            top_k_layers=64,
        ),
        _make_runner_shared_memory_case(sizes["runner_repetitions"]),
        _make_runner_service_throughput_case(sizes["service_specs"]),
    ]
    assert tuple(case.name for case in cases) == CASE_NAMES
    for case in cases:
        assert case.description == case_description(case.name, sizes), case.name
    return cases
