"""Chaos fuzzer, invariant library and schedule shrinking.

Five groups:

* **generator determinism** — the same seed draws a byte-identical plan
  (parameters and schedule) and executing it twice gives identical delivered
  sets, which is what makes ``repro chaos-fuzz --seed N`` a complete repro;
* **sweeps** — a block of consecutive seeds holds every invariant on the
  simulator, and spot seeds converge on the real-socket backends against the
  simulator oracle;
* **self-test via injected bugs** — deliberately de-synchronising the
  executor from its oracle (a sever that is never applied, a replay that is
  never published) must be caught by the invariant checkers and shrunk to a
  minimal failing schedule — pinned here so the shrinker cannot rot;
* **invariant library** — each checker fires on the exact observation it
  guards and stays quiet otherwise (including the empty-fault-window
  regression);
* **the pinned storyline** — ``STORYLINE`` holds every invariant with no
  event skipped, crashes *and* severs (so neither provable-loss check is
  vacuous), and flips the covering relationship in its churn round.
"""

import random

import pytest

from repro.pubsub.chaosgen import (
    ROUND_BASE,
    ROUND_SPAN,
    SLOT_SPAN,
    STORYLINE,
    TEMP_SLOT,
    ChaosEvent,
    ChaosPlan,
    execute_plan,
    generate_plan,
    judge_plan,
    run_chaos_fuzz,
    shrink_plan,
)
from repro.pubsub.invariants import (
    InvariantError,
    check_exactly_once,
    check_no_duplicates,
    check_non_growth,
    check_provable_loss,
    require,
)

# --------------------------------------------------------------- generator


def test_same_seed_draws_an_identical_plan():
    for seed in range(20):
        assert generate_plan(seed).describe() == generate_plan(seed).describe()


def test_every_plan_exercises_the_fault_plane():
    for seed in range(40):
        plan = generate_plan(seed)
        faults = [e for e in plan.events if e.action in ("crash", "sever", "flap")]
        assert faults, f"seed {seed} drew a fault-free schedule"
        params = plan.params
        assert 3 <= params.brokers <= 5 and 4 <= params.rounds <= 7
        assert all(0 <= event.round < params.rounds for event in plan.events)


def test_distinct_seeds_draw_distinct_schedules():
    schedules = {tuple(e.describe() for e in generate_plan(s).events) for s in range(40)}
    assert len(schedules) > 30, "the generator collapsed to a handful of schedules"


def test_execution_is_deterministic_per_seed():
    first = execute_plan(generate_plan(5))
    second = execute_plan(generate_plan(5))
    assert first.ok and second.ok
    assert first.delivered == second.delivered
    assert (first.published, first.lost, first.replayed) == (
        second.published,
        second.lost,
        second.replayed,
    )


def test_execution_never_touches_module_level_random():
    # seeded replay relies on nobody sharing the module-level dice: a fuzz
    # run in the middle of any other seeded program must be side-effect free
    random.seed(1234)
    expected = random.Random(1234).random()
    execute_plan(generate_plan(3))
    assert random.random() == expected


# ------------------------------------------------------------------ sweeps


def test_sim_sweep_holds_every_invariant():
    reports = [run_chaos_fuzz(seed, backend="sim") for seed in range(25)]
    failures = [report.summary() for report in reports if not report.ok]
    assert not failures, failures


def test_unapplicable_events_are_noops():
    # shrinking produces unpaired schedules: a restart with nobody down, a
    # restore of a live link, a crash of the protected publisher broker —
    # the executor must skip them instead of corrupting the oracle
    plan = generate_plan(0)
    events = (
        ChaosEvent(0, "restart", "B2"),
        ChaosEvent(0, "restore", "B1-B2"),
        ChaosEvent(1, "crash", "B1"),
    ) + plan.events
    result = execute_plan(ChaosPlan(params=plan.params, events=events))
    assert result.ok, [str(v) for v in result.violations]
    assert result.events_skipped >= 3


@pytest.mark.parametrize("seed", [0, 1])
def test_asyncio_converges_to_the_sim_oracle(seed):
    report = run_chaos_fuzz(seed, backend="asyncio")
    assert report.ok, report.summary()


def test_cluster_converges_to_the_sim_oracle():
    report = run_chaos_fuzz(0, backend="cluster")
    assert report.ok, report.summary()


# ------------------------------------------------- injected-bug self-tests


def test_skipped_sever_is_caught_and_shrunk_minimal():
    # the oracle believes the sever happened, the execution never applied
    # it, so publications routed "into the fault" arrive: provable loss
    report = run_chaos_fuzz(1, backend="sim", inject_bug="skip_sever")
    assert not report.ok
    assert any(v.invariant == "provable-loss" for v in report.violations)
    assert report.repro_command == "repro chaos-fuzz --seed 1 --backend sim"
    assert len(report.plan.events) == 6
    assert [e.describe() for e in report.shrunk.events] == ["r0:sever:B1-B2"]


def test_skipped_replay_is_caught_and_shrunk_minimal():
    # the oracle marks lost publications as replayed, the republish never
    # happens: exactly-once fires on the subscriber that stays short
    report = run_chaos_fuzz(1, backend="sim", inject_bug="skip_replay")
    assert not report.ok
    assert any(v.invariant == "exactly-once" for v in report.violations)
    assert [e.describe() for e in report.shrunk.events] == ["r0:sever:B1-B2"]


def test_a_failing_pinned_plan_never_points_at_a_seed():
    # chaos-fuzz --seed N replays generate_plan(N), not a pinned plan
    report = judge_plan(STORYLINE, "sim", shrink=False, inject_bug="skip_replay")
    assert not report.ok and report.seed is None
    assert report.repro_command == "repro demo chaos --backend sim"
    assert "chaos-fuzz" not in report.summary()
    variant = ChaosPlan(params=STORYLINE.params, events=STORYLINE.events[2:])
    report = judge_plan(variant, "sim", shrink=False, inject_bug="skip_replay")
    assert not report.ok and report.repro_command is None
    assert "repro:" not in report.summary()


def test_shrinker_respects_its_execution_budget():
    plan = generate_plan(1)
    calls = []

    def fails(candidate):
        calls.append(len(candidate.events))
        return bool(candidate.events)

    shrunk = shrink_plan(plan, fails, max_executions=5)
    assert len(calls) <= 5
    assert len(shrunk.events) <= len(plan.events)


def test_unknown_injectable_bug_is_rejected():
    with pytest.raises(ValueError, match="unknown injectable bug"):
        execute_plan(generate_plan(0), inject_bug="skip_everything")


# --------------------------------------------------------- invariant library


def test_provable_loss_rejects_an_empty_fault_window():
    violations = check_provable_loss("s3", [], [1, 2, 3])
    assert [v.invariant for v in violations] == ["provable-loss"]
    assert "empty fault window" in violations[0].detail


def test_provable_loss_flags_deliveries_inside_the_window():
    assert check_provable_loss("s3", [7, 8], [8])
    assert not check_provable_loss("s3", [7, 8], [1, 2])


def test_exactly_once_flags_missing_and_repeated():
    missing = check_exactly_once("s1", {1, 2}, [1])
    repeated = check_exactly_once("s1", {1}, [1, 1])
    clean = check_exactly_once("s1", {1, 2}, [0, 1, 2, 99])
    assert [v.invariant for v in missing] == ["exactly-once"]
    assert "more than once" in repeated[0].detail
    assert clean == []


def test_non_growth_slack_is_per_key():
    baseline = {"routing:B1": 4, "transport:links": 2}
    grown = {"routing:B1": 5, "transport:links": 3}
    flagged = check_non_growth(baseline, grown, slack={"routing:B1": 1})
    assert [v.subject for v in flagged] == ["transport:links"]
    assert not check_non_growth(baseline, dict(baseline))


def test_require_raises_on_violations():
    require([])
    violations = check_no_duplicates({"s1": 2, "s2": 0})
    assert [v.subject for v in violations] == ["s1"]
    with pytest.raises(InvariantError, match="no-duplicates"):
        require(violations)


# ------------------------------------------------------------ the storyline


def test_storyline_holds_every_invariant_on_sim():
    result = execute_plan(STORYLINE)
    assert result.ok, [str(v) for v in result.violations]
    assert result.events_skipped == 0
    assert (result.lost, result.replayed) == (12, 12)
    assert sum(len(ids) for ids in result.delivered.values()) == 77
    actions = {event.action for event in STORYLINE.events}
    assert {"crash", "sever"} <= actions, "a provable-loss check would be vacuous"
    assert not STORYLINE.events_in_round(0), "temperatures must flow before the first fault"


def test_storyline_churn_flips_the_covering_relationship():
    result = execute_plan(STORYLINE)
    churn_round = next(e.round for e in STORYLINE.events if e.action == "churn")
    temps = [15 + 5 * i for i in range(STORYLINE.params.temps)]

    def temp_ids(round_index, keep=lambda value: True):
        base = ROUND_BASE + round_index * ROUND_SPAN + TEMP_SLOT * SLOT_SPAN
        return {base + i for i, value in enumerate(temps) if keep(value)}

    def in_range(value):
        return 10 <= value <= 30

    # a healthy round precedes the first fault: the broad subscriber sees
    # every temperature, the covered one only its range
    assert temp_ids(0) <= set(result.delivered["s1"])
    assert temp_ids(0) & set(result.delivered["s2"]) == temp_ids(0, in_range)
    after = range(churn_round, STORYLINE.params.rounds)
    all_temps = set().union(*(temp_ids(r) for r in after))
    covered = set().union(*(temp_ids(r, in_range) for r in after))
    assert covered, "the covered subscriber must have something to receive"
    assert all_temps - covered, "a broadened Range filter must have something to leak"
    assert not all_temps & set(result.delivered["s1"])
    assert all_temps & set(result.delivered["s2"]) == covered
