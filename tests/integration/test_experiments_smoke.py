"""Every registered experiment runs end-to-end at toy sizes.

These are regression guards for the benchmark harness: each experiment must
produce rows and notes, and its headline shape property must hold even at
small n.
"""

import pytest

from repro.bench import experiment_names, format_table, run_experiment
from repro.core.errors import InvalidParameterError

TOY = {"n": 4_000, "seed": 0}


def rows_of(name, **kwargs):
    result = run_experiment(name, **kwargs)
    assert result.rows, f"{name} produced no rows"
    assert result.notes, f"{name} produced no notes"
    assert format_table(result.rows)  # renders without crashing
    return result


def test_experiment_registry_complete():
    # Exact, not a subset: the serving tiers are measured by stackbench,
    # so a system benchmark registered here is a second harness.
    assert experiment_names() == [
        "a3",
        "abl_branching",
        "abl_cachesim",
        "abl_cone",
        "abl_search",
        "fig1",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "obs",
        "table1",
    ]


def test_unknown_experiment_raises():
    with pytest.raises(InvalidParameterError):
        run_experiment("fig99")


def test_table1():
    result = rows_of(
        "table1", n=2_000, endpoint_n=800, errors=(10, 100),
        datasets=("weblogs", "iot"),
    )
    for row in result.rows:
        assert row["greedy"] >= row["optimal"]
        assert row["ratio"] >= 1.0


def test_fig1():
    result = rows_of("fig1", **TOY)
    events = [r["events_this_hour"] for r in result.rows]
    assert max(events) > 0


def test_fig6():
    result = rows_of("fig6", n=4_000, n_queries=500, grid=(16, 256),
                     datasets=("weblogs", "maps"))
    structures = {r["structure"] for r in result.rows}
    assert structures == {"fiting", "fixed", "full", "binary"}
    for row in result.rows:
        assert row["hit_rate"] == 1.0


def test_fig7():
    result = rows_of("fig7", n=4_000, n_inserts=500, errors=(16, 64),
                     datasets=("weblogs",))
    full_rows = [r for r in result.rows if r["structure"] == "full"]
    assert all(r["splits"] == 0 for r in full_rows)


def test_fig8():
    result = rows_of("fig8", n=4_000, datasets=("weblogs", "iot"))
    for row in result.rows:
        for name in ("weblogs", "iot"):
            if row[name] != "":
                assert 0 < row[name] <= 1.5


def test_fig9():
    result = rows_of("fig9", n=4_000, errors=(10, 99, 1000))
    by_error = {r["error"]: r for r in result.rows}
    assert by_error[99]["fiting_segments"] == 1
    assert by_error[10]["fiting_segments"] > 100


def test_fig10():
    result = rows_of("fig10", n=4_000, n_queries=300, errors=(16, 64))
    for row in result.rows:
        assert row["size_est/act"] >= 1.0


def test_fig11():
    result = rows_of("fig11", n=2_000, n_queries=300, scale_factors=(1, 2, 4))
    assert len(result.rows) == 3


def test_fig12():
    result = rows_of("fig12", n=4_000, n_inserts=400, error=2_000,
                     buffers=(10, 100))
    splits = [r["splits"] for r in result.rows]
    assert splits[0] > splits[1]  # smaller buffer -> more splits


def test_fig13():
    result = rows_of("fig13", n=4_000, n_queries=300, grid=(10, 100))
    for row in result.rows:
        assert row["pct_tree"] + row["pct_page"] <= 100.01


def test_a3():
    result = rows_of("a3", pattern_counts=(5, 20))
    assert result.rows[0]["greedy"] == result.rows[0]["greedy_expected"]
    assert result.rows[-1]["ratio"] > result.rows[0]["ratio"]


def test_abl_cone():
    result = rows_of("abl_cone", n=4_000, errors=(10,),
                     datasets=("weblogs", "iot"))
    for row in result.rows:
        assert row["exact_test"] <= row["paper_test"]


def test_abl_branching():
    result = rows_of("abl_branching", n=4_000, branchings=(4, 64))
    heights = [r["height"] for r in result.rows]
    assert heights[0] >= heights[-1]
