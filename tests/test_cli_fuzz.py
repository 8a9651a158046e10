"""Hostile numbers on every subcommand's numeric flags.

Each case runs ``main`` on a tiny corpus with one flag set to a value
outside its domain.  The outcome is a return of 0 or 1, argparse's own
usage exit (status 2), or one line that starts with ``<cmd>:`` — never a
traceback.  CI's docs job reruns this module under more seeds.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main

#: Values outside every count's domain, every seed's, every probability's
#: and every positive real's: none of them starts a long run.
NOT_A_COUNT = st.integers(max_value=0).map(str)
NOT_A_SEED = st.integers(max_value=-1).map(str)
NOT_POSITIVE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0"]),
    st.floats(max_value=0.0, allow_nan=False).map(repr),
)
NOT_A_PROBABILITY = st.one_of(
    st.sampled_from(["nan", "inf", "-inf"]),
    st.floats(max_value=-1e-9, allow_infinity=False).map(repr),
    st.floats(min_value=1.0 + 1e-9, allow_infinity=False).map(repr),
)
#: ``"--"`` included: argparse reads ``--flag=--`` as an empty list.
NOT_A_NUMBER = st.sampled_from(["", "x", "1e", "0x10", "--"])

#: ``subcommand: (argv without the flag, {flag: hostile values})``.
SURFACE = {
    "generate": (["generate", "--out", "{tmp}/g", "--days", "1"],
                 {"--users": NOT_A_COUNT, "--days": NOT_A_COUNT, "--seed": NOT_A_SEED}),
    "visualize": (["visualize", "--in", "{corpus}"],
                  {"--width": NOT_A_COUNT, "--height": NOT_A_COUNT}),
    "sample": (["sample", "--in", "{corpus}", "--out", "{tmp}/s"], {"--window": NOT_POSITIVE}),
    "attack": (["attack", "--in", "{corpus}", "--linkage"],
               {"--radius": NOT_POSITIVE, "--min-pts": NOT_A_COUNT,
                "--memory-budget-mb": NOT_POSITIVE, "--max-match-dist": NOT_POSITIVE,
                "--max-pois": NOT_A_COUNT}),
    "sweep": (["sweep", "--users", "2", "--mechanisms", "none"],
              {"--users": NOT_A_COUNT, "--seed": NOT_A_SEED, "--radius": NOT_POSITIVE,
               "--min-pts": NOT_A_COUNT}),
    "history": (["history", "{history}"], {"--width": NOT_A_COUNT}),
    "chaos": (["chaos", "--driver", "sampling", "--users", "1"],
              {"--seed": NOT_A_SEED, "--crash-prob": NOT_A_PROBABILITY,
               "--cache-prob": NOT_A_PROBABILITY, "--shuffle-prob": NOT_A_PROBABILITY,
               "--slow-prob": NOT_A_PROBABILITY, "--slow-factor": NOT_POSITIVE,
               "--memory-budget-mb": NOT_POSITIVE, "--users": NOT_A_COUNT,
               "--days": NOT_A_COUNT, "--workers": NOT_A_COUNT}),
    "submit": (["submit", "--users", "1"],
               {"--users": NOT_A_COUNT, "--days": NOT_A_COUNT, "--seed": NOT_A_SEED,
                "--window": NOT_POSITIVE}),
    "service": (["service", "--driver", "sampling", "--users", "1", "--no-chaos"],
                {"--seed": NOT_A_SEED, "--users": NOT_A_COUNT, "--days": NOT_A_COUNT,
                 "--workers": NOT_A_COUNT}),
    "query": (["query", "--traces", "2000", "--queries", "2"],
              {"--traces": NOT_A_COUNT, "--seed": NOT_A_SEED, "--budget-mb": NOT_POSITIVE,
               "--queries": NOT_A_COUNT}),
    "stream": (["stream", "--users", "1"],
               {"--users": NOT_A_COUNT, "--days": NOT_A_COUNT, "--seed": NOT_A_SEED,
                "--window-s": NOT_POSITIVE, "--tenants": NOT_A_COUNT, "--k": NOT_A_COUNT,
                "--max-iter": NOT_A_COUNT, "--sampling-window": NOT_POSITIVE,
                "--late-prob": NOT_A_PROBABILITY, "--lost-prob": NOT_A_PROBABILITY,
                "--dup-prob": NOT_A_PROBABILITY, "--chaos-seed": NOT_A_SEED,
                "--memory-budget-mb": NOT_POSITIVE}),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus, history = root / "corpus", root / "history.json"
    assert main(["generate", "--out", str(corpus), "--users", "2", "--days", "1"]) == 0
    assert main(["submit", "--users", "1", "--history", str(history)]) == 0
    return {"tmp": str(root), "corpus": str(corpus), "history": str(history)}


@pytest.mark.parametrize("command", sorted(SURFACE))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_hostile_number_ends_in_one_line(command, data, paths, capsys):
    argv, flags = SURFACE[command]
    flag = data.draw(st.sampled_from(sorted(flags)), label="flag")
    value = data.draw(st.one_of(flags[flag], NOT_A_NUMBER), label="value")
    argv = [arg.format(**paths) for arg in argv] + [f"{flag}={value}"]
    try:
        status = main(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse rejected the text as a number
            return
        message = str(exc.code)
        assert message.startswith(f"{command}: ") and "\n" not in message, message
    else:
        assert status in (0, 1)
    finally:
        capsys.readouterr()
