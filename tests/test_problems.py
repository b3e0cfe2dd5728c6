"""The table of problems: every name verify and the CLI take resolves to one
entry, the instances built from an entry resolve back to it, and the CLI's
choice lists and Instance's checks read as they did before the table."""

import argparse
import re

import pytest

from cclose import Coloring, Graph, Instance, Problem, path_graph
from cclose.cli import build_parser
from cclose.problems import _TABLE, KERNELIZE, PIPELINES, SOLVE, lookup, names, pipeline_of
from cclose.verify import PROBLEMS, random_instance


def problem_choices(command):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in commands.choices[command]._actions if a.dest == "problem")


def test_the_cli_choice_lists_keep_their_names_and_order():
    assert problem_choices("kernelize") == ["is", "ds", "tds", "im", "irs"]
    assert problem_choices("solve") == ["ds", "tds"]
    assert problem_choices("verify") == list(PROBLEMS) == ["is", "ds", "tds", "bwtds", "im", "irs"]
    assert names(KERNELIZE) == problem_choices("kernelize") and names(SOLVE) == problem_choices("solve")


def test_every_entry_has_its_own_key():
    assert len(PIPELINES) == len(_TABLE)
    assert sorted(KERNELIZE.values(), key=_TABLE.index) == [p for p in _TABLE if p.cli]


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_every_draw_resolves_to_the_entry_of_its_name(problem, bipartite):
    """verify draws each (problem, bipartite) pair from one entry, and
    ``pipeline_of`` finds that entry again from the drawn instance alone."""
    entry = lookup(PIPELINES, problem, bipartite)
    assert [p for p in _TABLE if p is entry] == [entry]
    assert entry.name == problem and entry.bipartite <= bipartite
    for seed in range(30):
        for r in (1, 2):
            inst = random_instance(problem, 8, 3, r, bipartite, seed)
            assert inst.problem is entry.problem
            assert pipeline_of(inst) is entry, (problem, bipartite, seed, r)


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("command, table", [("kernelize", KERNELIZE), ("solve", SOLVE)])
def test_every_cli_problem_resolves_to_one_entry(command, table, bipartite):
    """Each ``--problem`` of kernelize and solve names one entry, and the
    instance the CLI builds from it on a bipartite graph resolves back to it."""
    g = path_graph(4)
    for name in problem_choices(command):
        entry = lookup(table, name, bipartite and command == "kernelize")
        assert [p for p in table.values() if p is entry] == [entry]
        assert command == "kernelize" or entry.solver is not None
        for r in (1, 2):
            assert pipeline_of(entry.instance(g, 1, r, Coloring(frozenset({0})))) is entry


def test_the_kernelize_entries_build_the_instances_the_cli_built():
    """``cclose kernelize``: TDS and bipartite DS are BW-TDS with the file's
    coloring, or all black, and bipartite DS fixes r = 1."""
    g, white = path_graph(4), Coloring(frozenset({1}))
    shapes = {
        (name, bipartite): (inst.problem, inst.r, inst.coloring, inst.bipartition is not None)
        for name in problem_choices("kernelize")
        for bipartite in (False, True)
        for inst in [lookup(KERNELIZE, name, bipartite).instance(g, 2, 3, white)]
    }
    assert shapes == {
        ("is", False): (Problem.IS, None, None, False),
        ("is", True): (Problem.IS, None, None, False),
        ("ds", False): (Problem.DS, None, None, False),
        ("ds", True): (Problem.BW_TDS, 1, white, True),
        ("tds", False): (Problem.BW_TDS, 3, white, False),
        ("tds", True): (Problem.BW_TDS, 3, white, False),
        ("im", False): (Problem.IM, None, None, False),
        ("im", True): (Problem.IM, None, None, True),
        ("irs", False): (Problem.IRS, None, None, False),
        ("irs", True): (Problem.IRS, None, None, False),
    }
    assert lookup(KERNELIZE, "tds").instance(g, 2, 3).coloring == Coloring()
    with pytest.raises(ValueError, match="graph is not bipartite"):
        lookup(KERNELIZE, "im", True).instance(Graph(range(3), [(0, 1), (1, 2), (0, 2)]), 1, 1)


# The problem in the message reads as an f-string renders a member of a
# ``str`` enum on the running Python, as it did before the table.
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"problem": Problem.IS, "r": 1}, f"r must be present iff problem is TDS/BW-TDS (got {Problem.IS})"),
        ({"problem": Problem.DS, "r": 2}, f"r must be present iff problem is TDS/BW-TDS (got {Problem.DS})"),
        ({"problem": Problem.TDS}, f"r must be present iff problem is TDS/BW-TDS (got {Problem.TDS})"),
        ({"problem": Problem.BW_TDS, "coloring": Coloring()}, "r must be present iff problem is TDS/BW-TDS"),
        (
            {"problem": Problem.TDS, "r": 1, "coloring": Coloring()},
            "coloring must be present iff problem is BW-TDS",
        ),
        ({"problem": Problem.BW_TDS, "r": 1}, "coloring must be present iff problem is BW-TDS"),
        ({"problem": Problem.IM, "coloring": Coloring()}, "coloring must be present iff problem is BW-TDS"),
    ],
)
def test_instance_rejects_r_or_a_coloring_on_the_wrong_problem(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Instance(graph=path_graph(2), k=1, **fields)


@pytest.mark.parametrize("mode", ["", "Delta", "bogus"])
def test_an_unknown_bipartite_im_mode_is_refused(mode):
    entry = lookup(PIPELINES, "im", True)
    with pytest.raises(ValueError, match="unknown mode .* \\(expected 'delta' or 'closure'\\)"):
        entry.kernel(mode)
    assert lookup(PIPELINES, "is").kernel(mode).name == "kernelize_is"
