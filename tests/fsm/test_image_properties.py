"""Property-based structural invariants of the symbolic image operators.

Explicit graphs check image and preimage against adjacency.  Circuit
machines check partitioned mode's own operators against the relational
reference: the preimage by substitution against ``exists X' . (S' & TM)``,
and the merged image chain against the unmerged schedule, with every
merged step within its size bound.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager, Function
from repro.engine import EngineConfig
from repro.fsm import ExplicitGraph, TransitionPartition
from repro.lang import elaborate, load_module
from repro.suite import BUILTIN_TARGETS, build_builtin

from ..strategies import modules

LABELS = ["p", "q"]


@st.composite
def graphs(draw, max_states=5):
    n = draw(st.integers(2, max_states))
    succs = [
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        for _ in range(n)
    ]
    labels = [draw(st.sets(st.sampled_from(LABELS))) for _ in range(n)]
    g = ExplicitGraph("random", signals=LABELS)
    for i in range(n):
        g.state(f"s{i}", labels=labels[i], initial=(i == 0))
    for i, outs in enumerate(succs):
        for j in set(outs):
            g.edge(f"s{i}", f"s{j}")
    return g


@st.composite
def graph_and_subsets(draw):
    g = draw(graphs())
    n = len(g._names)
    x = draw(st.sets(st.integers(0, n - 1)))
    y = draw(st.sets(st.integers(0, n - 1)))
    return g, x, y


@settings(max_examples=80, deadline=None)
@given(graph_and_subsets())
def test_image_preimage_galois_connection(data):
    """image(X) intersects Y  iff  X intersects preimage(Y)."""
    g, x_idx, y_idx = data
    fsm = g.to_fsm()
    x = g.states_to_set(fsm, [g._names[i] for i in x_idx])
    y = g.states_to_set(fsm, [g._names[i] for i in y_idx])
    assert fsm.image(x).intersects(y) == x.intersects(fsm.preimage(y))


@settings(max_examples=60, deadline=None)
@given(graph_and_subsets())
def test_image_matches_explicit_adjacency(data):
    g, x_idx, _ = data
    model = g.to_model()
    fsm = g.to_fsm()
    x = g.states_to_set(fsm, [g._names[i] for i in x_idx])
    symbolic = g.set_to_states(fsm, fsm.image(x))
    explicit = {
        g._names[j] for i in x_idx for j in model.successors[i]
    }
    assert symbolic == explicit


@settings(max_examples=60, deadline=None)
@given(graph_and_subsets())
def test_preimage_matches_explicit_adjacency(data):
    g, x_idx, _ = data
    model = g.to_model()
    fsm = g.to_fsm()
    x = g.states_to_set(fsm, [g._names[i] for i in x_idx])
    symbolic = g.set_to_states(fsm, fsm.preimage(x))
    explicit = {
        g._names[j] for i in x_idx for j in model.predecessors[i]
    }
    assert symbolic == explicit


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_reachable_from_init_matches_explicit_bfs(g):
    from repro.coverage import reachable_indices

    model = g.to_model()
    fsm = g.to_fsm()
    symbolic = g.set_to_states(fsm, fsm.reachable())
    explicit = {model.state_names[i] for i in reachable_indices(model)}
    assert symbolic == explicit


@settings(max_examples=40, deadline=None)
@given(graph_and_subsets())
def test_reachable_from_is_reflexive_transitive(data):
    g, x_idx, _ = data
    fsm = g.to_fsm()
    x = g.states_to_set(fsm, [g._names[i] for i in x_idx])
    reach = fsm.reachable_from(x)
    # Reflexive: includes the start set; transitive: closed under image.
    assert x.subseteq(reach)
    assert fsm.image(reach).subseteq(reach)


# ----------------------------------------------------------------------
# Circuit machines: the substitution preimage and the merged image chain
# against their relational references, on every shipped model, every
# builtin target and generated models, on every backend.
# ----------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _example_fsm(path, backend):
    return elaborate(load_module(path), config=EngineConfig(backend=backend)).fsm


def _builtin_fsm(name, backend):
    return build_builtin(name, config=EngineConfig(backend=backend))[0]


def _random_sets(fsm, seed, count=12):
    """State sets to push through the operators: unions of random cubes
    over latches *and* inputs, plus the machine's own signals and
    reachable set."""
    rng = random.Random(seed)
    ids = fsm.current_var_ids
    sets = [fsm.reachable(), fsm.init, fsm.true_set(), fsm.empty_set()]
    sets.extend(fsm.signal(name) for name in sorted(fsm.signals)[:4])
    for _ in range(count):
        out = fsm.empty_set()
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(ids, rng.randint(1, len(ids)))
            raw = {var: rng.random() < 0.5 for var in chosen}
            out = out | Function(fsm.manager, fsm.manager.cube(raw))
        sets.append(out)
    return sets


def _relational_preimage(fsm, states):
    """``exists X' . (S' & TM)`` against the monolithic relation."""
    renamed = states.rename(
        {fsm.current_ids[v]: fsm.next_ids[v] for v in fsm.state_vars}
    )
    return fsm.transition.and_exists(renamed, fsm.next_var_ids)


def _unmerged_image(fsm, states):
    """The image through the plain schedule, one conjunct per step."""
    partition = fsm.partition
    schedule = partition.schedule(fsm.current_var_ids)
    if schedule.prequantify:
        states = states.exist(schedule.prequantify)
    steps = [
        (partition.conjuncts[step.conjunct], step.quantify)
        for step in schedule.steps
    ]
    return states.and_exists_chain(steps)


def _check_preimage_by_substitution(fsm, seed):
    assert fsm.trans_mode == "partitioned"
    sets = _random_sets(fsm, seed)
    chains_before = fsm.manager.resource_stats()["chain_runs"]
    pairs = [(s, fsm.preimage(s)) for s in sets]
    # The substitution path runs no relational-product chain at all.
    assert fsm.manager.resource_stats()["chain_runs"] == chains_before
    for states, pre in pairs:
        assert pre == _relational_preimage(fsm, states)


def _check_merged_image(fsm, seed):
    cur = fsm.current_var_ids
    for states in _random_sets(fsm, seed):
        image = fsm.partition.relprod(states, cur)
        assert image == _unmerged_image(fsm, states)
        assert image == fsm.transition.and_exists(states, cur)


def _check_merge_bound(partition, quantify):
    """Each merged step is the conjunction of a run of schedule steps in
    which only the last quantifies, and is no larger than its members."""
    schedule = partition.schedule(quantify)
    merged = partition.merged_steps(quantify)
    order = [m for step in merged for m in step.members]
    assert order == [step.conjunct for step in schedule.steps]
    by_conjunct = {step.conjunct: step for step in schedule.steps}
    for step in merged:
        relation = Function.true(partition.manager)
        for member in step.members:
            relation = relation & partition.conjuncts[member]
        assert step.relation == relation
        assert step.relation.size() <= sum(
            partition.conjuncts[m].size() for m in step.members
        )
        assert all(not by_conjunct[m].quantify for m in step.members[:-1])
        assert step.quantify == by_conjunct[step.members[-1]].quantify
    return merged


EXAMPLE_PATHS = sorted(EXAMPLES.glob("*.rml"))


@pytest.mark.parametrize("path", EXAMPLE_PATHS, ids=lambda p: p.stem)
def test_preimage_by_substitution_on_examples(path, backend):
    _check_preimage_by_substitution(_example_fsm(path, backend), path.stem)


@pytest.mark.parametrize("name", sorted(BUILTIN_TARGETS))
def test_preimage_by_substitution_on_builtins(name, backend):
    _check_preimage_by_substitution(_builtin_fsm(name, backend), name)


@pytest.mark.parametrize("path", EXAMPLE_PATHS, ids=lambda p: p.stem)
def test_merged_image_equals_unmerged_on_examples(path, backend):
    _check_merged_image(_example_fsm(path, backend), path.stem)


@pytest.mark.parametrize("name", sorted(BUILTIN_TARGETS))
def test_merged_image_equals_unmerged_on_builtins(name, backend):
    _check_merged_image(_builtin_fsm(name, backend), name)


@settings(max_examples=25, deadline=None)
@given(generated=modules(), seed=st.integers(0, 2**16))
def test_image_operators_on_generated_models(generated, seed, backend):
    fsm = elaborate(generated.module, config=EngineConfig(backend=backend)).fsm
    if fsm.partition is None:  # inputs only: no latch, no partition
        return
    _check_preimage_by_substitution(fsm, seed)
    _check_merged_image(fsm, seed)
    _check_merge_bound(fsm.partition, fsm.current_var_ids)


def test_merged_steps_respect_the_size_bound(backend):
    merges = 0
    fsms = [_example_fsm(p, backend) for p in EXAMPLE_PATHS]
    fsms += [_builtin_fsm(name, backend) for name in sorted(BUILTIN_TARGETS)]
    for fsm in fsms:
        merged = _check_merge_bound(fsm.partition, fsm.current_var_ids)
        merges += sum(len(step.members) > 1 for step in merged)
    # The shipped models do exercise merging.
    assert merges > 0


@pytest.mark.parametrize(
    "interleaved,expected_members",
    [
        # a0 b0 a1 b1 ...: the products stay linear, so the three steps
        # that quantify nothing merge into one.
        (True, [(3,), (0, 1, 2)]),
        # a0 a1 a2 a3 b0 ...: every product of two equivalences is larger
        # than the pair, so no merge is made.
        (False, [(3,), (0,), (1,), (2,)]),
    ],
)
def test_merge_stops_where_the_product_would_grow(
    interleaved, expected_members, backend
):
    n = 4
    manager = BDDManager(backend=backend)
    names = (
        [v for i in range(n) for v in (f"a{i}", f"b{i}")]
        if interleaved
        else [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    )
    for name in names:
        manager.add_var(name)
    conjuncts = [
        Function.var(manager, f"a{i}").iff(Function.var(manager, f"b{i}"))
        for i in range(n)
    ]
    partition = TransitionPartition(conjuncts)
    # Only the last equivalence's b-variable is quantified: every other
    # schedule step quantifies nothing and is a merge candidate.
    quantify = [manager.var_id(f"b{n - 1}")]
    merged = _check_merge_bound(partition, quantify)
    assert [step.members for step in merged] == expected_members

    rng = random.Random(n)
    for _ in range(8):
        raw = {v: rng.random() < 0.5 for v in rng.sample(range(2 * n), 3)}
        states = Function(manager, manager.cube(raw))
        expected = partition.monolithic().and_exists(states, quantify)
        assert partition.relprod(states, quantify) == expected
