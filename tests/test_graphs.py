import dataclasses
import itertools

import numpy as np
import pytest

from gpt_lab.graphs import (
    DataError,
    GraphParseError,
    GraphSample,
    GraphValidationError,
    batch,
    count_components,
    gen_downstream,
    gen_pretext,
    has_cycle_of_length,
    make_folds,
    read_graph_file,
    rwpe,
    triangle_count,
    with_rwpe,
    write_graph_file,
)
from gpt_lab.models import Backbone, BackboneConfig, encode_nodes
from gpt_lab.seeding import rng_for
from gpt_lab.tensor import Tensor

RNG = np.random.default_rng(7)


def sample(n, edges, d=3, rng=RNG):
    return GraphSample(n, rng.normal(size=(n, d)), tuple(edges))


def triangle():
    return sample(3, [(0, 1), (1, 2), (0, 2)])


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return sample(n, edges, rng=rng)


# -- independent oracles -----------------------------------------------------


def oracle_triangles(g: GraphSample) -> int:
    adj = set(g.edges)
    have = lambda a, b: (min(a, b), max(a, b)) in adj
    return sum(1 for a, b, c in itertools.combinations(range(g.n), 3)
               if have(a, b) and have(b, c) and have(a, c))


def oracle_cycle(g: GraphSample, length: int) -> bool:
    adj = set(g.edges)
    have = lambda a, b: (min(a, b), max(a, b)) in adj
    for nodes in itertools.combinations(range(g.n), length):
        first, rest = nodes[0], nodes[1:]
        for perm in itertools.permutations(rest):
            ring = (first,) + perm
            if all(have(ring[i], ring[(i + 1) % length]) for i in range(length)):
                return True
    return False


# -- encodings ---------------------------------------------------------------


class TestRwpe:
    def test_triangle_by_hand(self):
        # on K3 every 1-step walk leaves the node; every 2-step walk has
        # 2 equally likely moves back, one of which returns
        enc = rwpe(batch([triangle()]), 2)
        assert np.allclose(enc, [[0.0, 0.5]] * 3, atol=1e-15)

    def test_single_edge_must_return(self):
        enc = rwpe(batch([sample(2, [(0, 1)])]), 2)
        assert np.allclose(enc, [[0.0, 1.0]] * 2, atol=1e-15)

    def test_isolated_node_zero_row(self):
        enc = rwpe(batch([sample(3, [(0, 1)])]), 4)
        assert np.array_equal(enc[2], np.zeros(4))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = random_graph(8, 0.4, rng)
        perm = rng.permutation(8)
        relabeled = GraphSample(
            8, g.features,  # features play no role in the encoding
            tuple((int(perm[i]), int(perm[j])) for i, j in g.edges))
        base = rwpe(batch([g]), 5)
        moved = rwpe(batch([relabeled]), 5)
        assert np.allclose(moved[perm], base, atol=1e-12)


class TestDegreeEncoding:
    """The batch counts degrees; ``encode_nodes`` clamps them at ``max_degree``."""

    def test_triangle(self):
        assert batch([triangle()]).degrees.tolist() == [2, 2, 2]

    def test_path(self):
        g = sample(3, [(0, 1), (1, 2)])
        assert batch([g, triangle()]).degrees.tolist() == [1, 2, 1, 2, 2, 2]

    def test_star_clamps(self):
        g = sample(21, [(0, i) for i in range(1, 21)])
        star = batch([g])
        assert star.degrees[0] == 20 and set(star.degrees[1:].tolist()) == {1}
        # A table whose rows 8..20 all equal row 8 gives what clamping at 8 gives.
        wide = Backbone.init(BackboneConfig(kind="mpgnn", feature_dim=3, dim=4, layers=1,
                                            degree_embed=True, max_degree=20), seed=0)
        wide.degree_table.data[9:] = wide.degree_table.data[8]
        narrow = Backbone(dataclasses.replace(wide.cfg, max_degree=8), wide.w_in, wide.b_in,
                          Tensor(wide.degree_table.data[:9]), wide.layers)
        assert np.array_equal(encode_nodes(star, narrow)[0].data,
                              encode_nodes(star, wide)[0].data)


def test_with_rwpe_widens_features():
    g = triangle()
    out = with_rwpe([g], 4)[0]
    assert out.feature_dim == g.feature_dim + 4
    assert np.array_equal(out.features[:, :g.feature_dim], g.features)


# -- batching ----------------------------------------------------------------


class TestBatch:
    def test_single_graph_all_real(self):
        g = triangle()
        b = batch([g])
        assert b.size == 1 and b.offsets.tolist() == [0, 3]
        assert np.array_equal(b.features, g.features)

    def test_mask_counts(self):
        graphs = [sample(3, [(0, 1)]), sample(5, [(0, 1), (2, 3)])]
        b = batch(graphs)
        assert np.diff(b.offsets).tolist() == [3, 5]
        assert np.array_equal(b.features, np.concatenate([g.features for g in graphs]))
        assert b.edges.tolist() == [[0, 1], [3, 4], [5, 6]]
        assert b.degrees.tolist() == [1, 1, 0, 1, 1, 1, 1, 0]

    def test_heterogeneous_width_rejected(self):
        with pytest.raises(DataError, match="feature widths"):
            batch([sample(3, [], d=3), sample(3, [], d=4)])


# -- generators --------------------------------------------------------------


class TestPretext:
    def test_k4_has_four_triangles(self):
        k4 = sample(4, itertools.combinations(range(4), 2))
        assert triangle_count(k4) == 4

    def test_tree_label_zero(self):
        g = sample(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert triangle_count(g) == 0

    def test_labels_match_oracle_and_normalization(self):
        for g in gen_pretext(25, (4, 10), seed=11):
            assert g.label[0] == pytest.approx(oracle_triangles(g) / g.n, abs=0)

    def test_deterministic(self):
        a = gen_pretext(10, (4, 8), seed=5)
        b = gen_pretext(10, (4, 8), seed=5)
        for ga, gb in zip(a, b):
            assert ga.n == gb.n and ga.edges == gb.edges
            assert np.array_equal(ga.features, gb.features)
            assert np.array_equal(ga.label, gb.label)

    def test_size_range_validated(self):
        with pytest.raises(DataError):
            gen_pretext(5, (2, 8), seed=0)


class TestDownstream:
    def test_unknown_task(self):
        with pytest.raises(DataError, match="unknown task"):
            gen_downstream(5, "nope", seed=0)

    def test_motif_labels_match_subset_oracle(self):
        data = gen_downstream(40, "motif_presence", seed=3, size_range=(6, 10))
        for g in data:
            assert g.label[0] == float(oracle_cycle(g, 4))

    def test_motif_balance_within_five_percent(self):
        data = gen_downstream(100, "motif_presence", seed=9)
        positives = sum(g.label[0] for g in data)
        assert abs(positives / len(data) - 0.5) <= 0.05

    def test_planted_cycle_and_tree_edge_cases(self):
        data = gen_downstream(30, "motif_presence", seed=1, size_range=(6, 9))
        assert any(g.label[0] == 1.0 for g in data)
        assert any(g.label[0] == 0.0 for g in data)

    def test_community_count_matches_components(self):
        data = gen_downstream(25, "community_count", seed=4)
        for g in data:
            assert g.label[0] == float(count_components(g))
        assert {g.label[0] for g in data} >= {1.0, 2.0}

    def test_multi_motif_labels_and_balance(self):
        data = gen_downstream(60, "multi_motif", seed=6, size_range=(6, 12))
        for g in data:
            for col, length in enumerate((3, 4, 5)):
                assert g.label[col] == float(oracle_cycle(g, length)), (g.edges, col)
        labels = np.stack([g.label for g in data])
        assert np.all(np.abs(labels.mean(axis=0) - 0.5) <= 0.05)

    @pytest.mark.parametrize("task", ["motif_presence", "community_count", "multi_motif"])
    def test_negative_count_rejected(self, task):
        with pytest.raises(DataError, match="negative number of graphs"):
            gen_downstream(-1, task, seed=0)

    def test_motif_presence_needs_room_for_a_4_cycle(self):
        with pytest.raises(DataError, match="min_nodes must be at least 4, got 3"):
            gen_downstream(4, "motif_presence", seed=0, size_range=(3, 8))

    def test_deterministic(self):
        a = gen_downstream(8, "motif_presence", seed=2)
        b = gen_downstream(8, "motif_presence", seed=2)
        for ga, gb in zip(a, b):
            assert ga.edges == gb.edges and np.array_equal(ga.features, gb.features)


def test_has_cycle_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_graph(7, 0.35, rng)
        for length in (3, 4, 5):
            assert has_cycle_of_length(g, length) == oracle_cycle(g, length)


# -- file format ---------------------------------------------------------------


class TestGraphFile:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.gr"
        write_graph_file(path, [])
        assert read_graph_file(path) == []

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        graphs = [random_graph(int(rng.integers(3, 9)), 0.4, rng) for _ in range(10)]
        graphs = [GraphSample(g.n, g.features, g.edges, rng.normal(size=2))
                  for g in graphs]
        path = tmp_path / "ds.gr"
        write_graph_file(path, graphs)
        back = read_graph_file(path)
        assert len(back) == len(graphs)
        for a, b in zip(graphs, back):
            assert a.n == b.n and a.edges == b.edges
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.label, b.label)

    def test_out_of_range_edge_reports_line(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("GPTGRAPH v1 d=1 t=0\ng 6 1\n" + "0.0\n" * 6 + "e 5 9\ny\n")
        with pytest.raises(GraphValidationError, match="line 9"):
            read_graph_file(path)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("GPTGRAPH v1 d=2 t=0\ng 1 0\n0.0\ny\n")
        with pytest.raises(GraphParseError, match="line 3"):
            read_graph_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text("GRAPHS v9 d=1 t=0\n")
        with pytest.raises(GraphParseError, match="line 1"):
            read_graph_file(path)

    def test_unlabeled_round_trip(self, tmp_path):
        graphs = [triangle(), sample(2, [(0, 1)])]
        path = tmp_path / "unlabeled.gr"
        write_graph_file(path, graphs)
        assert path.read_text().splitlines()[0] == "GPTGRAPH v1 d=3 t=0"
        back = read_graph_file(path)
        assert [g.label for g in back] == [None, None]
        for a, b in zip(graphs, back):
            assert a.edges == b.edges and np.array_equal(a.features, b.features)

    @pytest.mark.parametrize("gline", ["g 0 0", "g -1 0", "g 2 -1"])
    def test_empty_or_negative_sample_header_reports_line(self, tmp_path, gline):
        path = tmp_path / "bad.gr"
        path.write_text(f"GPTGRAPH v1 d=1 t=0\ng 1 0\n0.5\ny\n{gline}\ny\n")
        with pytest.raises(GraphParseError, match="line 5: a sample needs n >= 1"):
            read_graph_file(path)


# -- sample validation ---------------------------------------------------------


class TestGraphSample:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            sample(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            sample(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError, match="out of range"):
            sample(3, [(0, 3)])

    def test_rejects_no_nodes(self):
        with pytest.raises(GraphValidationError, match="at least one node"):
            GraphSample(0, np.zeros((0, 3)), ())


# -- folds ---------------------------------------------------------------------


class TestFolds:
    def test_partition_properties(self):
        split = make_folds(23, 5, seed=1)
        counts = np.bincount(split.folds, minlength=5)
        assert counts.sum() == 23
        assert counts.max() - counts.min() <= 1

    def test_train_eval_disjoint_cover(self):
        split = make_folds(20, 5, seed=2)
        for f in range(5):
            tr, ev = split.train_eval(f)
            assert len(set(tr) & set(ev)) == 0
            assert len(tr) + len(ev) == 20

    @pytest.mark.parametrize("count, k, seed", [(5, 5, 0), (23, 5, 1), (40, 3, 7)])
    def test_position_i_of_the_seeded_permutation_lands_in_fold_i_mod_k(self, count, k, seed):
        perm = rng_for(seed, "folds").permutation(count)
        folds = make_folds(count, k, seed).folds
        assert [int(folds[sample]) for sample in perm] == [i % k for i in range(count)]

    def test_deterministic(self):
        a = make_folds(50, 5, seed=3)
        b = make_folds(50, 5, seed=3)
        assert np.array_equal(a.folds, b.folds)


# -- input checks ----------------------------------------------------------------

_HEADER = "GPTGRAPH v1 d=1 t=1\n"


def parse(text):
    """A call that reads ``text`` as a graph file."""
    def call(tmp_path):
        path = tmp_path / "bad.gr"
        path.write_text(text)
        return read_graph_file(path)
    return call


# Each input check of the graph module that no other test trips: the call
# (given a scratch directory), and the exception type and message it raises.
INPUT_ERRORS = {
    "header_width": (parse("GPTGRAPH v1 d=x t=1\n"), GraphParseError,
                     "line 1: bad header 'GPTGRAPH v1 d=x t=1'"),
    "header_negative_width": (parse("GPTGRAPH v1 d=-1 t=1\n"), GraphParseError,
                              "line 1: bad header 'GPTGRAPH v1 d=-1 t=1'"),
    "end_of_file": (parse(_HEADER + "g 2 0\n0.5\n"), GraphParseError,
                    "line 4: unexpected end of file, expected feature row 1"),
    "sample_start": (parse(_HEADER + "h 1 0\n"), GraphParseError,
                     "line 2: expected 'g <n> <m>', got 'h 1 0'"),
    "sample_count": (parse(_HEADER + "g one 0\n"), GraphParseError,
                     "line 2: expected 'g <n> <m>', got 'g one 0'"),
    "feature_count": (parse(_HEADER + "g 1 0\n0.5 0.5\n"), GraphParseError,
                      "line 3: expected 1 feature values, got 2"),
    "feature_value": (parse(_HEADER + "g 1 0\nabc\n"), GraphParseError,
                      "line 3: bad feature value"),
    "edge_line": (parse(_HEADER + "g 2 1\n0\n0\nx 0 1\n"), GraphParseError,
                  "line 5: expected 'e <i> <j>', got 'x 0 1'"),
    "edge_node": (parse(_HEADER + "g 2 1\n0\n0\ne 0 one\n"), GraphParseError,
                  "line 5: expected 'e <i> <j>', got 'e 0 one'"),
    "edge_self_loop": (parse(_HEADER + "g 2 1\n0\n0\ne 1 1\n"), GraphValidationError,
                       "line 5: edge (1, 1) invalid for 2 nodes"),
    "label_line": (parse(_HEADER + "g 1 0\n0\nz 1\n"), GraphParseError,
                   "line 4: expected 'y ...', got 'z 1'"),
    "label_count": (parse(_HEADER + "g 1 0\n0\ny 1 0\n"), GraphParseError,
                    "line 4: expected 1 label values, got 2"),
    "label_value": (parse(_HEADER + "g 1 0\n0\ny abc\n"), GraphParseError,
                    "line 4: bad label value"),
    "duplicate_edge": (parse(_HEADER + "g 2 2\n0\n0\ne 0 1\ne 1 0\ny 1\n"),
                       GraphValidationError, "line 7: duplicate undirected edge (0, 1)"),
    "write_mixed_arity": (lambda tmp: write_graph_file(tmp / "x.gr", [
        GraphSample(1, np.zeros((1, 1)), (), np.ones(1)), GraphSample(1, np.zeros((1, 1)), ())]),
        DataError, "all samples in a file must share d and label arity"),
    "feature_rows": (lambda tmp: GraphSample(2, np.zeros((3, 1)), ()), GraphValidationError,
                     "features must be (2, d), got shape (3, 1)"),
    "cycle_length": (lambda tmp: has_cycle_of_length(triangle(), 2), DataError,
                     "cycles have length >= 3, got 2"),
    "take_out_of_range": (lambda tmp: batch([triangle()]).take([1]), DataError,
                          "cannot take samples [1] of a batch of 1"),
    "take_nothing": (lambda tmp: batch([triangle()]).take([]), DataError,
                     "cannot take samples [] of a batch of 1"),
    "batch_empty": (lambda tmp: batch([]), DataError, "cannot batch an empty list of graphs"),
    "rwpe_no_steps": (lambda tmp: rwpe(batch([triangle()]), 0), DataError,
                      "rwpe needs k >= 1, got 0"),
    "folds_too_few_samples": (lambda tmp: make_folds(3, 5, seed=0), DataError,
                              "cannot split 3 samples into 5 folds"),
    "folds_one": (lambda tmp: make_folds(10, 1, seed=0), DataError,
                  "cannot split 10 samples into 1 folds"),
    "fold_out_of_range": (lambda tmp: make_folds(10, 5, seed=0).train_eval(5), DataError,
                          "fold 5 out of range for 5 folds"),
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_check_names_its_cause(name, tmp_path):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error and str(info.value) == message
