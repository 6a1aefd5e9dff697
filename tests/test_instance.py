import math
import os
import re

import numpy as np
import pytest

from helpers import random_instance
from preopt import oracle
from preopt.instance import (
    GeneratorConfig,
    Instance,
    evaluate,
    generate_synthetic,
    ingest_ego_network,
    load_instance,
    load_partial,
    read_edge_list,
    save_instance,
    save_partial,
)
from preopt.flow import pin_costs
from preopt.relations import PartialAssignment, Relation

FIG1 = np.array(
    [
        [0, 2, -1, -1, -1],
        [2, 0, -1, 2, -1],
        [-4, -4, 0, 3, 2],
        [1, 1, -1, 0, -1],
        [-1, -1, 1, -2, 0],
    ],
    dtype=float,
)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Instance(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            Instance(np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
        with pytest.raises(ValueError):
            Instance(np.zeros((2, 3)))

    def test_overflowing_value_mass_rejected(self):
        # every value is finite, but sum |c| overflows and would make the
        # tolerance and every bound built on it inf or NaN
        c = np.zeros((3, 3))
        c[0, 1] = c[1, 2] = 1e308
        c[2, 0] = -1e308
        with pytest.raises(ValueError, match="overflows"):
            Instance(c)
        c[2, 0] = -1e307
        with pytest.raises(ValueError, match="overflows"):
            Instance(c)
        c[0, 1] = 0.0
        assert math.isfinite(Instance(c).tolerance)

    def test_positive_negative_parts(self):
        # unpinned, the pin costs are the positive and the negative parts
        inst = Instance(np.array([[0.0, 2.0], [-3.0, 0.0]]))
        cut, join = pin_costs(inst, PartialAssignment.empty(2))
        assert cut[0, 1] == 2.0 and cut[1, 0] == 0.0
        assert join[1, 0] == 3.0 and join[0, 1] == 0.0
        # pinned, either way round: the value a pin sets costs nothing,
        # the one it forbids is infinite
        for ones, zeros in (([(1, 0)], [(0, 1)]), ([(0, 1)], [(1, 0)])):
            pa = PartialAssignment.from_pairs(2, one_pairs=ones, zero_pairs=zeros)
            cut, join = pin_costs(inst, pa)
            assert cut[ones[0]] == math.inf and join[ones[0]] == 0.0
            assert cut[zeros[0]] == 0.0 and join[zeros[0]] == math.inf
            assert (np.diagonal(cut) == 0.0).all() and (np.diagonal(join) == 0.0).all()

    def test_values_immutable(self):
        inst = Instance(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            inst.values[0, 1] = 1.0

    def test_restrict(self):
        inst = Instance(FIG1)
        sub = inst.restrict([0, 1, 3])
        assert sub.n == 3
        assert sub.values[0, 2] == FIG1[0, 3]

    @pytest.mark.parametrize("elements", [[0, -1], [1, 1], [0, 3]], ids=str)
    def test_restrict_rejects_invalid_elements(self, elements):
        # a negative element would wrap around, a repeated one would be
        # copied, one past the end would be numpy's IndexError
        with pytest.raises(ValueError, match=r"invalid elements \[.*\] for n=3"):
            Instance(FIG1[:3, :3]).restrict(elements)


class TestEvaluate:
    def test_all_zero_relation(self):
        assert evaluate(Instance(FIG1), Relation.empty(5)) == 0.0

    def test_depicted_optimum_value(self):
        x = Relation.from_pairs(5, [(0, 1), (1, 0), (0, 3), (1, 3), (2, 3), (2, 4)])
        assert x.is_transitive()
        assert evaluate(Instance(FIG1), x) == pytest.approx(10.0)
        # exhaustive search confirms this is the optimum
        assert oracle.solve_exact(Instance(FIG1)).value == pytest.approx(10.0)

    def test_complete_relation(self):
        inst = Instance(FIG1)
        assert evaluate(inst, Relation(np.ones((5, 5), dtype=bool))) == pytest.approx(FIG1.sum())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(Instance(FIG1), Relation.empty(4))

    def test_linearity_on_disjoint_supports(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 6)
        a = Relation.from_pairs(6, [(0, 1), (2, 3)])
        b = Relation.from_pairs(6, [(4, 5), (1, 0)])
        both = Relation(a.matrix | b.matrix)
        assert evaluate(inst, both) == pytest.approx(evaluate(inst, a) + evaluate(inst, b))


class TestGenerator:
    def test_zero_density_truth_empty(self):
        inst, truth = generate_synthetic(GeneratorConfig(n=5, p_edges=0.0, alpha=0.5, seed=4))
        assert truth.count() == 0
        assert inst.n == 5

    def test_zero_density_means(self):
        inst, _ = generate_synthetic(GeneratorConfig(n=40, p_edges=0.0, alpha=0.5, seed=4))
        off = ~np.eye(40, dtype=bool)
        assert inst.values[off].mean() == pytest.approx(-0.5, abs=0.02)
        assert inst.values[off].std() == pytest.approx(0.25, abs=0.02)

    def test_alpha_zero_value_distributions(self):
        inst, truth = generate_synthetic(GeneratorConfig(n=40, p_edges=0.5, alpha=0.0, seed=9))
        on = truth.matrix
        off = ~truth.matrix & ~np.eye(40, dtype=bool)
        assert inst.values[on].mean() == pytest.approx(1.0, abs=0.02)
        assert inst.values[on].std() == pytest.approx(0.1, abs=0.02)
        assert inst.values[off].mean() == pytest.approx(-1.0, abs=0.02)

    def test_full_density_complete_truth(self):
        _, truth = generate_synthetic(GeneratorConfig(n=3, p_edges=1.0, alpha=0.3, seed=1))
        assert truth == Relation(np.ones((3, 3), dtype=bool))

    def test_deterministic(self):
        cfg = GeneratorConfig(n=12, p_edges=0.4, alpha=0.6, seed=77)
        a_inst, a_truth = generate_synthetic(cfg)
        b_inst, b_truth = generate_synthetic(cfg)
        assert np.array_equal(a_inst.values, b_inst.values)
        assert a_truth == b_truth

    def test_truth_always_transitive(self):
        rng = np.random.default_rng(0)
        for k in range(1000):
            n = int(rng.integers(2, 9))
            cfg = GeneratorConfig(
                n=n, p_edges=float(rng.random()), alpha=float(rng.random()), seed=k
            )
            _, truth = generate_synthetic(cfg)
            assert truth.is_transitive()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=0, p_edges=0.5, alpha=0.5, seed=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=3, p_edges=1.5, alpha=0.5, seed=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=3, p_edges=0.5, alpha=-0.1, seed=0)

    def test_config_rejects_n_beyond_physical_memory(self, monkeypatch):
        # 16 pages of 16 bytes hold a 5 x 5 float matrix, not 6 x 6
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 16}.get)
        GeneratorConfig(n=5, p_edges=0.5, alpha=0.5, seed=0)
        with pytest.raises(ValueError, match="n=6 is too large to allocate"):
            GeneratorConfig(n=6, p_edges=0.5, alpha=0.5, seed=0)


class TestEgoIngestion:
    def test_single_edge(self):
        inst = ingest_ego_network([("a", "b")], ["a", "b"])
        assert inst.values[0, 1] == 1.0 and inst.values[1, 0] == -1.0

    def test_no_edges(self):
        inst = ingest_ego_network([], ["a", "b", "c"])
        off = ~np.eye(3, dtype=bool)
        assert (inst.values[off] == -1.0).all()

    def test_duplicate_edges_idempotent(self):
        inst = ingest_ego_network([(0, 1), (0, 1)], [0, 1])
        assert inst.values[0, 1] == 1.0
        assert (inst.values[~np.eye(2, dtype=bool)] == 1.0).sum() == 1

    def test_self_loops_dropped(self):
        inst = ingest_ego_network([(0, 0), (0, 1)], [0, 1])
        assert inst.values[0, 1] == 1.0

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            ingest_ego_network([("a", "z")], ["a", "b"])

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError):
            ingest_ego_network([], [])

    def test_values_pm_one_and_edge_count(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 1), (1, 1)]
        inst = ingest_ego_network(edges, [0, 1, 2])
        off = ~np.eye(3, dtype=bool)
        assert set(np.unique(inst.values[off])) == {-1.0, 1.0}
        assert (inst.values[off] == 1.0).sum() == 3  # dedup, no self-loop


class TestEdgeListReader:
    def test_reads_numeric_ids(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n\n# comment\n2 0\n")
        nodes, edges = read_edge_list(path)
        assert nodes == [0, 1, 2]
        assert set(edges) == {(0, 1), (1, 2), (2, 0)}

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError):
            read_edge_list(path)


class TestInstanceIO:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("n=2\np,q,c\n0,1,2.0\n")
        inst = load_instance(path)
        assert inst.values[0, 1] == 2.0 and inst.values[1, 0] == 0.0

    def test_diagonal_rejected(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("n=2\np,q,c\n0,0,5\n")
        with pytest.raises(ValueError, match="diagonal"):
            load_instance(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("n=2\np,q,c\n0,1,1\n0,1,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_instance(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("n=2\np,q,c\n0,1\n")
        with pytest.raises(ValueError, match="malformed"):
            load_instance(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("n=2\np,q,c\n0,1,inf\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_instance(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "inst.csv"
        path.write_text("0,1,2.0\n")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_round_trip_bit_exact(self, tmp_path):
        inst, _ = generate_synthetic(GeneratorConfig(n=40, p_edges=0.5, alpha=0.7, seed=3))
        path = tmp_path / "inst.csv"
        save_instance(inst, path)
        again = load_instance(path)
        assert np.array_equal(inst.values, again.values)

    def test_partial_round_trip(self, tmp_path):
        pa = PartialAssignment.from_pairs(4, one_pairs=[(0, 1)], zero_pairs=[(2, 3), (3, 0)])
        path = tmp_path / "pa.csv"
        save_partial(pa, path)
        again = load_partial(path, 4)
        assert again == pa

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n=2\np,q,c\n0,1,1_0\n", 3),  # int() and float() read 1_0 as 10
            ("n=2\np,q,c\n0,\uff11,1.0\n", 3),  # a full-width 1
            ("n=2\np,q,c\n0,1,\u0661.5\n", 3),  # an Arabic-Indic 1
            ("n=2\np,q,c\n0,\u00a01,1.0\n", 3),  # a no-break space
            ("n=1_0\np,q,c\n0,1,1.0\n", 1),
            ("n=\uff12\np,q,c\n0,1,1.0\n", 1),
            ("\nn=2\n\np,q,c\n\n0,1,1.0\n0,1_1,2.0\n", 7),  # blank lines still count
        ],
        ids=["underscore", "full-width", "arabic-indic", "nbsp", "count-underscore",
             "count-full-width", "blank-lines"],
    )
    def test_non_ascii_or_underscore_field_rejected(self, tmp_path, text, line):
        path = tmp_path / "inst.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: malformed .*plain ASCII"):
            load_instance(path)

    @pytest.mark.parametrize(
        "rows, line",
        [("0,1_0,1\n", 1), ("0,1,1\n\uff11,0,0\n", 2), ("0,1,\u0661\n", 1)],
        ids=["underscore", "full-width", "arabic-indic"],
    )
    def test_partial_non_ascii_or_underscore_field_rejected(self, tmp_path, rows, line):
        path = tmp_path / "pa.csv"
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: non-integer field .*plain ASCII"):
            load_partial(path, 12)

    def test_round_trip_extreme_floats(self, tmp_path):
        c = np.zeros((3, 3))
        c[0, 1], c[0, 2], c[1, 0], c[2, 1] = 5e-324, -1.7976931348623157e308, 1e-300, -0.1
        path = tmp_path / "inst.csv"
        save_instance(Instance(c), path)
        assert np.array_equal(load_instance(path).values, c)
