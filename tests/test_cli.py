"""End-to-end command-line checks, run in-process via cli.main."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rbmrad as rr
from conftest import random_params
from rbmrad import cd1 as cd1_mod
from rbmrad import cli, fileio
from rbmrad import rademacher as rad_mod
from rbmrad import rbm as rbm_mod

FAST_CFG = """
k = 4
m = 2
n = 12
num_sigma = 12
restarts = 4
iterations = 200
seed = 3
"""


@pytest.fixture
def fast_cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FAST_CFG)
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def run_pipeline(out, cfg_path):
    """gen-data, 6 members, bounds, every estimate and compare; the members."""
    run("gen-data", "--config", cfg_path, "--out", str(out))
    members = rr.generate_members(4, 2, 6, 1.0, 21)
    fileio.write_members(out / "members.txt", members)
    run("bounds", "--config", cfg_path, "--out", str(out))
    for cls in rad_mod.CLASS_NAMES:
        assert run("estimate", cls, "--config", cfg_path, "--out", str(out)) == 0
    assert run("compare", "--config", cfg_path, "--out", str(out)) == 0
    return members


def broken(rows_fn, args):
    """A fused row helper's output with 1e-3 added to its gradient only."""
    value, grad = rows_fn(*args)
    return value, grad + 1e-3


class TestGenData:
    def test_bernoulli_reruns_byte_identical(self, tmp_path, fast_cfg_path):
        out = tmp_path / "out"
        assert run("gen-data", "--config", fast_cfg_path, "--out", str(out)) == 0
        first = (out / "dataset.txt").read_bytes()
        assert run("gen-data", "--config", fast_cfg_path, "--out", str(out)) == 0
        assert (out / "dataset.txt").read_bytes() == first
        data = fileio.read_dataset(out / "dataset.txt")
        assert (data.n, data.k) == (12, 4)

    def test_ground_truth_writes_feasible_params(self, tmp_path):
        cfg = tmp_path / "gt.cfg"
        cfg.write_text("k = 5\nm = 3\nn = 30\ndata_source = ground-truth-rbm\n")
        out = tmp_path / "out"
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 0
        params = fileio.read_params(out / "params.txt")
        assert np.all(np.abs(params.W).sum(axis=0) <= 1.0 + 1e-12)
        assert np.all(params.b == 0.0) and np.all(params.c == 0.0)
        assert fileio.read_dataset(out / "dataset.txt").n == 30

    def test_ground_truth_too_wide_leaves_pair_untouched(self, tmp_path):
        out = tmp_path / "out"
        small = tmp_path / "small.cfg"
        small.write_text("k = 4\nm = 3\nn = 30\ndata_source = ground-truth-rbm\n")
        assert run("gen-data", "--config", str(small), "--out", str(out)) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("params.txt", "dataset.txt")}
        wide = tmp_path / "wide.cfg"
        wide.write_text(f"k = {rbm_mod.MAX_VISIBLE_ENUM + 1}\nm = 3\nn = 30\n"
                        "data_source = ground-truth-rbm\n")
        assert run("gen-data", "--config", str(wide), "--out", str(out)) == 2
        for name, content in before.items():
            assert (out / name).read_bytes() == content

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = 0\n")
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_too_few_restarts_exits_2(self, tmp_path, capsys):
        # The ascent needs at least 4 restarts, so every command rejects
        # fewer, even one that runs no ascent.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("restarts = 2\n")
        out = tmp_path / "out"
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        assert "restarts must be at least 4" in capsys.readouterr().err
        assert not (out / "dataset.txt").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kk = 3\n")
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path)) == 2


class TestBounds:
    def test_rows_match_direct_calls(self, tmp_path):
        out = tmp_path / "out"
        assert run("bounds", "--out", str(out)) == 0
        rows = fileio.read_csv(out / "bounds.csv")
        names = [row["bound_name"] for row in rows]
        assert names.count("LEMMA1") == 1
        assert names.count("COROLLARY1") == 4
        lemma1 = next(r for r in rows if r["bound_name"] == "LEMMA1")
        assert lemma1["value"] == rr.bound_lemma1(1.0, 6, 50)
        cor5 = next(
            r for r in rows if r["bound_name"] == "COROLLARY1" and r["vc"] == 5
        )
        assert cor5["value"] == rr.bound_corollary1(1.0, 6, 3, 50, 5)

    def test_lemma4_uses_member_count(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        members = rr.generate_members(6, 3, 16, 1.0, 8)
        fileio.write_members(out / "members.txt", members)
        assert run("bounds", "--out", str(out)) == 0
        row = next(
            r
            for r in fileio.read_csv(out / "bounds.csv")
            if r["bound_name"] == "LEMMA4_FINITE"
        )
        t_max = max(np.abs(W).sum(axis=0).max() for W, _, _ in members)
        assert row["ln_card_T"] == np.log(16) and row["W"] == t_max
        assert row["value"] == pytest.approx(
            rr.bound_lemma4_finite(t_max, np.log(16), 50), abs=1e-15
        )

    def test_lemma4_skipped_without_members(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("bounds", "--out", str(out)) == 0
        names = [r["bound_name"] for r in fileio.read_csv(out / "bounds.csv")]
        assert "LEMMA4_FINITE" not in names and "LEMMA1" in names
        assert "skipping LEMMA4_FINITE: no members file" in capsys.readouterr().err

    def test_members_for_another_k_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 3, 1.0, 1))
        assert run("bounds", "--out", str(out)) == 2
        assert not (out / "bounds.csv").exists()
        assert "members are built for k=4, config has k=6" in capsys.readouterr().err

    def test_empty_members_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "members.txt").write_text("k=6 m=3 count=0\n")
        assert run("bounds", "--out", str(out)) == 2
        assert "count=0; it needs a member" in capsys.readouterr().err

    def test_nan_in_later_member_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        # write_members refuses a NaN, so it goes into the written text:
        # row 2 of the last member, after its 'u= j=' line.
        path = out / "members.txt"
        fileio.write_members(path, rr.generate_members(6, 3, 4, 1.0, 21))
        lines = path.read_text().splitlines()
        row = lines[-4].split()
        row[1] = "nan"
        lines[-4] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert run("bounds", "--out", str(out)) == 2
        assert not (out / "bounds.csv").exists()
        assert "malformed member weight block" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["B_radius = nan", "W_radius = inf", "learning_rate = nan"]
    )
    def test_non_finite_real_exits_2(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert run("bounds", "--config", str(cfg), "--out", str(out)) == 2
        assert not (out / "bounds.csv").exists()


class TestEstimate:
    def test_missing_dataset_exits_4(self, tmp_path):
        assert run("estimate", "F", "--out", str(tmp_path)) == 4

    def test_F_zero_radius_writes_zero_mean(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k = 4\nn = 12\nnum_sigma = 12\nB_radius = 0.0\n")
        out = tmp_path / "out"
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 0
        assert run("estimate", "F", "--config", str(cfg), "--out", str(out)) == 0
        row = fileio.read_csv(out / "estimate_F.csv")[0]
        assert row["mean"] == 0.0 and row["m"] is None
        assert row["inner_sup_kind"] == "analytic"

    def test_estimate_rerun_byte_identical(self, tmp_path, fast_cfg_path):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        assert run("estimate", "H", "--config", fast_cfg_path, "--out", str(out)) == 0
        first = (out / "estimate_H.csv").read_bytes()
        assert run("estimate", "H", "--config", fast_cfg_path, "--out", str(out)) == 0
        assert (out / "estimate_H.csv").read_bytes() == first

    def test_finite_T_reads_members_file(self, tmp_path, fast_cfg_path):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        members = rr.generate_members(4, 2, 6, 1.0, 21)
        fileio.write_members(out / "members.txt", members)
        assert run(
            "estimate", "FINITE_T", "--config", fast_cfg_path, "--out", str(out)
        ) == 0
        row = fileio.read_csv(out / "estimate_FINITE_T.csv")[0]
        assert row["inner_sup_kind"] == "finite-max"
        assert row["m"] is None and row["B_radius"] is None

    def test_finite_T_member_index_out_of_range_exits_2(self, tmp_path, fast_cfg_path):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 1, 1.0, 3))
        lines = (out / "members.txt").read_text().splitlines()
        lines[1] = "u=9 j=0"
        (out / "members.txt").write_text("\n".join(lines) + "\n")
        assert run(
            "estimate", "FINITE_T", "--config", fast_cfg_path, "--out", str(out)
        ) == 2
        assert not (out / "estimate_FINITE_T.csv").exists()

    def test_finite_T_members_for_another_k_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        run("gen-data", "--out", str(out))
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 3, 1.0, 1))
        assert run("estimate", "FINITE_T", "--out", str(out)) == 2
        assert not (out / "estimate_FINITE_T.csv").exists()
        assert "members are built for k=4, config has k=6" in capsys.readouterr().err

    def test_finite_T_overflowing_sup_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST_CFG.replace("num_sigma = 12", "num_sigma = 30"))
        out = tmp_path / "out"
        run("gen-data", "--config", str(cfg), "--out", str(out))
        members = rr.generate_members(4, 2, 6, 1.0, 21)
        W, u, j = members[0]
        W[u, j] = 1.5e308
        fileio.write_members(out / "members.txt", members)
        with (
            pytest.warns(RuntimeWarning, match="overflow encountered in matmul"),
            pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"),
        ):
            code = run("estimate", "FINITE_T", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert not (out / "estimate_FINITE_T.csv").exists()
        assert "of 30 inner sup values are non-finite" in capsys.readouterr().err

    def test_unknown_class_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["estimate", "Q"])

    def test_parser_built_once_keeps_no_state(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = parser.parse_args(["estimate", "H", "--seed", "3"])
        assert (first.class_name, first.seed) == ("H", 3)
        second = parser.parse_args(["compare"])
        assert second.seed is None and not hasattr(second, "class_name")


class TestCompare:
    def test_missing_bounds_exits_4(self, tmp_path):
        assert run("compare", "--out", str(tmp_path)) == 4

    def test_every_class_has_a_table_entry(self):
        assert set(cli.CLASSES) == set(rad_mod.CLASS_NAMES)

    def test_pipeline_rows_and_pair_probe(self, tmp_path, fast_cfg_path, capsys):
        out = tmp_path / "out"
        members = run_pipeline(out, fast_cfg_path)
        rows = fileio.read_csv(out / "comparison.csv")
        by_bound = {row["bound_name"] for row in rows}
        assert {"LEMMA1", "REMARK2", "LEMMA1+REMARK2", "THEOREM1",
                "COROLLARY1", "LEMMA4_FINITE"} <= by_bound
        assert sum(r["bound_name"] == "COROLLARY1" for r in rows) == 4
        finite = [r for r in rows if r["class_name"] == "FINITE_T"]
        assert [r["bound_name"] for r in finite] == ["LEMMA4_FINITE"]
        t_max = max(np.abs(W).sum(axis=0).max() for W, _, _ in members)
        assert finite[0]["bound_value"] == rr.bound_lemma4_finite(
            t_max, np.log(6), 12
        )
        assert not any(r["class_name"] == "T" for r in rows)
        assert "T: no closed-form comparator" in capsys.readouterr().err
        assert all(row["satisfied"] == "true" for row in rows)

    def test_rows_are_the_declared_comparators(self, tmp_path, fast_cfg_path):
        out = tmp_path / "out"
        run_pipeline(out, fast_cfg_path)
        rows = fileio.read_csv(out / "comparison.csv")
        assert rows
        for row in rows:
            declared = cli.CLASSES[row["class_name"]].bounds
            assert row["bound_name"] == "+".join(declared)

    def test_one_sigma_vector_compared_without_margin(self, tmp_path):
        # stderr is nan for one sigma vector; the mean alone meets the bound.
        cfg = tmp_path / "one.cfg"
        cfg.write_text(FAST_CFG.replace("num_sigma = 12", "num_sigma = 1"))
        out = tmp_path / "out"
        run("gen-data", "--config", str(cfg), "--out", str(out))
        run("bounds", "--config", str(cfg), "--out", str(out))
        for cls in ("F", "LOGLIK_PART1", "CD1_LOGZ"):
            assert run("estimate", cls, "--config", str(cfg), "--out", str(out)) == 0
        assert run("compare", "--config", str(cfg), "--out", str(out)) == 0
        rows = fileio.read_csv(out / "comparison.csv")
        assert rows[0]["class_name"] == "F" and rows[0]["satisfied"] == "true"
        for row in rows:
            assert np.isnan(row["estimate_stderr"])
            met = row["estimate_mean"] <= row["bound_value"]
            assert row["satisfied"] == ("true" if met else "false")

    def test_finite_t_held_to_its_own_members(self, tmp_path, fast_cfg_path, capsys):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 4, 1.0, 3))
        run("bounds", "--config", fast_cfg_path, "--out", str(out))
        # The members change after bounds: the 4-member row no longer applies.
        fileio.write_members(
            out / "members.txt", rr.generate_members(4, 2, 256, 1.0, 3)
        )
        for cls in ("F", "FINITE_T"):
            run("estimate", cls, "--config", fast_cfg_path, "--out", str(out))
        assert run("compare", "--config", fast_cfg_path, "--out", str(out)) == 0
        rows = fileio.read_csv(out / "comparison.csv")
        assert [r["class_name"] for r in rows] == ["F"]
        err = capsys.readouterr().err
        assert "FINITE_T: no LEMMA4_FINITE bound row with matching inputs" in err

    def test_finite_t_compared_without_members(self, tmp_path, fast_cfg_path):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        members = rr.generate_members(4, 2, 6, 1.0, 21)
        fileio.write_members(out / "members.txt", members)
        run("bounds", "--config", fast_cfg_path, "--out", str(out))
        for cls in ("F", "FINITE_T"):
            run("estimate", cls, "--config", fast_cfg_path, "--out", str(out))
        # The estimate row records the inputs, so compare needs no members.
        os.remove(out / "members.txt")
        assert run("compare", "--config", fast_cfg_path, "--out", str(out)) == 0
        rows = fileio.read_csv(out / "comparison.csv")
        assert [r["class_name"] for r in rows] == ["F", "FINITE_T"]
        t_max = max(np.abs(W).sum(axis=0).max() for W, _, _ in members)
        assert rows[1]["bound_name"] == "LEMMA4_FINITE"
        assert rows[1]["bound_value"] == rr.bound_lemma4_finite(t_max, np.log(6), 12)

    def test_finite_t_estimate_not_held_to_a_later_bound(
        self, tmp_path, fast_cfg_path, capsys
    ):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        fileio.write_members(
            out / "members.txt", rr.generate_members(4, 2, 256, 1.0, 3)
        )
        run("estimate", "FINITE_T", "--config", fast_cfg_path, "--out", str(out))
        # The members and bounds change after the estimate.
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 4, 1.0, 3))
        run("bounds", "--config", fast_cfg_path, "--out", str(out))
        assert run("compare", "--config", fast_cfg_path, "--out", str(out)) == 0
        rows = fileio.read_csv(out / "comparison.csv")
        assert not any(r["class_name"] == "FINITE_T" for r in rows)
        err = capsys.readouterr().err
        assert "FINITE_T: no LEMMA4_FINITE bound row with matching inputs" in err

    def test_finite_t_estimate_without_ln_card_t_column(
        self, tmp_path, fast_cfg_path, capsys
    ):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 6, 1.0, 21))
        run("bounds", "--config", fast_cfg_path, "--out", str(out))
        run("estimate", "FINITE_T", "--config", fast_cfg_path, "--out", str(out))
        # The estimate CSV of older versions had no ln_card_T column, so its
        # row cannot show which members it ran on.
        path = out / "estimate_FINITE_T.csv"
        table = [line.split(",") for line in path.read_text().splitlines()]
        drop = table[0].index("ln_card_T")
        path.write_text("".join(
            ",".join(cells[:drop] + cells[drop + 1:]) + "\n" for cells in table
        ))
        assert run("compare", "--config", fast_cfg_path, "--out", str(out)) == 0
        assert fileio.read_csv(out / "comparison.csv") == []
        err = capsys.readouterr().err
        assert "FINITE_T: no LEMMA4_FINITE bound row with matching inputs" in err

    def test_estimate_for_another_m_gets_no_row(self, tmp_path, fast_cfg_path, capsys):
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        run("bounds", "--config", fast_cfg_path, "--out", str(out))
        m4 = tmp_path / "m4.cfg"
        m4.write_text(FAST_CFG.replace("m = 2", "m = 4"))
        run("estimate", "LOGLIK_PART1", "--config", str(m4), "--out", str(out))
        run("estimate", "CD1_LOGZ", "--config", fast_cfg_path, "--out", str(out))
        assert run("compare", "--config", fast_cfg_path, "--out", str(out)) == 0
        rows = fileio.read_csv(out / "comparison.csv")
        assert not any(r["class_name"] == "LOGLIK_PART1" for r in rows)
        err = capsys.readouterr().err
        assert "LOGLIK_PART1: no THEOREM1 bound row with matching inputs" in err


class TestTrain:
    def test_trace_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k = 4\nm = 2\nn = 12\nepochs = 3\nlearning_rate = 0.1\n")
        out = tmp_path / "out"
        run("gen-data", "--config", str(cfg), "--out", str(out))
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        first = (out / "trace.csv").read_bytes()
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "trace.csv").read_bytes() == first
        traces = fileio.read_trace_csv(out / "trace.csv")
        assert [t.epoch for t in traces] == [0, 1, 2, 3]

    def test_epochs_zero_single_audit(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("k = 4\nm = 2\nn = 12\nepochs = 0\n")
        out = tmp_path / "out"
        run("gen-data", "--config", str(cfg), "--out", str(out))
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        traces = fileio.read_trace_csv(out / "trace.csv")
        assert len(traces) == 1 and traces[0].epoch == 0

    def test_starts_from_init_params_file(self, tmp_path, rng):
        out = tmp_path / "out"
        init = tmp_path / "init.txt"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"k = 4\nm = 2\nn = 12\nepochs = 2\ninit_params_file = {init}")
        run("gen-data", "--config", str(cfg), "--out", str(out))
        params = random_params(rng, 4, 2)
        fileio.write_params(init, params)
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        first = fileio.read_trace_csv(out / "trace.csv")[0]
        data = fileio.read_dataset(out / "dataset.txt")
        expected = float(rr.dataset_log_likelihoods(params, data).mean())
        assert (first.epoch, first.mean_exact_loglik) == (0, expected)

    @pytest.mark.parametrize("text", [
        "k=3 m=2\n0 0\n0 0\n0 0\n0 0 0\n0 0\n",
        "k=4 m=3\n" + "0.5 0.5\n" * 4 + "0 0 0 0\n0 0\n",
        "k=4 m=3\n" + "0 0 0\n" * 4 + "0 0 0 0\n0 0 0\n",
    ], ids=["built_for_k3", "rows_narrower_than_m", "built_for_m3"])
    def test_unusable_init_params_file_exits_2(self, tmp_path, capsys, text):
        out = tmp_path / "out"
        init = tmp_path / "init.txt"
        init.write_text(text)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"k = 4\nm = 2\nn = 12\nepochs = 1\ninit_params_file = {init}")
        run("gen-data", "--config", str(cfg), "--out", str(out))
        assert run("train", "--config", str(cfg), "--out", str(out)) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run("verify", "--seed", "5") == 0
        captured = capsys.readouterr().out
        assert "all suites passed" in captured
        assert captured.count("[ok]") == 7
        counts = dict(re.findall(r"suite (\w+): \d+/(\d+) checks", captured))
        assert counts == {
            "factorization": "200",
            "partition": "25",
            "lipschitz": "100000",
            "projection": "1200",
            "gradient": "297",
            "holder": "200",
            "meanfield": "251",
        }

    def test_injected_fault_caught(self, monkeypatch, capsys):
        exact = rbm_mod.free_energy_part1
        monkeypatch.setattr(
            rbm_mod, "free_energy_part1", lambda params, x: exact(params, x) + 1e-3
        )
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: factorization" in captured

    def test_shifted_log_partition_caught(self, monkeypatch, capsys):
        exact = rbm_mod.log_partition_factorized
        monkeypatch.setattr(
            rbm_mod, "log_partition_factorized", lambda params: exact(params) + 1e-3
        )
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: partition" in captured

    def test_shifted_cd1_log_partition_caught(self, monkeypatch, capsys):
        exact = cd1_mod.cd1_log_partition
        monkeypatch.setattr(
            cd1_mod, "cd1_log_partition", lambda params, x: exact(params, x) + 1e-3
        )
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: meanfield" in captured

    def test_shifted_cd1_update_caught(self, monkeypatch, capsys):
        exact = cd1_mod._cd1_update
        monkeypatch.setattr(
            cd1_mod, "_cd1_update", lambda W, X, rate: exact(W, X, rate) + 1e-3
        )
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: meanfield" in captured

    def test_broken_ascent_gradient_caught(self, monkeypatch, capsys):
        exact = rad_mod._part1_rows
        monkeypatch.setattr(rad_mod, "_part1_rows", lambda *args: broken(exact, args))
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: gradient" in captured

    def test_broken_cd1_logz_gradient_caught(self, monkeypatch, capsys):
        exact = rad_mod._cd1_logz_rows
        monkeypatch.setattr(
            rad_mod, "_cd1_logz_rows", lambda *args: broken(exact, args)
        )
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: gradient" in captured

    def test_broken_linear_values_caught(self, monkeypatch, capsys):
        exact = rad_mod._linear_values
        monkeypatch.setattr(
            rad_mod, "_linear_values", lambda *args: exact(*args) + 1e-3
        )
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: holder" in captured

    def test_broken_cd1_logz_value_caught(self, monkeypatch, capsys):
        exact = rad_mod._cd1_logz_rows

        def shifted(*args):
            value, grad = exact(*args)
            return value + 1e-3, grad

        monkeypatch.setattr(rad_mod, "_cd1_logz_rows", shifted)
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: meanfield" in captured

    def test_doubled_t_rows_caught(self, monkeypatch, capsys):
        # Twice the value with twice its gradient: the gradient still
        # matches differences of the value, so only the value check sees it.
        exact = rad_mod._t_rows

        def doubled(*args):
            value, grad = exact(*args)
            return 2.0 * value, 2.0 * grad

        monkeypatch.setattr(rad_mod, "_t_rows", doubled)
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: gradient" in captured

    def test_shifted_part1_value_caught(self, monkeypatch, capsys):
        exact = rad_mod._part1_rows

        def shifted(*args):
            value, grad = exact(*args)
            return value + 0.1, grad

        monkeypatch.setattr(rad_mod, "_part1_rows", shifted)
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: gradient" in captured

    def test_projection_of_wrong_columns_caught(self, monkeypatch, capsys):
        # Projects each run of k consecutive entries, which for m > 1 mixes
        # the columns of the row-major k x m matrix.
        def rows_not_columns(Z, k, m, radius):
            return rad_mod._project_l1_rows(Z.reshape(-1, k), radius).reshape(Z.shape)

        monkeypatch.setattr(rad_mod, "_project_columns", rows_not_columns)
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: projection" in captured

    def test_unshifted_projection_caught(self, monkeypatch, capsys):
        # The threshold taken on the raw magnitudes: css - radius rounds
        # once the largest magnitude dwarfs the radius.
        def unshifted(V, radius):
            A = np.abs(V)
            css = np.cumsum(np.sort(A, axis=1)[:, ::-1], axis=1)
            theta = ((css - radius) / np.arange(1, V.shape[1] + 1)).max(axis=1)
            theta[A.sum(axis=1) <= radius] = 0.0
            out = np.maximum(A - theta[:, None], 0.0)
            return np.copysign(out, V, out=out)

        monkeypatch.setattr(rad_mod, "_project_l1_rows", unshifted)
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: projection" in captured

    def test_broken_t_gradient_caught(self, monkeypatch, capsys):
        exact = rad_mod._t_rows
        monkeypatch.setattr(rad_mod, "_t_rows", lambda *args: broken(exact, args))
        assert run("verify", "--seed", "5") == 3
        captured = capsys.readouterr().out
        assert "failed suites: gradient" in captured


class TestModuleEntry:
    def test_python_m_runs_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "rbmrad.cli", "bounds", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "bounds.csv").exists()


def perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestTracedBenchmark:
    def test_every_traced_global_exists(self):
        # The traced benchmark wraps module globals by name, so a refactor
        # that removes one makes install raise LookupError.
        spans = perfbench_spans()
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
        finally:
            tracer.uninstall()
        assert rad_mod.sigmoid is rbm_mod.sigmoid
        assert cli.estimate_R_H is rr.estimate_R_H

    def test_estimate_goes_through_the_traced_global(
        self, tmp_path, fast_cfg_path, monkeypatch
    ):
        # Each class's layer time is measured by wrapping cli.<estimator>, so
        # `estimate <CLASS>` must call that global, once.
        estimators = perfbench_spans().ESTIMATORS
        assert set(estimators) == set(rad_mod.CLASS_NAMES)
        calls = []
        for attr in estimators.values():
            def spy(*args, _attr=attr, _real=getattr(cli, attr)):
                calls.append(_attr)
                return _real(*args)
            monkeypatch.setattr(cli, attr, spy)
        out = tmp_path / "out"
        run("gen-data", "--config", fast_cfg_path, "--out", str(out))
        fileio.write_members(out / "members.txt", rr.generate_members(4, 2, 6, 1.0, 21))
        for class_name, attr in estimators.items():
            calls.clear()
            assert run(
                "estimate", class_name, "--config", fast_cfg_path, "--out", str(out)
            ) == 0
            assert calls == [attr]


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        exe = shutil.which("rbmrad")
        if exe is None:
            pytest.skip("rbmrad script not on PATH")
        proc = subprocess.run(
            [exe, "bounds", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "bounds.csv").exists()


class TestImports:
    def test_cli_loads_without_scipy(self):
        # scipy is a test and benchmark dependency only; loading it would
        # more than double every rbmrad process's start-up
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        code = "import sys, rbmrad, rbmrad.cli; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0
