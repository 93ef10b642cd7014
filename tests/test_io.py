"""File formats and configuration parsing."""

import math
from pathlib import Path

import numpy as np
import pytest

import rbmrad as rr
from rbmrad import config, fileio


class TestRealFormatting:
    def test_seventeen_digit_roundtrip(self, rng):
        for x in rng.standard_normal(200):
            assert float(fileio.fmt_real(x)) == x

    def test_special_values(self):
        assert fileio.fmt_real(0.0) == "0"
        assert float(fileio.fmt_real(1.0 / 3.0)) == 1.0 / 3.0
        assert float(fileio.fmt_real(math.pi)) == math.pi


class TestDatasetFile:
    def test_roundtrip(self, tmp_path, rng):
        data = rr.BinaryDataset(rng.integers(0, 2, size=(7, 4)).astype(float))
        path = tmp_path / "data.txt"
        fileio.write_dataset(path, data)
        back = fileio.read_dataset(path)
        assert np.array_equal(back.samples, data.samples)

    def test_write_is_byte_stable(self, tmp_path, rng):
        data = rr.BinaryDataset(rng.integers(0, 2, size=(5, 3)).astype(float))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        fileio.write_dataset(a, data)
        fileio.write_dataset(b, data)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("k=2 n=2\n0 1\n0 2\n")
        with pytest.raises(ValueError):
            fileio.read_dataset(path)
        path.write_text("k=2 n=3\n0 1\n1 1\n")
        with pytest.raises(ValueError):
            fileio.read_dataset(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            fileio.read_dataset(path)


class TestParamsFile:
    def test_bitwise_roundtrip(self, tmp_path, rng):
        params = rr.RbmParams(
            W=rng.standard_normal((4, 3)),
            b=rng.standard_normal(4),
            c=rng.standard_normal(3),
        )
        path = tmp_path / "params.txt"
        fileio.write_params(path, params)
        back = fileio.read_params(path)
        assert np.array_equal(back.W, params.W)
        assert np.array_equal(back.b, params.b)
        assert np.array_equal(back.c, params.c)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("k=2 m=1\n0.5\n0.5\n0 0\n")
        with pytest.raises(ValueError):
            fileio.read_params(path)

    def test_weight_block_must_match_header_m(self, tmp_path):
        path = tmp_path / "narrow.txt"
        path.write_text("k=2 m=3\n0.5 0.5\n0.5 0.5\n0 0\n0 0\n")
        with pytest.raises(ValueError, match="expected 2 rows of 3 weights"):
            fileio.read_params(path)


class TestTaggedLines:
    # Each text is valid as written; line `at` is the `tag=<int>` line broken.
    @pytest.mark.parametrize("read, text, at", [
        (fileio.read_dataset, "k=2 n=1\n0 1", 0),
        (fileio.read_params, "k=2 m=1\n0.5\n0.5\n0 0\n0", 0),
        (fileio.read_members, "k=2 m=1 count=1\nu=0 j=0\n0.5\n0.5", 0),
        (fileio.read_members, "k=2 m=1 count=1\nu=0 j=0\n0.5\n0.5", 1),
    ], ids=["dataset", "params", "members", "member_index"])
    def test_extra_or_missing_token_rejected(self, tmp_path, read, text, at):
        path = tmp_path / "file.txt"
        path.write_text(text + "\n")
        read(path)
        lines = text.splitlines()
        line = lines[at]
        form = " ".join(f"{tok.split('=')[0]}=<int>" for tok in line.split())
        for bad in (f"{line} x=3", line.rsplit(" ", 1)[0]):
            lines[at] = bad
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=f"expected '{form}'"):
                read(path)


class TestMembersFile:
    def test_roundtrip(self, tmp_path):
        members = rr.generate_members(3, 2, 5, 1.0, 13)
        path = tmp_path / "members.txt"
        fileio.write_members(path, members)
        back = fileio.read_members(path)
        assert len(back) == 5
        for (W1, u1, j1), (W2, u2, j2) in zip(members, back):
            assert np.array_equal(W1, W2) and u1 == u2 and j1 == j2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_members(tmp_path / "m.txt", [])

    @pytest.mark.parametrize("line", ["u=-1 j=0", "u=3 j=0", "u=0 j=-1", "u=0 j=2"])
    def test_index_out_of_range_rejected(self, tmp_path, line):
        path = tmp_path / "m.txt"
        fileio.write_members(path, rr.generate_members(3, 2, 1, 1.0, 13))
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], line] + lines[2:]) + "\n")
        with pytest.raises(ValueError, match="outside"):
            fileio.read_members(path)

    def test_zero_count_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("k=4 m=2 count=0\n")
        with pytest.raises(ValueError, match="members file"):
            fileio.read_members(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        path = tmp_path / "m.txt"
        fileio.write_members(path, rr.generate_members(3, 2, 2, 1.0, 13))
        lines = path.read_text().splitlines()
        lines[-1] = f"0.25 {bad}"  # last row of the second member's W
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed member weight block"):
            fileio.read_members(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_not_written(self, tmp_path, bad):
        # The rule read_members applies, so no written file is unreadable.
        members = rr.generate_members(3, 2, 2, 1.0, 13)
        members[1][0][2, 1] = bad
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError, match="member weights must be finite"):
            fileio.write_members(path, members)
        assert not path.exists()

    def test_truncated_rejected(self, tmp_path):
        members = rr.generate_members(3, 2, 2, 1.0, 13)
        path = tmp_path / "m.txt"
        fileio.write_members(path, members)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            fileio.read_members(path)


class TestAtomicWrite:
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.csv"
        fileio.write_trace_csv(path, [rr.TrainingTrace(0, -3.5, 0.05, 7)])
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            fileio.write_trace_csv(path, [rr.TrainingTrace(5, -3.0, 0.05, 7)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


class TestCsvFiles:
    def test_bounds_roundtrip(self, tmp_path):
        written = [
            {"bound_name": "LEMMA1", "B": 1.0, "d": 4, "n": 50,
             "value": rr.bound_lemma1(1.0, 4, 50)},
            {"bound_name": "SAUER_SHELAH", "vc": 2, "n": 50,
             "value": rr.sauer_shelah_ln_card(2, 50)},
        ]
        path = tmp_path / "bounds.csv"
        fileio.write_bounds_csv(path, written)
        text = path.read_text()
        assert text.splitlines()[0] == fileio.BOUNDS_HEADER
        rows = fileio.read_csv(path)
        assert rows[0]["bound_name"] == "LEMMA1"
        assert rows[0]["value"] == written[0]["value"]
        assert rows[0]["vc"] is None
        assert rows[1]["vc"] == 2 and rows[1]["B"] is None

    def test_estimate_roundtrip(self, tmp_path, rng):
        data = rr.BinaryDataset(rng.integers(0, 2, size=(10, 3)).astype(float))
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_F(data, spec, rr.sample_sigma_batch(10, 20, 4))
        row = fileio.estimate_row(report)
        path = tmp_path / "est.csv"
        fileio.write_estimate_csv(path, [row])
        back = fileio.read_csv(path)[0]
        assert back["class_name"] == "F"
        assert back["mean"] == report.mean
        assert back["stderr"] == report.stderr
        assert back["m"] is None
        assert back["seed"] == 4

    def test_key_without_a_column_rejected(self, tmp_path, rng):
        # A misspelt input (W for W_radius) or one the header lacks (vc)
        # would otherwise be written as nothing.
        data = rr.BinaryDataset(rng.integers(0, 2, size=(10, 3)).astype(float))
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_F(data, spec, rr.sample_sigma_batch(10, 5, 4))
        row = {**fileio.estimate_row(report), "vc": 2, "W": 1.0}
        path = tmp_path / "est.csv"
        with pytest.raises(ValueError, match="no CSV column for W, vc"):
            fileio.write_estimate_csv(path, [row])
        assert list(tmp_path.iterdir()) == []

    def test_comparison_roundtrip(self, tmp_path):
        rows = [{
            "class_name": "F",
            "estimate_mean": 0.25,
            "estimate_stderr": 0.01,
            "bound_name": "LEMMA1",
            "bound_value": 0.5,
            "satisfied": True,
        }]
        path = tmp_path / "cmp.csv"
        fileio.write_comparison_csv(path, rows)
        assert "true" in path.read_text()
        back = fileio.read_csv(path)[0]
        assert back["satisfied"] == "true"
        assert back["bound_value"] == 0.5

    def test_trace_roundtrip(self, tmp_path):
        traces = [
            rr.TrainingTrace(0, -3.5, 0.05, 7),
            rr.TrainingTrace(10, -3.25, 0.05, 7),
        ]
        path = tmp_path / "trace.csv"
        fileio.write_trace_csv(path, traces)
        assert path.read_text().splitlines()[0] == fileio.TRACE_HEADER
        assert fileio.read_trace_csv(path) == traces

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(fileio.TRACE_HEADER + "\n1,2\n")
        with pytest.raises(ValueError):
            fileio.read_trace_csv(path)


    def test_readme_headers_match(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("The CSV headers are:\n\n```\n", 1)[1].split("```")[0]
        documented = dict(line.split() for line in block.splitlines())
        assert documented == {
            "bounds.csv": fileio.BOUNDS_HEADER,
            "estimate_*.csv": fileio.ESTIMATE_HEADER,
            "comparison.csv": fileio.COMPARISON_HEADER,
            "trace.csv": fileio.TRACE_HEADER,
        }


class TestConfig:
    def test_defaults(self):
        cfg = config.parse_config("")
        assert cfg.k == 6 and cfg.m == 3 and cfg.n == 50
        assert cfg.vc_values == (1, 2, 5, 10)
        assert cfg.data_source == "bernoulli-half"

    def test_comments_and_values(self):
        text = """
        # an experiment
        k = 4   # visible units
        W_radius = 2.5
        vc_values = 1, 3
        data_source = ground-truth-rbm
        """
        cfg = config.parse_config(text)
        assert cfg.k == 4
        assert cfg.W_radius == 2.5
        assert cfg.vc_values == (1, 3)
        assert cfg.data_source == "ground-truth-rbm"

    def test_serialize_parse_fixpoint(self):
        cfg = config.parse_config("k = 9\nlearning_rate = 0.125\nseed = 3")
        text = config.serialize_config(cfg)
        again = config.serialize_config(config.parse_config(text))
        assert text == again

    @pytest.mark.parametrize("value", ["runs#1", "runs\nk = 2", " runs", "runs\t"])
    def test_unwritable_string_rejected(self, value):
        # parse_config would read these back as another value, or fail.
        cfg = config.parse_config("k = 9")
        cfg.output_dir = value
        with pytest.raises(config.ConfigError, match="output_dir"):
            config.serialize_config(cfg)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(config.ConfigError, match="line 2"):
            config.parse_config("k = 4\nbogus = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(config.ConfigError):
            config.parse_config("k = banana")
        with pytest.raises(config.ConfigError):
            config.parse_config("k = 0")
        with pytest.raises(config.ConfigError):
            config.parse_config("seed = -1")
        with pytest.raises(config.ConfigError):
            config.parse_config("data_source = coin-flips")
        with pytest.raises(config.ConfigError):
            config.parse_config("k 4")

    def test_load_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n = 25\nnum_sigma = 10\n")
        cfg = config.load_config(path)
        assert cfg.n == 25 and cfg.num_sigma == 10
