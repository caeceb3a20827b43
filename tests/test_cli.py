import json
import time
import warnings

import numpy as np
import pytest

from reupsim.cli import _Row, _print_rows, main
from reupsim.trainer import MAX_LAYERS
from reupsim.states import read_dataset


def run(argv):
    return main([str(a) for a in argv])


class TestGenDataset:
    def test_purity_balance(self, tmp_path):
        out = tmp_path / "ds"
        assert run(["gen-dataset", "--task", "purity", "--train-size", 1000,
                    "--test-size", 500, "--seed", 7, "--out", out]) == 0
        train = read_dataset(out / "train.jsonl")
        test = read_dataset(out / "test.jsonl")
        assert (len(train), len(test)) == (1000, 500)
        balance = np.mean([it.label for it in train])
        assert abs(balance - 0.5) <= 0.05

    def test_band_labels_rederivable(self, tmp_path):
        out = tmp_path / "ds"
        assert run(["gen-dataset", "--task", "band", "--train-size", 80,
                    "--test-size", 20, "--seed", 1, "--out", out]) == 0
        for it in read_dataset(out / "train.jsonl"):
            assert it.label == float(abs(it.meta["r3"]) >= 0.5)

    def test_psi_grid_uniform(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run(["gen-dataset", "--task", "psi-grid", "--train-size", 101,
                    "--test-size", 11, "--out", out]) == 0
        assert "labels in" in capsys.readouterr().out
        lam = np.array([it.meta["lambda"] for it in read_dataset(out / "train.jsonl")])
        assert lam.min() > -1 and lam.max() < 1
        np.testing.assert_allclose(np.diff(lam), lam[1] - lam[0], atol=1e-12)

    def test_empty_size_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "ds"
        for task, train_size, test_size in (("band", 0, 2), ("psi-grid", 4, 0)):
            code = run(["gen-dataset", "--task", task, "--train-size", train_size,
                        "--test-size", test_size, "--out", out])
            assert code == 2
            assert "size must be at least 1, got 0" in capsys.readouterr().err
            assert not out.exists()

    def test_unwritable_path(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        code = run(["gen-dataset", "--task", "band", "--train-size", 4,
                    "--test-size", 2, "--out", blocker / "sub"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_end_to_end_and_determinism(self, tmp_path):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 60,
             "--test-size", 30, "--seed", 2, "--out", ds])
        args = ["train", "--dataset", ds, "--layers", 1, "--epochs", 5]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(args + ["--out", tmp_path / "b"]) == 0
        rep_a = (tmp_path / "a" / "report.json").read_text()
        assert rep_a == (tmp_path / "b" / "report.json").read_text()
        rec = json.loads(rep_a)
        assert len(rec["loss_history"]) == 6
        csv = (tmp_path / "a" / "histogram.csv").read_text()
        assert csv.startswith("bin_low,bin_high,count_class0,count_class1")

    def test_schema_violation_reports_line(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        path = ds / "train.jsonl"
        lines = path.read_text().splitlines()
        # a missing field, and fields of the wrong type
        wrong_type = json.dumps({**json.loads(lines[1]), "matrix": 5})
        bool_label = json.dumps({**json.loads(lines[1]), "label": True})
        # complex(True, 0) == 1, so a bool must not pass for the number 1
        bool_matrix = json.dumps({**json.loads(lines[1]),
                                  "matrix": [[[True, False], [0, 0]], [[0, 0], [False, 0]]]})
        for bad in ('{"n": 1, "label": 1.0}', wrong_type, bool_label, bool_matrix):
            lines[1] = bad
            path.write_text("\n".join(lines) + "\n")
            code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1,
                        "--out", tmp_path / "out"])
            assert code == 2
            assert "line 2" in capsys.readouterr().err

    def test_line_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        path = ds / "train.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1,
                    "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: line 1: record: expected a JSON object, got [1, 2]" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_label_is_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        path = ds / "train.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "label": float("nan")})
        path.write_text("\n".join(lines) + "\n")
        code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert f"{path}: line 3: label must be finite" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        path = ds / "train.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "label": 10**400})
        path.write_text("\n".join(lines) + "\n")
        code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert f"{path}: line 3: label must fit a float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("meta, message", [
        ({}, "meta has histogram keys [], the first record has ['r3']"),
        ({"r3": float("nan")}, "meta r3 must be finite"),
        ({"r3": "x"}, 'meta r3 must be a JSON number, got "x"'),
    ], ids=["missing-key", "nan", "string"])
    def test_bad_histogram_meta_is_usage_error(self, tmp_path, capsys, meta, message):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        path = ds / "test.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "meta": meta})
        path.write_text("\n".join(lines) + "\n")
        code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert f"{path}: line 2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_test_set_qubit_count_must_match(self, tmp_path, capsys):
        ds, other = tmp_path / "ds", tmp_path / "other"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        run(["gen-dataset", "--task", "entropy", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", other])
        (ds / "test.jsonl").write_text((other / "test.jsonl").read_text())
        code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1,
                    "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ds / 'test.jsonl'}: states have 2 qubits, train.jsonl has 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, tmp_path, capsys, lr):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "band", "--train-size", 3,
             "--test-size", 2, "--seed", 0, "--out", ds])
        code = run(["train", "--dataset", ds, "--layers", 1, "--epochs", 1, "--lr", lr,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert f"learning_rate must be positive and finite, got {lr}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_adam_overflow_names_the_epoch(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(["gen-dataset", "--task", "purity", "--train-size", 50,
             "--test-size", 10, "--seed", 0, "--out", ds])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--dataset", ds, "--layers", 2, "--epochs", 3,
                        "--lr", "1e308", "--out", tmp_path / "out"])
        assert caught == []
        assert code == 1
        assert capsys.readouterr().err == (
            "error: parameters became non-finite in epoch 1 (learning rate 1e+308)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("layers", ["100000000000", str(MAX_LAYERS + 1), "0", "-2", "x"])
    def test_layer_count_is_bounded_before_allocating(self, tmp_path, capsys, layers):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(["train", "--dataset", tmp_path / "ds", "--layers", layers,
                 "--out", tmp_path / "out"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"reupsim train: error: argument --layers: expected an integer "
                          f"from 1 to {MAX_LAYERS}, got '{layers}'"]

    def test_missing_dataset(self, tmp_path, capsys):
        code = run(["train", "--dataset", tmp_path / "nope", "--out", tmp_path / "out"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_single_check_with_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--check", "swap-test", "--trials", 10, "--out", out]) == 0
        rec = json.loads(out.read_text())
        assert rec["check_name"] == "swap-test"
        assert rec["pass"] is True
        assert rec["trials"] == 10

    def test_all_checks(self, capsys):
        assert run(["verify", "--trials", 10]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all("PASS" in line for line in lines)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_non_positive_trials_is_usage_error(self, capsys, trials):
        for check in (["--check", "swap-test"], []):
            assert run(["verify", *check, "--trials", trials]) == 2
            captured = capsys.readouterr()
            assert f"trials must be at least 1, got {trials}" in captured.err
            assert "PASS" not in captured.out

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--check", "nonsense"])
        assert exc.value.code == 2
        assert "evolution-formula" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen-dataset", "--task", "band", "--out", "ds", "--seed", "-5"],
    ["train", "--dataset", "ds", "--out", "out", "--seed", "-1"],
    ["train", "--dataset", "ds", "--out", "out", "--model-seed", "-1"],
    ["reproduce", "--preset", "hadamard-demo", "--seed", "-1"],
    ["verify", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    option, value = argv[-2:]
    assert f"argument {option}: expected a non-negative integer, got '{value}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestReproduce:
    def test_poly_linear(self, capsys):
        assert run(["reproduce", "--preset", "poly-linear"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1/1 rows pass" in out

    def test_hadamard_demo_deterministic(self, capsys):
        assert run(["reproduce", "--preset", "hadamard-demo", "--seed", 3]) == 0
        first = capsys.readouterr().out
        assert run(["reproduce", "--preset", "hadamard-demo", "--seed", 3]) == 0
        assert capsys.readouterr().out == first
        assert "10/10 rows pass" in first

    def test_failing_row_sets_exit_code(self, capsys):
        rows = [_Row("good", 0.0, 0.0, "<= 1", True), _Row("bad", 0.0, 2.0, "<= 1", False)]
        assert _print_rows(rows) == 1
        assert "1/2 rows pass" in capsys.readouterr().out

    def test_header_keeps_a_gap_before_status(self, capsys):
        # criteria shorter than the word "criterion" must not shorten its column
        _print_rows([_Row("purity L=1 accuracy", 0.51, 0.5, "<= 0.65", True)])
        header, row = capsys.readouterr().out.splitlines()[:2]
        assert "criterion  status" in header
        assert header.index("status") == row.index("PASS")

    def test_unknown_preset_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["reproduce", "--preset", "nonsense"])
        assert exc.value.code == 2


@pytest.mark.parametrize("message, expected", [
    # numpy names the allocation; a MemoryError from Python itself says nothing
    ("Unable to allocate 7.28 TiB for an array",
     "error: not enough memory: Unable to allocate 7.28 TiB for an array\n"),
    ("", "error: not enough memory\n"),
], ids=["numpy", "python"])
def test_out_of_memory_is_a_usage_error(tmp_path, capsys, monkeypatch, message, expected):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("reupsim.cli.generate_dataset", exhausted)
    code = run(["gen-dataset", "--task", "entropy", "--train-size", 100000000000,
                "--test-size", 5, "--out", tmp_path / "ds"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == expected
    assert "Traceback" not in err
