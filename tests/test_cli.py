"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.preset == "small"
        assert args.min_reps == 3

    def test_preset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--preset", "huge"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "figure6" in out

    def test_unknown_experiment(self, capsys):
        assert main(["tableX"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["table3", "--min-reps", "0"], "--min-reps must be >= 1, got 0"),
        (["table3", "--max-cycles", "0"],
         "--max-cycles must be >= 1, got 0"),
        (["table3", "--max-cycles", "-5", "--min-reps", "-1"],
         "--min-reps must be >= 1, got -1; "
         "--max-cycles must be >= 1, got -5"),
        (["table3", "--jobs", "-3"], "--jobs must be >= 0"),
        (["pmu", "--diff", "9"], "--diff must be in -5..5, got 9"),
        (["pmu", "--pmu-sample", "-5"], "--pmu-sample must be >= 0"),
        (["figure2", "--pmu", "--pmu-sample", "-5"],
         "--pmu-sample must be >= 0"),
        (["pmu", "--primary", "nope"],
         "unknown micro-benchmark 'nope' for --primary"),
        (["pmu", "--secondary", "nope"],
         "unknown micro-benchmark 'nope' for --secondary"),
    ], ids=["min_reps", "max_cycles", "both", "jobs", "diff",
            "pmu_sample", "pmu_sample_flag", "primary", "secondary"])
    def test_bad_run_bounds_rejected(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "or 31,31,31" in out
        assert "conformance: OK" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["table1", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload[0]["id"] == "table1"
        assert payload[0]["data"]["failures"] == []

    def test_json_tuple_keys_flattened(self, tmp_path):
        # table4 has nested dicts with plain keys; figure-style tuple
        # keys must serialize too.  Use a tiny custom run via table1
        # plus direct helper check.
        from repro.cli import _jsonable
        flat = _jsonable({("a", "b"): [1, 2], "c": {("x", 1): 3}})
        assert flat == {"a|b": [1, 2], "c": {"x|1": 3}}


class TestCacheCommand:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "--simcache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert "trace cache" in out

    def test_experiment_fills_then_clear_empties(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["modelcheck", "--min-reps", "2",
                "--max-cycles", "200000", "--simcache-dir", cache_dir]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "misses" in cold  # cold run reported cache activity

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 misses" in warm
        # The experiment output itself is identical cold vs warm.
        def strip(text):
            return [line for line in text.splitlines()
                    if "result cache" not in line
                    and "cached runs" not in line]

        assert strip(cold) == strip(warm)

        assert main(["cache", "--simcache-dir", cache_dir,
                     "--clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "--simcache-dir", cache_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_no_simcache_disables_persistence(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["table1", "--no-simcache",
                     "--simcache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert not cache_dir.exists()
