"""Command-line surface: subcommands, config round-trip, determinism, errors."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sonsim
import sonsim.engine
from sonsim.cli import main
from sonsim.config import Config, ConfigError


FAST = ["--np", "24", "--nsp", "3", "--friends-per-sp", "2",
        "--queries-per-peer", "2", "--seed", "7"]


def run_cli(*argv):
    return main(list(argv))


def hash_dir(path: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir()) if f.is_file()
    }


class TestConfigFile:
    def test_round_trip_is_lossless(self, tmp_path):
        config = Config(seed=99, np=120, nsp=6, eps_acc=0.25, workload_mode="replay")
        path = tmp_path / "config.txt"
        path.write_text(config.to_text())
        assert Config.from_text(path.read_text()) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("bogus = 3\n")
        with pytest.raises(ConfigError, match="bogus"):
            Config.from_text(path.read_text())

    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="eps_acc"):
            Config(eps_acc=2.0).validate()

    def test_nsp_beyond_the_two_letter_domain_labels_rejected(self):
        Config(np=700, nsp=676).validate()  # 26 * 26 labels: the largest valid count
        with pytest.raises(ConfigError, match="676") as excinfo:
            Config(np=700, nsp=677).validate()
        assert excinfo.value.field == "nsp"

    @pytest.mark.parametrize("text, field, problem", [
        ("nsp = 0", "nsp", "at least one super-peer"),
        ("sp_expertise_size = 0", "sp_expertise_size", "must be >= 1"),
        ("friends_per_sp = 10", "friends_per_sp", "must lie in [0, nsp), got 10"),
        ("dup_count = 0", "dup_count", "must be >= 1"),
        ("dup_count = 13", "dup_count", "cannot exceed sp_expertise_size"),
        ("min_peer_expertise = 0", "min_peer_expertise", "must lie in [1, sp_expertise_size]"),
        ("min_peer_expertise = 13", "min_peer_expertise", "must lie in [1, sp_expertise_size]"),
        ("n_components = 0", "n_components", "at least one component"),
        ("queries_per_peer = -1", "queries_per_peer", "must be >= 0"),
        ("eps_acc = -0.1", "eps_acc", "must lie in [0, 1], got -0.1"),
        ("max_hops = -2", "max_hops", "-1 for unbounded"),
        ("tau_trust = 0", "tau_trust", "must be >= 1"),
        ("min_leaf = 0", "min_leaf", "must be >= 1"),
        ("refresh_every = -1", "refresh_every", "must be >= 0"),
        ("workload_mode = warm", "workload_mode", "got 'warm'"),
        ("# np = 30\nnp 30", "config-file", "line 2: expected 'key = value'"),
        ("np = many", "np", "expected an integer, got 'many'"),
        ("eps_acc = half", "eps_acc", "expected a number, got 'half'"),
        ("np = 100\nnsp = 5\nnp = 40", "np", "line 3: repeats the key of line 1"),
    ])
    def test_bad_config_text_names_the_field(self, text, field, problem):
        with pytest.raises(ConfigError) as excinfo:
            Config.from_text(text + "\n").validate()
        assert excinfo.value.field == field
        assert problem in str(excinfo.value)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("# comment\n\nseed = 5\nnp = 30\nnsp = 3\nfriends_per_sp = 2\n")
        config = Config.from_text(path.read_text())
        assert config.seed == 5
        assert config.np == 30


class TestGenerate:
    def test_writes_network_file(self, tmp_path, capsys):
        code = run_cli("generate", *FAST, "--outdir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "network.txt").exists()
        out = capsys.readouterr().out
        assert out.count("sp ") == 3  # one line per community

    def test_rejects_np_below_nsp(self, tmp_path, capsys):
        code = run_cli("generate", "--np", "2", "--nsp", "5",
                       "--outdir", str(tmp_path))
        assert code == 2
        assert "np" in capsys.readouterr().err

    def test_same_seed_same_file(self, tmp_path):
        run_cli("generate", *FAST, "--outdir", str(tmp_path / "a"))
        run_cli("generate", *FAST, "--outdir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "network.txt").read_bytes() == \
            (tmp_path / "b" / "network.txt").read_bytes()


class TestRun:
    def test_both_strategies_emit_two_summary_rows(self, tmp_path):
        assert run_cli("run", "--strategy", "both", *FAST,
                       "--outdir", str(tmp_path)) == 0
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 3  # header + baseline + ksp
        assert lines[1].startswith("baseline,")
        assert lines[2].startswith("ksp,")

    def test_baseline_strategy_emits_no_tree_files(self, tmp_path):
        assert run_cli("run", "--strategy", "baseline", *FAST,
                       "--outdir", str(tmp_path)) == 0
        assert not list(tmp_path.glob("*.tree.txt"))
        assert not list(tmp_path.glob("*.arff"))
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_ksp_strategy_emits_group_artifacts(self, tmp_path):
        assert run_cli("run", "--strategy", "ksp", *FAST,
                       "--outdir", str(tmp_path)) == 0
        assert list(tmp_path.glob("group*.arff"))
        assert list(tmp_path.glob("group*.tree.txt"))
        assert (tmp_path / "ksp_log.tsv").exists()
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("ksp,")

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        run_cli("run", "--strategy", "both", *FAST, "--outdir", str(tmp_path / "a"))
        run_cli("run", "--strategy", "both", *FAST, "--outdir", str(tmp_path / "b"))
        assert hash_dir(tmp_path / "a") == hash_dir(tmp_path / "b")

    def test_metrics_csv_has_fixed_columns(self, tmp_path):
        run_cli("run", "--strategy", "both", *FAST, "--outdir", str(tmp_path))
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == ("strategy,query_id,response_time,precision,recall,"
                          "sp_precision,mapping_ops,hops,tree_visits")

    def test_external_train_log_is_reused(self, tmp_path):
        run_cli("run", "--strategy", "baseline", *FAST,
                "--outdir", str(tmp_path / "first"))
        code = run_cli("run", "--strategy", "ksp", *FAST,
                       "--train-log", str(tmp_path / "first" / "train_log.tsv"),
                       "--outdir", str(tmp_path / "second"))
        assert code == 0
        assert (tmp_path / "second" / "metrics.csv").exists()

    def test_replaying_own_train_log_writes_identical_files(self, tmp_path):
        flags = [*FAST, "--refresh-every", "5"]
        assert run_cli("run", "--strategy", "both", *flags,
                       "--outdir", str(tmp_path / "first")) == 0
        assert run_cli("run", "--strategy", "both", *flags,
                       "--train-log", str(tmp_path / "first" / "train_log.tsv"),
                       "--outdir", str(tmp_path / "second")) == 0
        assert hash_dir(tmp_path / "second") == hash_dir(tmp_path / "first")

    @pytest.mark.parametrize("argv", [
        ["run", "--np", "30", "--nsp", "5", "--workload-mode", "replay"],
        ["run", "--np", "30", "--nsp", "5", "--workload-mode", "fresh"],
        ["sweep", "--sizes", "30:5,60:6"],
    ], ids=["replay", "fresh", "sweep"])
    def test_no_queries_to_generate_is_named_and_writes_nothing(self, tmp_path, capsys, argv):
        code = run_cli(*argv, "--queries-per-peer", "0", "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == ("sonsim: invalid configuration: queries_per_peer: "
                                           "must be >= 1 to generate a workload\n")
        assert not (tmp_path / "out").exists()

    def test_replaying_a_train_log_generates_no_queries(self, tmp_path):
        assert run_cli("run", *FAST, "--outdir", str(tmp_path / "first")) == 0
        log = str(tmp_path / "first" / "train_log.tsv")
        assert run_cli("run", *FAST, "--train-log", log, "--outdir", str(tmp_path / "default")) == 0
        assert run_cli("run", *FAST, "--train-log", log, "--queries-per-peer", "0",
                       "--outdir", str(tmp_path / "zero")) == 0
        default, zero = hash_dir(tmp_path / "default"), hash_dir(tmp_path / "zero")
        differ = {name for name in default if default[name] != zero.get(name)}
        assert zero.keys() == default.keys()
        assert differ == {"config.txt", "network.txt"}  # each prints the config
        assert "queries_per_peer = 0\n" in (tmp_path / "zero" / "config.txt").read_text()

    @pytest.mark.parametrize("field, value, problem", [
        (1, "x", "origin peer 'x' is not an integer"),
        (2, "x", "origin super-peer 'x' is not an integer"),
        (-1, "0,y", "answering super-peer 'y' is not an integer"),
        (3, "kf", "malformed expertise element: 'kf'"),
        (4, "a,b.c", "malformed expertise element: 'a,b.c'"),
        (0, None, "duplicate query id in log: "),
    ], ids=["peer", "super-peer", "answering", "element", "element-token", "duplicate-id"])
    def test_bad_log_field_names_file_and_line(self, tmp_path, capsys, field, value, problem):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path / "log"))
        lines = (tmp_path / "log" / "train_log.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        fields[field] = lines[0].split("\t")[0] if value is None else value
        lines[1] = "\t".join(fields)
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("run", *FAST, "--train-log", str(bad), "--outdir", str(tmp_path / "out"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sonsim: error: {bad}: line 2: {problem}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("np_, nsp, problem", [
        ("40", "3", "peer 24 under super-peer 0"),  # peers 24.. are not in a 24-peer run
        ("24", "4", "peer 3 under super-peer 3"),  # peer 3 is under super-peer 0 at nsp 3
    ])
    def test_train_log_from_another_network_rejected(self, tmp_path, capsys, np_, nsp, problem):
        other = ["--np", np_, "--nsp", nsp, "--friends-per-sp", "2",
                 "--queries-per-peer", "2", "--seed", "7"]
        run_cli("run", "--strategy", "baseline", *other, "--outdir", str(tmp_path / "other"))
        capsys.readouterr()
        code = run_cli("run", "--strategy", "both", *FAST,
                       "--train-log", str(tmp_path / "other" / "train_log.tsv"),
                       "--outdir", str(tmp_path / "run"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sonsim: error: train log record ")
        assert f"{problem} is not in this network" in err

    def test_train_log_from_another_seed_rejected(self, tmp_path, capsys):
        """Same peer count, super-peer count and round-robin attachment, so
        every origin passes; the components come from another vocabulary."""
        other = [*FAST[:-1], "9"]
        run_cli("run", "--strategy", "baseline", *other, "--outdir", str(tmp_path / "other"))
        capsys.readouterr()
        code = run_cli("run", "--strategy", "both", *FAST,
                       "--train-log", str(tmp_path / "other" / "train_log.tsv"),
                       "--outdir", str(tmp_path / "run"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sonsim: error: train log record ")
        assert "is not in the expertise of peer" in err
        assert not (tmp_path / "run").exists()

    def test_train_log_with_other_component_count_rejected(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--n-components", "3",
                "--outdir", str(tmp_path / "other"))
        capsys.readouterr()
        code = run_cli("run", "--strategy", "both", *FAST,
                       "--train-log", str(tmp_path / "other" / "train_log.tsv"),
                       "--outdir", str(tmp_path / "run"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sonsim: error: train log record ")
        assert "3 query components, but n_components is 4" in err
        assert not (tmp_path / "run").exists()

    def test_train_log_naming_an_unknown_answering_super_peer_rejected(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path / "log"))
        lines = (tmp_path / "log" / "train_log.tsv").read_text().splitlines()
        forged = tmp_path / "forged.tsv"
        forged.write_text("".join(line + ("" if line.endswith("\t-") else ",77") + "\n"
                                  for line in lines))
        first = next(line.split("\t")[0] for line in lines if not line.endswith("\t-"))
        capsys.readouterr()
        code = run_cli("run", *FAST, "--train-log", str(forged), "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"sonsim: error: train log record {first}: "
            "answering super-peer 77 is not in this network")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, log_flag, flags", [
        ("run", "--train-log", FAST),
        ("train-index", "--log", []),
    ], ids=["run", "train-index"])
    def test_log_with_mixed_component_counts_rejected(self, tmp_path, capsys,
                                                      command, log_flag, flags):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path / "log"))
        lines = (tmp_path / "log" / "train_log.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        lines[1] = "\t".join(fields[:3] + fields[4:])  # one component fewer
        mixed = tmp_path / "mixed.tsv"
        mixed.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(command, *flags, log_flag, str(mixed), "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"sonsim: error: {mixed}: line 2: 3 query components, but the first record has 4")
        assert not (tmp_path / "out").exists()

    def test_each_log_record_is_rendered_at_most_once(self, tmp_path, monkeypatch):
        import sonsim.cli
        import sonsim.ksp
        rendered = []
        original = sonsim.ksp.instances_from_records

        def counting(records):
            records = list(records)
            rendered.extend(r.query_id for r in records)
            return original(records)

        for module in (sonsim.ksp, sonsim.cli):
            monkeypatch.setattr(module, "instances_from_records", counting)
        assert run_cli("run", "--strategy", "both", *FAST, "--refresh-every", "5",
                       "--outdir", str(tmp_path)) == 0
        routed = len((tmp_path / "ksp_log.tsv").read_text().splitlines())
        trained = len((tmp_path / "train_log.tsv").read_text().splitlines())
        assert len(rendered) == len(set(rendered)) == trained + routed - routed % 5

    def test_train_log_without_answered_queries_rejected(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path / "log"))
        lines = (tmp_path / "log" / "train_log.tsv").read_text().splitlines()
        unanswered = tmp_path / "unanswered.tsv"
        unanswered.write_text("".join(line.rsplit("\t", 1)[0] + "\t-\n" for line in lines))
        capsys.readouterr()
        code = run_cli("run", *FAST, "--train-log", str(unanswered),
                       "--outdir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "sonsim: error: log contains no answered queries to learn from")
        assert not (tmp_path / "out").exists()

    def test_missing_train_log_fails(self, tmp_path, capsys):
        code = run_cli("run", "--strategy", "ksp", *FAST,
                       "--workload-mode", "replay",
                       "--train-log", str(tmp_path / "nope.tsv"),
                       "--outdir", str(tmp_path))
        assert code == 1
        assert "train log" in capsys.readouterr().err

    def test_non_finite_cost_rejected(self, tmp_path, capsys):
        code = run_cli("run", "--np", "100", "--nsp", "5", "--c-tree", "inf",
                       "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "c_tree" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_with_overrides(self, tmp_path):
        config_path = tmp_path / "config.txt"
        config_path.write_text(Config(np=24, nsp=3, friends_per_sp=2, queries_per_peer=2,
                                      seed=7).to_text())
        code = run_cli("run", "--strategy", "baseline", "--config",
                       str(config_path), "--queries-per-peer", "1",
                       "--outdir", str(tmp_path / "out"))
        assert code == 0
        saved = Config.from_text((tmp_path / "out" / "config.txt").read_text())
        assert saved.queries_per_peer == 1  # override wins
        assert saved.np == 24

    def test_reports_group_count_and_warns_on_one_group(self, tmp_path, capsys):
        # At the default tau_trust every friend link qualifies: one group.
        assert run_cli("run", "--strategy", "ksp", *FAST,
                       "--outdir", str(tmp_path / "one")) == 0
        captured = capsys.readouterr()
        assert "ksp groups: 1, largest 3 super-peers" in captured.out
        assert "warning: all 3 super-peers form one group" in captured.err
        # The report goes to the streams only, never to the output directory.
        assert sorted(f.name for f in (tmp_path / "one").iterdir()) == [
            "config.txt", "group0.arff", "group0.tree.txt", "ksp_log.tsv",
            "metrics.csv", "network.txt", "summary.csv", "train_log.tsv"]

        assert run_cli("run", "--strategy", "ksp", *FAST, "--tau-trust", "10000",
                       "--outdir", str(tmp_path / "singletons")) == 0
        captured = capsys.readouterr()
        assert "ksp groups: 3, largest 1 super-peers" in captured.out
        assert captured.err == ""

    def test_baseline_strategy_reports_no_groups(self, tmp_path, capsys):
        assert run_cli("run", "--strategy", "baseline", *FAST,
                       "--outdir", str(tmp_path)) == 0
        captured = capsys.readouterr()
        assert "ksp groups" not in captured.out
        assert captured.err == ""

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SONSIM_OUTDIR", str(tmp_path / "envdir"))
        assert run_cli("generate", *FAST, "--outdir", str(tmp_path / "flagdir")) == 0
        assert (tmp_path / "envdir" / "network.txt").exists()


class TestSweep:
    def test_two_sizes_give_four_rows(self, tmp_path):
        code = run_cli("sweep", "--sizes", "20:2,30:3", "--queries-per-peer", "1",
                       "--friends-per-sp", "1", "--seed", "3",
                       "--outdir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 2 sizes x 2 strategies

    def test_each_point_is_validated_with_its_own_size(self, tmp_path, capsys):
        # friends_per_sp 11 is valid at 12 super-peers, not at the default nsp of 10.
        code = run_cli("sweep", "--sizes", "60:12", "--friends-per-sp", "11",
                       "--queries-per-peer", "1", "--outdir", str(tmp_path))
        assert code == 0, capsys.readouterr().err
        lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 1 size x 2 strategies

    def test_an_invalid_later_point_stops_the_sweep_before_any_run(self, tmp_path, capsys,
                                                                    monkeypatch):
        runs = []
        monkeypatch.setattr(sonsim.engine, "run_pipeline",
                            lambda config: runs.append(config))
        code = run_cli("sweep", "--sizes", "5000:54,20:30", "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert runs == []
        assert "need np >= nsp, got np=20 nsp=30" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("flag", ["--np", "--nsp"])
    def test_size_flags_rejected(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("sweep", "--sizes", "20:2", flag, "5", "--outdir", str(tmp_path))
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_duplicate_sizes_rejected(self, tmp_path, capsys):
        code = run_cli("sweep", "--sizes", "20:2,20:2", "--outdir", str(tmp_path))
        assert code == 1
        assert "duplicate" in capsys.readouterr().err

    def test_malformed_sizes_rejected(self, tmp_path):
        assert run_cli("sweep", "--sizes", "20-2", "--outdir", str(tmp_path)) == 1

    @pytest.mark.parametrize("chunk", ["a:10", "20:x", "20:2:1"])
    def test_bad_size_is_named(self, tmp_path, capsys, chunk):
        code = run_cli("sweep", "--sizes", f"20:2,{chunk}", "--outdir", str(tmp_path))
        assert code == 1
        assert f"size '{chunk}' is not of form NP:NSP" in capsys.readouterr().err

    def test_seed_derivation_is_stable(self):
        from sonsim.config import derive_seed
        # Documented formula: seed + 100003 * (index + 1), mod 2**63.
        assert derive_seed(42, 0) == 100045
        assert derive_seed(42, 3) == 42 + 100003 * 4
        assert derive_seed(2**63 - 1, 0) == (2**63 - 1 + 100003) % 2**63


class TestTrainIndexAndRender:
    def test_train_index_pipeline(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        code = run_cli("train-index", "--log", str(tmp_path / "train_log.tsv"),
                       "--outdir", str(tmp_path / "idx"))
        assert code == 0
        assert (tmp_path / "idx" / "dataset.arff").exists()
        assert (tmp_path / "idx" / "index.tree.txt").exists()
        out = capsys.readouterr().out
        assert "training accuracy" in out
        assert "held-out accuracy" in out

    def test_dataset_relation_is_the_constant_querylog(self, tmp_path):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        log = str(tmp_path / "train_log.tsv")
        with pytest.raises(SystemExit):
            run_cli("train-index", "--log", log, "--relation", "other",
                    "--outdir", str(tmp_path / "idx"))
        assert run_cli("train-index", "--log", log, "--outdir", str(tmp_path / "idx")) == 0
        arff = (tmp_path / "idx" / "dataset.arff").read_text()
        assert arff.startswith("@relation querylog\n")

    def test_render_tree_prints_grammar(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        run_cli("train-index", "--log", str(tmp_path / "train_log.tsv"),
                "--outdir", str(tmp_path / "idx"))
        capsys.readouterr()
        code = run_cli("render-tree", "--arff", str(tmp_path / "idx" / "dataset.arff"))
        assert code == 0
        out = capsys.readouterr().out
        assert "composanteW" in out

    @pytest.mark.parametrize("holdout", ["1.5", "1.0", "-0.2"])
    def test_holdout_outside_unit_interval_rejected(self, tmp_path, capsys, holdout):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        capsys.readouterr()
        code = run_cli("train-index", "--log", str(tmp_path / "train_log.tsv"),
                       "--holdout", holdout, "--outdir", str(tmp_path / "idx"))
        assert code == 1
        assert "--holdout" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("min_leaf", ["0", "-3"])
    def test_train_index_min_leaf_below_one_rejected(self, tmp_path, capsys, min_leaf):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        capsys.readouterr()
        code = run_cli("train-index", "--log", str(tmp_path / "train_log.tsv"),
                       "--min-leaf", min_leaf, "--outdir", str(tmp_path / "idx"))
        assert code == 1
        assert "--min-leaf" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("min_leaf", ["0", "-3"])
    def test_render_tree_min_leaf_below_one_rejected(self, tmp_path, capsys, min_leaf):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        run_cli("train-index", "--log", str(tmp_path / "train_log.tsv"),
                "--outdir", str(tmp_path / "idx"))
        capsys.readouterr()
        code = run_cli("render-tree", "--arff", str(tmp_path / "idx" / "dataset.arff"),
                       "--min-leaf", min_leaf)
        assert code == 1
        captured = capsys.readouterr()
        assert "--min-leaf" in captured.err
        assert captured.out == ""

    def test_zero_holdout_skips_held_out_accuracy(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        code = run_cli("train-index", "--log", str(tmp_path / "train_log.tsv"),
                       "--holdout", "0", "--outdir", str(tmp_path / "idx"))
        assert code == 0
        assert "held-out accuracy" not in capsys.readouterr().out

    def test_log_too_short_for_holdout_says_so(self, tmp_path, capsys):
        run_cli("run", "--strategy", "baseline", *FAST, "--outdir", str(tmp_path))
        lines = (tmp_path / "train_log.tsv").read_text().splitlines()
        answered = next(line for line in lines if not line.endswith("\t-"))
        (tmp_path / "one.tsv").write_text(answered + "\n")
        capsys.readouterr()
        code = run_cli("train-index", "--log", str(tmp_path / "one.tsv"),
                       "--outdir", str(tmp_path / "idx"))
        assert code == 0
        out = capsys.readouterr().out
        assert "held-out accuracy skipped: too few records (1) for a 20% holdout" in out

    def test_holdout_prefix_without_an_answered_query_says_so(self, tmp_path, capsys):
        answers = ["-", "-", "-", "-", "0"]
        log = tmp_path / "late.tsv"
        log.write_text("".join(f"q{i}\t{i}\t0\ta.b\tc.d\t{answer}\n"
                               for i, answer in enumerate(answers)))
        code = run_cli("train-index", "--log", str(log), "--outdir", str(tmp_path / "idx"))
        assert code == 0
        assert (tmp_path / "idx" / "dataset.arff").exists()
        assert (tmp_path / "idx" / "index.tree.txt").exists()
        out = capsys.readouterr().out
        assert "training accuracy (instances)" in out
        assert ("held-out accuracy skipped: no answered query in the first 4 records "
                "to learn from") in out

    def test_missing_log_fails_cleanly(self, tmp_path):
        assert run_cli("train-index", "--log", str(tmp_path / "missing.tsv"),
                       "--outdir", str(tmp_path)) == 1


class TestUnusableInput:
    @pytest.mark.parametrize("case, message", [
        ("missing-arff", "ARFF file not found: {tmp}/none.arff"),
        ("arff-without-rows", "ARFF file contains no data rows"),
        ("log-without-answers", "log contains no answered queries to learn from"),
        ("no-sizes", "no sizes given"),
        ("log-element-outside-token-rule",
         "{tmp}/token.tsv: line 1: malformed expertise element: 'a,b.c'"),
    ])
    def test_is_named_and_writes_nothing(self, tmp_path, capsys, case, message):
        arff = tmp_path / "empty.arff"
        arff.write_text("@relation rel\n@attribute class {}\n@data\n")
        log = tmp_path / "unanswered.tsv"
        log.write_text("q0\t0\t0\ta.b\tc.d\t-\n")
        token = tmp_path / "token.tsv"  # a comma would split the element's ARFF field
        token.write_text("q0\t0\t0\ta,b.c\tc.d\t0\n")
        out = str(tmp_path / "out")
        argv = {
            "missing-arff": ["render-tree", "--arff", str(tmp_path / "none.arff")],
            "arff-without-rows": ["render-tree", "--arff", str(arff)],
            "log-without-answers": ["train-index", "--log", str(log), "--outdir", out],
            "no-sizes": ["sweep", "--sizes", ",", "--outdir", out],
            "log-element-outside-token-rule": ["train-index", "--log", str(token),
                                               "--outdir", out],
        }[case]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"sonsim: error: {message.format(tmp=tmp_path)}\n"
        assert not (tmp_path / "out").exists()


def test_python_dash_m_runs_the_command_line():
    src = str(Path(sonsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "sonsim", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: sonsim" in done.stdout


def test_outputs_do_not_depend_on_string_hash_order(tmp_path):
    """A run writes the same bytes under two string hash seeds. Tests run in
    one process, under one seed, so a draw or an output that iterates a set
    of strings would pass them all and still differ between processes."""
    src = str(Path(sonsim.__file__).resolve().parents[1])
    digests = []
    for hash_seed in ("0", "1"):
        env = {k: v for k, v in os.environ.items() if k != "SONSIM_OUTDIR"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env["PYTHONHASHSEED"] = hash_seed
        outdir = tmp_path / hash_seed
        done = subprocess.run([sys.executable, "-m", "sonsim", "run", "--np", "300", "--nsp", "10",
                               "--refresh-every", "5", "--outdir", str(outdir)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(hash_dir(outdir))
    assert len(digests[0]) > 5
    assert digests[0] == digests[1]
