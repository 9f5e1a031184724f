"""End-to-end tests of the command-line harness via subprocess."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import projdiff

# Directory holding the projdiff package this test process imported. The child
# interpreter gets it as an absolute PYTHONPATH entry, so it runs the same code
# whether or not the package is installed and whatever its working directory.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(projdiff.__file__)))

VOCAB = "#mask [MASK]\na\nb\nc\nd\n[MASK]\n"
CORPUS = "a b a c\t3\nb c a a\t2\nc c b a\t2\na d b b\t1\nd a c b\t1\nb b a c\t1\n"
CONSTRAINTS = [
    {"type": "token_count", "token": "a", "op": "le", "k": 2},
    {"type": "forbidden", "token": "d"},
]


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "projdiff.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def make_workspace(tmp_path, constraints=CONSTRAINTS, sample=None, extra=None):
    (tmp_path / "vocab.txt").write_text(VOCAB)
    (tmp_path / "corpus.txt").write_text(CORPUS)
    (tmp_path / "constraints.json").write_text(json.dumps(constraints))
    sample_cfg = {
        "steps": 6,
        "num_samples": 4,
        "rng_seed": 9,
        "kernel": "masked",
        "infeasible_policy": "retry",
        "max_retries": 8,
        "trace": True,
    }
    if sample:
        sample_cfg.update(sample)
    config = {
        "vocab": "vocab.txt",
        "corpus": "corpus.txt",
        "constraints": "constraints.json",
        "out_dir": "out",
        "sample": sample_cfg,
        "alm": {"max_outer_iter": 12},
        "oracle": {"cases": 8},
    }
    if extra:
        config.update(extra)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


class TestSample:
    def test_writes_outputs(self, tmp_path):
        cfg = make_workspace(tmp_path)
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out"
        samples = (out / "samples.txt").read_text().splitlines()
        assert len(samples) == 4
        assert all(len(line.split()) == 4 for line in samples)
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "sample",
            "step",
            "projected",
            "pre_violation",
            "post_violation",
            "kl_moved",
            "outer_iters",
        ]
        assert len(rows) == 1 + 6 * 4
        summary = json.loads((out / "metrics.json").read_text())
        assert summary["violation_rate"] == 0.0
        assert summary["n_samples"] == 4
        fallbacks = summary["denoiser_fallbacks"]
        assert isinstance(fallbacks, int) and fallbacks >= 0

    def test_deterministic_reruns(self, tmp_path):
        cfg = make_workspace(tmp_path)
        for name in ("run1", "run2"):
            proc = run_cli("sample", "--config", str(cfg), "--out", str(tmp_path / name))
            assert proc.returncode == 0, proc.stderr
        for fname in ("samples.txt", "trace.csv", "metrics.json"):
            b1 = (tmp_path / "run1" / fname).read_bytes()
            b2 = (tmp_path / "run2" / fname).read_bytes()
            assert b1 == b2, f"{fname} differs between identical runs"

    def test_seed_override_changes_output(self, tmp_path):
        cfg = make_workspace(tmp_path)
        run_cli("sample", "--config", str(cfg), "--out", str(tmp_path / "a"))
        run_cli("sample", "--config", str(cfg), "--seed", "123", "--out", str(tmp_path / "b"))
        t1 = (tmp_path / "a" / "trace.csv").read_bytes()
        t2 = (tmp_path / "b" / "trace.csv").read_bytes()
        assert t1 != t2

    def test_retry_exhaustion_exits_2(self, tmp_path):
        impossible = [
            {"type": "position", "position": 0, "token": "a"},
            {"type": "forbidden", "token": "a"},
        ]
        cfg = make_workspace(tmp_path, constraints=impossible, sample={"max_retries": 1})
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 2
        assert "sampling failed" in proc.stderr

    def test_continue_policy_emits_and_exits_2(self, tmp_path):
        impossible = [
            {"type": "position", "position": 0, "token": "a"},
            {"type": "forbidden", "token": "a"},
        ]
        cfg = make_workspace(
            tmp_path,
            constraints=impossible,
            sample={"infeasible_policy": "continue", "num_samples": 2},
        )
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 2
        assert "infeasible" in proc.stderr
        assert len((tmp_path / "out" / "samples.txt").read_text().splitlines()) == 2

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_exit_code_allows_the_sampler_slack(self, tmp_path, delta):
        # The sampler passes a chain whose violations are all at most
        # alm.delta, and the exit code judges emitted samples the same
        # way; violation_rate stays the share violating by any amount.
        alm = {"max_outer_iter": 12, "delta": delta}
        cfg = make_workspace(tmp_path, extra={"alm": alm})
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        rate = json.loads((tmp_path / "out" / "metrics.json").read_text())["violation_rate"]
        assert (rate > 0.0) == (delta > 0.0)


class TestEval:
    def test_recomputes_metrics(self, tmp_path):
        cfg = make_workspace(tmp_path)
        assert run_cli("sample", "--config", str(cfg)).returncode == 0
        (tmp_path / "out" / "metrics.json").unlink()
        proc = run_cli("eval", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        printed = json.loads(proc.stdout)
        on_disk = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert printed == on_disk
        assert printed["violation_rate"] == 0.0

    def test_undefined_statistics_are_null(self, tmp_path):
        # With no samples the perplexity and entropy means are undefined;
        # metrics.json and eval's output stay strict JSON.
        def strict(text):
            def reject(name):
                raise ValueError(f"non-standard JSON constant {name}")

            return json.loads(text, parse_constant=reject)

        cfg = make_workspace(tmp_path, sample={"num_samples": 0})
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        sampled = strict((tmp_path / "out" / "metrics.json").read_text())
        proc = run_cli("eval", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        printed = strict(proc.stdout)
        assert printed == strict((tmp_path / "out" / "metrics.json").read_text())
        for summary in (sampled, printed):
            for key in ("mean_perplexity", "median_perplexity", "mean_entropy"):
                assert summary[key] is None
            assert summary["n_samples"] == 0

    def test_explicit_samples_path(self, tmp_path):
        cfg = make_workspace(tmp_path, extra={"eval": {"samples": "alt.txt"}})
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "alt.txt").write_text("a b c a\nd d d d\n")
        proc = run_cli("eval", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["violation_rate"] == 0.5

    def test_missing_samples_is_error(self, tmp_path):
        cfg = make_workspace(tmp_path)
        proc = run_cli("eval", "--config", str(cfg))
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestOracleCheck:
    def test_all_suites_pass(self, tmp_path):
        cfg = make_workspace(tmp_path)
        proc = run_cli("oracle-check", "--config", str(cfg))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for suite in ("denoiser", "projection", "novelty"):
            assert f"{suite}" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_corrupted_denoiser_fails(self, tmp_path):
        cfg = make_workspace(tmp_path, extra={"oracle": {"cases": 8, "corrupt_denoiser": True}})
        proc = run_cli("oracle-check", "--config", str(cfg))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_wrong_pooling_rule_fails_projection_suite(self, monkeypatch, capsys):
        # Pooling every competitor still decodes to the target, but moves
        # more mass than needed; the suite's optimum must not move with it.
        from projdiff import cli, projection

        def alm_excess():
            return float(re.search(r"worst ALM excess = (\S+),", capsys.readouterr().out).group(1))

        def pool_every_token(row, token, eps=projection.ARGMAX_EPS):
            vals = row.tolist()
            if vals.index(max(vals)) == token:
                return row
            level = sum(vals) / len(vals)
            eps = min(eps, level / 2)
            out = np.full_like(row, level - eps)
            out[token] = level + (len(vals) - 1) * eps
            return out

        assert cli._check_projection(None, np.random.default_rng(0), 40)
        assert alm_excess() <= 1e-2
        monkeypatch.setattr(projection, "_force_argmax_row", pool_every_token)
        assert not cli._check_projection(None, np.random.default_rng(0), 40)
        assert alm_excess() > 1e-2


class TestAblate:
    def test_grid_rows(self, tmp_path):
        cfg = make_workspace(
            tmp_path,
            extra={"ablate": {"eta": [0.2, 0.4], "project_every": [1, 2]}},
        )
        proc = run_cli("ablate", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "out" / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        combos = {(row["eta"], row["project_every"]) for row in rows}
        assert combos == {("0.2", "1"), ("0.2", "2"), ("0.4", "1"), ("0.4", "2")}
        assert all(row["violation_rate"] == "0.0" for row in rows)
        assert all(float(row["runtime_s"]) >= 0.0 for row in rows)

    def test_unknown_parameter(self, tmp_path):
        cfg = make_workspace(tmp_path, extra={"ablate": {"bogus": [1]}})
        proc = run_cli("ablate", "--config", str(cfg))
        assert proc.returncode == 1
        assert "bogus" in proc.stderr

    def test_empty_grid(self, tmp_path):
        cfg = make_workspace(tmp_path, extra={"ablate": {"eta": []}})
        proc = run_cli("ablate", "--config", str(cfg))
        assert proc.returncode == 1
        assert "empty" in proc.stderr

    @pytest.mark.parametrize(
        "grid, named",
        [
            (["eta"], "JSON object"),
            ({"eta": 0.2}, "eta"),
            ({"eta": [0.2, 0]}, "'eta': 0"),
            ({"project_every": [1, "x"]}, "'project_every': 'x'"),
            ({"max_inner_iter": [1.5]}, "'max_inner_iter': 1.5"),
        ],
    )
    def test_malformed_grid_fails_before_sampling(self, tmp_path, grid, named):
        cfg = make_workspace(tmp_path, extra={"ablate": grid})
        proc = run_cli("ablate", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "ablation.csv").exists()


class TestUsageAndErrors:
    def test_help_exits_0(self):
        assert run_cli("--help").returncode == 0

    def test_missing_subcommand(self):
        assert run_cli().returncode == 1

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 1

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("sample", "--config", str(tmp_path / "nope.json"))
        assert proc.returncode == 1
        assert "cannot read config" in proc.stderr

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("sample", "--config", str(bad))
        assert proc.returncode == 1
        assert "not valid JSON" in proc.stderr

    def test_non_object_root(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert run_cli("sample", "--config", str(bad)).returncode == 1

    def test_missing_vocab_key(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"corpus": "x"}))
        proc = run_cli("sample", "--config", str(bad))
        assert proc.returncode == 1
        assert "missing required key" in proc.stderr

    @pytest.mark.parametrize("command", ["sample", "eval", "oracle-check", "ablate"])
    def test_constraint_outside_sequence_length(self, tmp_path, command):
        # The corpus sequences have length 4.
        cfg = make_workspace(tmp_path, constraints=[{"type": "position", "position": 9, "token": "a"}])
        proc = run_cli(command, "--config", str(cfg))
        assert proc.returncode == 1
        assert "error: bad constraint file: position[9]=0" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_sample_setting(self, tmp_path):
        cfg = make_workspace(tmp_path, sample={"steps": 0})
        assert run_cli("sample", "--config", str(cfg)).returncode == 1

    @pytest.mark.parametrize(
        "sample, args",
        [
            ({"steps": 16.5}, ()),
            ({"num_samples": 2.5}, ()),
            ({"rng_seed": 1.5}, ()),
            ({"max_retries": True}, ()),
            ({}, ("--seed", "-1")),
        ],
    )
    def test_non_integer_or_negative_count_is_an_error_line(self, tmp_path, sample, args):
        cfg = make_workspace(tmp_path, sample=sample)
        proc = run_cli("sample", "--config", str(cfg), *args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: bad sample/alm settings")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "removed",
        [{"mu_max": 1000.0}, {"alpha_scale": 2.0}, {"lambda_init": 0.0}, {"relax": {"temperature": 0.5}}],
    )
    def test_removed_alm_setting_is_an_error_line(self, tmp_path, removed):
        # These are constants of the solver now, not settings.
        cfg = make_workspace(tmp_path, extra={"alm": {"max_outer_iter": 12, **removed}})
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: bad sample/alm settings")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out" / "samples.txt").exists()

    def test_nan_tau_is_a_bad_constraint_file(self, tmp_path):
        # Python's json reads and writes the bare constant NaN.
        cfg = make_workspace(tmp_path, constraints=[{**CONSTRAINTS[0], "tau": float("nan")}])
        assert "NaN" in (tmp_path / "constraints.json").read_text()
        proc = run_cli("sample", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: bad constraint file")
        assert "Traceback" not in proc.stderr

    def test_config_relative_paths(self, tmp_path):
        cfg = make_workspace(tmp_path)
        proc = run_cli("sample", "--config", os.path.relpath(cfg, tmp_path), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "samples.txt").exists()


def test_console_script_installed(tmp_path):
    exe = shutil.which("projdiff") or os.path.join(os.path.dirname(sys.executable), "projdiff")
    if not os.path.exists(exe):
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sample" in proc.stdout
