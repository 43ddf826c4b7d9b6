"""Tests for the ``jrpm`` command-line interface."""

import pytest

from repro.jrpm.cli import main


class TestCLI:
    def test_list_shows_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Huffman", "moldyn", "mp3"):
            assert name in out
        assert len(out.strip().splitlines()) == 26

    def test_run_workload_by_name(self, capsys):
        assert main(["run", "IDEA"]) == 0
        out = capsys.readouterr().out
        assert "Jrpm report: IDEA" in out
        assert "predicted speedup" in out
        assert "actual speedup" in out

    def test_run_source_file(self, tmp_path, capsys):
        path = tmp_path / "prog.mj"
        path.write_text(
            "func main() { var s = 0; "
            "for (var i = 0; i < 50; i = i + 1) { s = s + i; } "
            "return s; }")
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "prog.mj" in out

    def test_run_no_tls(self, capsys):
        assert main(["run", "IDEA", "--no-tls"]) == 0
        out = capsys.readouterr().out
        assert "actual speedup" not in out

    def test_run_prints_profiles(self, capsys):
        assert main(["run", "Huffman"]) == 0
        out = capsys.readouterr().out
        assert "Dependency profile" in out
        assert "Optimization guidance" in out

    def test_run_has_no_extended_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "Huffman", "--extended"])
        assert "--extended" in capsys.readouterr().err

    def test_unknown_workload_fails_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "not-a-workload"])
        assert "unknown workload" in str(exc.value)

    def test_fleet_with_timeout_and_retries(self, tmp_path, capsys):
        assert main(["fleet", "--workloads", "IDEA,monteCarlo",
                     "--no-tls", "--cache-dir", str(tmp_path),
                     "--timeout", "60", "--retries", "1"]) == 0
        out = capsys.readouterr().out
        assert "IDEA" in out and "monteCarlo" in out
        assert "corrupt" in out  # cache counter line
        # a clean run survives no faults, so no fault line is printed
        assert "faults survived" not in out

    def test_fleet_rejects_bad_fault_flags(self):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--timeout", "0"])
        assert "--timeout" in str(exc.value)
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--retries", "-2"])
        assert "--retries" in str(exc.value)


class TestJsonOutput:
    def test_run_json_is_canonical_and_valid(self, capsys):
        import json

        from repro.jrpm import (
            REPORT_SCHEMA_VERSION,
            dumps_canonical,
            validate_report_dict,
        )

        assert main(["run", "IDEA", "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        validate_report_dict(data)
        assert data["name"] == "IDEA"
        assert data["schema_version"] == REPORT_SCHEMA_VERSION
        # the canonical encoding, byte for byte
        assert out == dumps_canonical(data) + "\n"

    def test_run_json_suppresses_text_report(self, capsys):
        assert main(["run", "BitOps", "--no-tls", "--json"]) == 0
        out = capsys.readouterr().out
        assert "Jrpm report:" not in out
        assert "predicted speedup" not in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fleet_json_embeds_run_json_reports(self, capsys, jobs):
        import json

        from repro.jrpm import dumps_canonical, validate_report_dict

        assert main(["fleet", "--workloads", "IDEA,monteCarlo",
                     "--no-tls", "--json", "--jobs", jobs]) == 0
        fleet_out = capsys.readouterr().out
        data = json.loads(fleet_out)
        assert fleet_out == dumps_canonical(data) + "\n"
        assert [r["workload"] for r in data["rows"]] \
            == ["IDEA", "monteCarlo"]
        for row in data["rows"]:
            assert row["ok"]
            validate_report_dict(row["report"])
            # the embedded report, inline or built in a pool worker, is
            # byte-identical to what `jrpm run <name> --no-tls --json`
            # prints
            assert main(["run", row["workload"], "--no-tls",
                         "--json"]) == 0
            run_out = capsys.readouterr().out
            assert dumps_canonical(row["report"]) + "\n" == run_out


class TestCacheCommand:
    def _populate(self, cache_dir):
        assert main(["fleet", "--workloads", "IDEA", "--no-tls",
                     "--cache-dir", str(cache_dir)]) == 0

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "5 blobs" in out  # 5 cache stages for one workload
        assert "profile" in out

    def test_stats_json(self, tmp_path, capsys):
        import json

        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["blobs"] == 5
        assert data["quarantined"] == 0
        assert set(data["stages"])  # per-stage breakdown present

    def test_verify_clean_then_corrupt(self, tmp_path, capsys):
        import os

        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "5 ok, 0 corrupt" in capsys.readouterr().out

        # truncate one blob: verify detects it, quarantines it, exits 1
        victim = sorted(p for p in os.listdir(tmp_path)
                        if p.endswith(".pkl"))[0]
        path = os.path.join(str(tmp_path), victim)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "[quarantined]" in out
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")

    def test_verify_no_quarantine_leaves_file(self, tmp_path, capsys):
        import os

        self._populate(tmp_path)
        victim = sorted(p for p in os.listdir(tmp_path)
                        if p.endswith(".pkl"))[0]
        path = os.path.join(str(tmp_path), victim)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path),
                     "--no-quarantine"]) == 1
        assert os.path.exists(path)

    def test_purge(self, tmp_path, capsys):
        import os

        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "purge", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "purged 5 file(s)" in out
        assert not [p for p in os.listdir(tmp_path)
                    if p.endswith(".pkl")]

    def test_purge_sweeps_leftover_ledgers(self, tmp_path, capsys):
        import os

        self._populate(tmp_path)
        ledger = tmp_path / "123.0.7.ledger"
        ledger.write_text("misses compile\n")
        capsys.readouterr()
        assert main(["cache", "purge", "--cache-dir",
                     str(tmp_path)]) == 0
        assert "purged 6 file(s)" in capsys.readouterr().out
        assert not os.path.exists(ledger)

    def test_purge_keep_quarantined(self, tmp_path, capsys):
        import os

        self._populate(tmp_path)
        victim = sorted(p for p in os.listdir(tmp_path)
                        if p.endswith(".pkl"))[0]
        path = os.path.join(str(tmp_path), victim)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 1
        capsys.readouterr()
        assert main(["cache", "purge", "--cache-dir", str(tmp_path),
                     "--keep-quarantined"]) == 0
        assert "purged 4 file(s)" in capsys.readouterr().out
        assert os.path.exists(path + ".corrupt")

    def test_missing_directory_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "stats", "--cache-dir",
                  str(tmp_path / "nope")])


class TestCacheQuarantineSweep:
    def _corrupt_and_verify(self, tmp_path):
        import os

        assert main(["fleet", "--workloads", "IDEA", "--no-tls",
                     "--cache-dir", str(tmp_path)]) == 0
        victim = sorted(p for p in os.listdir(tmp_path)
                        if p.endswith(".pkl"))[0]
        path = os.path.join(str(tmp_path), victim)
        with open(path, "r+b") as handle:
            handle.truncate(10)
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 1
        return path

    def test_second_verify_reports_earlier_quarantine(self, tmp_path,
                                                      capsys):
        self._corrupt_and_verify(tmp_path)
        capsys.readouterr()
        # the corrupt blob is gone, so the sweep itself passes — but
        # the evidence file from the first verify is surfaced
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 ok, 0 corrupt" in out
        assert "from an earlier verify" in out
        assert ".pkl.corrupt" in out

    def test_purge_corrupt_only_keeps_good_blobs(self, tmp_path,
                                                 capsys):
        import os

        quarantined = self._corrupt_and_verify(tmp_path) + ".corrupt"
        assert os.path.exists(quarantined)
        capsys.readouterr()
        assert main(["cache", "purge", "--cache-dir", str(tmp_path),
                     "--corrupt-only"]) == 0
        out = capsys.readouterr().out
        assert "purged 1 quarantined file(s)" in out
        assert not os.path.exists(quarantined)
        # the four healthy blobs survive
        assert len([p for p in os.listdir(tmp_path)
                    if p.endswith(".pkl")]) == 4


class TestConformCommand:
    def test_fuzz_only_json_document(self, tmp_path, capsys,
                                     fuzz_seed):
        import json

        assert main(["conform", "--skip-oracle", "--fuzz", "4",
                     "--seed", str(fuzz_seed),
                     "--repro-dir", str(tmp_path / "repros"),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "conformance"
        assert "oracle" not in doc
        assert doc["campaign"]["base_seed"] == fuzz_seed
        assert doc["campaign"]["checked"] == 4
        assert doc["violations"] == []

    def test_oracle_subset_passes_gate(self, capsys):
        assert main(["conform", "--workloads", "MipsSimulator"]) == 0
        out = capsys.readouterr().out
        assert "MipsSimulator" in out
        assert "max error" in out

    def test_tight_bound_trips_gate(self, capsys):
        assert main(["conform", "--workloads", "MipsSimulator",
                     "--error-bound", "0.0001"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        assert "exceeds the 0.0%" in out

    def test_report_file_written(self, tmp_path, capsys, fuzz_seed):
        import json

        report = tmp_path / "conformance.json"
        assert main(["conform", "--skip-oracle", "--fuzz", "2",
                     "--seed", str(fuzz_seed),
                     "--repro-dir", str(tmp_path / "repros"),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "conformance"
        assert doc["campaign"]["checked"] == 2

    def test_update_goldens_roundtrip(self, tmp_path, capsys):
        import json
        import shutil

        # regenerating a copy of the committed corpus must reproduce
        # it byte for byte (the generated-only guarantee, CLI-level)
        copy = tmp_path / "goldens.json"
        shutil.copy("tests/goldens.json", copy)
        before = copy.read_bytes()
        assert main(["conform", "--update-goldens",
                     "--goldens", str(copy)]) == 0
        out = capsys.readouterr().out
        assert "regenerated" in out
        assert copy.read_bytes() == before
        assert json.loads(before.decode())["_meta"]["version"] >= 2

    def test_unknown_workload_fails_cleanly(self):
        with pytest.raises(SystemExit):
            main(["conform", "--workloads", "NoSuchThing"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["conform", "--jobs", "0"])
