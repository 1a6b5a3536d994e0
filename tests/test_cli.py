import hashlib
import itertools
import json
import os
import stat
from collections import Counter
from types import SimpleNamespace

import pytest

from rm2cover.cli import run

GOLDEN_FUN3_CSV = "r,count\n16,448\n20,16128\n24,16128\n28,64\n"
FUN4_FUN6 = "6820ea8042a0c00062480888eac08000"  # fun_4 || fun_6
SEARCH_4_6_SEED1_SHA256 = "7f5c51f011d12b146bea88eb9a233015eea2117250f864ffa1ba06b940f3e3e8"
# SHA-256 of `profile fun_6` per format, recorded when every call built its own profile
PROFILE_FUN6_SHA256 = {
    "plain": "fcbb81f034c873a59cd56eb18120113c25e33bb14154962b2a879bc6c2305941",
    "json": "3b7a81984af53dfa303234d3bd9d48cdf8bd7ab2b1c185400007034ba1475e57",
    "csv": "87f7eb02318cfd8ec2f1e0d73bd570169ee0b3fd89db4767a77791f39af29243",
}
VERIFY_ALL_CSV_SHA256 = "bfd33014c95c099364441e8f2f456a3d46a1031c71507b73533e684bdfad204e"  # default seed, trials, samples
STEP3_TABLE = "109bc89eac728b88e5f3d596fb123488"  # fun_4||fun_6 + q_506521
# SHA-256 of n=7 outputs, recorded while every n=7 block was a 128-point transform
N7_SHA256 = {
    ("profile", STEP3_TABLE, "--format", "json"): "c685d4cd85680f9d4d1423bac3ef37dad72d094542953ae03cfaec149dbe10e5",
    ("fh", STEP3_TABLE, "34", "--format", "json"): "f4ec464a6bad62f74173d5878d3853bfcb7f8bc2afdd78accaf556bf499bd185",
    ("fh", FUN4_FUN6, "40", "--format", "json"): "d2d1c8b705e63010bec900543822a34eb22c02db790e9087fdd9332488cd891a",
    # threshold mode exits at step 1 (a head block), 2 (the halves' exact minimum) and 3 (block 167)
    ("nl2", FUN4_FUN6, "--threshold", "41"): "03f2250adcfa50ed38b33ccd1676f8dadd93931c9c2038261b07ad59af0fcec2",
    ("nl2", STEP3_TABLE, "--threshold", "37"): "e14868574d4e95f7a1bc895f8fc2d16ec74ea71a32e144b96aa43096f0ac4f0b",
    ("nl2", FUN4_FUN6, "--threshold", "32"): "2115cdb6bfcfb008eb2bab2bb79347cb064a48e4e7c4115ccbe4469c787bb6c4",
    ("nl2", STEP3_TABLE, "--threshold", "35"): "42ecc4e5f39b97d218d2801255f83d79d27bacdaffb69495dc8ca52ec46e2a4b",
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_nl2_catalog_name(self, capsys):
        code, out, _ = invoke(capsys, "nl2", "fun_1")
        assert code == 0 and out == "18\n"

    def test_nl2_hex_zero(self, capsys):
        code, out, _ = invoke(capsys, "nl2", "0000000000000000")
        assert code == 0 and out == "0\n"

    def test_nl2_anf_with_n(self, capsys):
        code, out, _ = invoke(capsys, "nl2", "x1x2", "--n", "4")
        assert code == 0 and out == "0\n"

    def test_nl2_threshold_upper_bound(self, capsys):
        code, out, _ = invoke(capsys, "nl2", "fun_1", "--threshold", "19")
        assert code == 0 and out.startswith("<19 (upper bound ")

    @pytest.mark.parametrize("fmt", sorted(PROFILE_FUN6_SHA256))
    def test_profile_pinned(self, capsys, fmt):
        for _ in range(2):  # cold or warm, the shared cached profile prints the same
            code, out, _ = invoke(capsys, "profile", "fun_6", "--format", fmt)
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == PROFILE_FUN6_SHA256[fmt]

    @pytest.mark.parametrize("argv", sorted(N7_SHA256), ids=" ".join)
    def test_n7_output_pinned(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == N7_SHA256[argv]

    def test_profile_csv_golden_and_stable(self, capsys):
        code, out1, _ = invoke(capsys, "profile", "fun_3", "--format", "csv")
        assert code == 0 and out1 == GOLDEN_FUN3_CSV
        _, out2, _ = invoke(capsys, "profile", "fun_3", "--format", "csv")
        assert out1 == out2

    def test_profile_json(self, capsys):
        code, out, _ = invoke(capsys, "profile", "fun_6", "--format", "json")
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["sum"] == 32768
        assert payload["counts"]["16"] == 224

    def test_profile_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, _ = invoke(capsys, "profile", "fun_3", "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == GOLDEN_FUN3_CSV

    @pytest.mark.parametrize("umask, new_mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask022", "umask027"])
    def test_out_file_mode_is_that_of_a_plain_write(self, capsys, tmp_path, umask, new_mode):
        # a new file gets 0o666 less the umask, an existing one keeps its mode
        new, existing = tmp_path / "new.json", tmp_path / "existing.json"
        existing.write_text("previous run\n")
        existing.chmod(0o664)
        old_umask = os.umask(umask)
        try:
            codes = [invoke(capsys, "profile", "fun_6", "--out", str(path))[0] for path in (new, existing)]
        finally:
            os.umask(old_umask)
        assert codes == [0, 0] and existing.read_text() == new.read_text()
        assert stat.S_IMODE(new.stat().st_mode) == new_mode
        assert stat.S_IMODE(existing.stat().st_mode) == 0o664

    def test_fh_json(self, capsys):
        code, out, _ = invoke(capsys, "fh", "fun_3", "28", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 64
        assert len(payload["bitset_hex"]) == 32768 // 4

    def test_equiv_not_found(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "fun_4", "fun_6")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "not-found" and payload["witness"] is None

    def test_equiv_found_witness(self, capsys):
        code, out, _ = invoke(capsys, "equiv", "fun_2", "top_fun_7")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "found"
        assert set(payload["witness"]) == {"A", "b", "g"}

    @pytest.mark.parametrize(
        "extra, expected",
        [((), "32\n"), (("--threshold", "41"), "<41 (upper bound 32)\n"), (("--threshold", "30"), "32\n")],
    )
    def test_nl2_concatenation_output(self, capsys, extra, expected):
        code, out, _ = invoke(capsys, "nl2", FUN4_FUN6, *extra)
        assert code == 0 and out == expected

    def test_concat_check_exact(self, capsys):
        code, out, _ = invoke(capsys, "concat-check", "fun_4", "fun_6", "--exact")
        assert code == 0 and json.loads(out)["nl2"] == {"value": 32, "exact": True}

    def test_concat_check(self, capsys):
        code, out, _ = invoke(capsys, "concat-check", "fun_3", "fun_3")
        payload = json.loads(out)
        assert code == 0
        assert payload["concatenation_bound"]["best"] is not None
        assert payload["condition2"]["all_hold"] is False
        assert len(payload["condition2"]["relations"]) == 6


    def test_concat_check_scans_each_half_once(self, capsys, monkeypatch):
        from rm2cover import quadratic

        scans = Counter()
        scan = quadratic._scan

        def counting_scan(f, *args):
            scans[f.n] += 1
            return scan(f, *args)

        monkeypatch.setattr(quadratic, "_scan", counting_scan)
        quadratic.coset_values.cache_clear()
        code, _, _ = invoke(capsys, "concat-check", "fun_4", "fun_6")
        assert code == 0 and scans == {6: 2}

    @pytest.mark.parametrize("exact", [(), ("--exact",)])
    def test_concat_check_rejects_halves_too_wide_to_join(self, capsys, monkeypatch, exact):
        # two 7-variable halves would make an 8-variable function
        from rm2cover import quadratic

        scans = []
        scan = quadratic._scan
        monkeypatch.setattr(quadratic, "_scan", lambda f, *args: scans.append(f) or scan(f, *args))
        quadratic.coset_values.cache_clear()
        half = "0444d60afbcc04ce45c40855fd75bab3"
        code, out, err = invoke(capsys, "concat-check", half, half, *exact)
        assert code == 1 and out == "" and scans == []
        assert "exceeds" in err and "Traceback" not in err
        code, out, err = invoke(capsys, "concat-check", "fun_4", half, *exact)
        assert code == 1 and out == "" and "variable count mismatch" in err

    def test_concat_check_threshold_needs_exact(self, capsys):
        # without --exact no nl2 is computed, so the threshold would be ignored
        code, out, err = invoke(capsys, "concat-check", "fun_4", "fun_6", "--threshold", "41")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "--threshold" in err and "Traceback" not in err


class TestSearchCommand:
    def test_search_writes_jsonl_and_summary(self, capsys, tmp_path):
        target = tmp_path / "records.jsonl"
        code, out, err = invoke(
            capsys, "search", "--i1", "4", "--i2", "6", "--seed", "5", "--budget", "3", "--out", str(target)
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["candidate"] == k for k, line in enumerate(lines))
        summary = json.loads(out)["summary"]
        assert summary["candidates"] == 3 and summary["seed"] == 5

    def test_filter_contradiction_keeps_records_in_out_file(self, capsys, monkeypatch, tmp_path):
        from rm2cover import search

        monkeypatch.setattr(search, "exact_nl2_7", lambda f, threshold=None: search.Nl2Result(43, True))
        target = tmp_path / "records.jsonl"
        code, out, err = invoke(
            capsys, "search", "--i1", "4", "--i2", "6", "--seed", "5", "--budget", "3", "--out", str(target)
        )
        assert code == 2 and "Traceback" not in err
        dump = json.loads(target.read_text().splitlines()[-1])
        assert dump["nl2_value"] == 43 and dump["nl2_exact"] is True

    def test_failed_search_keeps_existing_out_file(self, capsys, monkeypatch, tmp_path):
        # records stream into a temp file, which replaces --out only when the run ends normally
        from rm2cover import search

        calls = itertools.count()
        relations = search.condition2_relations

        def failing_relations(vals1, vals2):
            if next(calls) == 2:
                raise RuntimeError("injected failure after 2 records")
            return relations(vals1, vals2)

        monkeypatch.setattr(search, "condition2_relations", failing_relations)
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"previous run\n")
        with pytest.raises(RuntimeError, match="injected"):
            run(["search", "--i1", "4", "--i2", "6", "--seed", "5", "--budget", "5", "--out", str(target)])
        assert target.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_interrupt_exits_130_and_keeps_out_file(self, capsys, monkeypatch, tmp_path):
        from rm2cover import search

        def interrupted_search(cfg, on_record):
            for k in range(2):
                on_record(SimpleNamespace(as_json_dict=lambda k=k: {"candidate": k}))
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "witness_search", interrupted_search)
        target = tmp_path / "records.jsonl"
        target.write_bytes(b"previous run\n")
        argv = ["search", "--i1", "4", "--i2", "6"]
        try:
            to_file = invoke(capsys, *argv, "--out", str(target))
            to_stdout = invoke(capsys, *argv)
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped cli.run")
        for code, out, err in (to_file, to_stdout):
            assert code == 130 and err.splitlines()[-1] == "interrupted" and "Traceback" not in err
        assert to_file[1] == "" and to_stdout[1] == '{"candidate": 0}\n{"candidate": 1}\n'
        assert target.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_search_stdout_pinned(self, capsys):
        # SHA-256 of the 20 JSONL records and the summary, recorded when each
        # candidate half was still scanned directly
        code, out, err = invoke(capsys, "search", "--i1", "4", "--i2", "6", "--seed", "1", "--budget", "20")
        assert code == 0 and err == "search i1=4 i2=6 seed=1 budget=20\n"
        assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_4_6_SEED1_SHA256

    def test_search_deterministic_output(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        invoke(capsys, "search", "--i1", "6", "--i2", "6", "--seed", "8", "--budget", "2", "--out", str(a))
        invoke(capsys, "search", "--i1", "6", "--i2", "6", "--seed", "8", "--budget", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerifyAll:
    def test_exit_code_and_summary(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = invoke(
            capsys, "verify-all", "--trials", "1", "--samples", "4", "--out", str(target)
        )
        assert code == 2  # refuted printed values are present
        report = json.loads(target.read_text())
        assert report["summary"] == {
            "confirmed": 50, "refuted": 4, "discrepancy": 1, "skipped-out-of-scope": 5,
        }
        assert len(report["claims"]) == 60

    def test_filter_contradiction_exits_2_without_traceback(self, capsys, monkeypatch):
        from rm2cover import search

        monkeypatch.setattr(search, "exact_nl2_7", lambda f, threshold=None: search.Nl2Result(43, True))
        code, out, err = invoke(capsys, "verify-all", "--trials", "1", "--samples", "4")
        assert code == 2 and "Traceback" not in err
        claim = next(c for c in json.loads(out)["claims"] if c["claim_id"] == "thm1.cond2-biconditional")
        assert claim["status"] == "refuted" and claim["details"]["candidate"]["nl2_value"] == 43

    def test_csv_report_carries_stated_and_computed(self, capsys):
        code, out, _ = invoke(capsys, "verify-all", "--trials", "1", "--samples", "4", "--format", "csv")
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "claim_id,status,item,stated,computed"
        fun4_row = next(l for l in lines if l.startswith("obs5.fun_4.profile,") and ",26," in l)
        assert "10244" in fun4_row and "1024" in fun4_row

    def test_csv_report_pinned(self, capsys):
        code, out, _ = invoke(capsys, "verify-all", "--format", "csv")
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_CSV_SHA256


class TestErrors:
    def test_non_positive_counts(self, capsys):
        # no instance checked must not read as confirmed
        code, out, err = invoke(capsys, "verify-all", "--trials", "-3", "--samples", "-8")
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: trials must be >= 1, got -3" and "Traceback" not in err
        code, _, err = invoke(capsys, "verify-all", "--samples", "0")
        assert code == 1 and "error: thm1_samples must be >= 1" in err

    def test_search_has_no_threshold_option(self, capsys):
        # the exact-check threshold is fixed at 41
        code, out, err = invoke(capsys, "search", "--i1", "4", "--i2", "4", "--threshold", "41")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "--threshold" in err and "Traceback" not in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_equiv_non_positive_budget(self, capsys, budget):
        code, out, err = invoke(capsys, "equiv", "fun_4", "fun_4", "--budget", budget)
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == f"error: budget must be >= 1, got {budget}" and "Traceback" not in err

    def test_profile_has_no_threads_option(self, capsys):
        code, out, err = invoke(capsys, "profile", "fun_5", "--threads", "2")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_search_has_no_threads_option(self, capsys):
        # the search runs one loop whatever SearchConfig.threads says
        code, out, err = invoke(capsys, "search", "--i1", "4", "--i2", "6", "--threads", "2")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "--threads" in err and "Traceback" not in err

    def test_unparseable_function(self, capsys):
        code, _, err = invoke(capsys, "nl2", "zzz")
        assert code == 1 and "error" in err

    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    def test_missing_n_for_plain_constant(self, capsys):
        # "1" parses as the constant ANF over one variable; nl2 needs n >= 2
        code, _, err = invoke(capsys, "nl2", "1")
        assert code == 1 and err.splitlines()[-1] == "error: coset scans need n >= 2"

    def test_hex_with_wrong_n(self, capsys):
        code, _, err = invoke(capsys, "nl2", "0" * 16, "--n", "7")
        assert code == 1

    def test_catalog_name_with_wrong_n(self, capsys):
        code, out, err = invoke(capsys, "fh", "fun_4", "16", "--n", "7")
        assert code == 1 and out == ""
        assert err.splitlines()[-1] == "error: fun_4 is a function of 6 variables, not --n 7"
        assert invoke(capsys, "fh", "fun_4", "16", "--n", "6")[0] == 0
