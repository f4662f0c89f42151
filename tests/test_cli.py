"""Command-line driver: examples, determinism, round-trips, error hygiene."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyptile import cli
from hyptile.cli import main
from hyptile.geometry import ColourWindow, generate_patch
from hyptile.hull import TestFunction as TFn
from hyptile.hull import (BumpProfile, _uniforms, first_word_control,
                          harmonicity_check, invariance_check,
                          invariance_reports, sample_batch, tau_pairing)
from hyptile.subshift import language, parse_spec, spec_to_json

from oracles import check_report_json


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(args):
    return main(list(args))


PERIODIC_12 = {"type": "periodic", "word": "12"}
PERIODIC_112 = {"type": "periodic", "word": "112"}
THUE_MORSE = {"type": "substitution", "rules": {"1": "12", "2": "21"}}
FIBONACCI = {"type": "substitution", "rules": {"1": "12", "2": "1"}}
PERIOD_DOUBLING = {"type": "substitution", "rules": {"1": "12", "2": "11"}}
FOUR_LETTER = {"type": "substitution",
               "rules": {"1": "1234", "2": "2143", "3": "3412",
                         "4": "4321"}}


class TestKGroups:
    def test_periodic_12_example(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kgroups", "--spec", write_spec(tmp_path, PERIODIC_12),
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["K0"]["rank"] == 1
        assert doc["K0"]["torsion"] == [3]
        assert doc["K1"]["rank"] == 1
        assert doc["K1"]["torsion"] == []

    def test_k0_rank_matches_summands(self, tmp_path):
        out = tmp_path / "k.json"
        run(["kgroups", "--spec", write_spec(tmp_path, THUE_MORSE),
             "--nmax", "6", "--out", str(out)])
        k0 = json.loads(out.read_text())["K0"]
        assert k0["rank"] == sum(s["rank"] for s in k0["summands"])

    def test_config_echoes_canonical_spec(self, tmp_path):
        # scrambled key order and noise whitespace still canonicalise
        messy = tmp_path / "messy.json"
        messy.write_text('{\n  "word":   "12",\n"type": "periodic"}\n')
        out = tmp_path / "k.json"
        run(["kgroups", "--spec", str(messy), "--out", str(out)])
        doc = json.loads(out.read_text())
        canon = spec_to_json(parse_spec(PERIODIC_12))
        assert doc["config"]["spec"] == canon
        assert spec_to_json(parse_spec(canon)) == canon  # idempotent


class TestSmallCommands:
    def test_cech_periodic(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["cech", "--spec", write_spec(tmp_path, PERIODIC_112),
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["H0"]["rank"] == 1 and res["H0"]["torsion"] == []
        assert res["H1"]["rank"] == 1 and res["H1"]["torsion"] == []
        assert res["H2"]["rank"] == 0 and res["H2"]["torsion"] == [7]

    def test_gaplabels_112(self, tmp_path):
        out = tmp_path / "g.json"
        assert run(["gaplabels", "--spec", write_spec(tmp_path, PERIODIC_112),
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())["gap_labels"]
        assert res["generators"] == ["1/3"]
        assert res["stabilized"] is True

    def test_measures_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["measures", "--spec", write_spec(tmp_path, THUE_MORSE),
                    "--nmax", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# hyptile")
        assert lines[1].startswith("# config: ")
        assert lines[2] == "word,length,measure,float"
        rows = {l.split(",")[0]: l.split(",")[2] for l in lines[3:]}
        assert rows["1"] == "1/2" and rows["2"] == "1/2"
        assert rows["11"] == "1/6" and rows["12"] == "1/3"
        assert rows["21"] == "1/3" and rows["22"] == "1/6"

    def test_patch_json(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["patch", "--spec", write_spec(tmp_path, PERIODIC_12),
                    "--radius", "2.0", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["count"] == len(res["tiles"])
        win = ColourWindow("121212121", -4)
        expect = generate_patch(2.0, colouring=win)
        assert len(res["tiles"]) == len(expect.tiles)
        ks = [(t["k"], t["n"]) for t in res["tiles"]]
        assert ks == sorted(ks)
        assert all(t["colour"] in (1, 2) for t in res["tiles"])

    def test_patch_json_is_pinned(self, tmp_path, capsys):
        assert run(["patch", "--spec", write_spec(tmp_path, FIBONACCI),
                    "--radius", "5"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == ("a8800f9318bac9de9a5c44bd2a5262d3"
                          "c3029a8b1356bb734bfa988df37892ea")

    # sha256 of stdout, with Fibonacci at radius 5 above: the indented
    # layout of every tile record and of the config, byte for byte
    @pytest.mark.parametrize("spec, radius, expect", [
        (THUE_MORSE, "5", "5614c9bdb0b6e8916f5487a4d09d6899"
                          "a32b80946bbf46b86e1715930c7c9c5b"),
        ({"type": "periodic", "word": "ab"}, "0",
         "4c7f03e39ed6d7cca3fd13e18e5f75cd"
         "b206e175636bfcc3fafde46653c661c2"),
    ], ids=["tm-r5", "ab-r0"])
    def test_patch_reports_are_pinned(self, tmp_path, capsys, spec, radius,
                                      expect):
        assert run(["patch", "--spec", write_spec(tmp_path, spec),
                    "--radius", radius]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == expect

    # sha256 of stdout at 20000 samples: every statistic of every report
    # depends on the chart identification bit for bit.  cocycle's moves
    # have b = 0 and are the same on every SIMD path; hullcheck's read
    # np.exp2, whose last bits differ between numpy's dispatch paths, and
    # its digest is the one on the AVX-512 path
    @pytest.mark.parametrize("command, spec, seed, expect", [
        ("hullcheck", THUE_MORSE, 7, "70a3f75d134cc67dac3af92a624e4fe5"
                                     "4266a85033057cd1a801a11792d20be2"),
        ("cocycle", FIBONACCI, 3, "d5e7965b0c2e29be75c70cffa4df6aa8"
                                  "0dc72408ac4d81258009f5a684c375df"),
    ], ids=["hullcheck-tm-7", "cocycle-fib-3"])
    def test_hull_reports_are_pinned(self, tmp_path, capsys, command, spec,
                                     seed, expect):
        assert run([command, "--spec", write_spec(tmp_path, spec),
                    "--samples", "20000", "--seed", str(seed)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == expect

    # sha256 of stdout at --nmax 6: every group, generator and chain
    # entry.  An explicit window has no gap labels, so it pins two.
    @pytest.mark.parametrize("spec, expect", [
        (THUE_MORSE, {
            "kgroups": "1c0d6b05ca0ef3f3e5d11bca394ff555"
                       "f09a711e91b68047abde91b3f1ce1291",
            "cech": "3fc9fa5e5145327a4727e7e3ea2bf975"
                    "c893ba30466e0ed957bafcf28a15a149",
            "gaplabels": "b06acf32802b92a30ef05ecc95180232"
                         "7876acf9f81d25b44ae586a2202f81d1"}),
        (PERIOD_DOUBLING, {
            "kgroups": "60e19dbe8e3ef467d8e712aa2f5a20b6"
                       "a47cf0317636336bbe69bab2990d82af",
            "cech": "a97895c949ad8518bceaeafb6e2016d4"
                    "3202fe0708869325f7167b1eb1c1d92d",
            "gaplabels": "0f6da90d94cb205d3bc89964079f558f"
                         "c1324ef45ab6dfd755c99b92dafb68ac"}),
        (FIBONACCI, {
            "kgroups": "924566a443d92e51f24a765f2b300793"
                       "63772bcc681fb38314e493fc1d8f2ee4",
            "cech": "60a64ebb345067e89e09151323964af5"
                    "f55fbc0237aa2a486348c73b1857ff64",
            "gaplabels": "f3c74052bd461710df7fa4e768df928a"
                         "b8ee132f4c501e49f45e9f9088865cb8"}),
        (FOUR_LETTER, {
            "kgroups": "9624020b90ff409080956141b6e55cf0"
                       "e43bc6370a46e47601f50a94ec213c2c",
            "cech": "39f4f30750a18edabda6f6257239c5e2"
                    "08d1570218b0d04783b9e2cf8215ac17",
            "gaplabels": "fa7066523ae22ba6156bd0c0298abe2e"
                         "59c93cb2ab3133ab2150522e34a25495"}),
        ({"type": "periodic", "word": "11212"}, {
            "kgroups": "c3323b240ddf54f18a0b15f450425bf6"
                       "b1b0fb818cd53fddf1b69c51295048ac",
            "cech": "3dfd658810ecd088b8c32868500e496f"
                    "5026e2c66aa5b0fca150d0e62d6e9c88",
            "gaplabels": "4b68b1922cc2a1672e5ea5f0fc53c1de"
                         "94878f63f931ee2f71354b9806bb20f1"}),
        ({"type": "explicit", "left": "121212", "right": "1212121",
          "horizon": 7}, {
            "kgroups": "db3090c942b929fd9270597602f7e225"
                       "d0ec795e0c9fd401f0b461af8ea249ff",
            "cech": "6c6c7faf2d931aad50c91d7f8cc31020"
                    "a307674e1b7959cf630aafbc327af11b"}),
    ], ids=["tm", "pd", "fib", "s4", "11212", "window"])
    def test_group_reports_are_pinned(self, tmp_path, capsys, spec, expect):
        # each kgroups and cech group is also checked against the
        # relations rebuilt by check_report_json
        path = write_spec(tmp_path, spec)
        for command, digest in expect.items():
            assert run([command, "--spec", path, "--nmax", "6"]) == 0
            out = capsys.readouterr().out.encode()
            if command != "gaplabels":
                check_report_json(parse_spec(spec), json.loads(out))
            assert hashlib.sha256(out).hexdigest() == digest, command

    # every command at the quick benchmark's sizes; render and measures
    # write no JSON report, so only their config document is checked
    @pytest.mark.parametrize("command, spec, extra", [
        ("render", THUE_MORSE, ["--radius", "2"]),
        ("patch", FIBONACCI, ["--radius", "2"]),
        ("kgroups", {"type": "periodic", "word": "11212"}, []),
        ("cech", THUE_MORSE, ["--nmax", "4"]),
        ("gaplabels", {"type": "periodic", "word": "11212"}, []),
        ("measures", THUE_MORSE, ["--nmax", "3"]),
        ("hullcheck", THUE_MORSE, ["--samples", "20000", "--seed", "1"]),
        ("cocycle", FIBONACCI, ["--samples", "20000", "--seed", "1"]),
        ("patch", {"type": "periodic", "word": "αβ"}, ["--radius", "1"]),
    ], ids=["render", "patch", "kgroups", "cech", "gaplabels", "measures",
            "hullcheck", "cocycle", "patch-non-ascii"])
    def test_dump_equals_indented_json(self, tmp_path, monkeypatch, command,
                                       spec, extra):
        dump, docs = cli._dump, []
        monkeypatch.setattr(cli, "_dump",
                            lambda doc: docs.append(doc) or dump(doc))
        args = [command, "--spec", write_spec(tmp_path, spec), *extra,
                "--out", str(tmp_path / "out")]
        assert run(args) == 0
        assert len(docs) == (command not in ("render", "measures"))
        docs.append(cli.load_config(cli.parse_args(args))
                    .document())
        for doc in docs:
            assert dump(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [
        {"config": {"command": "patch"}, "count": 0, "tiles": []},
        # a hullcheck report's floats, and the ones json spells its own way
        {"pass": False, "marginals": {"first_letter": {
            "statistic": 0.49935, "expected": 0.5, "pass": True}},
         "z": [-0.0, 5e-324, 1e300, 1 / 3, float("nan"), float("inf"),
               -float("inf")]},
        # records the row template must leave to json
        {"tiles": [{"k": 1, "n": True}, {"k": 2, "n": 0}]},
        {"tiles": [{"k": 1, "n": None}, {"k": 2, "n": 0.5}]},
        {"tiles": [{"k": 1, "n": 2}, {"k": 2, "m": 0}]},
        {"tiles": [{"k": 1, "n": 2}, {"k": 2}]},
        {"tiles": [{1: 1, 2: 2}, {1: 3, 2: 4}]},
        {"tiles": [{"k": 1}, [2]]},
        # records it writes: one key, keys json escapes, unsorted keys
        {"tiles": [{"k": -1}, {"k": 10 ** 30}]},
        {"tiles": [{"é%d": 1, "\"": 2}, {"\"": 3, "é%d": 4}]},
        {"tiles": [{"n": 1, "k": 2, "colour": 3}]},
    ])
    def test_dump_edge_cases(self, doc):
        assert cli._dump(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_invariance_report_is_pinned(self):
        # 48 elements with log2(a) in [-1.5, 1.5]: single moves wrap s down
        # or up by up to two digits, and |b| stays below the carry's bound
        spec = parse_spec(FIBONACCI)
        rng = random.Random(5)
        g_list = [(rng.uniform(0.35, 2.8), rng.uniform(-3.0, 3.0))
                  for _ in range(48)]
        f = TFn.word_indicator(language(spec, 2)[0])
        report = invariance_check(spec, f, g_list, 70_000, 11)
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == ("c6ed7d75f22f82b133614c3ffb7aab85"
                          "4fb6886ef9ee7248f3c5576c63814ba8")

    def test_nmax_ignored_where_unused(self, tmp_path, capsys):
        # patch has no truncation level: --nmax neither enters its config
        # nor is validated, as --seed is not for deterministic commands
        spec = write_spec(tmp_path, THUE_MORSE)
        outputs = []
        for extra in ([], ["--nmax", "5"], ["--nmax", "0"]):
            assert run(["patch", "--spec", spec, "--radius", "0",
                        *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "nmax" not in json.loads(outputs[0])["config"]

    @pytest.mark.parametrize("command, base, unread", [
        ("kgroups", ["--nmax", "3"], ["--samples", "1"]),
        ("patch", ["--radius", "0"], ["--samples", "1"]),
        ("measures", ["--nmax", "2"], ["--radius", "-1"]),
        ("kgroups", ["--nmax", "3"], ["--seed", "-1"])],
        ids=["kgroups-samples", "patch-samples", "measures-radius",
             "kgroups-seed"])
    def test_unread_flags_not_checked(self, tmp_path, capsys, command, base,
                                      unread):
        # only hullcheck and cocycle read --samples and --seed, only render
        # and patch --radius; elsewhere an out-of-range value changes nothing
        spec = write_spec(tmp_path, THUE_MORSE)
        outputs = []
        for extra in ([], unread):
            assert run([command, "--spec", spec, *base, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, extra, message", [
        ("hullcheck", ["--samples", "1", "--seed", "1"],
         "--samples must be at least 2"),
        ("render", ["--radius", "-1"], "--radius must be >= 0")],
        ids=["hullcheck-samples", "render-radius"])
    def test_read_flags_checked(self, tmp_path, capsys, command, extra,
                                message):
        rc = run([command, "--spec", write_spec(tmp_path, THUE_MORSE),
                  *extra])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": message}

    def test_non_primitive_groups_flagged_approximate(self, tmp_path,
                                                      capsys):
        # letter 4 is in no image, so the rule is not primitive
        spec = {"type": "substitution",
                "rules": {"1": "312", "2": "1", "3": "32", "4": "2231"}}
        assert run(["cech", "--spec", write_spec(tmp_path, spec),
                    "--nmax", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [doc[h].get("approximate") for h in ("H0", "H1", "H2")] == \
            [True, True, True]

    @pytest.mark.parametrize("command, nmax", [
        ("kgroups", "1"), ("cech", "1"), ("gaplabels", "0"),
        ("measures", "0")])
    def test_nmax_too_small(self, tmp_path, capsys, command, nmax):
        rc = run([command, "--spec", write_spec(tmp_path, THUE_MORSE),
                  "--nmax", nmax])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": "--nmax too small"}

    def test_stdout_default(self, tmp_path, capsys):
        assert run(["gaplabels", "--spec",
                    write_spec(tmp_path, PERIODIC_12)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap_labels"]["generators"] == ["1/2"]


class TestRenderCommand:
    def test_figure_combinatorics_and_determinism(self, tmp_path):
        spec = write_spec(tmp_path, PERIODIC_12)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(["render", "--spec", spec, "--radius", "3.0",
                    "--out", str(a)]) == 0
        assert run(["render", "--spec", spec, "--radius", "3.0",
                    "--out", str(b)]) == 0
        svg = a.read_text()
        assert svg == b.read_text()  # byte-identical reruns
        word = "".join("12"[j % 2] for j in range(-6, 7))
        expect = generate_patch(3.0, colouring=ColourWindow(word, -6))
        assert svg.count("<path ") == len(expect.tiles)
        assert "<!-- hyptile " in svg


class TestStochasticCommands:
    def test_hullcheck_small(self, tmp_path):
        out = tmp_path / "h.json"
        spec = write_spec(tmp_path, THUE_MORSE)
        assert run(["hullcheck", "--spec", spec, "--samples", "3000",
                    "--seed", "7", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["pass"] is True
        assert all(r["pass"] for r in res["checks"].values())
        assert all(m["pass"] for m in res["marginals"].values())
        assert res["negative_control"]["detected"] is True

    def test_hullcheck_reproducible(self, tmp_path):
        spec = write_spec(tmp_path, THUE_MORSE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["hullcheck", "--spec", spec, "--samples", "2000",
                        "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cocycle_small(self, tmp_path):
        out = tmp_path / "c.json"
        spec = write_spec(tmp_path, THUE_MORSE)
        assert run(["cocycle", "--spec", spec, "--samples", "3000",
                    "--seed", "11", "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        assert res["pass"] is True
        assert res["tau_with_one"]["pass"] is True
        assert all(p["pass"] for p in res["pairs"])

    def test_letter_alphabet(self, tmp_path):
        # letters need not be digits
        doc = {"type": "periodic", "word": "ab"}
        spec = write_spec(tmp_path, doc)
        h, c = tmp_path / "h.json", tmp_path / "c.json"
        assert run(["hullcheck", "--spec", spec, "--samples", "3000",
                    "--seed", "7", "--out", str(h)]) == 0
        assert run(["cocycle", "--spec", spec, "--samples", "3000",
                    "--seed", "7", "--out", str(c)]) == 0
        first = json.loads(h.read_text())["marginals"]["first_letter"]
        batch = sample_batch(parse_spec(doc), 3000, 7)
        assert first["expected"] == 0.5
        assert first["statistic"] == float(np.mean(
            [batch.windows[k][batch.origin] == "a" for k in batch.index]))
        assert 0.4 < first["statistic"] < 0.6
        assert json.loads(c.read_text())["tau_with_one"]["n"] == 3000
        # and tiles colour by 1 + that index: scale k takes the letter at
        # -k, so a (colour 1) at even k and b (colour 2) at odd k
        p, r = tmp_path / "p.json", tmp_path / "r.svg"
        assert run(["patch", "--spec", spec, "--radius", "2",
                    "--out", str(p)]) == 0
        assert run(["render", "--spec", spec, "--radius", "2",
                    "--out", str(r)]) == 0
        tiles = json.loads(p.read_text())["tiles"]
        assert {t["k"] % 2 for t in tiles} == {0, 1}
        assert all(t["colour"] == 1 + t["k"] % 2 for t in tiles)
        assert r.read_text().count("<path ") == len(tiles)


class TestSharedDraw:
    """One draw per job gives the reports of the public checks run apart."""

    @staticmethod
    def json_round_trip(doc):
        return json.loads(json.dumps(doc))

    @pytest.mark.parametrize("doc", [THUE_MORSE, FIBONACCI])
    def test_hullcheck_matches_separate_checks(self, tmp_path, doc):
        out = tmp_path / "h.json"
        n, seed = 4000, 29
        assert run(["hullcheck", "--spec", write_spec(tmp_path, doc),
                    "--samples", str(n), "--seed", str(seed),
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        spec = parse_spec(doc)
        gs = cli._random_group_elements(seed, 8)
        f0, f1 = cli._default_functions(spec)
        expect = {
            "invariance_0": invariance_check(spec, f0, gs, n, seed),
            "invariance_1": invariance_check(spec, f1, gs, n, seed),
            "harmonicity": harmonicity_check(
                spec, TFn.bump(0.5, 0.45, 0.5, 0.45), n, seed),
        }
        assert res["checks"] == self.json_round_trip(expect)
        base = sample_batch(spec, n, seed)
        biased = invariance_reports(
            base, [(f0, first_word_control)], gs, seed)[0]
        assert res["negative_control"]["report"] == \
            self.json_round_trip(biased)

    def test_cocycle_matches_separate_pairings(self, tmp_path):
        out = tmp_path / "c.json"
        n, seed = 4000, 31
        assert run(["cocycle", "--spec", write_spec(tmp_path, FIBONACCI),
                    "--samples", str(n), "--seed", str(seed),
                    "--out", str(out)]) == 0
        res = json.loads(out.read_text())
        spec = parse_spec(FIBONACCI)
        u = iter(_uniforms(seed, 2, 24))
        pairs = []
        for _ in range(3):
            f = TFn.bump(*cli._bump_params(u))
            g = TFn.bump(*cli._bump_params(u))
            pairs.append(tau_pairing(spec, f, g, n, seed))
        with_one = tau_pairing(spec, TFn.bump(0.5, 0.45, 0.5, 0.45),
                               TFn.constant(), n, seed)
        assert res["pairs"] == self.json_round_trip(pairs)
        assert res["tau_with_one"] == self.json_round_trip(with_one)


class TestErrorHygiene:
    def assert_error(self, rc, capsys, out=None):
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err["error"]) == {"type", "message"}
        if out is not None:
            assert not out.exists()
            assert not list(out.parent.glob(".hyptile-tmp-*"))

    def test_seed_required_for_stochastic(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = run(["hullcheck", "--spec", write_spec(tmp_path, THUE_MORSE),
                  "--out", str(out)])
        self.assert_error(rc, capsys, out)

    def test_missing_spec_file(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        rc = run(["kgroups", "--spec", str(tmp_path / "nope.json"),
                  "--out", str(out)])
        self.assert_error(rc, capsys, out)

    def test_invalid_spec_document(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        bad = write_spec(tmp_path, {"type": "sturmian", "angle": 0.5})
        rc = run(["kgroups", "--spec", bad, "--out", str(out)])
        self.assert_error(rc, capsys, out)

    @pytest.mark.parametrize("doc, field", [
        ({"type": "explicit", "right": "12", "horizon": 3.7}, "horizon"),
        ({"type": "explicit", "right": "12", "horizon": True}, "horizon"),
        ({"type": "explicit", "right": "12"}, "horizon"),
        ({"type": "explicit", "right": 12, "horizon": 3}, "right"),
        ({"type": "periodic"}, "word"),
        ({"type": "periodic", "word": 12}, "word"),
        ({"type": "substitution", "rules": {"1": 12, "2": "21"}}, "rules"),
        ({"type": "substitution", "rules": ["12", "21"]}, "rules"),
        ([{"type": "periodic", "word": "12"}], "JSON object"),
        ({"type": "substitution", "rules": {}}, "rules"),
    ])
    def test_spec_field_types(self, tmp_path, capsys, doc, field):
        out = tmp_path / "k.json"
        rc = run(["kgroups", "--spec", write_spec(tmp_path, doc),
                  "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and field in err["message"]
        assert not out.exists()

    def test_error_does_not_clobber_existing_output(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        out.write_text("keep me")
        bad = write_spec(tmp_path, {"type": "periodic", "word": ""})
        rc = run(["kgroups", "--spec", bad, "--out", str(out)])
        assert rc == 1
        capsys.readouterr()
        assert out.read_text() == "keep me"

    def test_unknown_command(self, capsys):
        rc = run(["frobnicate", "--spec", "x.json"])
        self.assert_error(rc, capsys)

    def test_missing_spec_flag(self, capsys):
        self.assert_error(run(["kgroups"]), capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--radius", "nan"), ("--radius", "inf"), ("--radius", "-inf"),
        ("--seed", "-1")])
    def test_flag_out_of_range(self, tmp_path, capsys, flag, value):
        # each flag on a command that reads it
        command = (["render"] if flag == "--radius" else
                   ["hullcheck", "--samples", "100", "--seed", "3"])
        out = tmp_path / "h.json"
        rc = run([*command, "--spec", write_spec(tmp_path, THUE_MORSE),
                  f"{flag}={value}", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError" and flag in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["render", "patch"])
    @pytest.mark.parametrize("radius", ["30", "400", "1e6"])
    def test_oversized_patch_refused(self, tmp_path, capsys, command, radius):
        out = tmp_path / "p.out"
        t0 = time.perf_counter()
        rc = run([command, "--spec", write_spec(tmp_path, THUE_MORSE),
                  "--radius", radius, "--out", str(out)])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert "bound of 1000000 tiles" in err["message"]
        assert not out.exists()

    def test_non_integer_nmax(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        rc = run(["kgroups", "--spec", write_spec(tmp_path, THUE_MORSE),
                  "--nmax", "eight", "--out", str(out)])
        self.assert_error(rc, capsys, out)

    # each refused line with its message, worded as argparse words it
    @pytest.mark.parametrize("argv, message", [
        (["kgroups", "--spec", "tm.json", "--s", "3"],
         "unrecognized arguments: --s 3"),
        (["kgroups", "--spec", "tm.json", "--nmax"],
         "argument --nmax: expected one argument"),
        (["kgroups", "--spec", "tm.json", "--out", "--k.json"],
         "argument --out: expected one argument"),
        (["kgroups", "--spec", "tm.json", "--nmax", "--", "4"],
         "argument --nmax: expected one argument"),
        (["kgroups", "--spec", "tm.json", "--nmax", "4.0"],
         "argument --nmax: invalid int value: '4.0'"),
        (["render", "--spec", "tm.json", "--radius", "three"],
         "argument --radius: invalid float value: 'three'"),
        (["kgroups", "--spec", "tm.json", "--bogus", "1"],
         "unrecognized arguments: --bogus 1"),
        (["kgroups", "--spec", "tm.json", "patch"],
         "unrecognized arguments: patch"),
        (["--spec", "tm.json"],
         "the following arguments are required: command"),
        (["--nmax", "4"],
         "the following arguments are required: command, --spec"),
        (["kgroups", "--spec", "tm.json", "--help=x"],
         "unrecognized arguments: --help=x"),
        (["--spec", "tm.json", "kgroup"],
         "argument command: invalid choice: 'kgroup' (choose from "
         "'render', 'patch', 'kgroups', 'cech', 'gaplabels', 'measures', "
         "'hullcheck', 'cocycle')"),
    ], ids=["ambiguous-prefix", "trailing-flag", "dash-value", "dashes",
            "bad-int", "bad-float", "unknown-flag", "two-commands",
            "no-command", "no-command-no-spec", "help-value",
            "unknown-command"])
    def test_malformed_command_line(self, capsys, argv, message):
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "UsageError", "message": message}

    def test_negative_seed_reaches_range_check(self, tmp_path, capsys):
        rc = run(["hullcheck", "--spec", write_spec(tmp_path, THUE_MORSE),
                  "--samples", "100", "--seed", "-1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": "--seed must be >= 0"}

    def test_spaced_negative_infinity_reaches_range_check(self, tmp_path,
                                                          capsys):
        rc = run(["render", "--spec", write_spec(tmp_path, THUE_MORSE),
                  "--radius", "-inf"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError",
                       "message": "--radius must be finite"}

    # forms the grammar does not have: a prefix of a flag, "--" as an end
    # of options, a bundle of short flags (--s and --help=x are above)
    @pytest.mark.parametrize("argv, message", [
        (["kgroups", "--sp", "tm.json"],
         "the following arguments are required: --spec"),
        (["kgroups", "--spec", "tm.json", "--", "--nmax", "4"],
         "unrecognized arguments: --"),
        (["kgroups", "--spec", "tm.json", "--he"],
         "unrecognized arguments: --he"),
        (["kgroups", "--spec", "tm.json", "-hh"],
         "unrecognized arguments: -hh"),
    ], ids=["--sp", "--", "--he", "-hh"])
    def test_removed_forms_refused(self, capsys, argv, message):
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "UsageError", "message": message}


class TestOutFileMode:
    """--out files get the mode a plain open(path, "w") would leave."""

    @staticmethod
    def write_under(umask, out):
        spec = write_spec(out.parent, THUE_MORSE)
        old = os.umask(umask)
        try:
            assert run(["measures", "--spec", spec, "--nmax", "2",
                        "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert not list(out.parent.glob(".hyptile-tmp-*"))
        return os.stat(out).st_mode & 0o777

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_new_file_follows_the_umask(self, tmp_path, umask, mode):
        assert self.write_under(umask, tmp_path / "mu.csv") == mode

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "mu.csv"
        out.write_text("old")
        out.chmod(0o640)
        assert self.write_under(0o022, out) == 0o640
        assert out.read_text() != "old"

    def test_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # the kernel applies the umask; setting it, even to read it,
        # would change it for every thread of the process
        def refuse(mask):
            raise AssertionError("os.umask called")

        spec = write_spec(tmp_path, THUE_MORSE)
        out = tmp_path / "mu.csv"
        monkeypatch.setattr(os, "umask", refuse)
        assert run(["measures", "--spec", spec, "--nmax", "2",
                    "--out", str(out)]) == 0
        assert out.read_text().startswith("# hyptile")

    def test_taken_temporary_name_is_skipped(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, THUE_MORSE)
        taken = tmp_path / f".hyptile-tmp-{bytes(6).hex()}"
        taken.write_text("another writer's")
        draws = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda size: next(draws))
        out = tmp_path / "mu.csv"
        assert run(["measures", "--spec", spec, "--nmax", "2",
                    "--out", str(out)]) == 0
        assert next(draws, None) is None
        assert taken.read_text() == "another writer's"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted([taken.name, "mu.csv", Path(spec).name])


FLAG_VALUES = {"--spec": st.text(), "--out": st.text(),
               "--radius": st.floats(allow_nan=False), "--nmax": st.integers(),
               "--samples": st.integers(), "--seed": st.integers()}
REMOVED_FORMS = st.one_of(
    st.just("--"),
    st.text().map("--help=".__add__),
    st.text(min_size=1).map("-h".__add__),
    st.tuples(st.sampled_from([flag[:k] for flag in [*FLAG_VALUES, "--help"]
                               for k in range(3, len(flag))]),
              st.just("") | st.text().map("=".__add__)).map("".join))


@st.composite
def command_lines(draw):
    """(units, namespace): a command and flags, each flag an arg or two.

    The flags' order is the units' order, so a repeated flag's last unit
    gives its value in the namespace.
    """
    command = draw(st.sampled_from(cli.COMMANDS))
    flags = ["--spec", *draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)),
                                      max_size=8))]
    units = [[command]] + [[flag] for flag in flags]
    units = draw(st.permutations(units))
    read = {**TestCommandLine.READ, "command": command}
    for unit in units:
        if unit[0] == command:
            continue
        flag = unit.pop()
        value = draw(FLAG_VALUES[flag])
        text = value if isinstance(value, str) else repr(value)
        if text.startswith("--") or draw(st.booleans()):
            unit.append(f"{flag}={text}")
        else:
            unit += [flag, text]
        read[flag[2:]] = value
    return units, read


class TestCommandLine:
    READ = {"command": "kgroups", "spec": "tm.json", "radius": 3.0,
            "nmax": None, "samples": 100_000, "seed": None, "out": None}

    @pytest.mark.parametrize("argv, read", [
        (["kgroups", "--spec=tm.json", "--nmax=5"], {"nmax": 5}),
        (["kgroups", "--spec=--sp", "--out", "-o"],
         {"spec": "--sp", "out": "-o"}),
        (["--spec", "tm.json", "--nmax", "5", "kgroups"], {"nmax": 5}),
        (["kgroups", "--spec", "x.json", "--nmax", "4", "--spec", "tm.json",
          "--nmax", "5"], {"nmax": 5}),
        (["hullcheck", "--spec", "tm.json", "--seed", "-1", "--samples",
          "-20"], {"command": "hullcheck", "seed": -1, "samples": -20}),
        (["render", "--spec", "tm.json", "--radius", "-.5"],
         {"command": "render", "radius": -0.5}),
        (["render", "--spec", "tm.json", "--radius=-inf"],
         {"command": "render", "radius": -math.inf}),
        (["kgroups", "--spec", "-", "--out", "my file.json"],
         {"spec": "-", "out": "my file.json"}),
        (["--spec=--", "kgroups", "--out", "-"], {"spec": "--", "out": "-"}),
        (["kgroups", "--spec", "tm.json", "--nmax", " 1_0 "], {"nmax": 10}),
        (["kgroups", "--out", "-k.json", "--spec", "-h"],
         {"spec": "-h", "out": "-k.json"}),
    ], ids=["equals", "prefixes", "command-last", "repeated-flags",
            "negative-numbers", "negative-fraction", "equals-negative",
            "dash-and-space-values", "double-dash", "int-literal",
            "dash-values"])
    def test_accepted(self, argv, read):
        assert vars(cli.parse_args(argv)) == {**self.READ, **read}

    @settings(max_examples=300, deadline=None, database=None)
    @given(command_lines())
    def test_any_order_either_form(self, line):
        units, read = line
        assert vars(cli.parse_args(sum(units, []))) == read

    @settings(max_examples=300, deadline=None, database=None)
    @given(command_lines(), REMOVED_FORMS, st.data())
    def test_removed_form_raises(self, line, removed, data):
        units, _ = line
        units.insert(data.draw(st.integers(0, len(units))), [removed])
        with pytest.raises(cli.UsageError):
            cli.parse_args(sum(units, []))

    def test_nan_radius_passes_the_type(self):
        assert math.isnan(cli.parse_args(
            ["render", "--spec", "tm.json", "--radius", "nan"]).radius)

    @pytest.mark.parametrize("argv", [["--help"], ["kgroups", "-h"],
                                      ["--he", "--help"]])
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: hyptile")
        for flag in ("--spec", "--radius", "--nmax", "--samples", "--seed",
                     "--out"):
            assert f"\n  {flag} " in out, flag


ROOT = Path(__file__).resolve().parents[1]


def run_python(args, **environ):
    """A fresh interpreter with the package's src on its path.

    environ holds more variables for it, or None to remove one.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")
               + (os.pathsep + path if path else ""))
    for key, value in environ.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env)


def simd_tables():
    """numpy's dispatch targets and the CPU features it found."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


BUMP_ROWS = np.arange(20_000) / 20_000.0


def bump_and_cocycle(out):
    """bump3's bytes on BUMP_ROWS, and the cocycle report written to out."""
    bump = BumpProfile("bump3", 0.5, 0.45)(BUMP_ROWS).tobytes().hex()
    assert main(["cocycle", "--spec", write_spec(Path(out).parent, FIBONACCI),
                 "--samples", "20000", "--seed", "3", "--out", out]) == 0
    return bump, Path(out).read_text()


def hullcheck_report(out):
    """The TM hullcheck report at seed 7, written to out."""
    assert main(["hullcheck", "--spec", write_spec(Path(out).parent,
                                                   THUE_MORSE),
                 "--samples", "20000", "--seed", "7", "--out", out]) == 0
    return Path(out).read_text()


def group_elements(out):
    """hullcheck's eight group elements for seeds 0-199, as hex floats;
    out is not read."""
    return [[a.hex(), b.hex()] for seed in range(200)
            for a, b in cli._random_group_elements(seed, 8)]


ON_BASELINE = f"""
import json, sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import test_cli
features = test_cli.simd_tables()[1]
targets = json.loads(sys.argv[1])
print(json.dumps([[t for t in targets if features[t]],
                  getattr(test_cli, sys.argv[3])(sys.argv[2])]))
"""


def on_baseline(name, out):
    """name(out), run in a fresh interpreter on numpy's baseline kernels.

    numpy picks a kernel per CPU among its dispatch targets; the fresh
    interpreter has every target this CPU has disabled.
    """
    dispatch, features = simd_tables()
    targets = [t for t in dispatch if features.get(t)]
    if not targets:
        pytest.skip("this CPU runs numpy's baseline kernels only")
    proc = run_python(["-c", ON_BASELINE, json.dumps(targets), out, name],
                      NPY_DISABLE_CPU_FEATURES=" ".join(targets),
                      NPY_ENABLE_CPU_FEATURES=None)
    assert proc.returncode == 0, proc.stderr
    still_on, got = json.loads(proc.stdout)
    assert still_on == []
    return got


def test_hull_outputs_do_not_depend_on_the_simd_path(tmp_path):
    out = str(tmp_path / "cocycle.json")
    assert on_baseline("bump_and_cocycle", out) == list(bump_and_cocycle(out))


def test_group_elements_do_not_depend_on_the_simd_path(tmp_path):
    assert on_baseline("group_elements", str(tmp_path)) == \
        group_elements(str(tmp_path))


# Known defect: hullcheck reads np.exp2 in SampleBatch.act, whose last
# bits differ between numpy's kernels; at seed 7 the report's sha256 is
# 70a3f75d... on AVX-512 and 2fe186f9... on the baseline kernels.  The
# marker comes off when the report is the same on every CPU (ROADMAP
# item 16).
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="hullcheck depends on numpy's exp2 kernel "
                   "(ROADMAP item 16)")
def test_hullcheck_does_not_depend_on_the_simd_path(tmp_path):
    out = str(tmp_path / "hullcheck.json")
    assert on_baseline("hullcheck_report", out) == hullcheck_report(out)


def test_module_entry_point(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(PERIODIC_12))
    proc = run_python(["-m", "hyptile.cli", "gaplabels", "--spec", str(spec)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gap_labels"]["generators"] == ["1/2"]


def test_readme_quick_start():
    # The README's library example runs as printed and prints the
    # Thue-Morse two-word measures it shows, on the comment line after
    # its print.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line[2:] for line in block.splitlines()
             if line.startswith("# {")]
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == shown == \
        ["{'11': '1/6', '12': '1/3', '21': '1/3', '22': '1/6'}"]


TRIBONACCI = {"type": "substitution", "rules": {"1": "12", "2": "13", "3": "1"}}

NO_SYMPY = """
import json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from hyptile.cli import main
print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))
"""


NO_NUMPY = """
import json, sys
import hyptile.cli
print(json.dumps([m for m in ("dataclasses", "inspect", "numpy", "sympy")
                  if m in sys.modules]))
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
print(json.dumps([hyptile.cli.main(args) for args in json.loads(sys.argv[1])]))
print(json.dumps([m for m in ("argparse", "gettext", "locale")
                  if m in sys.modules]))
del sys.modules["numpy"]
import hyptile.hull
print("dataclasses" in sys.modules)
"""


NO_NUMPY_RANDOM = """
import json, sys
from hyptile.cli import main
print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))
print("numpy" in sys.modules, "numpy.random" in sys.modules)
"""


def test_sampler_commands_do_not_import_numpy_random(tmp_path):
    # the sampler and the group elements draw from hull's own integer
    # stream, so a sampling job never loads numpy's generators
    spec = write_spec(tmp_path, THUE_MORSE)
    jobs = [[command, "--spec", spec, "--samples", "3000", "--seed", "1",
             "--out", str(tmp_path / f"{command}.json")]
            for command in ("hullcheck", "cocycle")]
    proc = run_python(["-c", NO_NUMPY_RANDOM, json.dumps(jobs)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0]", "True False"]


def test_non_sampler_commands_run_without_numpy(tmp_path):
    # only hullcheck and cocycle draw samples, so only they import numpy;
    # the value types generate no code at import, so the cli loads
    # neither dataclasses nor the inspect module it imports; the cli's
    # own parser needs neither argparse nor the gettext and locale
    # modules that argparse loads on its first parse
    spec = write_spec(tmp_path, THUE_MORSE)
    jobs = [[command, "--spec", spec, *extra,
             "--out", str(tmp_path / f"{command}.out")]
            for command, extra in (("render", ["--radius", "2"]),
                                   ("patch", ["--radius", "2"]),
                                   ("kgroups", ["--nmax", "4"]),
                                   ("cech", ["--nmax", "4"]),
                                   ("gaplabels", ["--nmax", "3"]),
                                   ("measures", ["--nmax", "3"]))]
    proc = run_python(["-c", NO_NUMPY, json.dumps(jobs)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", json.dumps([0] * len(jobs)),
                                        "[]", "False"]


def test_commands_run_without_sympy(tmp_path):
    # Perron data for non-constant-length substitutions is computed
    # without sympy, which is only a test dependency.
    jobs = []
    for name, doc in (("fib", FIBONACCI), ("trib", TRIBONACCI)):
        spec = write_spec(tmp_path, doc, f"{name}.json")
        for command, extra in (("gaplabels", []),
                               ("measures", ["--nmax", "4"]),
                               ("hullcheck", ["--samples", "3000",
                                              "--seed", "1"]),
                               ("cocycle", ["--samples", "3000",
                                            "--seed", "2"])):
            out = tmp_path / f"{name}-{command}.json"
            jobs.append([command, "--spec", spec, *extra, "--out", str(out)])
    proc = run_python(["-c", NO_SYMPY, json.dumps(jobs)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(jobs), proc.stderr
